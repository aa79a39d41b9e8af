"""Command line front end: config parsing, reports, exit codes."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from conesphere.cli import main
from conesphere.mesh import build_mesh, write_csv
from conesphere.divisor import flagship_divisor


def flagship_config(**overrides):
    g01, g12 = 1.9547, 2.2384
    az = [0.0, g01, g01 + g12]
    cfg = {
        "divisor": [
            {"position": [math.cos(a), math.sin(a), 0.0], "beta": b}
            for a, b in zip(az, (-0.3, -0.4, -0.5))
        ],
        "mesh": {"base_level": 4, "grading_levels": 2},
        "target": {"type": "expression", "a": 1.0, "b": 0.2},
        "solver": {"newton_tol": 1e-9},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_report(tmp_path, name):
    return json.loads((tmp_path / name).read_text())


def test_check_passes(tmp_path):
    cfg = write_config(tmp_path, flagship_config())
    assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path, "check.json")["report"]
    assert rep["passed"] is True
    assert rep["euler_characteristic"] == pytest.approx(0.8)
    assert rep["config"]["solver"]["newton_tol"] == 1e-9


def test_check_fails_troyanov(tmp_path):
    cfg = flagship_config()
    for entry, b in zip(cfg["divisor"], (-0.9, -0.1, -0.2)):
        entry["beta"] = b
    path = write_config(tmp_path, cfg)
    assert main(["check", "--config", path, "--out", str(tmp_path)]) == 1
    rep = read_report(tmp_path, "check.json")["report"]
    assert rep["passed"] is False


def test_check_weights_reported(tmp_path):
    cfg = flagship_config(weights={"gamma": [0.5, 0.5, 0.5], "alpha": 0.5, "k": 0})
    path = write_config(tmp_path, cfg)
    assert main(["check", "--config", path, "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path, "check.json")["report"]
    assert rep["weights"]["passed"] is True


def test_malformed_config_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"divisor": [')
    assert main(["check", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_missing_config_exits_2(tmp_path):
    assert main(["check", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


def test_unknown_keys_exit_2(tmp_path):
    path = write_config(tmp_path, flagship_config(extra={"x": 1}))
    assert main(["check", "--config", path, "--out", str(tmp_path)]) == 2
    path = write_config(tmp_path, flagship_config(mesh={"base_level": 4, "oops": 1}))
    assert main(["check", "--config", path, "--out", str(tmp_path)]) == 2


def test_bad_position_exits_2(tmp_path):
    cfg = flagship_config()
    cfg["divisor"][0]["position"] = [3.0, 0.0, 0.0]
    path = write_config(tmp_path, cfg)
    assert main(["check", "--config", path, "--out", str(tmp_path)]) == 2


def test_lat_lon_positions(tmp_path):
    cfg = flagship_config()
    cfg["divisor"][0]["position"] = {"lat": 0.0, "lon": 0.0}
    path = write_config(tmp_path, cfg)
    assert main(["check", "--config", path, "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path, "check.json")["report"]
    assert rep["config"]["divisor"][0]["position"] == pytest.approx([1.0, 0.0, 0.0])


def test_solve_writes_fields_and_report(tmp_path):
    cfg = flagship_config(outputs={"fields": True, "mesh_off": True})
    path = write_config(tmp_path, cfg)
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path, "solve.json")
    assert "timestamp" in rep
    body = rep["report"]
    assert body["solver"]["converged"] is True
    assert body["solver"]["final_residual_sup"] <= 1e-9
    assert body["solver"]["gauss_bonnet_residual"] < 0.01
    for name in ("u.csv", "k_achieved.csv", "rho.csv", "k_beta.csv", "mesh.off"):
        assert (tmp_path / name).exists(), name
    header = (tmp_path / "u.csv").read_text().splitlines()[0]
    assert header == "x,y,z,value"


def test_solve_reports_are_deterministic(tmp_path):
    path = write_config(tmp_path, flagship_config())
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    assert main(["solve", "--config", path, "--out", str(a_dir)]) == 0
    assert main(["solve", "--config", path, "--out", str(b_dir)]) == 0
    a = json.loads((a_dir / "solve.json").read_text())
    b = json.loads((b_dir / "solve.json").read_text())
    assert a["report"] == b["report"]
    assert (a_dir / "u.csv").read_text() == (b_dir / "u.csv").read_text()


def test_solve_negative_expression_exits_1(tmp_path):
    cfg = flagship_config(target={"type": "expression", "a": 1.0, "b": 2.0})
    path = write_config(tmp_path, cfg)
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 1
    rep = read_report(tmp_path, "solve.json")["report"]
    assert rep["error"]["type"] == "NonPositiveTarget"


def test_solve_manufactured_target(tmp_path):
    cfg = flagship_config(target={"type": "manufactured", "north": 1.0, "south": 0.5})
    path = write_config(tmp_path, cfg)
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path, "solve.json")["report"]
    assert rep["manufactured_error"] < 1e-8


def test_solve_grid_target(tmp_path):
    # round-trip: the mesh in the config is deterministic, so a grid written
    # against it is accepted and solved
    div = flagship_divisor()
    mesh = build_mesh(4, div, grading=2)
    grid = tmp_path / "target.csv"
    write_csv(grid, mesh, 1.0 + 0.1 * mesh.vertices[:, 1])
    cfg = flagship_config(target={"type": "grid", "path": str(grid)})
    path = write_config(tmp_path, cfg)
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 0


def test_solve_grid_mismatch_exits_2(tmp_path):
    grid = tmp_path / "target.csv"
    write_csv(grid, build_mesh(2), np.ones(build_mesh(2).n_vertices))
    cfg = flagship_config(target={"type": "grid", "path": str(grid)})
    path = write_config(tmp_path, cfg)
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 2


def test_spectrum_command(tmp_path):
    path = write_config(tmp_path, flagship_config())
    assert main(["spectrum", "--config", path, "--out", str(tmp_path), "--count", "3"]) == 0
    rep = read_report(tmp_path, "spectrum.json")["report"]
    assert len(rep["eigenvalues"]) == 3
    assert rep["eigenvalues"][0] == pytest.approx(0.0, abs=1e-8)


def test_symmetries_command(tmp_path):
    path = write_config(tmp_path, flagship_config())
    assert main(["symmetries", "--config", path, "--out", str(tmp_path)]) == 0
    assert read_report(tmp_path, "symmetries.json")["report"]["group_order"] == 1

    equal = {
        "divisor": [
            {"position": {"lat": 0.0, "lon": float(lon)}, "beta": -0.5}
            for lon in (0, 120, 240)
        ]
    }
    path = write_config(tmp_path, equal, "equal.json")
    assert main(["symmetries", "--config", path, "--out", str(tmp_path)]) == 0
    assert read_report(tmp_path, "symmetries.json")["report"]["group_order"] == 6


def test_gauss_bonnet_command(tmp_path):
    path = write_config(tmp_path, flagship_config())
    assert main(["gauss-bonnet", "--config", path, "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path, "gauss_bonnet.json")["report"]
    assert rep["gauss_bonnet"]["target"] == pytest.approx(1.6 * math.pi)
    assert rep["gauss_bonnet"]["residual"] < 0.01


def test_example_triangle(tmp_path):
    args = ["example", "--name", "triangle", "--angles", "2.0", "2.0", "2.0",
            "--out", str(tmp_path)]
    assert main(args) == 0
    rep = read_report(tmp_path, "example.json")["report"]
    assert rep["symmetry_group_order"] == 6
    assert rep["euler_characteristic"] > 0.0


def test_example_football(tmp_path):
    assert main(["example", "--name", "football", "--k", "3", "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path, "example.json")["report"]
    assert rep["area"]["relative_error"] <= 0.03
    assert 2.0 <= rep["eigenvalues"][1] <= 2.2  # exact value 2
    assert math.isfinite(rep["curvature_rms_deviation"])


def test_readme_job_config_checks(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    path = write_config(tmp_path, json.loads(block))
    assert main(["check", "--config", path, "--out", str(tmp_path)]) == 0


def test_example_unknown_name(tmp_path):
    assert main(["example", "--name", "torus", "--out", str(tmp_path)]) == 2
