"""Command line front end: config parsing, reports, exit codes."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import conesphere.cli
from conesphere.cli import Job, main
from conesphere.mesh import build_mesh, write_csv
from conesphere.divisor import WeightSpec, flagship_divisor, weight_admissible
from conesphere.solver import SolverConfig


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


def strict_json(path):
    """The JSON document at path, read as RFC 8259 parsers read it: a bare NaN,
    Infinity or -Infinity raises."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(Path(path).read_text(), parse_constant=reject)


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


def test_check_weight_without_an_indicial_value_is_strict_json(tmp_path):
    # gamma * |beta| >= 3e6 leaves no m/beta with |m| <= 10^6 in reach: its
    # distance was written as a bare Infinity
    path = write_config(tmp_path, flagship_config(weights={"gamma": [1e7, 0.5, 0.5]}))
    assert main(["check", "--config", path, "--out", str(tmp_path)]) == 0
    weights = strict_json(tmp_path / "check.json")["report"]["weights"]
    assert weights["nearest_forbidden"][0] == [None, None]
    assert weights["passed"] is True


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
    cfg = flagship_config()
    cfg["divisor"][0]["oops"] = 1
    assert main(["check", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 2
    cfg = flagship_config()
    cfg["divisor"][0]["position"] = {"lat": 0.0, "lon": 0.0, "oops": 1}
    assert main(["check", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 2
    # the settings that were removed are unknown keys now
    for solver in ({"damping": 8}, {"continuation_steps": 1}, {"max_newton_iters": 25},
                   {"max_step_halvings": 10}, {"linear_tol": 1e-12}):
        path = write_config(tmp_path, flagship_config(solver=solver))
        assert main(["check", "--config", path, "--out", str(tmp_path)]) == 2
    path = write_config(tmp_path, flagship_config(mesh={"base_level": 4, "cutoff_radius": 1.2}))
    assert main(["check", "--config", path, "--out", str(tmp_path)]) == 2


def test_bad_position_exits_2(tmp_path):
    cfg = flagship_config()
    cfg["divisor"][0]["position"] = [3.0, 0.0, 0.0]
    path = write_config(tmp_path, cfg)
    assert main(["check", "--config", path, "--out", str(tmp_path)]) == 2


def test_non_finite_solver_setting_exits_2(tmp_path):
    # a NaN tolerance used to report convergence after 0 Newton iterations
    path = write_config(tmp_path, flagship_config(solver={"newton_tol": math.nan}))
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 2


BAD_SETTINGS = {
    "divisor lat": lambda cfg: cfg["divisor"][0].update(position={"lat": math.nan, "lon": 0.0}),
    "mesh radius": lambda cfg: cfg["mesh"].update(grading_radius=math.nan),
    "mesh level": lambda cfg: cfg["mesh"].update(base_level=-1),
    "constant target": lambda cfg: cfg.update(target={"type": "constant", "value": math.nan}),
    "expression target": lambda cfg: cfg["target"].update(b=math.nan),
    "weights": lambda cfg: cfg.update(weights={"gamma": [math.nan, 0.5, 0.5]}),
    # bool("no") is True: this used to write all four field dumps
    "outputs": lambda cfg: cfg.update(outputs={"fields": "no"}),
    # this used to pass check, and solve then read a file named "5"
    "grid path": lambda cfg: cfg.update(target={"type": "grid", "path": 5}),
    "position length": lambda cfg: cfg["divisor"][0].update(position=[1.0, 0.0]),
    "zero position": lambda cfg: cfg["divisor"][0].update(position=[0.0, 0.0, 0.0]),
    "empty divisor": lambda cfg: cfg.update(divisor=[]),
    "section not an object": lambda cfg: cfg.update(mesh=[]),
    "missing key": lambda cfg: cfg["divisor"][0].pop("beta"),
}


@pytest.mark.parametrize("name", sorted(BAD_SETTINGS))
def test_nan_or_out_of_range_setting_exits_2(tmp_path, name):
    # json.load accepts a bare NaN; each of these used to pass check or end
    # in a traceback
    cfg = flagship_config()
    BAD_SETTINGS[name](cfg)
    assert main(["check", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 2


def _tagged(valid, invalid):
    """Values paired with whether their section accepts them."""
    return st.one_of(valid.map(lambda v: (v, True)), invalid.map(lambda v: (v, False)))


NOT_POSITIVE_FINITE = st.one_of(
    st.integers(max_value=0),
    st.integers(min_value=10**309),  # too large for a float
    st.floats(max_value=0.0),
    st.sampled_from([math.nan, math.inf]),
    st.text(max_size=4),
)
POSITIVE_INTS = st.integers(min_value=1, max_value=2**64)
SOLVER_VALUES = {  # each setting is a tolerance below 1
    f.name: _tagged(
        st.floats(min_value=5e-324, max_value=1.0, exclude_max=True),
        st.one_of(NOT_POSITIVE_FINITE, st.floats(min_value=1.0), POSITIVE_INTS),
    )
    for f in dataclasses.fields(SolverConfig)
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(section=st.fixed_dictionaries({}, optional=SOLVER_VALUES))
def test_check_fuzzed_solver_section(tmp_path_factory, section):
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg = flagship_config(solver={key: value for key, (value, _) in section.items()})
    valid = all(ok for _, ok in section.values())
    assert main(["check", "--config", write_config(tmp, cfg), "--out", str(tmp)]) == (0 if valid else 2)


NON_NUMBERS = st.one_of(st.text(max_size=4), st.booleans(), st.none(), st.just([1.0]))
NON_STRINGS = st.one_of(st.integers(), st.floats(), st.booleans(), st.none(), st.just(["a"]))
NON_BOOLEANS = st.one_of(st.integers(), st.floats(), st.text(max_size=4), st.none())
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.integers(min_value=-2**64, max_value=2**64))
NOT_FINITE_NUMBER = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(min_value=10**309), NON_NUMBERS)
NUMBER = _tagged(FINITE, NOT_FINITE_NUMBER)
POSITIVE = _tagged(st.one_of(st.floats(min_value=5e-324, allow_infinity=False), POSITIVE_INTS),
                   NOT_POSITIVE_FINITE)
LEVEL = _tagged(st.integers(min_value=0, max_value=2**64),
                st.one_of(st.integers(max_value=-1), st.floats(), NON_NUMBERS))


def _section(required, optional=()):
    """An object drawn key by key from tagged values, paired with whether
    every value is valid; an unknown key makes it invalid."""
    return st.fixed_dictionaries(
        required, optional={**dict(optional), "oops": st.just((1, False))}
    ).map(lambda d: ({k: v for k, (v, _) in d.items()}, all(ok for _, ok in d.values())))


def _kind(name):
    return st.just((name, True))


MESH_SECTION = _section({}, {"base_level": LEVEL, "grading_levels": LEVEL,
                             "grading_radius": POSITIVE})
TARGET_SECTION = st.one_of(
    _section({"type": _kind("constant"), "value": POSITIVE}),
    _section({"type": _kind("expression")}, {key: NUMBER for key in "abcd"}),
    _section({"type": _kind("manufactured")}, {"north": NUMBER, "south": NUMBER}),
    _section({"type": _kind("grid"), "path": _tagged(st.text(max_size=8), NON_STRINGS)}),
    _section({"type": _tagged(st.nothing(), st.sampled_from(["torus", 1, None, ["grid"]]))}),
)
GAMMA = _tagged(
    # admissible weights need all three positive, so draw from (0, 1) too
    st.lists(st.one_of(st.floats(min_value=0.01, max_value=0.99), FINITE), min_size=3, max_size=3),
    st.one_of(
        st.lists(FINITE, max_size=5).filter(lambda g: len(g) != 3),  # one per cone point
        st.tuples(FINITE, FINITE, NOT_FINITE_NUMBER).map(list),
        NON_NUMBERS,
    ),
)
WEIGHTS_SECTION = _section({"gamma": GAMMA}, {
    "alpha": _tagged(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
                     st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0), NON_NUMBERS)),
    "k": LEVEL,
})
OUTPUTS_SECTION = _section({}, {key: _tagged(st.booleans(), NON_BOOLEANS)
                                for key in ("fields", "mesh_off")})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mesh=MESH_SECTION, target=TARGET_SECTION, weights=WEIGHTS_SECTION,
       outputs=OUTPUTS_SECTION)
def test_check_fuzzed_mesh_target_weights(tmp_path_factory, mesh, target, weights, outputs):
    # check builds no mesh, so huge levels allocate nothing
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg = flagship_config(mesh=mesh[0], target=target[0], weights=weights[0], outputs=outputs[0])
    code = main(["check", "--config", write_config(tmp, cfg), "--out", str(tmp)])
    if not (mesh[1] and target[1] and weights[1] and outputs[1]):
        assert code == 2
    else:
        spec = WeightSpec(gamma=weights[0]["gamma"])
        assert code == (0 if weight_admissible(spec, flagship_divisor()) else 1)


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


REPORT_RUNS = {
    "check": (["check"], "check.json"),
    "solve": (["solve"], "solve.json"),
    "spectrum": (["spectrum", "--count", "3"], "spectrum.json"),
    "symmetries": (["symmetries"], "symmetries.json"),
    "gauss-bonnet": (["gauss-bonnet"], "gauss_bonnet.json"),
    "football": (["example", "--name", "football", "--k", "2"], "example.json"),
    "triangle": (["example", "--name", "triangle", "--angles", "2.0", "2.0", "2.0"],
                 "example.json"),
}


@pytest.mark.parametrize("run", list(REPORT_RUNS))
def test_solve_reports_are_deterministic(tmp_path, run):
    # every report is strict JSON {"report", "timestamp"}, two runs differ in
    # the timestamp only, and a config command's report carries the resolved job
    argv, name = REPORT_RUNS[run]
    path = write_config(tmp_path, flagship_config())
    if argv[0] != "example":
        argv = [*argv, "--config", path]
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    assert main([*argv, "--out", str(a_dir)]) == 0
    assert main([*argv, "--out", str(b_dir)]) == 0
    a = strict_json(a_dir / name)
    b = strict_json(b_dir / name)
    assert a["report"] == b["report"]
    assert set(a) == {"report", "timestamp"}
    if argv[0] == "example":
        assert "config" not in a["report"]
    else:
        assert a["report"]["config"] == Job(path).resolved()
    if run == "solve":
        assert (a_dir / "u.csv").read_text() == (b_dir / "u.csv").read_text()


@pytest.mark.parametrize("grading", [0, 3])
def test_solve_reports_cone_rings(tmp_path, grading):
    # the cone row's data term is exact for background-type targets on any
    # mesh, so no grading draws a warning
    cfg = flagship_config(mesh={"base_level": 4, "grading_levels": grading},
                          outputs={"fields": False})
    path = write_config(tmp_path, cfg)
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path, "solve.json")["report"]
    cones = rep["cones"]
    assert [sorted(cone) for cone in cones] == [["ring_radius", "u", "vertex"]] * 3
    # base 4 gives 1-rings 0.07 to 0.10 wide; each grading level halves them
    for cone in cones:
        assert 0.06 < cone["ring_radius"] * 2**grading < 0.12
        assert math.isfinite(cone["u"])
    assert len({cone["vertex"] for cone in cones}) == 3
    assert "warnings" not in rep


@pytest.mark.parametrize("a, b", [
    (1.0, 2.0),  # negative where x < -1/2
    (1.5e308, 0.4e308),  # overflows to +inf where x > 0.74
], ids=["negative", "overflow"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solve_negative_expression_exits_1(tmp_path, a, b):
    cfg = flagship_config(target={"type": "expression", "a": a, "b": b})
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


def test_solve_reports_chord_steps(tmp_path, capsys):
    cfg = flagship_config(target={"type": "manufactured", "north": 1.0, "south": 0.5},
                          outputs={"fields": False})
    path = write_config(tmp_path, cfg)
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path, "solve.json")["report"]["solver"]
    assert rep["chord_steps"] >= 1
    assert rep["base_point"] == "background"  # a manufactured target is of background type
    printed = capsys.readouterr().out.splitlines()
    assert f"newton_iterations_total: {rep['newton_iterations_total']}" in printed
    assert f"chord_steps: {rep['chord_steps']}" in printed
    assert "base_point: background" in printed


def test_solve_prints_linear_residual_and_refinement_steps(tmp_path, capsys):
    path = write_config(tmp_path, flagship_config(outputs={"fields": False}))
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path, "solve.json")["report"]["solver"]
    assert 0.0 < rep["linear_residual"] <= 1e-9 and rep["refinement_steps"] > 0
    assert rep["base_point"] == "constant_curvature"
    printed = capsys.readouterr().out.splitlines()
    assert f"linear_residual: {rep['linear_residual']}" in printed
    assert f"refinement_steps: {rep['refinement_steps']}" in printed
    assert "base_point: constant_curvature" in printed


def test_importing_the_cli_leaves_scipy_special_unloaded():
    # scipy.special costs 25-65 ms to import, and nothing in the package needs
    # it: not the import, and not the exact start of a three-cone solve
    src = Path(conesphere.cli.__file__).resolve().parents[1]
    code = """if True:
        import sys, numpy as np, conesphere.cli
        from conesphere.background import build_background
        from conesphere.divisor import flagship_divisor
        from conesphere.mesh import build_mesh
        from conesphere.solver import continuation_solve
        loaded = 'scipy.special' in sys.modules
        div = flagship_divisor()
        bg = build_background(div, build_mesh(3, div, grading=1))
        u, rep = continuation_solve(bg, np.ones(bg.n_vertices))
        assert rep.converged and rep.base_point == 'constant_curvature'
        sys.exit(loaded or 'scipy.special' in sys.modules)"""
    env = {**os.environ, "PYTHONPATH": str(src)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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


@pytest.mark.parametrize("edits", [{7: "0.5"}, {5: "nan", 7: "0.5"}], ids=["wrong-node", "nan-and-wrong-node"])
def test_solve_grid_bad_coordinates_exit_2(tmp_path, edits):
    # a NaN deviation used to pass the node check and hide the wrong node
    mesh = build_mesh(4, flagship_divisor(), grading=2)
    grid = tmp_path / "target.csv"
    write_csv(grid, mesh, np.ones(mesh.n_vertices))
    lines = grid.read_text().splitlines()
    for row, x in edits.items():
        lines[row] = ",".join([x] + lines[row].split(",")[1:])
    grid.write_text("\n".join(lines) + "\n")
    path = write_config(tmp_path, flagship_config(target={"type": "grid", "path": str(grid)}))
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("count", ["0", "-2"])
def test_spectrum_count_below_one_exits_2(tmp_path, monkeypatch, count):
    def no_mesh(*args, **kwargs):
        raise AssertionError("the count is checked before any mesh is built")

    monkeypatch.setattr("conesphere.cli.build_mesh", no_mesh)
    path = write_config(tmp_path, flagship_config())
    assert main(["spectrum", "--config", path, "--out", str(tmp_path), "--count", count]) == 2


@pytest.mark.parametrize("count", ["41", "100"])
def test_spectrum_count_at_node_count_exits_2(tmp_path, monkeypatch, capsys, count):
    # a base-1 flagship mesh has 42 nodes: the count is checked once it is built
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("the count is checked before the eigensolver runs")

    monkeypatch.setattr("conesphere.cli.spectrum", no_eigensolve)
    path = write_config(tmp_path, flagship_config(mesh={"base_level": 1, "grading_levels": 0}))
    assert main(["spectrum", "--config", path, "--out", str(tmp_path), "--count", count]) == 2
    assert "--count must be below 41 (the mesh has 42 nodes)" in capsys.readouterr().err


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


def test_symmetries_report_coefficients(tmp_path):
    # each entry is the SL(2, C) matrix (a, b, c, d) of z -> (az + b)/(cz + d),
    # z/w = (x + iy)/(1 - x3) the stereographic projection from the north pole
    lons = (0.0, 120.0, 240.0)
    equal = {"divisor": [{"position": {"lat": 0.0, "lon": lon}, "beta": -0.5} for lon in lons]}
    path = write_config(tmp_path, equal)
    assert main(["symmetries", "--config", path, "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path, "symmetries.json")["report"]
    assert rep["group_order"] == 6
    positions = np.array([[math.cos(math.radians(lon)), math.sin(math.radians(lon)), 0.0] for lon in lons])
    z = (positions[:, 0] + 1j * positions[:, 1]) / (1.0 - positions[:, 2])
    for entry in rep["maps"]:
        assert set(entry) == {"coefficients"}
        a, b, c, d = (complex(re, im) for re, im in entry["coefficients"])
        zeta = (a * z + b) / (c * z + d)
        s = abs(zeta) ** 2
        images = np.column_stack([2.0 * zeta.real, 2.0 * zeta.imag, s - 1.0]) / (s + 1.0)[:, None]
        dist = np.linalg.norm(images[:, None] - positions, axis=2)
        assert np.all(dist.min(axis=1) < 1e-9)
        assert sorted(dist.argmin(axis=1).tolist()) == [0, 1, 2]


def test_symmetries_near_coincident_points_exit_1(tmp_path, capsys):
    near = {
        "divisor": [
            {"position": [math.cos(a), math.sin(a), 0.0], "beta": -0.3}
            for a in (0.0, 2.0, 4.0, 4.0 + 5e-10)
        ]
    }
    path = write_config(tmp_path, near)
    assert main(["symmetries", "--config", path, "--out", str(tmp_path)]) == 1
    assert "DomainError: marked points 2 and 3 lie within tol" in capsys.readouterr().err
    assert not (tmp_path / "symmetries.json").exists()


def test_gauss_bonnet_command(tmp_path):
    path = write_config(tmp_path, flagship_config())
    assert main(["gauss-bonnet", "--config", path, "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path, "gauss_bonnet.json")["report"]
    assert rep["gauss_bonnet"]["target"] == pytest.approx(1.6 * math.pi)
    assert rep["gauss_bonnet"]["residual"] < 0.01


def test_gauss_bonnet_without_a_background_exits_1(tmp_path, capsys):
    # four cones at beta = -0.6 on a regular tetrahedron: chi = -0.4
    corners = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
    cfg = flagship_config(mesh={"base_level": 2}, divisor=[
        {"position": [c / math.sqrt(3.0) for c in corner], "beta": -0.6} for corner in corners])
    path = write_config(tmp_path, cfg)
    assert main(["gauss-bonnet", "--config", path, "--out", str(tmp_path)]) == 1
    assert "BackgroundError: Euler characteristic" in capsys.readouterr().err


def test_example_triangle(tmp_path):
    args = ["example", "--name", "triangle", "--angles", "2.0", "2.0", "2.0",
            "--out", str(tmp_path)]
    assert main(args) == 0
    rep = read_report(tmp_path, "example.json")["report"]
    assert rep["symmetry_group_order"] == 6
    assert rep["euler_characteristic"] > 0.0
    # its vertices are too close for disjoint balls around each, which the
    # background once needed
    assert "gauss_bonnet_unavailable" not in rep
    assert rep["gauss_bonnet"]["residual"] < 1e-4
    # an angle sum just above pi puts the vertices too close for the mesh
    assert main(["example", "--name", "triangle", "--angles", "1.0472", "1.0472", "1.047201",
                 "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path, "example.json")["report"]
    assert rep["gauss_bonnet"] is None
    assert rep["gauss_bonnet_unavailable"].startswith("MeshError")
    # a non-finite angle exits 2, as a NaN or inf anywhere in a job does
    for bad in ("nan", "inf"):
        args[4] = bad
        assert main(args) == 2


@pytest.mark.parametrize("args", [
    ["--name", "triangle", "--angles", "4", "4", "4"],
    ["--name", "triangle", "--angles", "0.5", "0.5", "0.5"],
    ["--name", "triangle", "--angles", "nan", "1", "1"],
    ["--name", "triangle", "--angles", "3.0", "3.0", "0.1"],
    ["--name", "football", "--k", "1"],
    ["--name", "football", "--k", "4"],
    ["--name", "football", "--k", "40"],
], ids=["angles-above-pi", "angle-sum-below-pi", "nan-angle", "degenerate-side", "k-1", "k-4",
        "k-40"])
def test_example_out_of_range_arguments_exit_2(tmp_path, capsys, args):
    # the library's validators judge the example's arguments, as they judge a
    # job's, and what they reject is bad input
    assert main(["example", *args, "--out", str(tmp_path)]) == 2
    assert "configuration error: invalid" in capsys.readouterr().err
    assert not (tmp_path / "example.json").exists()


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


def test_readme_job_solves_at_the_default_tolerance(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    path = write_config(tmp_path, json.loads(block))
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 0
    solver = read_report(tmp_path, "solve.json")["report"]["solver"]
    assert solver["converged"] is True
    assert solver["newton_iterations_total"] <= 6
    assert f"final_residual_pointwise: {solver['final_residual_pointwise']}" in capsys.readouterr().out


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_unusable_out_exits_2(tmp_path, monkeypatch, under):
    # a regular file as --out, or a path under one, used to end in a
    # traceback, and solve only failed after the whole solve had run
    monkeypatch.setattr(conesphere.cli, "continuation_solve", None)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "out" if under else blocker)
    path = write_config(tmp_path, flagship_config(outputs={"fields": True}))
    assert main(["check", "--config", path, "--out", out]) == 2
    assert main(["solve", "--config", path, "--out", out]) == 2
    assert main(["example", "--name", "football", "--out", out]) == 2
    assert blocker.read_text() == ""


@pytest.mark.parametrize("command, blocked", [("symmetries", "symmetries.json"),
                                              ("solve", "u.csv"), ("solve", "mesh.off")])
def test_unwritable_output_exits_2(tmp_path, capsys, command, blocked):
    # a directory where the report, a field dump or the mesh goes ended in
    # an IsADirectoryError traceback
    (tmp_path / blocked).mkdir()
    path = write_config(tmp_path, flagship_config(outputs={"fields": True, "mesh_off": True}))
    assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
    assert "cannot write output:" in capsys.readouterr().err


def test_example_unknown_name(tmp_path):
    assert main(["example", "--name", "torus", "--out", str(tmp_path)]) == 2
