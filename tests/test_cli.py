"""Command line front end: config parsing, reports, exit codes."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conesphere.cli import main
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
    cfg = flagship_config()
    cfg["divisor"][0]["oops"] = 1
    assert main(["check", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 2
    cfg = flagship_config()
    cfg["divisor"][0]["position"] = {"lat": 0.0, "lon": 0.0, "oops": 1}
    assert main(["check", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 2
    # the two settings that were removed are unknown keys now
    for solver in ({"damping": 8}, {"continuation_steps": 1}):
        path = write_config(tmp_path, flagship_config(solver=solver))
        assert main(["check", "--config", path, "--out", str(tmp_path)]) == 2


def test_bad_position_exits_2(tmp_path):
    cfg = flagship_config()
    cfg["divisor"][0]["position"] = [3.0, 0.0, 0.0]
    path = write_config(tmp_path, cfg)
    assert main(["check", "--config", path, "--out", str(tmp_path)]) == 2


def test_non_finite_solver_setting_exits_2(tmp_path):
    # a NaN tolerance used to report convergence after 0 Newton iterations
    for key in ("newton_tol", "linear_tol"):
        path = write_config(tmp_path, flagship_config(solver={key: math.nan}))
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
COUNT = _tagged(POSITIVE_INTS, st.one_of(NOT_POSITIVE_FINITE, st.floats(min_value=0.5)))
SOLVER_VALUES = {
    f.name: COUNT if isinstance(f.default, int) else _tagged(
        st.one_of(st.floats(min_value=5e-324, allow_infinity=False), POSITIVE_INTS),
        NOT_POSITIVE_FINITE,
    )
    for f in dataclasses.fields(SolverConfig)
}
SOLVER_VALUES["newton_tol"] = _tagged(  # a tolerance below 1
    st.floats(min_value=5e-324, max_value=1.0, exclude_max=True),
    st.one_of(NOT_POSITIVE_FINITE, st.floats(min_value=1.0), POSITIVE_INTS),
)


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
                             "grading_radius": POSITIVE, "cutoff_radius": POSITIVE})
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


@pytest.mark.parametrize("grading", [0, 3])
def test_solve_reports_cone_rings(tmp_path, grading):
    # base 4: at grading 0 every cone's 1-ring reaches past the inner
    # harmonic zone, at grading 3 every 1-ring lies inside it
    cfg = flagship_config(mesh={"base_level": 4, "grading_levels": grading},
                          outputs={"fields": False})
    path = write_config(tmp_path, cfg)
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path, "solve.json")["report"]
    cones = rep["cones"]
    assert len(cones) == 3
    for cone in cones:
        assert 0.0 < cone["harmonic_radius"] < 0.05
        assert cone["ring_in_harmonic_zone"] == (cone["ring_radius"] < cone["harmonic_radius"])
        assert math.isfinite(cone["u"])
    assert len({cone["vertex"] for cone in cones}) == 3
    inside = [cone["ring_in_harmonic_zone"] for cone in cones]
    if grading == 0:
        assert inside == [False, False, False]
        [warning] = rep["warnings"]
        assert "[0, 1, 2]" in warning and "grading_levels" in warning
    else:
        assert inside == [True, True, True]
        assert "warnings" not in rep


def test_solve_huge_max_step_halvings(tmp_path):
    # the smallest step used to be dt / 2**max_step_halvings: OverflowError
    cfg = flagship_config(mesh={"base_level": 2}, solver={"max_step_halvings": 2000},
                          outputs={"fields": False})
    path = write_config(tmp_path, cfg)
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 0


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
