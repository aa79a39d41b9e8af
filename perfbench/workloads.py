"""Workload definitions: the job list of each workload, generated from a seed,
and the check applied to each job's output.

A workload is a fixed list of jobs that one client runs in order, each job
waiting for the previous one (a closed loop with one client).  Every job but
one goes through ``conesphere.cli.main(argv)``, the console-script entry
point.  The kernel gap has no CLI command and is called through the library.

The seed only picks a rotation of the sphere, applied to every point of the
job (cone positions and the direction of the linear target).  The program
sees nothing but the generated job files.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os

import numpy as np

WORKLOADS = ("solve-graded", "solve-uniform", "diagnose")

# Exponents and azimuths of conesphere.divisor.flagship_divisor(): the three
# cones sit on the equator with gaps chosen so that the curvature-absorbing
# balls around them are disjoint.  (The JSON example in the package README
# lists [-0.5, -0.866, 0] as the third position, which the CLI rejects as
# not a unit vector, so it cannot be used as written.)
FLAGSHIP_BETAS = (-0.3, -0.4, -0.5)
_G01, _G12 = 1.9547, 2.2384
FLAGSHIP_AZIMUTHS = (0.0, _G01, _G01 + _G12)

ICOSAHEDRAL_BETA = -0.3
ICOSAHEDRAL_ORDER = 60

# Output bounds, fixed from the values the seed commit gives over seeds 0-9
# (README.md lists the observed ranges).  A job whose output leaves them
# counts as failed.
GRADED_GB_MAX = 5e-4            # solve-graded: observed 1.6e-5 .. 8.5e-5
UNIFORM_GB_MAX = 1e-3           # solve-uniform: observed 1.4e-4 .. 2.3e-4
MANUFACTURED_ERROR_MAX = 2e-6   # solve-uniform: observed 1.3e-8 .. 4.9e-7
BACKGROUND_GB_MAX = 5e-4        # diagnose, at u = 0: observed 5.6e-6 .. 1.3e-4
SPECTRUM_ZERO_TOL = 1e-8        # |lambda_0|: observed about 1e-15
FOOTBALL_AREA_ERROR_MAX = 0.03  # example football k=3 reports 0.0249
FOOTBALL_LAMBDA1 = (2.0, 2.2)   # exact value 2; k=3 reports 2.1494


def rotation(workload: str, seed: int) -> np.ndarray:
    """The seed's rotation: uniform on SO(3), or about the polar axis only for
    solve-uniform, whose manufactured target needs cone-free polar caps."""
    rng = np.random.default_rng(seed)
    if workload == "solve-uniform":
        a = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(a), math.sin(a)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    q = rng.standard_normal(4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _unit(v):
    v = np.asarray(v, dtype=float)
    return [float(c) for c in v / np.linalg.norm(v)]


def flagship_positions(rot):
    return [_unit(rot @ [math.cos(a), math.sin(a), 0.0]) for a in FLAGSHIP_AZIMUTHS]


def icosahedron_positions(rot):
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = []
    for s1 in (-1.0, 1.0):
        for s2 in (-1.0, 1.0):
            verts += [(0.0, s1, s2 * phi), (s1, s2 * phi, 0.0), (s2 * phi, 0.0, s1)]
    return [_unit(rot @ v) for v in verts]


def _divisor_entries(positions, betas):
    return [{"position": p, "beta": b} for p, b in zip(positions, betas)]


def _linear_target(rot):
    """K = 1 + 0.3 n.x with n the rotated x axis."""
    n = rot @ [1.0, 0.0, 0.0]
    return {"type": "expression", "a": 1.0,
            "b": 0.3 * float(n[0]), "c": 0.3 * float(n[1]), "d": 0.3 * float(n[2])}


def _flagship(rot, **extra):
    cfg = {"divisor": _divisor_entries(flagship_positions(rot), FLAGSHIP_BETAS)}
    cfg.update(extra)
    return cfg


def job_configs(workload: str, seed: int) -> dict:
    """Name -> JSON job configuration for every config file of the workload."""
    rot = rotation(workload, seed)
    if workload == "solve-graded":
        return {"solve": _flagship(
            rot,
            mesh={"base_level": 5, "grading_levels": 5, "grading_radius": 0.3},
            target=_linear_target(rot),
            # the README's documented tolerance; the CLI default of 1e-10
            # stalls on this job (README.md, known defects)
            solver={"newton_tol": 1e-8},
            outputs={"fields": True, "mesh_off": False},
        )}
    if workload == "solve-uniform":
        return {"solve": _flagship(
            rot,
            mesh={"base_level": 6, "grading_levels": 0},
            target={"type": "manufactured", "north": 1.0, "south": 0.5},
            outputs={"fields": True, "mesh_off": False},
        )}
    if workload == "diagnose":
        return {
            "flagship": _flagship(
                rot,
                mesh={"base_level": 5, "grading_levels": 5, "grading_radius": 0.3},
                weights={"gamma": [0.5, 0.5, 0.5], "alpha": 0.5, "k": 0},
            ),
            "icosahedral": {"divisor": _divisor_entries(
                icosahedron_positions(rot), [ICOSAHEDRAL_BETA] * 12)},
        }
    raise ValueError(f"unknown workload {workload!r}")


def write_jobs(workload: str, seed: int, job_dir: str):
    """Write the job files; return the job list as (name, argv) pairs.

    argv is the argument list of ``conesphere.cli.main`` without ``--out``,
    or None for the kernel-gap job, which runs through the library.
    """
    os.makedirs(job_dir, exist_ok=True)
    paths = {}
    for name, cfg in job_configs(workload, seed).items():
        path = os.path.join(job_dir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=1)
        paths[name] = path
    if workload != "diagnose":
        return [("solve", ["solve", "--config", paths["solve"]])]
    flagship = paths["flagship"]
    return [
        ("check", ["check", "--config", flagship]),
        ("gauss-bonnet", ["gauss-bonnet", "--config", flagship]),
        ("spectrum", ["spectrum", "--config", flagship, "--count", "6"]),
        ("symmetries", ["symmetries", "--config", paths["icosahedral"]]),
        ("example", ["example", "--name", "football", "--k", "3"]),
        ("kernel-gap", None),
    ]


def run_kernel_gap(config_path: str, out_dir: str) -> int:
    """Kernel gap at u = 0 on the flagship background of the config file.

    Each function is looked up on its module at call time, so the traced
    run's wrappers see these calls as they see the CLI's.
    """
    mesh_mod, bg_mod, diag_mod, div_mod = (
        importlib.import_module("conesphere." + name)
        for name in ("mesh", "background", "diagnostics", "divisor"))
    with open(config_path) as fh:
        cfg = json.load(fh)
    div = div_mod.divisor(
        [e["position"] for e in cfg["divisor"]], [e["beta"] for e in cfg["divisor"]])
    m = cfg["mesh"]
    mesh = mesh_mod.build_mesh(
        m["base_level"], div, grading=m["grading_levels"], grading_radius=m["grading_radius"])
    bg = bg_mod.build_background(div, mesh)
    gap = diag_mod.kernel_gap(bg, np.zeros(bg.n_vertices))
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "kernel_gap.json"), "w") as fh:
        json.dump({"report": {"kernel_gap": gap, "n_vertices": mesh.n_vertices}},
                  fh, indent=2, sort_keys=True)
    return 0


REPORT_FILES = {
    "solve": "solve.json",
    "check": "check.json",
    "gauss-bonnet": "gauss_bonnet.json",
    "spectrum": "spectrum.json",
    "symmetries": "symmetries.json",
    "example": "example.json",
    "kernel-gap": "kernel_gap.json",
}


def canonical_sha256(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _csv_rows(path):
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def _check_solve(workload, rep, out_dir):
    solver = rep["solver"]
    tol = rep["config"]["solver"]["newton_tol"]
    if solver["converged"] is not True:
        return "not converged"
    if not solver["final_residual_sup"] <= tol:
        return f"final_residual_sup {solver['final_residual_sup']:.3e} > newton_tol {tol:.1e}"
    gb_max = GRADED_GB_MAX if workload == "solve-graded" else UNIFORM_GB_MAX
    if not solver["gauss_bonnet_residual"] <= gb_max:
        return f"gauss_bonnet_residual {solver['gauss_bonnet_residual']:.3e} > {gb_max:.1e}"
    if workload == "solve-uniform":
        err = rep.get("manufactured_error")
        if err is None or not err <= MANUFACTURED_ERROR_MAX:
            return f"manufactured_error {err} > {MANUFACTURED_ERROR_MAX:.1e}"
    for name in ("u.csv", "k_achieved.csv", "rho.csv", "k_beta.csv"):
        if _csv_rows(os.path.join(out_dir, name)) != rep["n_vertices"]:
            return f"{name} does not have one row per node"
    return None


def _check_report(workload, job, rep, out_dir):
    """None if the report passes its check, else the reason it fails."""
    if job == "solve":
        return _check_solve(workload, rep, out_dir)
    if job == "check":
        return None if rep["passed"] is True else "check did not pass"
    if job == "gauss-bonnet":
        res = rep["gauss_bonnet"]["residual"]
        return None if res <= BACKGROUND_GB_MAX else f"residual {res:.3e} > {BACKGROUND_GB_MAX:.1e}"
    if job == "spectrum":
        ev = np.array(rep["eigenvalues"], dtype=float)
        if len(ev) != rep["count"] or not np.all(np.isfinite(ev)):
            return "eigenvalues missing or not finite"
        if np.any(np.diff(ev) < 0.0):
            return "eigenvalues not ascending"
        return None if abs(ev[0]) <= SPECTRUM_ZERO_TOL else f"lambda_0 = {ev[0]:.3e} is not 0"
    if job == "symmetries":
        order = rep["group_order"]
        return None if order == ICOSAHEDRAL_ORDER else f"group order {order} != {ICOSAHEDRAL_ORDER}"
    if job == "example":
        err = rep["area"]["relative_error"]
        lam1 = rep["eigenvalues"][1]
        if not err <= FOOTBALL_AREA_ERROR_MAX:
            return f"football area error {err:.4f} > {FOOTBALL_AREA_ERROR_MAX}"
        lo, hi = FOOTBALL_LAMBDA1
        return None if lo <= lam1 <= hi else f"football lambda_1 {lam1:.4f} outside [{lo}, {hi}]"
    if job == "kernel-gap":
        gap = rep["kernel_gap"]
        return None if math.isfinite(gap) and gap > 0.0 else f"kernel gap {gap} is not positive"
    raise ValueError(f"unknown job {job!r}")


def check_job(workload: str, job: str, exit_code, out_dir: str) -> dict:
    """Check one job's exit code and report; return the job's output record."""
    record = {"exit_code": exit_code, "error": None, "report_sha256": None}
    if exit_code != 0:
        record["error"] = f"exit code {exit_code}"
        return record
    try:
        with open(os.path.join(out_dir, REPORT_FILES[job])) as fh:
            rep = json.load(fh)["report"]
        record["report_sha256"] = canonical_sha256(rep)
        record["error"] = _check_report(workload, job, rep, out_dir)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        record["error"] = f"unreadable report: {type(exc).__name__}: {exc}"
        return record
    if job == "solve":
        record["gauss_bonnet_residual"] = rep["solver"]["gauss_bonnet_residual"]
        record["newton_iterations"] = rep["solver"]["newton_iterations_total"]
        record["continuation_steps"] = len(rep["solver"]["continuation_path"])
        record["step_halvings"] = sum(
            w.startswith("step halved") for w in rep["solver"]["warnings"])
        record["nodes"] = rep["n_vertices"]
        if "manufactured_error" in rep:
            record["manufactured_error"] = rep["manufactured_error"]
    elif job == "gauss-bonnet":
        record["gauss_bonnet_residual"] = rep["gauss_bonnet"]["residual"]
    elif job == "kernel-gap":
        record["nodes"] = rep["n_vertices"]
    return record
