"""Command line front end.

Subcommands operate on a JSON job configuration (divisor, target curvature,
mesh, weights, solver settings, outputs) and write JSON reports plus optional
CSV field dumps and an OFF mesh export.  Exit codes: 0 on success, 1 when the
mathematics fails (inadmissible data, solver divergence), 2 on configuration
or usage errors.

Reports are deterministic: the payload is serialized with sorted keys and the
wall-clock timestamp lives in its own top-level field, so two runs of the same
job differ in that field only.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import os
import sys

import numpy as np

from .background import _cone_distance, build_background, curvature_map, gauss_bonnet
from .diagnostics import (
    exact_football,
    football_divisor,
    spectrum,
    triangle_double_divisor,
)
from .divisor import (
    Divisor,
    WeightSpec,
    divisor,
    euler_characteristic,
    solver_scope_check,
    troyanov_check,
    weight_admissible,
)
from .errors import ConesphereError, ConfigError, NonPositiveTarget
from .mesh import build_mesh, write_csv, write_off
from .moebius import enumerate_conformal_symmetries
from .solver import SolverConfig, continuation_solve, pinned_test_factor


# ---------------------------------------------------------------------------
# Configuration parsing


def _require(mapping, key, context):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be a JSON object, got {type(mapping).__name__}")
    if key not in mapping:
        raise ConfigError(f"{context} is missing required key '{key}'")
    return mapping[key]


def _as_float(value, context):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context} must be a number, got {value!r}")
    return float(value)


def _as_int(value, context):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context} must be an integer, got {value!r}")
    return int(value)


def _parse_position(entry, context):
    """A unit vector [x, y, z] or {"lat": deg, "lon": deg}."""
    if isinstance(entry, dict):
        lat = math.radians(_as_float(_require(entry, "lat", context), f"{context}.lat"))
        lon = math.radians(_as_float(_require(entry, "lon", context), f"{context}.lon"))
        return np.array(
            [math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)]
        )
    if isinstance(entry, (list, tuple)) and len(entry) == 3:
        p = np.array([_as_float(c, f"{context} component") for c in entry])
        nrm = float(np.linalg.norm(p))
        if nrm < 1e-12:
            raise ConfigError(f"{context} is the zero vector")
        if abs(nrm - 1.0) > 1e-6:
            raise ConfigError(f"{context} is not a unit vector (|p| = {nrm:.8f})")
        return p / nrm
    raise ConfigError(f"{context} must be [x, y, z] or {{lat, lon}} in degrees")


def _parse_divisor(cfg) -> Divisor:
    entries = _require(cfg, "divisor", "config")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("config.divisor must be a non-empty list of cone points")
    positions = []
    betas = []
    for i, entry in enumerate(entries):
        ctx = f"divisor[{i}]"
        positions.append(_parse_position(_require(entry, "position", ctx), f"{ctx}.position"))
        betas.append(_as_float(_require(entry, "beta", ctx), f"{ctx}.beta"))
    try:
        return divisor(positions, betas)
    except ConesphereError as exc:
        raise ConfigError(f"invalid divisor: {exc}") from exc


def _parse_numbers(cfg, section, defaults):
    """The given keys of the object cfg[section], each parsed as an integer
    or a number after the type of its default."""
    raw = cfg.get(section, {})
    if not isinstance(raw, dict):
        raise ConfigError(f"config.{section} must be an object")
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ConfigError(f"config.{section} has unknown keys {sorted(unknown)}")
    parse = {int: _as_int, float: _as_float}
    return {
        key: parse[type(default)](raw[key], f"config.{section}.{key}")
        for key, default in defaults.items()
        if key in raw
    }


_MESH_DEFAULTS = {
    "base_level": 4, "grading_levels": 0, "grading_radius": 0.3, "cutoff_radius": 1.2,
}


def _parse_mesh(cfg):
    return {**_MESH_DEFAULTS, **_parse_numbers(cfg, "mesh", _MESH_DEFAULTS)}


def _parse_solver(cfg) -> SolverConfig:
    defaults = {f.name: f.default for f in dataclasses.fields(SolverConfig)}
    kwargs = _parse_numbers(cfg, "solver", defaults)
    try:
        return SolverConfig(**kwargs)
    except ConesphereError as exc:
        raise ConfigError(f"invalid solver settings: {exc}") from exc


def _parse_weights(cfg, div: Divisor):
    raw = cfg.get("weights")
    if raw is None:
        return None
    gamma = _require(raw, "gamma", "config.weights")
    if not isinstance(gamma, list):
        raise ConfigError("config.weights.gamma must be a list")
    alpha = _as_float(raw.get("alpha", 0.5), "config.weights.alpha")
    order = _as_int(raw.get("k", 0), "config.weights.k")
    try:
        return WeightSpec(
            gamma=[_as_float(g, "config.weights.gamma entry") for g in gamma],
            holder_alpha=alpha,
            order_k=order,
        )
    except ConesphereError as exc:
        raise ConfigError(f"invalid weights: {exc}") from exc


def _parse_target(cfg):
    raw = cfg.get("target", {"type": "constant", "value": 1.0})
    kind = _require(raw, "type", "config.target")
    if kind == "constant":
        value = _as_float(_require(raw, "value", "config.target"), "config.target.value")
        if value <= 0.0:
            raise ConfigError(f"constant target curvature must be positive, got {value}")
        return {"type": "constant", "value": value}
    if kind == "expression":
        coeffs = {key: _as_float(raw.get(key, 0.0), f"config.target.{key}") for key in "abcd"}
        return {"type": "expression", **coeffs}
    if kind == "grid":
        return {"type": "grid", "path": str(_require(raw, "path", "config.target"))}
    if kind == "manufactured":
        return {
            "type": "manufactured",
            "north": _as_float(raw.get("north", 1.0), "config.target.north"),
            "south": _as_float(raw.get("south", 0.0), "config.target.south"),
        }
    raise ConfigError(f"unknown target type '{kind}'")


def _parse_outputs(cfg):
    raw = cfg.get("outputs", {})
    if not isinstance(raw, dict):
        raise ConfigError("config.outputs must be an object")
    unknown = set(raw) - {"fields", "mesh_off"}
    if unknown:
        raise ConfigError(f"config.outputs has unknown keys {sorted(unknown)}")
    return {"fields": bool(raw.get("fields", True)), "mesh_off": bool(raw.get("mesh_off", False))}


class Job:
    """A parsed and validated configuration file."""

    def __init__(self, path):
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config file must contain a JSON object")
        unknown = set(cfg) - {"divisor", "target", "mesh", "weights", "solver", "outputs"}
        if unknown:
            raise ConfigError(f"config has unknown top-level keys {sorted(unknown)}")
        self.divisor = _parse_divisor(cfg)
        self.mesh_params = _parse_mesh(cfg)
        self.solver_config = _parse_solver(cfg)
        self.weights = _parse_weights(cfg, self.divisor)
        self.target = _parse_target(cfg)
        self.outputs = _parse_outputs(cfg)

    def resolved(self) -> dict:
        """The configuration as actually used, defaults filled in."""
        out = {
            "divisor": [
                {"position": [float(c) for c in p.position], "beta": float(p.beta)}
                for p in self.divisor
            ],
            "mesh": dict(self.mesh_params),
            "solver": dataclasses.asdict(self.solver_config),
            "target": dict(self.target),
            "outputs": dict(self.outputs),
        }
        if self.weights is not None:
            out["weights"] = {
                "gamma": list(self.weights.gamma),
                "alpha": self.weights.holder_alpha,
                "k": self.weights.order_k,
            }
        return out

    def build_geometry(self):
        mesh = build_mesh(
            self.mesh_params["base_level"],
            self.divisor,
            grading=self.mesh_params["grading_levels"],
            grading_radius=self.mesh_params["grading_radius"],
        )
        bg = build_background(self.divisor, mesh, cutoff_radius=self.mesh_params["cutoff_radius"])
        return mesh, bg

    def resolve_target(self, bg):
        """Nodewise target curvature; returns (K, manufactured_u or None)."""
        mesh = bg.mesh
        spec = self.target
        free = np.ones(mesh.n_vertices, dtype=bool)
        free[mesh.cone_vertices] = False
        if spec["type"] == "constant":
            return np.full(mesh.n_vertices, spec["value"]), None
        if spec["type"] == "expression":
            x, y, z = mesh.vertices.T
            K = spec["a"] + spec["b"] * x + spec["c"] * y + spec["d"] * z
            if np.any(K[free] <= 0.0):
                raise NonPositiveTarget(
                    "expression target is non-positive at "
                    f"{int(np.sum(K[free] <= 0.0))} mesh nodes "
                    f"(minimum {float(np.min(K[free])):.6g})"
                )
            return K, None
        if spec["type"] == "grid":
            K = _read_grid(spec["path"], mesh)
            if np.any(K[free] <= 0.0):
                raise NonPositiveTarget("grid target is non-positive at mesh nodes")
            return K, None
        v = pinned_test_factor(bg, north=spec["north"], south=spec["south"])
        return curvature_map(bg, v), v


def _read_grid(path, mesh):
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read grid file: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"grid file is not x,y,z,value CSV: {exc}") from exc
    if data.shape != (mesh.n_vertices, 4):
        raise ConfigError(
            f"grid file has shape {data.shape}, expected ({mesh.n_vertices}, 4) for this mesh"
        )
    if float(np.max(np.linalg.norm(data[:, :3] - mesh.vertices, axis=1))) > 1e-9:
        raise ConfigError("grid file node coordinates do not match the mesh")
    return data[:, 3].copy()


# ---------------------------------------------------------------------------
# Report output


def _write_report(out_dir, name, payload):
    os.makedirs(out_dir, exist_ok=True)
    doc = {
        "report": payload,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _print_lines(payload, prefix=""):
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            _print_lines(value, prefix=f"{prefix}{key}.")
        else:
            print(f"{prefix}{key}: {value}")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_check(args) -> int:
    job = Job(args.config)
    scope = solver_scope_check(job.divisor)
    payload = {
        "config": job.resolved(),
        "scope": scope.as_dict(),
        "euler_characteristic": euler_characteristic(job.divisor),
    }
    passed = scope.passed
    if len(job.divisor) >= 3:
        troy = troyanov_check(job.divisor)
        payload["troyanov"] = {"passed": troy.passed, "margins": list(troy.margins)}
    if job.weights is not None:
        wrep = weight_admissible(job.weights, job.divisor)
        payload["weights"] = {
            "passed": wrep.passed,
            "positivity": list(wrep.positivity),
            "nearest_forbidden": [list(item) for item in wrep.nearest_forbidden],
        }
        passed = passed and wrep.passed
    payload["passed"] = passed
    _write_report(args.out, "check.json", payload)
    _print_lines({"passed": passed, "chi": payload["euler_characteristic"]})
    return 0 if passed else 1


def cmd_solve(args) -> int:
    job = Job(args.config)
    payload = {"config": job.resolved()}
    try:
        mesh, bg = job.build_geometry()
        K, manufactured = job.resolve_target(bg)
        u, report = continuation_solve(bg, K, job.solver_config)
    except ConfigError:
        raise
    except ConesphereError as exc:
        payload["error"] = {"type": type(exc).__name__, "message": str(exc)}
        _write_report(args.out, "solve.json", payload)
        print(f"solve failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    payload["solver"] = report.as_dict()
    payload["n_vertices"] = mesh.n_vertices
    if manufactured is not None:
        payload["manufactured_error"] = float(np.max(np.abs(u - manufactured)))
    if job.outputs["fields"]:
        os.makedirs(args.out, exist_ok=True)
        achieved = curvature_map(bg, u, cone_tol=np.inf)
        write_csv(os.path.join(args.out, "u.csv"), mesh, u)
        write_csv(os.path.join(args.out, "k_achieved.csv"), mesh, achieved)
        write_csv(os.path.join(args.out, "rho.csv"), mesh, np.exp(bg.log_rho))
        write_csv(os.path.join(args.out, "k_beta.csv"), mesh, bg.k_beta)
    if job.outputs["mesh_off"]:
        os.makedirs(args.out, exist_ok=True)
        write_off(os.path.join(args.out, "mesh.off"), mesh)
    _write_report(args.out, "solve.json", payload)
    _print_lines(
        {
            "converged": report.converged,
            "final_residual_sup": report.final_residual_sup,
            "gauss_bonnet_residual": report.gauss_bonnet_residual,
            "newton_iterations_total": report.newton_iterations_total,
        }
    )
    return 0


def cmd_spectrum(args) -> int:
    job = Job(args.config)
    _, bg = job.build_geometry()
    result = spectrum(bg, args.count, weighted=True)
    payload = {
        "config": job.resolved(),
        "count": args.count,
        "weighted": True,
        "eigenvalues": [float(v) for v in result.eigenvalues],
    }
    _write_report(args.out, "spectrum.json", payload)
    for i, lam in enumerate(result.eigenvalues):
        print(f"lambda_{i}: {lam:.12g}")
    return 0


def cmd_symmetries(args) -> int:
    job = Job(args.config)
    maps = enumerate_conformal_symmetries(job.divisor)
    entries = []
    for phi in maps:
        mat = phi.matrix
        entries.append(
            {
                "coefficients": [[float(c.real), float(c.imag)] for c in mat.ravel()],
                "pole": [float(c) for c in phi.pole],
            }
        )
    payload = {"config": job.resolved(), "group_order": len(maps), "maps": entries}
    _write_report(args.out, "symmetries.json", payload)
    print(f"group_order: {len(maps)}")
    return 0


def cmd_gauss_bonnet(args) -> int:
    job = Job(args.config)
    _, bg = job.build_geometry()
    report = gauss_bonnet(bg, np.zeros(bg.n_vertices))
    payload = {
        "config": job.resolved(),
        "gauss_bonnet": report.as_dict(),
        "euler_characteristic": euler_characteristic(job.divisor),
    }
    _write_report(args.out, "gauss_bonnet.json", payload)
    _print_lines(payload["gauss_bonnet"])
    return 0


def _football_example(k, out_dir) -> int:
    div = football_divisor(k)
    # graded mesh for quadrature (area, first eigenvalue); the stencil at
    # grading transitions is not pointwise consistent, so the nodewise
    # curvature check runs on an ungraded mesh instead
    graded = build_mesh(5, div, grading=3)
    bg = build_background(div, graded, cutoff_radius=1.5)
    w = exact_football(k, graded)
    # w is the log factor against the round metric, so e^{2w} is already the
    # full area density (zero at the poles by the -inf convention)
    area = float(np.sum(np.exp(2.0 * w) * graded.areas))
    area_target = 4.0 * math.pi / k
    eig = spectrum(bg, 4, weighted=False, log_factor=w)

    plain = build_mesh(5, div)
    w_plain = exact_football(k, plain)
    d = np.minimum(
        _cone_distance(plain.vertices, div.positions[0]),
        _cone_distance(plain.vertices, div.positions[1]),
    )
    mask = d > 0.1
    with np.errstate(all="ignore"):
        K = np.exp(-2.0 * w_plain) * (1.0 - plain.laplace(w_plain))
    dev = K[mask] - 1.0
    rms = float(np.sqrt(np.sum(dev**2 * plain.areas[mask]) / np.sum(plain.areas[mask])))

    payload = {
        "example": {"name": "football", "k": k},
        "betas": [float(b) for b in div.betas],
        "area": {"value": area, "target": area_target,
                 "relative_error": abs(area - area_target) / area_target},
        "eigenvalues": [float(v) for v in eig.eigenvalues],
        "curvature_rms_deviation": rms,
        "symmetry_group_order": None,
    }
    _write_report(out_dir, "example.json", payload)
    _print_lines(
        {
            "area_relative_error": payload["area"]["relative_error"],
            "lambda_1": float(eig.eigenvalues[1]),
            "curvature_rms_deviation": rms,
        }
    )
    return 0


def _triangle_example(angles, out_dir) -> int:
    div = triangle_double_divisor(*angles)
    scope = solver_scope_check(div)
    maps = enumerate_conformal_symmetries(div)
    payload = {
        "example": {"name": "triangle", "angles": [float(a) for a in angles]},
        "betas": [float(b) for b in div.betas],
        "scope": scope.as_dict(),
        "euler_characteristic": euler_characteristic(div),
        "symmetry_group_order": len(maps),
    }
    # a conical background (and with it the total-curvature certificate)
    # exists only when disjoint curvature-absorbing balls fit around the
    # vertices; sharp triangles fail that, so report it as unavailable
    try:
        mesh = build_mesh(5, div, grading=2)
        bg = build_background(div, mesh)
        gb = gauss_bonnet(bg, np.zeros(bg.n_vertices))
        payload["gauss_bonnet"] = gb.as_dict()
    except ConesphereError as exc:
        payload["gauss_bonnet"] = None
        payload["gauss_bonnet_unavailable"] = f"{type(exc).__name__}: {exc}"
    _write_report(out_dir, "example.json", payload)
    gb = payload["gauss_bonnet"]
    _print_lines(
        {
            "scope_passed": scope.passed,
            "gauss_bonnet_residual": gb["residual"] if gb else None,
            "symmetry_group_order": len(maps),
        }
    )
    return 0


def cmd_example(args) -> int:
    if args.name == "football":
        k = args.k if args.k is not None else 2
        if k < 2:
            raise ConfigError(f"football example needs integer k >= 2, got {k}")
        return _football_example(k, args.out)
    if args.name == "triangle":
        if args.angles is None:
            raise ConfigError("triangle example needs --angles A B C (radians)")
        return _triangle_example(args.angles, args.out)
    raise ConfigError(f"unknown example '{args.name}' (expected 'football' or 'triangle')")


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conesphere",
        description="Prescribed Gaussian curvature on the sphere with conical singularities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(p):
        p.add_argument("--config", required=True, help="path to a JSON job configuration")
        p.add_argument("--out", default=".", help="directory for reports and field dumps")

    p = sub.add_parser("check", help="validate divisor, Troyanov margins, weights")
    with_config(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="run the continuation solver for the configured target")
    with_config(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("spectrum", help="lowest eigenvalues of the weighted Laplacian")
    with_config(p)
    p.add_argument("--count", type=int, default=6, help="number of eigenvalues")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("symmetries", help="enumerate conformal symmetries of the divisor")
    with_config(p)
    p.set_defaults(func=cmd_symmetries)

    p = sub.add_parser("gauss-bonnet", help="total-curvature certificate for the background")
    with_config(p)
    p.set_defaults(func=cmd_gauss_bonnet)

    p = sub.add_parser("example", help="built-in exact geometries with diagnostics")
    p.add_argument("--name", required=True, help="'football' or 'triangle'")
    p.add_argument("--k", type=int, default=None, help="football cone order (k >= 2)")
    p.add_argument("--angles", type=float, nargs=3, default=None,
                   help="triangle corner angles in radians")
    p.add_argument("--out", default=".", help="directory for reports")
    p.set_defaults(func=cmd_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ConesphereError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
