"""Command line front end.

Subcommands operate on a JSON job configuration (divisor, target curvature,
mesh, weights, solver settings, outputs); `example` runs a built-in geometry
instead.  Each command computes and returns its payload; `main` alone parses
the job, adds it resolved as "config", and writes the command's report file
(`_COMMANDS`), next to which `solve` may put CSV field dumps and an OFF mesh.
Exit codes: 0 on success, 1 when the mathematics fails (inadmissible data,
solver divergence), 2 on configuration or usage errors and when the output
cannot be written.  An error that escapes a command leaves no report; `solve`
records its own failure in solve.json and exits 1.

Reports are strict JSON, {"report": payload, "timestamp": ...}: the payload is
serialized with sorted keys and the wall-clock timestamp lives in its own
top-level field, so two runs of the same job differ in that field only.
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

from .background import build_background, curvature_map, gauss_bonnet
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
    geodesic_distance,
    solver_scope_check,
    troyanov_check,
    weight_admissible,
)
from .errors import ConesphereError, ConfigError
from .mesh import build_mesh, write_csv, write_off
from .moebius import enumerate_conformal_symmetries
from .solver import SolverConfig, continuation_solve, pinned_test_factor


# ---------------------------------------------------------------------------
# Configuration parsing


def _as_float(value, context):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ConfigError(f"{context} is too large for a float") from None
    if not math.isfinite(value):  # json.load accepts the bare NaN and Infinity
        raise ConfigError(f"{context} must be finite, got {value}")
    return value


def _json_type(kind, name):
    """A parser that accepts the values of one JSON type only (a bool is no int)."""

    def parse(value, context):
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise ConfigError(f"{context} must be {name}, got {value!r}")
        return value

    return parse


_as_str = _json_type(str, "a string")


def _as_floats(value, context):
    if not isinstance(value, list):
        raise ConfigError(f"{context} must be a list of numbers, got {value!r}")
    return [_as_float(v, f"{context}[{i}]") for i, v in enumerate(value)]


def _as_position(value, context):
    """A unit vector [x, y, z] or {"lat": deg, "lon": deg}."""
    if isinstance(value, dict):
        deg = _section(value, {"lat": _as_float, "lon": _as_float}, context)
        lat, lon = math.radians(deg["lat"]), math.radians(deg["lon"])
        return np.array(
            [math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)]
        )
    p = np.array(_as_floats(value, context))
    if p.shape != (3,):
        raise ConfigError(f"{context} must be [x, y, z] or {{lat, lon}} in degrees")
    nrm = float(np.linalg.norm(p))
    if abs(nrm - 1.0) > 1e-6:
        raise ConfigError(f"{context} is not a unit vector (|p| = {nrm:.8f})")
    return p / nrm


def _build(make, what, *args, **kwargs):
    """make(*args, **kwargs), with a library error reported as a configuration error."""
    try:
        return make(*args, **kwargs)
    except ConesphereError as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def _as_divisor(value, context) -> Divisor:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{context} must be a non-empty list of cone points")
    cones = [_section(entry, {"position": _as_position, "beta": _as_float}, f"{context}[{i}]")
             for i, entry in enumerate(value)]
    return _build(divisor, "divisor", positions=[c["position"] for c in cones],
                  betas=[c["beta"] for c in cones])


# The parser of a key with a default, by the default's type.  A section
# (an object, or the absent weights) has none: it is kept as it is and
# parsed by its own schema later.
_PARSERS = {
    bool: _json_type(bool, "true or false"),
    int: _json_type(int, "an integer"),
    float: _as_float,
    str: _as_str,
}


def _section(raw, schema, context) -> dict:
    """The JSON object raw parsed against schema, defaults filled in.

    A schema maps each key to its default, whose type picks the key's parser,
    or, for a required key, to its parser."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{context} must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"{context} has unknown keys {sorted(unknown)}")
    missing = [key for key, spec in schema.items() if callable(spec) and key not in raw]
    if missing:
        raise ConfigError(f"{context} is missing required keys {missing}")
    out = {}
    for key, spec in schema.items():
        parse = spec if callable(spec) else _PARSERS.get(type(spec), lambda value, context: value)
        out[key] = parse(raw[key], f"{context}.{key}") if key in raw else spec
    return out


_JOB = {"divisor": _as_divisor, "target": {"type": "constant", "value": 1.0}, "mesh": {},
        "weights": None, "solver": {}, "outputs": {}}
_MESH = {"base_level": 4, "grading_levels": 0, "grading_radius": 0.3}
_SOLVER = {f.name: f.default for f in dataclasses.fields(SolverConfig)}
_WEIGHTS = {"gamma": _as_floats, "alpha": 0.5, "k": 0}
_OUTPUTS = {"fields": True, "mesh_off": False}
_TARGETS = {"constant": {"value": _as_float}, "expression": dict.fromkeys("abcd", 0.0),
            "grid": {"path": _as_str}, "manufactured": {"north": 1.0, "south": 0.0}}


class Job:
    """A parsed and validated configuration file."""

    def __init__(self, path):
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        raw = _section(raw, _JOB, "config")
        self.divisor = raw["divisor"]
        self.config = cfg = {
            key: _section(raw[key], schema, f"config.{key}")
            for key, schema in (("mesh", _MESH), ("solver", _SOLVER), ("outputs", _OUTPUTS))
        }
        bad = sorted(k for k, v in cfg["mesh"].items() if v < 0 or (v == 0 and "radius" in k))
        if bad:
            raise ConfigError(f"config.mesh {bad}: levels must be nonnegative, radii positive")
        self.solver_config = _build(SolverConfig, "solver settings", **cfg["solver"])
        kind = raw["target"].get("type") if isinstance(raw["target"], dict) else None
        if not isinstance(kind, str) or kind not in _TARGETS:
            raise ConfigError(f"unknown target type {kind!r}")
        schema = {"type": _as_str, **_TARGETS[kind]}
        cfg["target"] = target = _section(raw["target"], schema, "config.target")
        if kind == "constant" and target["value"] <= 0.0:
            raise ConfigError(f"constant target curvature must be positive, got {target['value']}")
        self.weights = None
        if raw["weights"] is not None:
            cfg["weights"] = weights = _section(raw["weights"], _WEIGHTS, "config.weights")
            if len(weights["gamma"]) != len(self.divisor):
                raise ConfigError(f"config.weights.gamma must be a list of {len(self.divisor)} "
                                  "numbers, one per cone point")
            self.weights = _build(WeightSpec, "weights", gamma=weights["gamma"],
                                  holder_alpha=weights["alpha"], order_k=weights["k"])

    def resolved(self) -> dict:
        """The configuration as actually used, defaults filled in."""
        cones = [{"position": [float(c) for c in p.position], "beta": float(p.beta)}
                 for p in self.divisor]
        return {"divisor": cones, **self.config}

    def background(self):
        params = self.config["mesh"]
        mesh = build_mesh(
            params["base_level"],
            self.divisor,
            grading=params["grading_levels"],
            grading_radius=params["grading_radius"],
        )
        return build_background(self.divisor, mesh)

    def resolve_target(self, bg):
        """Nodewise target curvature; returns (K, manufactured_u or None).
        Its positivity is checked by the solver."""
        mesh = bg.mesh
        spec = self.config["target"]
        if spec["type"] == "constant":
            return np.full(mesh.n_vertices, spec["value"]), None
        if spec["type"] == "expression":
            x, y, z = mesh.vertices.T
            # an overflowing target is reported by the solver's target check
            with np.errstate(over="ignore", invalid="ignore"):
                return spec["a"] + spec["b"] * x + spec["c"] * y + spec["d"] * z, None
        if spec["type"] == "grid":
            return _read_grid(spec["path"], mesh), None
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
    # written so that a NaN coordinate fails it
    if not np.max(np.linalg.norm(data[:, :3] - mesh.vertices, axis=1)) <= 1e-9:
        raise ConfigError("grid file node coordinates do not match the mesh")
    return data[:, 3].copy()


# ---------------------------------------------------------------------------
# Report output


def _write_report(out_dir, name, payload):
    """Write payload and a timestamp to out_dir/name, dataclasses as objects."""
    doc = {
        "report": payload,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=dataclasses.asdict)
        fh.write("\n")


def _print_lines(payload):
    for key in sorted(payload):
        print(f"{key}: {payload[key]}")


# ---------------------------------------------------------------------------
# Subcommands: each takes (job, args), prints its summary and returns
# (payload, exit code); main writes the payload as the command's report.


def cmd_check(job, args):
    scope = solver_scope_check(job.divisor)
    payload = {"scope": scope, "euler_characteristic": euler_characteristic(job.divisor)}
    passed = scope.passed
    if len(job.divisor) >= 3:
        payload["troyanov"] = troyanov_check(job.divisor)
    if job.weights is not None:
        payload["weights"] = wrep = weight_admissible(job.weights, job.divisor)
        passed = passed and wrep.passed
    payload["passed"] = passed
    _print_lines({"passed": passed, "chi": payload["euler_characteristic"]})
    return payload, 0 if passed else 1


def _cone_entries(bg, u):
    """Per cone, in divisor order: its vertex, the radius of its 1-ring, and u there."""
    mesh = bg.mesh
    entries = []
    for c, point in zip(mesh.cone_vertices, bg.divisor.points):
        radius = float(np.max(geodesic_distance(mesh.vertices[mesh.ring(c)], point.position)))
        entries.append({"vertex": int(c), "ring_radius": radius, "u": float(u[c])})
    return entries


def cmd_solve(job, args):
    try:
        bg = job.background()
        K, manufactured = job.resolve_target(bg)
        u, report = continuation_solve(bg, K, job.solver_config)
    except ConfigError:
        raise
    except ConesphereError as exc:
        print(f"solve failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return {"error": {"type": type(exc).__name__, "message": str(exc)}}, 1
    payload = {"solver": report, "n_vertices": bg.n_vertices, "cones": _cone_entries(bg, u)}
    if manufactured is not None:
        payload["manufactured_error"] = float(np.max(np.abs(u - manufactured)))
    if job.config["outputs"]["fields"]:
        fields = {"u": u, "k_achieved": curvature_map(bg, u), "rho": bg.rho_pow_2beta,
                  "k_beta": bg.k_beta}
        for name, values in fields.items():
            write_csv(os.path.join(args.out, f"{name}.csv"), bg.mesh, values)
    if job.config["outputs"]["mesh_off"]:
        write_off(os.path.join(args.out, "mesh.off"), bg.mesh)
    summary = dataclasses.asdict(report)
    _print_lines({k: v for k, v in summary.items() if k not in ("continuation_path", "warnings")})
    return payload, 0


def cmd_spectrum(job, args):
    if args.count < 1:
        raise ConfigError(f"--count must be at least 1, got {args.count}")
    bg = job.background()
    n = bg.n_vertices
    if args.count >= n - 1:
        raise ConfigError(f"--count must be below {n - 1} (the mesh has {n} nodes), got {args.count}")
    result = spectrum(bg, args.count)
    for i, lam in enumerate(result.eigenvalues):
        print(f"lambda_{i}: {lam:.12g}")
    eigenvalues = [float(v) for v in result.eigenvalues]
    return {"count": args.count, "weighted": True, "eigenvalues": eigenvalues}, 0


def cmd_symmetries(job, args):
    maps = enumerate_conformal_symmetries(job.divisor)
    entries = [
        {"coefficients": [[float(c.real), float(c.imag)] for c in phi.matrix.ravel()]}
        for phi in maps
    ]
    print(f"group_order: {len(maps)}")
    return {"group_order": len(maps), "maps": entries}, 0


def cmd_gauss_bonnet(job, args):
    bg = job.background()
    report = gauss_bonnet(bg, np.zeros(bg.n_vertices))
    _print_lines(dataclasses.asdict(report))
    return {"gauss_bonnet": report, "euler_characteristic": euler_characteristic(job.divisor)}, 0


def _football_example(k):
    div = _build(football_divisor, "football example", k)
    if k > _FOOTBALL_MAX_K:
        raise ConfigError(f"invalid football example: k = {k} is above {_FOOTBALL_MAX_K}, "
                          "the largest its mesh resolves")
    # graded mesh for quadrature (area, first eigenvalue); the stencil at
    # grading transitions is not pointwise consistent, so the nodewise
    # curvature check runs on an ungraded mesh instead
    graded = build_mesh(5, div, grading=3)
    bg = build_background(div, graded)
    # exact_football's w is the log factor against the round metric, so e^{2w}
    # is already the full area density (zero at the poles by the -inf convention)
    density = np.exp(2.0 * exact_football(k, graded))
    area = float(np.sum(density * graded.areas))
    area_target = 4.0 * math.pi / k
    eig = spectrum(bg, 4, density)

    plain = build_mesh(5, div)
    w_plain = exact_football(k, plain)
    mask = np.all(geodesic_distance(plain.vertices[:, None], div.positions) > 0.1, axis=1)
    with np.errstate(all="ignore"):
        K = np.exp(-2.0 * w_plain) * (1.0 - plain.laplace(w_plain))
    dev = K[mask] - 1.0
    rms = float(np.sqrt(np.sum(dev**2 * plain.areas[mask]) / np.sum(plain.areas[mask])))

    relative_error = abs(area - area_target) / area_target
    _print_lines(
        {
            "area_relative_error": relative_error,
            "lambda_1": float(eig.eigenvalues[1]),
            "curvature_rms_deviation": rms,
        }
    )
    return {
        "example": {"name": "football", "k": k},
        "betas": [float(b) for b in div.betas],
        "area": {"value": area, "target": area_target, "relative_error": relative_error},
        "eigenvalues": [float(v) for v in eig.eigenvalues],
        "curvature_rms_deviation": rms,
        "symmetry_group_order": None,
    }


def _triangle_example(angles):
    div = _build(triangle_double_divisor, "triangle example", *angles)
    scope = solver_scope_check(div)
    maps = enumerate_conformal_symmetries(div)
    payload = {
        "example": {"name": "triangle", "angles": [float(a) for a in angles]},
        "betas": [float(b) for b in div.betas],
        "scope": scope,
        "euler_characteristic": euler_characteristic(div),
        "symmetry_group_order": len(maps),
    }
    # every triangle here has chi > 0 and so a background; only a mesh that
    # cannot snap two close vertices leaves the certificate unavailable
    try:
        mesh = build_mesh(5, div, grading=2)
        bg = build_background(div, mesh)
        gb = gauss_bonnet(bg, np.zeros(bg.n_vertices))
    except ConesphereError as exc:
        gb = None
        payload["gauss_bonnet_unavailable"] = f"{type(exc).__name__}: {exc}"
    payload["gauss_bonnet"] = gb
    _print_lines(
        {
            "scope_passed": scope.passed,
            "gauss_bonnet_residual": gb.residual if gb else None,
            "symmetry_group_order": len(maps),
        }
    )
    return payload


def cmd_example(job, args):
    if args.name == "football":
        return _football_example(args.k), 0
    if args.name == "triangle":
        if args.angles is None:
            raise ConfigError("triangle example needs --angles A B C (in radians)")
        return _triangle_example(args.angles), 0
    raise ConfigError(f"unknown example '{args.name}' (expected 'football' or 'triangle')")


# ---------------------------------------------------------------------------
# Entry point

# the football example's base-5 / grading-3 mesh resolves k <= 3: at 4, lambda_1 is 2.46, not 2
_FOOTBALL_MAX_K = 3

# name: (help, command, report file); every command but example reads --config
_COMMANDS = {
    "check": ("validate divisor, Troyanov margins, weights", cmd_check, "check.json"),
    "solve": ("run the continuation solver for the configured target", cmd_solve, "solve.json"),
    "spectrum": ("lowest eigenvalues of the weighted Laplacian", cmd_spectrum, "spectrum.json"),
    "symmetries": ("enumerate conformal symmetries of the divisor", cmd_symmetries,
                   "symmetries.json"),
    "gauss-bonnet": ("total-curvature certificate for the background", cmd_gauss_bonnet,
                     "gauss_bonnet.json"),
    "example": ("built-in exact geometries with diagnostics", cmd_example, "example.json"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conesphere",
        description="Prescribed Gaussian curvature on the sphere with conical singularities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if name == "example":
            p.add_argument("--name", required=True, help="'football' or 'triangle'")
            p.add_argument("--k", type=int, default=2, help=f"football order, 2-{_FOOTBALL_MAX_K}")
            p.add_argument("--angles", type=float, nargs=3, default=None,
                           help="triangle corner angles in radians")
            p.add_argument("--out", default=".", help="directory for reports")
            continue
        p.add_argument("--config", required=True, help="path to a JSON job configuration")
        p.add_argument("--out", default=".", help="directory for reports and field dumps")
        if name == "spectrum":
            p.add_argument("--count", type=int, default=6, help="number of eigenvalues")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _, command, report = _COMMANDS[args.command]
    try:
        os.makedirs(args.out, exist_ok=True)
        job = Job(args.config) if "config" in args else None
        payload, code = command(job, args)
        if job is not None:
            payload["config"] = job.resolved()
        _write_report(args.out, report, payload)
        return code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # every read reports a ConfigError, so this is a write
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    except ConesphereError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
