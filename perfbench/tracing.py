"""Outside-in tracing for the traced run.

The traced run wraps the public functions of each conesphere layer from the
benchmark's side; nothing under src/ is changed.  A wrapper records a span
(name, start, end, parent) in memory and the spans are written out when the
pass ends.  Each wrapper is bound wherever its function is looked up at call
time:

* ``conesphere.cli`` imports build_mesh, build_background,
  continuation_solve, spectrum, enumerate_conformal_symmetries, write_csv,
  gauss_bonnet and the divisor checks by name, so those names are rebound
  there;
* ``continuation_solve`` calls ``conesphere.solver.newton_solve`` as a module
  global, and the solver imports gauss_bonnet, curvature_map and
  solver_scope_check by name, so those are rebound in ``conesphere.solver``;
* ``build_mesh`` looks up icosphere, lumped_node_areas and cotan_stiffness
  in ``conesphere.mesh``;
* the solver and ``kernel_gap`` factor through
  ``scipy.sparse.linalg.splu``, so that attribute is wrapped and each LU
  span belongs to the span that was open when it was called.  Fill is read
  from ``SuperLU.nnz``: the ``.L``/``.U`` properties copy the factors and
  would raise the peak memory being measured.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import time

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.attrs = {}

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, **self.attrs}


class Tracer:
    """In-memory span recorder; spans are indexed by their position."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), parent)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span):
        span.end = time.perf_counter()
        self._open.pop()

    def wrap(self, name, fn, on_result=None):
        """fn wrapped in a span; on_result(span, result) runs after the span
        closes, so its own cost is not charged to the layer."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                self.end(span)
            if on_result is not None:
                on_result(span, result)
            return result

        return traced


def _array_sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _record_mesh(span, mesh):
    span.attrs["nodes"] = int(mesh.n_vertices)
    span.attrs["vertices_sha256"] = _array_sha256(mesh.vertices)
    span.attrs["faces_sha256"] = _array_sha256(mesh.faces)


def _record_lu(span, lu):
    span.attrs["nnz"] = int(lu.nnz)


def _record_newton(span, result):
    span.attrs["iterations"] = int(result[1].newton_iterations_total)


def _record_group(span, maps):
    span.attrs["group_order"] = len(maps)


def install(tracer: Tracer) -> None:
    """Rebind every traced function where it is looked up at call time."""
    # by module path: the package namespace binds the name ``divisor`` to the
    # divisor() constructor, not to the module
    cli, mesh, bg, solver, diag, moeb, div = (
        importlib.import_module("conesphere." + name)
        for name in ("cli", "mesh", "background", "solver", "diagnostics", "moebius", "divisor"))
    spla = importlib.import_module("scipy.sparse.linalg")
    # (span name, function, modules whose global is rebound, result hook)
    table = [
        ("mesh.build_mesh", mesh.build_mesh, (cli, mesh), _record_mesh),
        ("mesh.icosphere", mesh.icosphere, (mesh,), None),
        ("mesh.lumped_node_areas", mesh.lumped_node_areas, (mesh,), None),
        ("mesh.cotan_stiffness", mesh.cotan_stiffness, (mesh,), None),
        ("background.build_background", bg.build_background, (cli, bg), None),
        ("background.gauss_bonnet", bg.gauss_bonnet, (cli, solver), None),
        ("background.curvature_map", bg.curvature_map, (cli, solver), None),
        ("solver.continuation_solve", solver.continuation_solve, (cli,), None),
        ("solver.newton_solve", solver.newton_solve, (solver,), _record_newton),
        ("linalg.splu", spla.splu, (spla,), _record_lu),
        ("diagnostics.spectrum", diag.spectrum, (cli,), None),
        ("diagnostics.kernel_gap", diag.kernel_gap, (diag,), None),
        ("moebius.enumerate_conformal_symmetries", moeb.enumerate_conformal_symmetries,
         (cli,), _record_group),
        ("moebius.moebius_from_triples", moeb.moebius_from_triples, (moeb,), None),
        ("cli.write_csv", mesh.write_csv, (cli,), None),
        ("divisor.solver_scope_check", div.solver_scope_check, (cli, solver), None),
        ("divisor.troyanov_check", div.troyanov_check, (cli,), None),
        ("divisor.weight_admissible", div.weight_admissible, (cli,), None),
    ]
    for name, fn, modules, hook in table:
        traced = tracer.wrap(name, fn, hook)
        for module in modules:
            setattr(module, fn.__name__, traced)
    mesh.SphereMesh.laplace = tracer.wrap("mesh.laplace", mesh.SphereMesh.laplace)


def on_clock(spans, clock):
    """Copies of the spans with start and end read on ``clock``."""
    out = []
    for s in spans:
        c = Span(s.name, clock(s.start), s.parent)
        c.end, c.attrs = clock(s.end), s.attrs
        out.append(c)
    return out


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass ("_s" is inclusive seconds)."""
    own = self_times(spans)
    names = [s.name for s in spans]

    def pick(name):
        return [i for i, n in enumerate(names) if n == name]

    def incl(name):
        return sum(spans[i].end - spans[i].start for i in pick(name))

    def parent_name(i):
        p = spans[i].parent
        return names[p] if p is not None else None

    builds = pick("mesh.build_mesh")
    newton = pick("solver.newton_solve")
    newton_ok = [i for i in newton if "error" not in spans[i].attrs]
    lus = pick("linalg.splu")
    solver_lus = [i for i in lus if parent_name(i) == "solver.newton_solve"]
    gap_lus = [i for i in lus if parent_name(i) == "diagnostics.kernel_gap"]
    lu_s = sum(spans[i].end - spans[i].start for i in solver_lus)
    newton_s = incl("solver.newton_solve")
    triples = len(pick("moebius.moebius_from_triples"))
    groups = pick("moebius.enumerate_conformal_symmetries")
    group_order = sum(spans[i].attrs.get("group_order", 0) for i in groups)
    return {
        "mesh.build_s": incl("mesh.build_mesh"),
        "mesh.refine_s": sum(own[i] for i in builds),
        "mesh.icosphere_s": incl("mesh.icosphere"),
        "mesh.assemble_s": incl("mesh.lumped_node_areas") + incl("mesh.cotan_stiffness"),
        "mesh.builds": len(builds),
        "mesh.nodes": sum(spans[i].attrs.get("nodes", 0) for i in builds),
        "mesh.laplace_calls": len(pick("mesh.laplace")),
        "mesh.laplace_s": incl("mesh.laplace"),
        "solver.continuation_s": incl("solver.continuation_solve"),
        "solver.newton_s": newton_s,
        "solver.newton_calls": len(newton),
        "solver.newton_failed": len(newton) - len(newton_ok),
        "solver.step_accept_ratio": len(newton_ok) / len(newton) if newton else 0.0,
        "solver.newton_iterations": sum(spans[i].attrs["iterations"] for i in newton_ok),
        "solver.lu_s": lu_s,
        "solver.lu_count": len(solver_lus),
        "solver.lu_fill": (sum(spans[i].attrs["nnz"] for i in solver_lus) / len(solver_lus)
                           if solver_lus else 0.0),
        "solver.newton_other_s": newton_s - lu_s,
        "background.build_s": incl("background.build_background"),
        "background.gauss_bonnet_s": incl("background.gauss_bonnet"),
        "background.gauss_bonnet_calls": len(pick("background.gauss_bonnet")),
        "diagnostics.spectrum_s": incl("diagnostics.spectrum"),
        "diagnostics.kernel_gap_s": incl("diagnostics.kernel_gap"),
        "diagnostics.kernel_gap_lu_s": sum(spans[i].end - spans[i].start for i in gap_lus),
        "moebius.enumerate_s": incl("moebius.enumerate_conformal_symmetries"),
        "moebius.triples_tried": triples,
        "moebius.useful_ratio": group_order / triples if triples else 0.0,
        "cli.write_csv_s": incl("cli.write_csv"),
        "divisor.check_s": (incl("divisor.solver_scope_check") + incl("divisor.troyanov_check")
                            + incl("divisor.weight_admissible")),
    }


def consistency(spans, pass_start, pass_end, solve_records) -> list[str]:
    """Self-checks of one traced pass; returns the checks that failed.

    * Every span lies inside its parent (the pass, for job spans) and does
      not overlap an earlier sibling, so self times are well defined and the
      self times of the layer spans plus the untraced remainder add up to the
      pass's wall time.
    * The LU factorizations of successful Newton calls number exactly the
      reported ``newton_iterations_total``.
    * ``newton_solve`` ran once per continuation step plus once per halving.
    """
    problems = []
    last_end = {}
    for s in spans:
        lo, hi = ((pass_start, pass_end) if s.parent is None
                  else (spans[s.parent].start, spans[s.parent].end))
        if s.end is None or s.start < lo or s.end > hi:
            problems.append(f"span {s.name} is not inside its parent")
        if s.parent is None and not s.name.startswith("job."):
            problems.append(f"span {s.name} ran outside every job")
        if s.start < last_end.get(s.parent, -float("inf")):
            problems.append(f"span {s.name} overlaps an earlier sibling")
        last_end[s.parent] = s.end
    if problems:
        return problems[:3]
    wall = pass_end - pass_start
    layer, untraced = split_wall(spans, wall)
    if abs(layer + untraced - wall) > 1e-9 * max(wall, 1.0):
        problems.append(f"layer self {layer:.6f} s + untraced {untraced:.6f} s != wall {wall:.6f} s")

    newton = [i for i, s in enumerate(spans) if s.name == "solver.newton_solve"]
    ok = {i for i in newton if "error" not in spans[i].attrs}
    lus_ok = [s for s in spans if s.name == "linalg.splu" and s.parent in ok]
    iters_traced = sum(spans[i].attrs["iterations"] for i in ok)
    iters_reported = sum(r["newton_iterations"] for r in solve_records)
    steps = sum(r["continuation_steps"] + r["step_halvings"] for r in solve_records)
    if len(lus_ok) != iters_reported or iters_traced != iters_reported:
        problems.append(f"LU count {len(lus_ok)} (traced iterations {iters_traced}) "
                        f"!= newton_iterations_total {iters_reported}")
    if len(newton) != steps:
        problems.append(f"newton_solve calls {len(newton)} != continuation steps + "
                        f"halvings {steps}")
    return problems


def split_wall(spans, wall_s):
    """(self time of all layer spans, untraced remainder) of a pass.

    The remainder is what no layer span covers: the self time of the job
    spans (argument parsing, report writing, the CLI's own code) plus the
    time between jobs.
    """
    own = self_times(spans)
    layer = sum(t for s, t in zip(spans, own) if not s.name.startswith("job."))
    jobs = [(s, t) for s, t in zip(spans, own) if s.parent is None]
    between = wall_s - sum(s.end - s.start for s, _ in jobs)
    return layer, sum(t for _, t in jobs) + between


def _job_of(spans, i):
    while spans[i].parent is not None:
        i = spans[i].parent
    return spans[i].name.removeprefix("job.")


def mesh_records(spans):
    """Node count and array hashes of every mesh built, in build order."""
    return [{"job": _job_of(spans, i), "nodes": s.attrs["nodes"],
             "vertices_sha256": s.attrs["vertices_sha256"],
             "faces_sha256": s.attrs["faces_sha256"]}
            for i, s in enumerate(spans) if s.name == "mesh.build_mesh" and "nodes" in s.attrs]


def lu_fill_per_job(spans):
    """Mean SuperLU.nnz of the factorizations each job made."""
    fills = {}
    for i, s in enumerate(spans):
        if s.name == "linalg.splu" and "nnz" in s.attrs:
            fills.setdefault(_job_of(spans, i), []).append(s.attrs["nnz"])
    return {job: sum(v) / len(v) for job, v in fills.items()}
