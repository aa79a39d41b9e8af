"""Icosphere construction, grading, and the discrete calculus on it."""

import math
from array import array
from collections import Counter
from itertools import accumulate
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, reject, settings, strategies as st

import conesphere.mesh as mesh_module
from conesphere.diagnostics import football_divisor
from conesphere.divisor import (
    divisor, equatorial_divisor, flagship_divisor, geodesic_distance, solver_scope_check)
from conesphere.errors import MeshError, ShapeError
from conesphere.mesh import (
    _grade_mesh,
    _icosahedron,
    _Neighbours,
    _orient,
    _rings,
    _row_norms,
    _snap_cones,
    _unique_edges,
    build_mesh,
    icosphere,
    spherical_face_areas,
    write_csv,
    write_off,
)


def edge_set(faces):
    e = np.vstack([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    return set(map(tuple, np.sort(e, axis=1)))


def test_icosphere_vertex_count():
    # 10 * 4^level + 2 vertices for recursive icosahedral subdivision
    for level in (0, 1, 2, 3):
        verts, faces = icosphere(level)
        assert len(verts) == 10 * 4**level + 2
        assert np.allclose(np.linalg.norm(verts, axis=1), 1.0, atol=1e-14)


def loop_subdivide(verts, faces):
    """One subdivision step, face by face: the reference for `icosphere`."""
    verts = list(verts)
    midpoint = {}

    def mid(a, b):
        key = (min(a, b), max(a, b))
        if key not in midpoint:
            m = verts[a] + verts[b]
            verts.append(m / np.linalg.norm(m))
            midpoint[key] = len(verts) - 1
        return midpoint[key]

    out = []
    for a, b, c in faces:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        out.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
    return np.array(verts), np.array(out, dtype=np.int64)


def test_icosphere_matches_loop_subdivision():
    ref_v, ref_f = _icosahedron()
    for level in range(5):
        verts, faces = icosphere(level)
        assert verts.tobytes() == ref_v.tobytes()
        np.testing.assert_array_equal(faces, ref_f)
        ref_v, ref_f = loop_subdivide(ref_v, ref_f)


def test_unique_edges_matches_row_unique():
    faces = build_mesh(3, flagship_divisor(), grading=2).faces
    e = np.sort(np.vstack([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]]), axis=1)
    edges, inv = _unique_edges(faces)
    np.testing.assert_array_equal(edges, np.unique(e, axis=0))
    ab_bc_ca = np.sort(faces[:, [[0, 1], [1, 2], [2, 0]]], axis=2).reshape(-1, 2)
    np.testing.assert_array_equal(edges[inv], ab_bc_ca)


def test_euler_formula_holds():
    for mesh in (build_mesh(3), build_mesh(3, flagship_divisor(), grading=2)):
        V = mesh.n_vertices
        F = len(mesh.faces)
        E = len(edge_set(mesh.faces))
        assert V - E + F == 2


def test_total_area_is_4pi():
    mesh = build_mesh(4)
    assert abs(mesh.areas.sum() - 4.0 * math.pi) / (4.0 * math.pi) < 1e-6
    assert np.all(mesh.areas > 0.0)


def test_second_moment_quadrature():
    mesh = build_mesh(4)
    z2 = np.sum(mesh.vertices[:, 2] ** 2 * mesh.areas)
    exact = 4.0 * math.pi / 3.0
    assert abs(z2 - exact) / exact < 0.005


def test_stiffness_symmetric_and_kills_constants():
    mesh = build_mesh(3, flagship_divisor(), grading=1)
    W = mesh.stiffness
    assert abs(W - W.T).max() < 1e-14
    ones = np.ones(mesh.n_vertices)
    assert np.max(np.abs(W @ ones)) < 1e-12


def test_laplace_eigenfunction():
    # coordinate functions are spherical harmonics: Lap z = -2 z
    mesh = build_mesh(4)
    z = mesh.vertices[:, 2]
    lap = mesh.laplace(z)
    err = np.max(np.abs(lap + 2.0 * z)) / np.max(np.abs(z))
    assert err < 0.02


def test_laplace_shape_check():
    mesh = build_mesh(2)
    with pytest.raises(ShapeError):
        mesh.laplace(np.zeros(mesh.n_vertices + 1))


def test_cone_points_are_vertices():
    div = flagship_divisor()
    mesh = build_mesh(4, div, grading=2)
    assert len(mesh.cone_vertices) == 3
    for cid, p in zip(mesh.cone_vertices, div.positions):
        assert np.linalg.norm(mesh.vertices[cid] - p) < 1e-12


def test_grading_refines_near_cones():
    div = flagship_divisor()
    coarse = build_mesh(3, div)
    fine = build_mesh(3, div, grading=3)
    assert fine.n_vertices > coarse.n_vertices

    def min_incident_edge(mesh, vertex):
        ring = one_ring(mesh, vertex)
        return float(np.min(np.linalg.norm(mesh.vertices[ring] - mesh.vertices[vertex], axis=1)))

    c0 = fine.cone_vertices[0]
    assert min_incident_edge(fine, c0) < 0.3 * min_incident_edge(coarse, coarse.cone_vertices[0])
    # refinement stays local: far hemisphere untouched to first order
    assert fine.n_vertices < 4 * coarse.n_vertices


@pytest.mark.parametrize(
    "div, base, grading",
    [(flagship_divisor(), 4, 3), (football_divisor(3), 4, 2)],
    ids=["flagship-b4-g3", "football3-b4-g2"],
)
def test_graded_mesh_is_a_closed_oriented_surface(div, base, grading):
    mesh = build_mesh(base, div, grading=grading)
    f = mesh.faces
    directed = Counter(map(tuple, np.vstack([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]]).tolist()))
    assert set(directed.values()) == {1}
    undirected = Counter(tuple(sorted(e)) for e in directed)
    assert set(undirected.values()) == {2}
    assert mesh.n_vertices - len(undirected) + len(f) == 2
    assert np.max(np.abs(np.linalg.norm(mesh.vertices, axis=1) - 1.0)) <= 1e-15
    assert np.array_equal(mesh.vertices[mesh.cone_vertices], div.positions)


def canonical(verts, faces):
    """The mesh without its numbering: the set of vertex byte-rows, and the
    set of faces as triples of byte-rows rotated to their smallest corner,
    so orientation still counts."""
    rows = [v.tobytes() for v in verts]
    tris = set()
    for f in faces.tolist():
        t = [rows[i] for i in f]
        k = t.index(min(t))
        tris.add(tuple(t[k:] + t[:k]))
    assert len(set(rows)) == len(rows) and len(tris) == len(faces)
    return set(rows), tris


def test_graded_mesh_matches_recorded_mesh():
    # Recorded with the earlier face-list grader.  Near-ties between edge
    # lengths decide the faces, so a change in the arithmetic shows here.
    # How midpoints and faces are numbered is the grader's choice; the base
    # vertices and the cones keep their ids.
    with np.load(Path(__file__).parent / "data" / "flagship_base3_grading2.npz") as ref:
        ref = dict(ref)
    mesh = build_mesh(3, flagship_divisor(), grading=2)
    assert mesh.n_vertices == 1338
    n_base = 10 * 4**3 + 2
    assert mesh.vertices[:n_base].tobytes() == ref["vertices"][:n_base].tobytes()
    np.testing.assert_array_equal(mesh.cone_vertices, ref["cone_vertices"])
    assert canonical(mesh.vertices, mesh.faces) == canonical(ref["vertices"], ref["faces"])


class PerFaceGrading:
    """Longest-edge bisection one face at a time, each midpoint and each
    face's rotation computed as the split makes it: the reference for the
    round-based `_Grading`, with the same interface."""

    def __init__(self, verts, faces):
        self.verts = np.array(verts, dtype=float)
        self.nv = len(verts)
        self.faces = array("q")
        self.alive = bytearray()
        self.longest = array("d")
        self.rec = []
        self.half = [{} for _ in range(len(verts))]
        edges, inv = _unique_edges(faces)
        length = _row_norms(self.verts[edges[:, 0]] - self.verts[edges[:, 1]])
        self.h_base = float(length.max())
        for f, l in zip(faces.tolist(), length[inv].reshape(-1, 3).tolist()):
            self._add(*f, *l)

    def _add(self, a, b, c, lab, lbc, lca):
        best = (lab, a, b) if a < b else (lab, b, a)
        rec = (a, b, c, lab, lbc, lca)
        key = (lbc, b, c) if b < c else (lbc, c, b)
        if key > best:
            best, rec = key, (b, c, a, lbc, lca, lab)
        key = (lca, c, a) if c < a else (lca, a, c)
        if key > best:
            best, rec = key, (c, a, b, lca, lab, lbc)
        half, fid = self.half, len(self.rec)
        half[a][b] = half[b][c] = half[c][a] = fid
        self.rec.append(rec)
        self.faces.extend((a, b, c))
        self.alive.append(1)
        self.longest.append(best[0])

    def _split(self, fid, m, l_am, l_mb, l_mc):
        a, b, c, _, lbc, lca = self.rec[fid]
        self.alive[fid] = 0
        del self.half[a][b]
        self._add(a, m, c, l_am, l_mc, lca)
        self._add(m, b, c, l_mb, lbc, l_mc)

    def _midpoint(self, a, b, c, d):
        m = self.nv
        self.nv += 1
        self.half.append({})
        self.verts = np.vstack([self.verts, np.zeros((1, 3))])
        r = self.verts.take([a, b, c, d], axis=0)
        p = r[0] + r[1]
        p /= _row_norms(p)
        self.verts[m] = p
        r -= p
        return m, _row_norms(r).tolist()

    def bisect(self, fid):
        stack = [fid]
        while stack:
            t = stack[-1]
            if not self.alive[t]:
                stack.pop()
                continue
            a, b, c = self.rec[t][:3]
            nb = self.half[b][a]
            if self.rec[nb][:2] == (b, a):
                m, (l_am, l_mb, l_mc, l_md) = self._midpoint(a, b, c, self.rec[nb][2])
                self._split(t, m, l_am, l_mb, l_mc)
                self._split(nb, m, l_mb, l_am, l_md)
                stack.pop()
            else:
                stack.append(nb)

    def sweep(self, pos, cos_r, target):
        near = self.verts[: self.nv] @ pos >= cos_r
        todo = [
            f for f, (a, b, c) in enumerate(np.reshape(self.faces, (-1, 3)).tolist())
            if self.alive[f] and (near[a] or near[b] or near[c]) and self.longest[f] >= target
        ]
        for fid in todo:
            if self.alive[fid]:
                self.bisect(fid)
        return len(todo) > 0

    def arrays(self):
        faces = np.reshape(self.faces, (-1, 3))
        return self.verts[: self.nv].copy(), faces[np.frombuffer(self.alive, dtype=bool)]


@pytest.mark.parametrize(
    "div, base, grading",
    [(flagship_divisor(), 3, 2), (flagship_divisor(), 4, 3), (flagship_divisor(), 3, 6),
     (football_divisor(2), 4, 2), (football_divisor(3), 4, 2),
     (equatorial_divisor([-0.3] * 3), 4, 3)],
    ids=["flagship-b3-g2", "flagship-b4-g3", "flagship-b3-g6", "football2-b4-g2",
         "football3-b4-g2", "equilateral-b4-g3"],
)
def test_batched_grading_matches_per_face_grading(monkeypatch, div, base, grading):
    # A round splits many faces at once; the faces and the vertex bytes must
    # be those of splitting one face at a time, and the base vertices and the
    # cones keep their ids.
    mesh = build_mesh(base, div, grading=grading)
    monkeypatch.setattr(mesh_module, "_Grading", PerFaceGrading)
    mesh_module._build_mesh.cache_clear()  # else build_mesh returns `mesh` again
    try:
        ref = build_mesh(base, div, grading=grading)
    finally:
        mesh_module._build_mesh.cache_clear()  # later builds must not get the reference
    assert ref is not mesh
    n_base = 10 * 4**base + 2
    assert ref.n_vertices > n_base  # the reference did grade
    assert mesh.vertices[:n_base].tobytes() == ref.vertices[:n_base].tobytes()
    np.testing.assert_array_equal(mesh.cone_vertices, ref.cone_vertices)
    assert canonical(mesh.vertices, mesh.faces) == canonical(ref.vertices, ref.faces)


def _sphere_point(z, theta):
    r = math.sqrt(1.0 - z * z)
    return r * math.cos(theta), r * math.sin(theta), z


SPHERE_POINTS = st.builds(_sphere_point, st.floats(-1.0, 1.0), st.floats(0.0, 2.0 * math.pi))


@st.composite
def troyanov_exponents(draw):
    """Three exponents -x_i whose x_i satisfy the triangle inequality,
    Troyanov's condition for three cones."""
    x1, x2 = draw(st.floats(0.05, 0.95)), draw(st.floats(0.05, 0.95))
    f = draw(st.floats(0.01, 0.99))
    lo, hi = abs(x1 - x2), min(1.0, x1 + x2)
    return -x1, -x2, -(lo + f * (hi - lo))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(positions=st.tuples(*[SPHERE_POINTS] * 3), betas=troyanov_exponents(),
       base=st.integers(2, 3), grading=st.integers(1, 4))
def test_rounds_grade_random_divisors_as_one_face_at_a_time(positions, betas, base, grading):
    p = np.array(positions)
    gaps = geodesic_distance(p[:, None], p)[np.triu_indices(3, 1)]
    assume(gaps.min() >= 4.0 * math.pi / (5 * 2**base))  # else build_mesh rejects the divisor
    div = divisor(p, betas)
    assume(solver_scope_check(div).passed)
    verts, faces = icosphere(base)
    try:
        verts, _ = _snap_cones(verts, faces, div.positions)
    except MeshError:  # two cones nearest one vertex: build_mesh rejects the divisor
        reject()
    got = _grade_mesh(verts, faces, div.positions, grading, 0.3)
    with mock.patch.object(mesh_module, "_Grading", PerFaceGrading):
        ref = _grade_mesh(verts, faces, div.positions, grading, 0.3)
    assert len(ref[0]) > len(verts)
    assert canonical(*got) == canonical(*ref)


@pytest.mark.parametrize("div", [flagship_divisor(), football_divisor(3)], ids=["flagship", "football3"])
def test_graded_mesh_does_not_depend_on_the_base_face_order(div):
    # The faces each round splits do not depend on the order the faces are
    # stored in, nor on which corner a face starts at: what lets a round
    # split them all at once.
    base = build_mesh(3, div)
    rng = np.random.default_rng(7)
    shuffled = base.faces[rng.permutation(len(base.faces))]
    turn = (rng.integers(3, size=(len(shuffled), 1)) + np.arange(3)) % 3
    shuffled = np.take_along_axis(shuffled, turn, axis=1)
    graded = _grade_mesh(base.vertices, base.faces, div.positions, 3, 0.3)
    again = _grade_mesh(base.vertices, shuffled, div.positions, 3, 0.3)
    assert not np.array_equal(graded[1], again[1])
    assert canonical(*graded) == canonical(*again)


def test_orient_breaks_length_ties_by_the_larger_sorted_pair():
    tri = np.array([[0, 1, 2], [1, 3, 9], [9, 3, 2], [4, 7, 6], [4, 7, 6]])
    lens = np.array([[1.0, 1.0, 1.0], [0.5, 1.0, 1.0], [1.0, 0.5, 1.0],
                     [2.0, 1.0, 2.0], [1.0, 3.0, 2.0]])
    turn = _orient(tri, lens)
    rotated, rotated_lens = (np.take_along_axis(a, turn, axis=1) for a in (tri, lens))
    # (1, 2) beats (0, 1) and (0, 2); both faces on edge 3-9 put it first,
    # over the tied (1, 9) and (2, 9); (4, 7) beats (4, 6); a longer edge
    # wins over any pair
    np.testing.assert_array_equal(rotated, [[1, 2, 0], [3, 9, 1], [9, 3, 2], [4, 7, 6], [7, 6, 4]])
    np.testing.assert_array_equal(rotated_lens, [[1.0, 1.0, 1.0], [1.0, 1.0, 0.5], [1.0, 0.5, 1.0],
                                                 [2.0, 1.0, 2.0], [3.0, 2.0, 1.0]])


CLOSE_DIV = equatorial_divisor([-0.3, -0.4, -0.5], gaps=[0.01, 1.0, 2 * math.pi - 1.01])


def test_build_mesh_parameter_validation():
    div = flagship_divisor()
    with pytest.raises(MeshError):
        build_mesh(3, div, grading=-1)
    with pytest.raises(MeshError):
        build_mesh(3, div, grading=1, grading_radius=0.0)
    with pytest.raises(MeshError):
        build_mesh(3, CLOSE_DIV)


@pytest.mark.parametrize("base_level, grading", [(2, math.nan), (2, 2.5), (2.5, 1), (math.nan, 1)],
                         ids=["grading-nan", "grading-2.5", "base-2.5", "base-nan"])
def test_build_mesh_levels_must_be_integers(base_level, grading):
    # grading NaN gave the ungraded mesh; 2.5 ended in range()'s TypeError
    with pytest.raises(MeshError, match="nonnegative integer"):
        build_mesh(base_level, flagship_divisor(), grading=grading)


@pytest.mark.parametrize("level", [2.5, math.nan, -1])
def test_icosphere_level_must_be_a_nonnegative_integer(level):
    with pytest.raises(MeshError, match="nonnegative integer"):
        icosphere(level)


def test_build_mesh_rejects_nan_grading_radius():
    # NaN passed the old `<= 0` test and gave the ungraded mesh
    with pytest.raises(MeshError):
        build_mesh(3, flagship_divisor(), grading=2, grading_radius=math.nan)


def test_equal_arguments_return_one_mesh():
    # the exponents do not enter the mesh, so they do not enter the key
    div = flagship_divisor()
    mesh = build_mesh(3, div, grading=2)
    other = divisor(div.positions, -0.5 * np.ones(len(div)))
    assert build_mesh(3, div, grading=2) is mesh
    assert build_mesh(3, other, grading=2) is mesh


ZERO_DIV = divisor([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]], [-0.3, -0.4])
NEG_ZERO_DIV = divisor([[0.0, 0.0, 1.0], [1.0, -0.0, 0.0]], [-0.3, -0.4])


@pytest.mark.parametrize("args", [(3, ZERO_DIV, 1, 0.3), (2, ZERO_DIV, 2, 0.3),
                                  (2, ZERO_DIV, 1, 0.4), (2, NEG_ZERO_DIV, 1, 0.3)],
                         ids=["level", "grading", "radius", "negative-zero"])
def test_a_changed_key_field_builds_a_fresh_mesh(args):
    mesh = build_mesh(2, ZERO_DIV, 1, 0.3)
    assert build_mesh(*args) is not mesh


def test_negative_zero_positions_give_other_vertex_bytes():
    # 0.0 == -0.0, but snapping writes the sign into the vertices
    a, b = build_mesh(2, ZERO_DIV, 1, 0.3), build_mesh(2, NEG_ZERO_DIV, 1, 0.3)
    assert np.array_equal(a.vertices, b.vertices)
    assert a.vertices.tobytes() != b.vertices.tobytes()


def test_cached_mesh_arrays_are_read_only():
    mesh = build_mesh(2, flagship_divisor(), grading=1)
    with pytest.raises(ValueError, match="read-only"):
        mesh.vertices[0, 0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        mesh.areas *= 2.0
    W = mesh.stiffness
    for a in (mesh.faces, mesh.cone_vertices, W.data, W.indices, W.indptr):
        assert not a.flags.writeable


@pytest.mark.parametrize("args", [(-1,), (2, None, 1, math.nan), (3, CLOSE_DIV)],
                         ids=["level", "radius", "close-cones"])
def test_invalid_arguments_fail_on_every_call(args):
    for _ in range(2):
        with pytest.raises(MeshError):
            build_mesh(*args)


def test_the_least_recently_used_mesh_is_dropped():
    # without cones the radius changes only the key; level 1 builds fast
    def build(radius):
        return build_mesh(1, grading_radius=radius)

    a, b = build(0.1), build(0.2)
    build(0.3), build(0.4)
    assert build(0.1) is a  # four meshes fit; a is now the most recent
    build(0.5)  # a fifth drops b, the least recently used
    assert build(0.1) is a
    assert build(0.2) is not b


def reference_dissection(points, nbrs, part):
    """Nested dissection as specified, on adjacency sets: sort along the widest
    coordinate (stable), split after the first k nodes, k in [m // 5, m - m // 5]
    minimising |separator| / (k (m - k)), the first such k on ties; separator =
    low nodes with a high neighbour; order [low minus separator, high,
    separator]; leaves of 64."""
    m = len(part)
    if m <= 64:
        return list(part)
    x = points[part]
    part = part[np.argsort(x[:, np.argmax(np.ptp(x, axis=0))], kind="stable")]
    at = {v: p for p, v in enumerate(part.tolist())}
    # the node at position p is in the separator of each split after k with
    # p < k <= its last neighbour's position: a difference array over k
    delta = [0] * (m + 1)
    for p, v in enumerate(part.tolist()):
        last = max([at[w] for w in nbrs[v] if w in at], default=p)
        if last > p:
            delta[p + 1] += 1
            delta[last + 1] -= 1
    size = list(accumulate(delta))
    k = min(range(m // 5, m - m // 5 + 1), key=lambda k: size[k] / (k * (m - k)))
    low, high = part[:k], part[k:]
    high_set = set(high.tolist())
    sep = [v for v in low if nbrs[v] & high_set]
    rest = np.array([v for v in low if not nbrs[v] & high_set], dtype=int)
    return (reference_dissection(points, nbrs, rest)
            + reference_dissection(points, nbrs, high) + sep)


def test_ordering_is_the_cached_nested_dissection():
    div = flagship_divisor()
    mesh = build_mesh(3, div, grading=2)
    order = mesh.ordering()
    nbrs = reference_adjacency(mesh.n_vertices, mesh.faces)
    expected = reference_dissection(mesh.vertices, nbrs, np.arange(mesh.n_vertices))
    assert np.array_equal(order, expected)
    assert np.array_equal(np.sort(order), np.arange(mesh.n_vertices))
    assert mesh.ordering() is order
    mesh_module._build_mesh.cache_clear()
    again = build_mesh(3, div, grading=2)
    assert again is not mesh and np.array_equal(again.ordering(), order)


def test_ordering_takes_the_first_of_tied_cuts():
    # the icosphere's symmetry gives cuts of equal score, in one split of 12
    mesh = build_mesh(3)
    nbrs = reference_adjacency(mesh.n_vertices, mesh.faces)
    expected = reference_dissection(mesh.vertices, nbrs, np.arange(mesh.n_vertices))
    assert np.array_equal(mesh.ordering(), expected)


def reference_adjacency(n_verts, faces):
    """Neighbour sets filled by a plain loop over the faces."""
    nbrs = [set() for _ in range(n_verts)]
    for a, b, c in faces.tolist():
        nbrs[a].update((b, c))
        nbrs[b].update((a, c))
        nbrs[c].update((a, b))
    return nbrs


@pytest.mark.parametrize("div", [flagship_divisor(), None], ids=["flagship-graded", "icosphere"])
def test_adjacency_iterates_in_face_loop_order(div):
    # Cone snapping relaxes nodes Gauss-Seidel in set order, so the sets
    # must iterate exactly as the loop's do, not merely hold the same nodes.
    mesh = build_mesh(3, div, grading=2 if div else 0)
    ref = reference_adjacency(mesh.n_vertices, mesh.faces)
    nbrs = _Neighbours(mesh.n_vertices, mesh.faces)
    assert all(list(ref[v]) == list(nbrs[v]) for v in range(mesh.n_vertices))


def one_ring(mesh, v):
    """The 1-ring of node v: its row of the stiffness pattern, minus v."""
    W = mesh.stiffness
    row = W.indices[W.indptr[v] : W.indptr[v + 1]]
    return row[row != v]


@pytest.mark.parametrize("div", [flagship_divisor(), None], ids=["flagship-graded", "icosphere"])
def test_stiffness_rows_are_the_one_rings(div):
    mesh = build_mesh(3, div, grading=2 if div else 0)
    ref = reference_adjacency(mesh.n_vertices, mesh.faces)
    assert all(set(one_ring(mesh, v).tolist()) == ref[v] for v in range(mesh.n_vertices))
    if div:
        # where the two angles opposite an edge sum to pi their cotangents
        # cancel exactly: the pattern, not the nonzeros, holds the rings
        assert np.count_nonzero(mesh.stiffness.data == 0.0) == 2


def test_edge_lengths_read_the_stiffness_pattern():
    mesh = build_mesh(3, flagship_divisor(), grading=2)
    e, _ = _unique_edges(mesh.faces)
    ref = np.linalg.norm(mesh.vertices[e[:, 0]] - mesh.vertices[e[:, 1]], axis=1)
    assert mesh.edge_lengths().tobytes() == ref.tobytes()


def reference_node_areas(verts, faces):
    """Circumcentric lumping with its own cotangent loop and one scatter per
    corner, as assembled before the cotangents were shared."""
    corners = [verts[faces[:, k]] for k in range(3)]
    a, b, c = corners
    flat_area = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    contrib = np.zeros((len(faces), 3))
    for k in range(3):
        i, j, o = k, (k + 1) % 3, (k + 2) % 3
        u = corners[i] - corners[o]
        w = corners[j] - corners[o]
        cot = np.einsum("ij,ij->i", u, w) / np.linalg.norm(np.cross(u, w), axis=1)
        e2 = np.einsum("ij,ij->i", corners[i] - corners[j], corners[i] - corners[j])
        contrib[:, i] += e2 * cot / 8.0
        contrib[:, j] += e2 * cot / 8.0
    for k in range(3):
        i, j, o = k, (k + 1) % 3, (k + 2) % 3
        obtuse = np.einsum("ij,ij->i", corners[j] - corners[i], corners[o] - corners[i]) < 0.0
        contrib[obtuse, i] = flat_area[obtuse] / 2.0
        contrib[obtuse, j] = flat_area[obtuse] / 4.0
        contrib[obtuse, o] = flat_area[obtuse] / 4.0
    contrib *= (spherical_face_areas(verts, faces) / contrib.sum(axis=1))[:, None]
    areas = np.zeros(len(verts))
    for k in range(3):
        np.add.at(areas, faces[:, k], contrib[:, k])
    return areas


def reference_stiffness(verts, faces):
    """Cotangent stiffness with its own cotangent loop."""
    n = len(verts)
    ii, jj, vv = [], [], []
    for k in range(3):
        i, j, o = faces[:, k], faces[:, (k + 1) % 3], faces[:, (k + 2) % 3]
        u = verts[i] - verts[o]
        w = verts[j] - verts[o]
        cot = np.einsum("ij,ij->i", u, w) / np.linalg.norm(np.cross(u, w), axis=1)
        half = 0.5 * cot
        ii.extend([i, j, i, j])
        jj.extend([j, i, i, j])
        vv.extend([-half, -half, half, half])
    W = sp.csr_matrix((np.concatenate(vv), (np.concatenate(ii), np.concatenate(jj))), shape=(n, n))
    W.sum_duplicates()
    return W


@pytest.mark.parametrize("div, grading", [(flagship_divisor(), 3), (football_divisor(3), 3)],
                         ids=["flagship-graded", "football-3"])
def test_assembly_matches_per_function_cotangents(div, grading):
    # one shared cotangent table and one bincount scatter add the same
    # terms in the same order as the separate loops
    mesh = build_mesh(4, div, grading=grading)
    areas = reference_node_areas(mesh.vertices, mesh.faces)
    W = reference_stiffness(mesh.vertices, mesh.faces)
    assert mesh.areas.tobytes() == areas.tobytes()
    for name in ("data", "indices", "indptr"):
        assert getattr(mesh.stiffness, name).tobytes() == getattr(W, name).tobytes()


def test_ring_contains_center_and_grows():
    verts, faces = icosphere(3)
    nbrs = _Neighbours(len(verts), faces)
    r1 = _rings(nbrs, 0, 1)
    r2 = _rings(nbrs, 0, 2)
    assert 0 in r1
    assert r1 < r2


def test_write_csv_and_off(tmp_path):
    mesh = build_mesh(1)
    f = mesh.vertices[:, 0]
    csv = tmp_path / "field.csv"
    write_csv(csv, mesh, f)
    text = csv.read_text()
    assert text == "x,y,z,value\n" + "".join(
        f"{v[0]:.17g},{v[1]:.17g},{v[2]:.17g},{val:.17g}\n" for v, val in zip(mesh.vertices, f)
    )
    lines = text.splitlines()
    assert lines[0] == "x,y,z,value"
    assert len(lines) == mesh.n_vertices + 1
    data = np.loadtxt(csv, delimiter=",", skiprows=1)
    assert np.allclose(data[:, :3], mesh.vertices)
    assert np.allclose(data[:, 3], f)

    off = tmp_path / "mesh.off"
    write_off(off, mesh)
    head = off.read_text().splitlines()
    assert head[0] == "OFF"
    assert head[1].split() == [str(mesh.n_vertices), str(len(mesh.faces)), "0"]

    with pytest.raises(ShapeError):
        write_csv(tmp_path / "bad.csv", mesh, f[:-1])


def lines(text_or_path):
    """Lines with their ends, of a string or of a file's text."""
    text = text_or_path if isinstance(text_or_path, str) else text_or_path.read_text()
    return text.splitlines(keepends=True)


def test_write_csv_formats_each_mesh_once(tmp_path):
    """Two fields on one mesh (the cached coordinates reused), then one on a
    second mesh with as many nodes (its own coordinates, not the first's)."""
    snapped, plain = build_mesh(3, flagship_divisor()), build_mesh(3)
    fields = [
        (snapped, snapped.vertices[:, 0] ** 3),
        (snapped, np.exp(snapped.vertices[:, 2])),
        (plain, 1.0 / (3.0 + plain.vertices[:, 1])),
    ]
    for k, (mesh, values) in enumerate(fields):
        path = tmp_path / f"field{k}.csv"
        write_csv(path, mesh, values)
        rows = np.column_stack([mesh.vertices, values])
        expected = ("%.17g,%.17g,%.17g,%.17g\n" * len(rows)) % tuple(rows.ravel().tolist())
        # line lists, not one string: pytest's diff of two long strings is slow
        assert lines(path) == lines("x,y,z,value\n" + expected)


def test_write_off_matches_per_line_formatting(tmp_path):
    mesh = build_mesh(3, flagship_divisor(), grading=2)
    path = tmp_path / "mesh.off"
    write_off(path, mesh)
    expected = [f"OFF\n{mesh.n_vertices} {len(mesh.faces)} 0\n"]
    expected += [f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n" for v in mesh.vertices]
    expected += [f"3 {f[0]} {f[1]} {f[2]}\n" for f in mesh.faces]
    assert lines(path) == lines("".join(expected))
