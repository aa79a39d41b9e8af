"""Triangulated unit-sphere meshes: icosphere refinement, cone-vertex
snapping, local longest-edge grading, cotangent stiffness and lumped
spherical areas, and simple exporters.

All vertices live exactly on the unit sphere.  The discrete Laplacian is
the cotangent stiffness matrix W (symmetric positive semidefinite, rows
summing to zero) divided by lumped node areas: (laplace f)_v = -(W f)_v / A_v.
Node areas are one third of the *spherical* area of each incident triangle,
so they sum to the exact sphere area 4*pi up to roundoff.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .divisor import Divisor
from .errors import MeshError, ShapeError

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------------------
# Icosphere construction


def _icosahedron():
    t = _GOLDEN
    verts = np.array(
        [
            (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
            (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
            (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = np.array(
        [
            (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
            (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
            (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
            (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
        ],
        dtype=np.int64,
    )
    return verts, faces


def _row_norms(d):
    """Euclidean norm of each row of `d` (or of `d` itself, if 1-D)."""
    # Bit for bit np.linalg.norm of a 3-vector (both use BLAS ddot): length near-ties decide faces.
    return np.sqrt(np.vecdot(d, d))


def _face_edges(faces):
    """Directed edges ab, bc, ca of each face in turn, as rows."""
    return faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)


def _subdivide(verts, faces):
    """Split each face in four; edge midpoints are numbered in order of
    first occurrence along the face list, each face visiting ab, bc, ca."""
    n = len(verts)
    e = _face_edges(faces)
    lo, hi = e.min(axis=1), e.max(axis=1)
    _, first, inv = np.unique(lo * n + hi, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    ab, bc, ca = (n + rank[inv]).reshape(-1, 3).T
    m = verts[lo[first[order]]] + verts[hi[first[order]]]
    m /= _row_norms(m)[:, None]
    a, b, c = faces.T
    out = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    return np.vstack([verts, m]), out


def _check_level(name, value):
    if not (isinstance(value, (int, np.integer)) and value >= 0):  # NaN and 2.5 fail
        raise MeshError(f"{name} must be a nonnegative integer, got {value!r}")


def icosphere(level: int):
    """Vertices and faces of the icosahedral sphere mesh at the given level.

    Vertex count is 10 * 4**level + 2.
    """
    _check_level("refinement level", level)
    verts, faces = _icosahedron()
    for _ in range(level):
        verts, faces = _subdivide(verts, faces)
    return verts, faces


# ---------------------------------------------------------------------------
# Cone snapping and local smoothing


class _Neighbours:
    """Neighbour sets of the nodes, `nbrs[v]` built when indexed.  A stable
    argsort groups the corners by node in face order, and each corner adds its
    face's other two corners in corner order: the insertion order of a loop
    over the faces, so each set iterates as that loop's set does (the
    Gauss-Seidel relaxation of `_snap_cones` follows that order)."""

    def __init__(self, n_verts, faces):
        flat = faces.ravel()
        corner = np.argsort(flat, kind="stable")
        k = corner % 3
        self._seq = flat[(corner - k)[:, None] + np.array([[1, 2], [0, 2], [0, 1]])[k]].ravel()
        count = np.bincount(flat, minlength=n_verts)
        self._start = [0] + (2 * np.cumsum(count)).tolist()

    def __getitem__(self, v):
        return set(self._seq[self._start[v] : self._start[v + 1]].tolist())


def _rings(nbrs, center, depth):
    """Vertex indices within graph distance `depth` of `center` (center included)."""
    ring = {center}
    frontier = {center}
    for _ in range(depth):
        frontier = set().union(*(nbrs[v] for v in frontier)) - ring
        ring |= frontier
    return ring


def _snap_cones(verts, faces, positions):
    """Move the nearest mesh vertex onto each cone position, then relax the
    surrounding 2-ring tangentially so triangle quality does not degrade."""
    cone_ids = []
    for pos in positions:
        i = int(np.argmax(verts @ pos))
        if i in cone_ids:
            raise MeshError("two cone points snap to the same mesh vertex; refine the base mesh")
        verts[i] = pos
        cone_ids.append(i)

    nbrs = _Neighbours(len(verts), faces)
    frozen = set(cone_ids)
    free = set()
    for i in cone_ids:
        free |= _rings(nbrs, i, 2)
    free -= frozen
    for _ in range(10):
        for v in free:
            m = np.mean([verts[u] for u in nbrs[v]], axis=0)
            verts[v] = m / np.linalg.norm(m)
    return verts, cone_ids


# ---------------------------------------------------------------------------
# Conforming longest-edge bisection grading


def _orient(tri, lens):
    """Faces `tri` rotated longest edge first, with their edge lengths (row i
    of `lens` holds those of edges ab, bc, ca of face i).  Edges are keyed
    (length, lo * n + hi), so equal lengths go to the larger sorted pair and
    the two faces on an edge agree on it.  Vertex ids break only exact ties;
    on the graded meshes measured, every such tie lay among base vertices,
    whose ids do not depend on the order of the splits."""
    nxt = tri[:, [1, 2, 0]]
    pair = np.minimum(tri, nxt) * (int(tri.max()) + 1) + np.maximum(tri, nxt)
    turn = (np.lexsort((pair, lens))[:, -1:] + np.arange(3)) % 3
    return np.take_along_axis(tri, turn, axis=1), np.take_along_axis(lens, turn, axis=1)


# A split of (a, b, c) and its neighbour (b, a, d) at the midpoint m of ab
# leaves (a, m, c), (m, b, c), (b, m, d) and (m, a, d); row k lists the edge
# lengths of child k as columns of [am, mb, mc, md, ca, bc, db, ad], and the
# faces across its edges as columns of [child 0-3, across ca, bc, db, ad].
_CHILD_LENGTHS = np.array([[0, 2, 4], [1, 5, 2], [1, 3, 6], [0, 7, 3]])
_CHILD_NBRS = np.array([[3, 1, 4], [2, 5, 0], [1, 3, 6], [0, 7, 2]])
_OUTER = np.array([2, 1, 2, 1])  # child k's edge, and its parent's, that faces out


def _grown(a, n):
    """`a` if it has n rows, else a copy of it with room for 2n rows."""
    if n <= len(a):
        return a
    b = np.empty((2 * n, *a.shape[1:]), a.dtype)
    b[: len(a)] = a
    return b


class _Grading:
    """Conforming longest-edge (Rivara) bisection, a round of splits at a time.

    Row f of `T` is a face rotated longest edge first by `_orient`, `L[f]`
    the lengths of its edges ab, bc, ca and `N[f]` the faces across them, so
    the mesh must be closed, as icosphere meshes are; `alive` flags faces not
    yet split, among the first `nf` rows (and `nv` vertices) in use.  Each
    edge length is computed once and handed down to the faces that share it.
    """

    def __init__(self, verts, faces):
        self.verts = np.array(verts, dtype=float)
        self.nv = len(verts)
        edges, inv = _unique_edges(faces)
        length = _row_norms(self.verts[edges[:, 0]] - self.verts[edges[:, 1]])
        self.h_base = float(length.max())
        twins = np.argsort(inv, kind="stable").reshape(-1, 2)  # the two slots of each edge
        across = np.empty(3 * len(faces), dtype=np.int64)
        across[twins] = twins[:, ::-1] // 3
        self.nf = 0
        self.T = np.empty((0, 3), dtype=np.int64)
        self.L = np.empty((0, 3))
        self.N = np.empty((0, 3), dtype=np.int64)
        self.alive = np.empty(0, dtype=bool)
        self._append(faces, length[inv].reshape(-1, 3), across.reshape(-1, 3))
        # the last sweep's (centre, cos radius, nf) and the live faces touching it
        self.ball, self.touching = (None, 0.0, 0), None

    def _append(self, tri, lens, nbrs):
        """Append the faces `tri` rotated longest edge first, with the lengths
        of their edges ab, bc, ca and the faces across them."""
        rot, lens = _orient(tri, lens)
        turn = np.argmax(tri == rot[:, :1], axis=1)
        nbrs = np.take_along_axis(nbrs, (turn[:, None] + np.arange(3)) % 3, axis=1)
        f, n = self.nf, self.nf + len(tri)
        self.T, self.L, self.N, self.alive = (
            _grown(a, n) for a in (self.T, self.L, self.N, self.alive))
        self.T[f:n], self.L[f:n], self.N[f:n], self.alive[f:n] = rot, lens, nbrs, True
        self.nf = n

    def _split(self, t):
        """Split each face t = (a, b, c) and its neighbour (b, a, d) across
        their common longest edge ab at its midpoint."""
        T, L, N = self.T, self.L, self.N
        nb = N[t, 0]
        ends = np.column_stack([T[t], T[nb, 2]])  # a, b, c, d
        m = self.nv + np.arange(len(t))
        self.verts = _grown(self.verts, m[-1] + 1)
        r = self.verts[ends]
        p = r[:, 0] + r[:, 1]
        p /= _row_norms(p)[:, None]
        self.verts[m] = p
        self.nv += len(t)
        lens = np.hstack([_row_norms(r - p[:, None]), L[t][:, [2, 1]], L[nb][:, [2, 1]]])
        a, b, c, d = ends.T
        tri = np.stack([a, m, c, m, b, c, b, m, d, m, a, d], axis=1).reshape(-1, 3)
        kids = self.nf + np.arange(4 * len(t)).reshape(-1, 4)
        outer = np.column_stack([N[t, 2], N[t, 1], N[nb, 2], N[nb, 1]])
        nbrs = np.hstack([kids, outer])[:, _CHILD_NBRS].reshape(-1, 3)
        # Repoint the outer neighbours at the children.  For one split in this
        # round too, its dead row's slot for the edge names its child there.
        parent = np.column_stack([t, t, nb, nb]).ravel()
        kid, outer, col = kids.ravel(), outer.ravel(), np.tile(_OUTER, len(t))
        slot = np.argmax(N[outer] == parent[:, None], axis=1)
        self.alive[t] = self.alive[nb] = False
        N[parent, col] = kid
        split = ~self.alive[outer]
        N[outer[~split], slot[~split]] = kid[~split]
        nbrs[kid[split] - self.nf, col[split]] = N[outer[split], slot[split]]
        self._append(tri, lens[:, _CHILD_LENGTHS].reshape(-1, 3), nbrs)

    def sweep(self, pos, cos_r, target):
        """Bisect every live face that touches the ball {x : x . pos >= cos_r}
        and whose longest edge is at least `target`, and what conformity needs:
        each round splits the terminal pairs (two faces whose longest edge is
        the one they share) of the marked faces' closure under "the face
        across my longest edge".  Returns whether any face qualified.  Inside
        the last sweep's ball (same centre, radius no larger), only the faces
        that touched that ball and those made since can touch this one."""
        nf = self.nf
        centre, cos_last, seen = self.ball
        rows = np.arange(nf)
        if np.array_equal(pos, centre) and cos_r >= cos_last:
            rows = np.concatenate([self.touching, rows[seen:]])
        rows = rows[self.alive[rows]]
        near = (self.verts[: self.nv] @ pos >= cos_r)[self.T[rows]]
        self.touching = rows[near[:, 0] | near[:, 1] | near[:, 2]]
        self.ball = pos, cos_r, nf
        marked = self.touching[self.L[self.touching, 0] >= target]
        hit = len(marked) > 0
        while len(marked):
            N = self.N
            closed = np.zeros(self.nf, dtype=bool)
            closed[marked] = True
            front = marked
            while len(front):
                front = N[front, 0]
                front = front[~closed[front]]
                closed[front] = True
            t = np.flatnonzero(closed)
            if not self.alive[t].all():  # broken adjacency: fail, not grow without end
                raise MeshError("a longest edge leads to a face already split")
            nb = N[t, 0]
            t = t[(N[nb, 0] == t) & (t < nb)]
            if not len(t):
                raise MeshError("longest-edge propagation found no pair to split")
            self._split(t)
            marked = marked[self.alive[marked]]
        return hit

    def arrays(self):
        return self.verts[: self.nv].copy(), self.T[: self.nf][self.alive[: self.nf]]


def _grade_mesh(verts, faces, positions, grading, grading_radius):
    """Refine around each cone position in turn: `grading` levels, level l
    halving edges down to h_base / 2**(l+1) within grading_radius / 2**l,
    where h_base is the longest edge of the base mesh.  The faces are those
    of splitting the marked faces one at a time, in any order; splitting a
    round at a time decides only how the midpoints and faces are numbered."""
    g = _Grading(verts, faces)
    for pos in positions:
        for level in range(grading):
            cos_r = math.cos(min(grading_radius * 0.5**level, math.pi))
            target = g.h_base * 0.5 ** (level + 1)
            while g.sweep(pos, cos_r, target):
                pass
    return g.arrays()


# ---------------------------------------------------------------------------
# Edges, areas and stiffness


def _unique_edges(faces):
    """Each undirected edge once, as rows (i, j) with i < j, sorted, and the
    row holding each row of `_face_edges(faces)`."""
    e = np.sort(_face_edges(faces), axis=1)
    n = int(e.max()) + 1
    key, inv = np.unique(e[:, 0] * n + e[:, 1], return_inverse=True)
    return np.stack([key // n, key % n], axis=1), inv


def spherical_face_areas(verts, faces):
    """Spherical excess area of each face (van Oosterom-Strackee formula)."""
    a = verts[faces[:, 0]]
    b = verts[faces[:, 1]]
    c = verts[faces[:, 2]]
    num = np.einsum("ij,ij->i", a, np.cross(b, c))
    den = 1.0 + np.einsum("ij,ij->i", a, b) + np.einsum("ij,ij->i", b, c) + np.einsum("ij,ij->i", c, a)
    area = 2.0 * np.arctan2(np.abs(num), den)
    if np.any(area <= 0.0):
        raise MeshError("degenerate face with nonpositive spherical area")
    return area


def _corner_cotangents(verts, faces):
    """(F, 3) table whose column k holds the cotangent of each face's flat
    angle at corner k + 2, opposite its edge (k, k + 1) (corners mod 3)."""
    cot = np.empty((len(faces), 3))
    for k in range(3):
        o = verts[faces[:, (k + 2) % 3]]
        u = verts[faces[:, k]] - o
        w = verts[faces[:, (k + 1) % 3]] - o
        cot[:, k] = np.einsum("ij,ij->i", u, w) / np.linalg.norm(np.cross(u, w), axis=1)
    return cot


def lumped_node_areas(verts, faces, cot):
    """Circumcentric (mixed Voronoi) lumping, rescaled per triangle so the
    three contributions sum to the spherical triangle area; `cot` is the
    _corner_cotangents table.

    Total node area is then exactly 4*pi, while the Voronoi-style split keeps
    the pointwise Laplacian consistent at the twelve valence-5 vertices,
    where plain barycentric lumping misweights the stencil by an O(1) factor.
    """
    a = verts[faces[:, 0]]
    b = verts[faces[:, 1]]
    c = verts[faces[:, 2]]
    corners = [a, b, c]
    flat_area = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    contrib = np.zeros((len(faces), 3))
    for k in range(3):
        i, j = k, (k + 1) % 3
        edge = corners[i] - corners[j]
        share = np.einsum("ij,ij->i", edge, edge) * cot[:, k] / 8.0
        contrib[:, i] += share
        contrib[:, j] += share
    # obtuse triangles: circumcenter lies outside, use the standard fallback
    for k in range(3):
        i, j, o = k, (k + 1) % 3, (k + 2) % 3
        u = corners[j] - corners[i]
        w = corners[o] - corners[i]
        obtuse = np.einsum("ij,ij->i", u, w) < 0.0
        contrib[obtuse, i] = flat_area[obtuse] / 2.0
        contrib[obtuse, j] = flat_area[obtuse] / 4.0
        contrib[obtuse, o] = flat_area[obtuse] / 4.0
    sph = spherical_face_areas(verts, faces)
    contrib *= (sph / contrib.sum(axis=1))[:, None]
    # corner-major: every face's corner 0, then corner 1, then corner 2
    return np.bincount(faces.T.ravel(), weights=contrib.T.ravel(), minlength=len(verts))


def cotan_stiffness(faces, cot, n):
    """Cotangent stiffness matrix W (PSD, W @ 1 = 0) on n nodes from the
    _corner_cotangents table."""
    half = 0.5 * cot
    ii, jj, vv = [], [], []
    for k in range(3):
        i, j, h = faces[:, k], faces[:, (k + 1) % 3], half[:, k]
        ii.extend([i, j, i, j])
        jj.extend([j, i, i, j])
        vv.extend([-h, -h, h, h])
    W = sp.csr_matrix(
        (np.concatenate(vv), (np.concatenate(ii), np.concatenate(jj))), shape=(n, n)
    )
    W.sum_duplicates()
    return W


# ---------------------------------------------------------------------------
# Fill-reducing node order

_DISSECTION_LEAF = 64  # parts this small are not split further


def _dissection_order(points, i, j):
    """Geometric nested-dissection order of the graph on `points` whose
    undirected edges are the pairs (i[k], j[k]) (George, SIAM J. Numer.
    Anal. 10, 1973).

    A part is split at the median of its widest coordinate (stable sort);
    its separator is the low-side nodes with a high-side neighbour.  The
    part is ordered [low minus separator, high, separator], the two halves
    dissected in turn, down to parts of _DISSECTION_LEAF nodes."""
    coords = np.ascontiguousarray(points.T)  # rows reduce and gather fast
    # Equal coordinates share a rank, so sorting the distinct keys
    # rank * k + position of a part of k nodes sorts it stably by coordinate,
    # with numpy's fast unstable sort.
    rank = np.stack([np.unique(c, return_inverse=True)[1] for c in coords])
    high = np.zeros(len(points), dtype=bool)
    sep = np.zeros(len(points), dtype=bool)
    out = []

    def dissect(part, i, j):
        if len(part) <= _DISSECTION_LEAF:
            out.append(part)
            return
        x = coords.take(part, axis=1)
        axis = int(np.argmax(x.max(axis=1) - x.min(axis=1)))
        part = part[np.argsort(rank[axis].take(part) * len(part) + np.arange(len(part)))]
        low, hi = part[: len(part) // 2], part[len(part) // 2 :]
        high[hi] = True
        hi_i, hi_j = high[i], high[j]
        high[hi] = False
        cut = hi_i != hi_j
        sep[np.where(hi_i[cut], j[cut], i[cut])] = True
        in_sep = sep[low]
        # The low half keeps its edges to the separator, so an edge list can
        # reach nodes of earlier separators.  Marking one of them in `sep`
        # again is harmless: it lies in no later part, so no mark is ever
        # read for it, and no mark needs clearing.
        low_side = ~(hi_i | hi_j)
        high_side = hi_i & hi_j
        dissect(low[~in_sep], i[low_side], j[low_side])
        dissect(hi, i[high_side], j[high_side])
        out.append(low[in_sep])

    dissect(np.arange(len(points)), i, j)
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# The mesh object


@dataclass
class SphereMesh:
    """Triangulated unit sphere with cone vertices pinned to mesh nodes."""

    vertices: np.ndarray
    faces: np.ndarray
    areas: np.ndarray
    stiffness: sp.csr_matrix
    cone_vertices: np.ndarray  # index of the mesh node carrying each cone point
    _lap_edges: tuple = field(default=None, repr=False)
    _ordering: np.ndarray = field(default=None, repr=False)
    _csv_coords: list = field(default=None, repr=False)  # "x,y,z," text of each node

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def laplace(self, f: np.ndarray) -> np.ndarray:
        """Discrete Laplace-Beltrami operator (negative spectrum convention).

        Evaluated in edge-difference form, sum_j w_vj (f_j - f_v), rather than
        as a matrix product: the difference form annihilates constants exactly
        and avoids the cancellation noise of summing w*f terms, which matters
        on graded meshes where node areas reach 1e-7.
        """
        f = np.asarray(f, dtype=float)
        if f.shape != (self.n_vertices,):
            raise ShapeError(f"grid function has shape {f.shape}, mesh has {self.n_vertices} nodes")
        i, j, w = self._edge_form()
        flux = np.bincount(i, weights=w * (f[j] - f[i]), minlength=self.n_vertices)
        return flux / self.areas

    def _edge_form(self):
        if self._lap_edges is None:
            coo = self.stiffness.tocoo()
            off = coo.row != coo.col
            # off-diagonal stiffness entries are -(cot a + cot b)/2; the
            # Laplacian flux coefficient is their negative
            self._lap_edges = (coo.row[off], coo.col[off], -coo.data[off])
        return self._lap_edges

    def ring(self, v) -> np.ndarray:
        """The 1-ring of node v: the nodes it shares a stiffness entry with."""
        W = self.stiffness
        row = W.indices[W.indptr[v] : W.indptr[v + 1]]
        return row[row != v]

    def ordering(self) -> np.ndarray:
        """Fill-reducing order of the nodes for sparse LU of matrices with the
        stiffness pattern: a nested-dissection permutation, computed once."""
        if self._ordering is None:
            i, j, _ = self._edge_form()
            upper = i < j
            self._ordering = _dissection_order(self.vertices, i[upper], j[upper])
        return self._ordering

    def edge_lengths(self) -> np.ndarray:
        """Chord length of each edge (i, j), i < j, in row order of the stiffness."""
        i, j, _ = self._edge_form()
        upper = i < j
        return np.linalg.norm(self.vertices[i[upper]] - self.vertices[j[upper]], axis=1)


_MESH_CACHE_SIZE = 4  # meshes build_mesh keeps, least recently used dropped first


def build_mesh(
    base_level: int,
    div: Divisor | None = None,
    grading: int = 0,
    grading_radius: float = 0.3,
) -> SphereMesh:
    """Icosphere at `base_level`, cone points snapped to vertices, then
    `grading` rounds of local edge halving in shrinking balls around each cone.
    Equal arguments (positions by their bytes, as snapping writes them into the
    vertices; not the exponents) return one read-only mesh, kept while it is
    among the _MESH_CACHE_SIZE last used."""
    _check_level("refinement level", base_level)
    _check_level("grading", grading)
    if not grading_radius > 0.0:  # NaN fails too
        raise MeshError(f"grading_radius must be positive, got {grading_radius}")
    positions = div.positions if div is not None and len(div) else np.zeros((0, 3))
    if len(positions) and div.min_pairwise_distance() < 4.0 * math.pi / (5 * 2**base_level):
        raise MeshError("cone points too close together for this base level")
    return _build_mesh(base_level, grading, grading_radius, positions.tobytes())


@functools.lru_cache(maxsize=_MESH_CACHE_SIZE)
def _build_mesh(base_level, grading, grading_radius, positions_bytes):
    positions = np.frombuffer(positions_bytes).reshape(-1, 3)
    verts, faces = icosphere(base_level)
    if len(positions):
        verts, cone_ids = _snap_cones(verts, faces, positions)
    else:
        cone_ids = []

    if grading > 0 and len(positions):
        verts, faces = _grade_mesh(verts, faces, positions, grading, grading_radius)

    cot = _corner_cotangents(verts, faces)
    W = cotan_stiffness(faces, cot, len(verts))
    mesh = SphereMesh(verts, faces, lumped_node_areas(verts, faces, cot), W,
                      np.array(cone_ids, dtype=np.int64))
    for a in (verts, faces, mesh.areas, mesh.cone_vertices, W.data, W.indices, W.indptr):
        a.flags.writeable = False
    return mesh


# ---------------------------------------------------------------------------
# Exporters


def write_off(path, mesh: SphereMesh):
    with open(path, "w") as fh:
        fh.write(f"OFF\n{mesh.n_vertices} {len(mesh.faces)} 0\n")
        fh.write(("%.17g %.17g %.17g\n" * mesh.n_vertices) % tuple(mesh.vertices.ravel().tolist()))
        fh.write(("3 %d %d %d\n" * len(mesh.faces)) % tuple(mesh.faces.ravel().tolist()))


def write_csv(path, mesh: SphereMesh, values: np.ndarray):
    """Rows x,y,z,value per node; the coordinate text is formatted once per mesh."""
    values = np.asarray(values, dtype=float)
    n = mesh.n_vertices
    if values.shape != (n,):
        raise ShapeError(f"values shape {values.shape} does not match {n} nodes")
    if mesh._csv_coords is None:
        text = ("%.17g,%.17g,%.17g,\n" * n) % tuple(mesh.vertices.ravel().tolist())
        mesh._csv_coords = text.split("\n")[:n]
    cells = [None] * (2 * n)
    cells[::2] = mesh._csv_coords
    cells[1::2] = values.tolist()
    with open(path, "w") as fh:
        fh.write("x,y,z,value\n")
        fh.write(("%s%.17g\n" * n) % tuple(cells))
