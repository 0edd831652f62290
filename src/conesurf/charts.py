"""Linear charts: cut a surface along its forest, assemble the edge-vector
system, compute kernels, reconstruct surfaces from solutions.

The cut surface keeps the half-edge ids of the closed surface; cutting only
removes the twin links of forest edges (their two half-edges become boundary
sides) and records, per forest edge, the rotation relating the two sides.
Each edge of the cut triangulation contributes one column to the system:
interior edges are represented by their smaller half-edge, boundary sides by
themselves.  Rows are the ccw triangle relations plus one row per boundary
pair, all with unit-modulus coefficients.
"""

from __future__ import annotations

import cmath
import hashlib
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from ._geom import (
    HOLONOMY_GAP_TOL,
    KERNEL_BASIS_TOL,
    KERNEL_PHASE_TOL,
    KERNEL_RESIDUAL_TOL,
    SOLUTION_RESIDUAL_TOL,
    angle_tol,
    is_turn_multiple,
    json_text,
    reduce_angle,
)
from ._graph import (
    adjacency,
    bfs,
    dual_bfs,
    edge_vertices,
    kruskal,
    path_keys,
    tree_keys,
    vertex_edges,
)
from .errors import (
    AngleMismatch,
    ClosureViolation,
    DegenerateTriangle,
    DimensionMismatch,
    ForestNotErasing,
    NotErasing,
    NotInKernel,
    NotSpanningTree,
    OrientationViolation,
    PartitionUnrealizable,
    Unsupported,
)
from .surface import FlatSurface

PERTURB_REL = 0.01  # perturb_surface's first step, relative to the solution vector's norm

# ---------------------------------------------------------------------------
# forests


@dataclass(frozen=True)
class HolonomyCheck:
    """Outcome of a holonomy test: true when it passed, and otherwise the
    witness of the first failure."""

    ok: bool
    witness: object = None

    def __bool__(self):
        return self.ok


def is_erasing(surface: FlatSurface, forest) -> HolonomyCheck:
    """Check that a candidate edge set is a forest whose complement develops
    with purely translational holonomy and that covers every vertex whose cone
    angle is not a multiple of a full turn.

    The check propagates a rotation offset over the triangle adjacency graph,
    crossing only non-candidate edges; the witness of the first inconsistency
    is ("cycle", edge), ("uncovered", vertex) or ("holonomy", edge).
    """
    return _holonomy(surface, forest)[0]


def _holonomy(surface: FlatSurface, forest):
    """``is_erasing`` with what it found on the way: (check, the vertices the
    forest covers, each triangle's rotation offset), the last two None when
    the check stopped before reaching them.  The offsets satisfy every
    crossing of a non-candidate edge within tolerance, so they certify a pass
    and a flip can re-check them locally (``_quad_erasing``)."""
    forest = {surface.edge_of(e) for e in forest}
    vertices = surface.vertex_ids
    _, cycles = kruskal(vertices, vertex_edges(surface, sorted(forest)))
    if cycles:
        return HolonomyCheck(False, ("cycle", cycles[0])), None, None
    covered = frozenset(edge_vertices(surface, forest))
    for v in vertices:
        if v not in covered and not is_turn_multiple(surface.cone_angle(v)):
            return HolonomyCheck(False, ("uncovered", v)), covered, None

    rot = {}
    for t, h, t2, first in dual_bfs(surface, forest):
        if t is None:
            rot[t2] = 0.0
            continue
        r2 = rot[t] - surface.crossing_rotation(h)
        if first:
            rot[t2] = r2
        elif abs(reduce_angle(r2 - rot[t2])) > angle_tol(r2):
            return HolonomyCheck(False, ("holonomy", surface.edge_of(h))), covered, None
    return HolonomyCheck(True), covered, rot


def spanning_forest(surface: FlatSurface, parts=None):
    """Pick a forest inside the 1-skeleton.

    Default: a single tree through all vertices for genus 0, and the empty
    forest when every cone angle is a full-turn multiple.  In positive genus
    with a cone angle that is not a full-turn multiple there is no default,
    and the call raises ``Unsupported``: the caller passes ``parts`` (a list
    of vertex sets), which requests one tree per part, realized inside the
    subgraph induced on that part.

    ``parts`` takes the breadth-first tree inside each part and no other, so
    it can miss an erasing forest that exists: on the genus-1 octagon with
    two quarter-turn tips, {1, 13} and {2, 12} are erasing, yet
    ``parts=[{0, 1, 2}]`` raises ``NotErasing``.  Such a surface is built
    with its forest given explicitly, checked by ``is_erasing``.
    """
    adj = adjacency(surface.vertex_ids, vertex_edges(surface, surface.edges()))

    if parts is not None:
        forest = set()
        for part in parts:
            part = set(part)
            for v in part:
                if v not in adj:
                    raise PartitionUnrealizable(f"unknown vertex {v}")
            prev = bfs(adj, min(part), part)
            if set(prev) != part:
                raise PartitionUnrealizable(f"part {sorted(part)} is not connected")
            forest |= tree_keys(prev, part)
        check = is_erasing(surface, forest)
        if not check:
            raise NotErasing(f"requested forest fails the holonomy criterion: {check.witness}",
                             check.witness)
        return frozenset(forest)

    if surface.genus() == 0:
        prev = bfs(adj, min(adj))  # a surface is connected
        return frozenset(tree_keys(prev, prev))
    if not all(is_turn_multiple(surface.cone_angle(v)) for v in adj):
        raise Unsupported("no default forest in positive genus with singular vertices; "
                          "pass parts, or build the surface with an explicit forest "
                          "that is_erasing accepts")
    return frozenset()


# ---------------------------------------------------------------------------
# cutting


@dataclass(frozen=True)
class BoundaryPair:
    """One slit: boundary sides a, abar with z(abar) = -e^{i theta} z(a)."""

    a: int
    abar: int
    rotation: float
    edge: int


@dataclass(frozen=True)
class CutSurface:
    """Surface slit open along its forest.

    Half-edge ids are those of the closed surface (the back map is the
    identity); forest half-edges lose their twins and become boundary sides.
    The forest's covered vertices and the triangles' rotation offsets are
    those of the erasing check that admitted the cut (``_holonomy``).
    ``sides`` is built on first read and kept; a cut derived with
    ``dataclasses.replace`` is a new instance and builds its own.
    """

    surface: FlatSurface
    columns: tuple
    boundary: frozenset
    pairings: tuple
    num_edges: int      # N1, columns of the system
    num_triangles: int  # N2
    num_trees: int
    num_rows: int       # N2 plus one row per boundary pair
    col_of: dict = field(repr=False, compare=False)    # half-edge -> (column, sign)
    covered: frozenset = field(repr=False, compare=False)
    offsets: dict = field(repr=False, compare=False)   # triangle -> rotation offset

    def column_of(self, h):
        """(column index, sign) such that vec(h) = sign * Z[column]."""
        return self.col_of[h]

    @cached_property
    def sides(self) -> tuple:
        """Read-only (2, triangles) arrays of the columns and signs of the
        first two ccw sides of every triangle, in the order of
        ``surface.triangles``, built on first read."""
        entries = np.array([[self.col_of[tri[k]] for tri in self.surface.triangles.values()]
                            for k in (0, 1)])
        cols, signs = entries[..., 0].astype(np.intp), entries[..., 1]
        for array in (cols, signs):
            array.flags.writeable = False
        return cols, signs


def _pairings(surface: FlatSurface) -> tuple:
    return tuple(BoundaryPair(a, abar, theta, e)
                 for e, (theta, a, abar) in sorted(
                     (e, surface.forest_pairing(e)) for e in surface.forest))


def cut_along_forest(surface: FlatSurface) -> CutSurface:
    """Slit the surface open along its forest edges."""
    check, covered, offsets = _holonomy(surface, surface.forest)
    if not check:
        raise ForestNotErasing(f"forest fails the holonomy criterion: {check.witness}",
                               check.witness)

    boundary = set()
    for e in surface.forest:
        boundary.add(e)
        boundary.add(surface.twin(e))
    columns = sorted(h for h in surface.halfedges
                     if h in boundary or h < surface.twin(h))
    col_of = {}
    for i, rep in enumerate(columns):
        col_of[rep] = (i, 1.0)
        if rep not in boundary:
            col_of[surface.twin(rep)] = (i, -1.0)
    pairings = _pairings(surface)

    m = surface.num_trees()
    n1 = len(columns)
    n2 = len(surface.triangles)
    return CutSurface(surface, tuple(columns), frozenset(boundary), pairings,
                      n1, n2, m, n2 + len(pairings), col_of, covered, offsets)


def _flipped_cut(cut: CutSurface, flipped: FlatSurface, edge) -> CutSurface:
    """The cut of ``flipped``, which is the surface of ``cut`` with the
    non-forest ``edge`` flipped.

    A flip keeps the forest, the half-edge ids and their twins, so the
    columns, the boundary, the column map and the counts are the source's;
    the pairings are read again, because a flip may move a theta.  The
    erasing check is re-run only where the flip changed something
    (``_quad_erasing``); when that fails, the surface is cut in full, so the
    full check runs and raises its error and witness."""
    h = flipped.edge_of(edge)
    quad = (flipped.triangle(flipped.triangle_of(h))
            + flipped.triangle(flipped.triangle_of(flipped.twin(h))))
    if not _quad_erasing(cut, flipped, quad):
        return cut_along_forest(flipped)
    return replace(cut, surface=flipped, pairings=_pairings(flipped))


def _quad_erasing(cut: CutSurface, flipped: FlatSurface, quad) -> bool:
    """The erasing check of a flipped surface on what the flip changed, given
    the six half-edges of its flipped quad: the coverage test of the four
    quad vertices, whose cone angles may move in the last bit, and every
    crossing of a quad edge against the source's rotation offsets.  The
    outer vectors are unchanged, and the new diagonal crosses with rotation
    exactly 0; every other crossing and the forest are the source's, which
    passed."""
    for x in quad:
        v = flipped.origin(x)
        if v not in cut.covered and not is_turn_multiple(flipped.cone_angle(v)):
            return False
    rot = cut.offsets
    for y in {z for x in quad for z in (x, flipped.twin(x))}:
        if flipped.edge_of(y) in flipped.forest:
            continue
        r2 = rot[flipped.triangle_of(y)] - flipped.crossing_rotation(y)
        if abs(reduce_angle(r2 - rot[flipped.triangle_of(flipped.twin(y))])) > angle_tol(r2):
            return False
    return True


def solution_vector(cut: CutSurface) -> np.ndarray:
    """The surface's own edge vectors read off in column order."""
    return np.array([cut.surface.vec(rep) for rep in cut.columns], dtype=complex)


# ---------------------------------------------------------------------------
# the linear system


@dataclass(frozen=True)
class ChartTree:
    """The rows as the nodes of a graph whose edges are the columns.

    The rows are held once, as ``cols`` and ``coefs``.  Every column has
    exactly two entries, both of unit modulus, so the system is the
    incidence matrix of a U(1) connection on this graph; ``ends`` locates
    them, the lower row first.  A BFS spanning tree rooted at the last row
    (``links``) gives the square block S of the tree-minor density: the tree
    columns, and in the short case also ``pivot``, the free column whose
    fundamental cycle has the largest holonomy gap |1 - h|.  ``free`` lists
    the remaining columns T, on which frames are read, and ``det_s`` is
    |det B_S|: 1 in the four-term case, where B is the rows without the last
    one, and |1 - h| in the short case.  The gaps come from gauge potentials
    on the tree (``_tree_kernel``); the kernel basis that is the identity on
    T is swept only when it is read (``ChartSystem.basis``), the dense rows
    and the fingerprint on first read.  The arrays are read-only."""

    cols: np.ndarray    # (rows, 3): each row's columns; a pair row's third is padding, 0
    coefs: np.ndarray   # (rows, 3): each row's entries; a pair row's third is 0
    free: np.ndarray
    det_s: float
    ends: np.ndarray = field(repr=False)  # (columns, 2): flat positions of each column's entries
    links: tuple = field(repr=False)  # (row, column, parent, B[row, column], B[parent, column])
    pivot: int | None = None

    def __post_init__(self):
        for array in (self.cols, self.coefs, self.free, self.ends):
            array.flags.writeable = False
        object.__setattr__(self, "_norm", float(np.sqrt(np.sum(np.abs(self.coefs) ** 2))))

    @property
    def shape(self) -> tuple:
        return self.cols.shape[0], self.ends.shape[0]

    def apply(self, x) -> np.ndarray:
        """rows @ x, from the entries of each row."""
        x = np.asarray(x, dtype=complex)
        shape = (-1,) + (1,) * (x.ndim - 1)
        out = self.coefs[:, 0].reshape(shape) * x[self.cols[:, 0]]
        for k in range(1, self.cols.shape[1]):
            out += self.coefs[:, k].reshape(shape) * x[self.cols[:, k]]
        return out

    def apply_left(self, y) -> np.ndarray:
        """y @ rows, from the two entries of each column."""
        terms = np.asarray(y)[..., self.ends // 3] * self.coefs.ravel()[self.ends]
        return terms[..., 0] + terms[..., 1]

    def norm(self) -> float:
        """Frobenius norm of the rows, taken once."""
        return self._norm

    @cached_property
    def dense(self) -> np.ndarray:
        """The rows as a read-only dense array, built on first read from the
        two entries of each column."""
        rows = np.zeros(self.shape, dtype=complex)
        rows[self.ends // 3, np.arange(len(self.ends))[:, None]] = self.coefs.ravel()[self.ends]
        rows.flags.writeable = False
        return rows

    @cached_property
    def fingerprint(self) -> str:
        """``chart_fingerprint`` of the dense rows, computed on first read."""
        return chart_fingerprint(self.dense)


@dataclass(frozen=True)
class ChartSystem:
    """Normalized linear system whose kernel is the local chart.

    The rows are held only in ``tree``; ``rows`` (the tree's dense view),
    ``basis``, ``kernel``, ``density`` (the kernel density on ``kernel``)
    and the fingerprint are derived from it when they are first read and
    kept.  Neither the rank nor ``kernel_dim`` nor a density on a given
    frame needs the basis.  A system is shared by every caller of
    ``chart_for`` on the same surface, so every array it hands out is
    read-only."""

    row_kind: tuple
    column_map: tuple
    rank: int
    cut: CutSurface
    tree: ChartTree

    @property
    def rows(self) -> np.ndarray:
        return self.tree.dense

    @property
    def kernel_dim(self) -> int:
        return len(self.tree.free)

    @cached_property
    def basis(self) -> np.ndarray:
        """Kernel basis that is the identity on ``tree.free``
        (``_sweep_basis``), built and checked against the rows on first
        read."""
        basis = _sweep_basis(self.tree)
        if not np.linalg.norm(self.tree.apply(basis)) <= (
                KERNEL_RESIDUAL_TOL * self.tree.norm() * np.linalg.norm(basis)):
            raise DimensionMismatch(self.rank, self.rank)
        basis.flags.writeable = False
        return basis

    @cached_property
    def kernel(self) -> np.ndarray:
        """Orthonormal basis of the kernel with fixed phases
        (``_deterministic_kernel``), built on first read."""
        kernel = _deterministic_kernel(self.basis)
        if not np.linalg.norm(self.tree.apply(kernel)) <= KERNEL_RESIDUAL_TOL * self.tree.norm():
            raise DimensionMismatch(self.rank, self.rank)
        kernel.flags.writeable = False
        return kernel

    @cached_property
    def density(self):
        """``volume.kernel_density`` on ``kernel``, taken on first read: the
        chart's own density, which every flip from a kept chart reads."""
        from .volume import kernel_density  # volume builds on this module

        return kernel_density(self, self.kernel)

    def fingerprint(self) -> str:
        return self.tree.fingerprint

    def to_json(self) -> str:
        return json_text({"rows": self.rows,
                          "row_kind": [f"{k}:{i}" for k, i in self.row_kind],
                          "column_map": self.column_map, "kernel": self.kernel,
                          "rank": self.rank})


def chart_fingerprint(rows: np.ndarray) -> str:
    """Short hash of a system's shape and row bytes."""
    digest = hashlib.sha256()
    digest.update(repr(rows.shape).encode())
    digest.update(np.ascontiguousarray(rows).tobytes())
    return digest.hexdigest()[:16]


def _deterministic_kernel(basis: np.ndarray) -> np.ndarray:
    """Fixed orthonormal basis of the span of ``basis``: orthonormalize the
    projections of the standard basis vectors taken in column order, with a
    phase convention.

    With Q an orthonormal basis of the span, the projection of e_j is Q c_j,
    where c_j is the conjugate of row j of Q, so the Gram-Schmidt runs on
    those d-vectors, twice per vector to keep them orthogonal.  A phase does
    not change later projections, so it is fixed at the end."""
    d = basis.shape[1]
    q = np.linalg.qr(basis)[0]
    chosen = np.zeros((d, d), dtype=complex)  # accepted coordinate vectors, as columns
    adjoint = np.zeros((d, d), dtype=complex)  # their conjugates, as rows
    k = 0
    for c in q.conj():
        for _ in range(2):
            c = c - chosen[:, :k] @ (adjoint[:k] @ c)
            norm = math.sqrt(np.vdot(c, c).real)
            if norm <= KERNEL_BASIS_TOL:
                break  # dependent: a second pass would only shorten it
        else:
            chosen[:, k] = c / norm
            adjoint[k] = chosen[:, k].conj()
            k += 1
            if k == d:
                break
    else:
        raise AssertionError("failed to orthonormalize the kernel basis")
    return fix_phases(q @ chosen)


def fix_phases(columns: np.ndarray) -> np.ndarray:
    """The columns, each times the unit scalar that makes its first entry of
    modulus above KERNEL_PHASE_TOL real and positive: the phase convention of
    every deterministic basis."""
    lead = columns[np.argmax(np.abs(columns) > KERNEL_PHASE_TOL, axis=0),
                   np.arange(columns.shape[1])]
    return columns * (np.abs(lead) / lead)


def _tree_kernel(cols, coefs, num_columns):
    """The row graph's BFS spanning tree rooted at the last row, and the rank
    and S block read off U(1) gauge potentials on it, given ``ChartTree.cols``
    and ``.coefs`` as flat lists or arrays, which it may keep.

    One stable sort of the nonzero entries by column finds each column's two
    entries (``ChartTree.ends``).  One scalar pass from the root sets
    phi_root = 1 and, for each tree column j from parent p to child q,
    phi_q = -phi_p B[p, j] / B[q, j], so the row combination y = phi B
    vanishes on every tree column.  For a free column j,
    y_j = phi_p B[p, j] + phi_q B[q, j] is the root row's residual of the
    kernel vector that is 1 on j, 0 on the other free columns and solved on
    the tree, and |y_j| = |1 - h|, h the holonomy of j's fundamental cycle.
    When every gap is within HOLONOMY_GAP_TOL the rank is one less than the
    row count; otherwise the free column with the largest gap joins the tree
    columns in S as the tree's pivot.  Returns (tree, rank, residual), the
    residual being the largest |y_j| over the tree columns, which must stay
    within KERNEL_RESIDUAL_TOL of its unit-modulus terms."""
    cols = np.asarray(cols, dtype=np.intp).reshape(-1, 3)
    coefs = np.asarray(coefs, dtype=complex).reshape(-1, 3)
    num_rows = len(cols)
    at = np.flatnonzero(coefs)
    ends = at[np.argsort(cols.ravel()[at], kind="stable")]
    if not (len(ends) == 2 * num_columns and (cols.flat[ends] == np.arange(len(ends)) // 2).all()
            and (ends[0::2] // 3 != ends[1::2] // 3).all()):
        raise AssertionError("a column does not join two rows")
    ends = ends.reshape(num_columns, 2)
    end_row_array = ends // 3
    end_rows = end_row_array.tolist()
    root = num_rows - 1
    prev = bfs(adjacency(range(num_rows), ((j, a, b) for j, (a, b) in enumerate(end_rows))), root)
    if len(prev) != num_rows:
        raise AssertionError("the row graph is disconnected")
    end_coefs = coefs.ravel()[ends]
    end_pairs = end_coefs.tolist()
    links = []
    for row, (col, parent) in list(prev.items())[1:]:
        b = end_pairs[col]
        links.append((row, col, parent, *(b if end_rows[col][0] == row else b[::-1])))

    phi = [0j] * num_rows
    phi[root] = 1.0
    for row, _, parent, b_row, b_parent in links:
        phi[row] = -phi[parent] * b_parent / b_row
    in_tree = np.zeros(num_columns, dtype=bool)
    in_tree[[link[1] for link in links]] = True
    terms = np.array(phi)[end_row_array] * end_coefs  # ChartTree.apply_left(phi), term for term
    gaps = np.abs(terms[:, 0] + terms[:, 1])
    residual = float(gaps[in_tree].max(initial=0.0))
    free = np.flatnonzero(~in_tree)
    det_s, pivot = 1.0, None
    if len(free) and not gaps[free].max() <= HOLONOMY_GAP_TOL:  # a NaN gap is not within
        k = int(np.argmax(gaps[free]))
        det_s, pivot = float(gaps[free[k]]), int(free[k])
        free = free[free != pivot]
    tree = ChartTree(cols, coefs, free, det_s, ends, tuple(links), pivot)
    return tree, num_rows - (pivot is None), residual


def _sweep_basis(tree: ChartTree) -> np.ndarray:
    """The kernel basis that is the identity on ``tree.free``: the columns
    outside the tree are set to the identity and the tree columns solved in
    one leaf-to-root sweep for all of them at once, over the tree's links.
    In the short case the pivot's vector, whose root residual is largest, is
    then eliminated from the others so the root row holds too."""
    outside = sorted(tree.free.tolist() + ([] if tree.pivot is None else [tree.pivot]))
    m = len(outside)
    basis = np.zeros((tree.shape[1], m), dtype=complex)
    basis[outside, np.arange(m)] = 1.0
    acc = np.zeros((tree.shape[0], m), dtype=complex)  # each row applied to the solved columns
    at = tree.ends[outside]
    acc[at // 3, np.arange(m)[:, None]] = tree.coefs.ravel()[at]
    for row, col, parent, b_row, b_parent in reversed(tree.links):
        x = acc[row] / -b_row
        basis[col] = x
        acc[parent] += b_parent * x
    if tree.pivot is None:
        return basis
    residual = acc[-1]
    k = outside.index(tree.pivot)
    keep = np.arange(m) != k
    return basis[:, keep] - np.outer(basis[:, k], residual[keep] / residual[k])


def assemble_system(cut: CutSurface) -> ChartSystem:
    """Build the normalized system for a cut surface.

    Row order: triangle rows by triangle id, then boundary-pair rows by forest
    edge id.  Each row's entries go straight into ``ChartTree.cols`` and
    ``.coefs``, which ``_checked_system`` checks.  The kernel basis is built,
    and checked, only when read.
    """
    surface = cut.surface
    tids = sorted(surface.triangles)
    entries = [cut.col_of[h] for tid in tids for h in surface.triangle(tid)]
    for pair in cut.pairings:
        entries += _pair_entries(cut, pair)
    row_kind = ([("triangle", tid) for tid in tids]
                + [("pair", pair.edge) for pair in cut.pairings])
    return _checked_system(cut, tuple(row_kind), *zip(*entries), solution_vector(cut))


def _pair_entries(cut: CutSurface, pair: BoundaryPair) -> tuple:
    """A boundary pair's row as three (column, entry) pairs, the last one
    padding."""
    return ((cut.col_of[pair.a][0], cmath.exp(1j * pair.rotation)),
            (cut.col_of[pair.abar][0], 1.0), (0, 0.0))


def _flipped_system(system: ChartSystem, cut: CutSurface, edge) -> ChartSystem:
    """``assemble_system(cut)`` for the cut of the source's surface with the
    non-forest ``edge`` flipped (``_flipped_cut``), from the source's rows.

    A flip keeps the triangle ids, the forest and the column map, so only the
    two triangle rows of the flipped quad, the pair rows whose pairing moved
    and the flipped edge's coordinate of the solution vector are rewritten.
    The tree is searched again on the patched rows, so the chart equals a
    full assembly bit for bit."""
    surface = cut.surface
    cols = system.tree.cols.copy()
    coefs = system.tree.coefs.copy()
    h = surface.edge_of(edge)
    for tid in (surface.triangle_of(h), surface.triangle_of(surface.twin(h))):
        row = system.row_kind.index(("triangle", tid))
        cols[row], coefs[row] = zip(*(cut.col_of[x] for x in surface.triangle(tid)))
    for i, (old, pair) in enumerate(zip(system.cut.pairings, cut.pairings)):
        if pair != old:
            row = cut.num_triangles + i
            cols[row], coefs[row] = zip(*_pair_entries(cut, pair))
    z0 = solution_vector(system.cut)
    col = cut.col_of[h][0]
    z0[col] = surface.vec(cut.columns[col])
    return _checked_system(cut, system.row_kind, cols, coefs, z0)


def _checked_system(cut: CutSurface, row_kind, cols, coefs, z0) -> ChartSystem:
    """The system of given rows, after its checks: the rank read off the
    tree's potentials must match the closed-form prediction (one less than
    the row count exactly when every cone angle is a full-turn multiple), the
    potentials must solve every tree column's equation, and the surface's own
    vector ``z0`` must solve the rows."""
    surface = cut.surface
    all_multiples = all(is_turn_multiple(surface.cone_angle(v)) for v in surface.vertex_ids)
    predicted = cut.num_rows - (1 if all_multiples else 0)
    tree, rank, residual = _tree_kernel(cols, coefs, cut.num_edges)
    if rank != predicted or not residual <= KERNEL_RESIDUAL_TOL:
        raise DimensionMismatch(rank, predicted)
    if not np.linalg.norm(tree.apply(z0)) <= (
            KERNEL_RESIDUAL_TOL * tree.norm() * np.linalg.norm(z0)):
        raise DimensionMismatch(rank, predicted)
    return ChartSystem(row_kind, cut.columns, rank, cut, tree)


def surface_from_solution(cut: CutSurface, z, system: ChartSystem) -> FlatSurface:
    """Rebuild a surface with the cut's combinatorics from a vector in the
    kernel of the cut's system."""
    z = np.asarray(z, dtype=complex)
    if not np.linalg.norm(system.tree.apply(z)) <= SOLUTION_RESIDUAL_TOL * max(
            np.linalg.norm(z), 1e-300):
        raise NotInKernel("vector is not in the kernel of the chart system")

    surface = cut.surface
    vectors = {}
    for col, rep in enumerate(cut.columns):
        vectors[rep] = complex(z[col])
        if rep not in cut.boundary:
            vectors[surface.twin(rep)] = -complex(z[col])
    targets = [(v, surface.cone_angle(v)) for v in surface.vertex_ids]
    try:
        return FlatSurface(surface.triangles, {h: surface.twin(h) for h in surface.halfedges},
                           vectors, surface.forest, targets)
    except OrientationViolation as exc:
        raise DegenerateTriangle(exc.triangle) from exc
    except ClosureViolation as exc:
        raise NotInKernel(f"triangle {exc.triangle} does not close") from exc


def chart_for(surface: FlatSurface):
    """(cut, system) of a surface, built on the first call and kept on the
    surface for later ones.  A surface never changes for its callers, and
    neither a copy nor a surface flipped in place carries the chart, so it
    cannot go stale.  A chart read only once is better built with
    ``assemble_system(cut_along_forest(surface))``, which keeps nothing: a
    kept chart refers back to its surface through the cut, so the two are
    freed only by the cycle collector."""
    if surface._chart is None:
        cut = cut_along_forest(surface)
        surface._chart = cut, assemble_system(cut)
    return surface._chart


def perturb_surface(surface: FlatSurface, rng,
                    system: ChartSystem | None = None) -> FlatSurface:
    """Random nearby surface in the same chart (same combinatorics and forest).

    Perturbs the solution vector along a random kernel direction by
    ``PERTURB_REL`` times its norm, rejecting samples that degenerate a
    triangle or drift out of the angle targets; gives up after 60 samples.
    A caller perturbing one surface again and again passes its ``system``."""
    if system is None:
        system = assemble_system(cut_along_forest(surface))
    cut = system.cut
    z0 = solution_vector(cut)
    d = system.kernel_dim
    size = PERTURB_REL * np.linalg.norm(z0)
    for _ in range(60):
        coeff = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        direction = system.kernel @ coeff
        norm = np.linalg.norm(direction)
        if norm < 1e-30:
            continue
        try:
            return surface_from_solution(cut, z0 + direction * (size / norm), system)
        except (DegenerateTriangle, AngleMismatch, NotInKernel):
            size *= 0.7
    raise DegenerateTriangle("could not find a valid nearby surface")


# ---------------------------------------------------------------------------
# chart transitions


@dataclass(frozen=True)
class Transition:
    """A chart transition, a linear map with a few nonzeros per row: row k of
    ``transition @ frame`` is ``scale[k] * frame[source[k]]``, except a row k
    of ``sums``, which is the sum of coefficient times frame row over its
    (column, coefficient) pairs."""

    source: np.ndarray
    scale: np.ndarray
    sums: dict = field(default_factory=dict)

    @classmethod
    def identity(cls, size: int, sums=None) -> Transition:
        return cls(np.arange(size), np.ones(size, dtype=complex), sums or {})

    def __matmul__(self, frame) -> np.ndarray:
        frame = np.asarray(frame, dtype=complex)
        out = frame[self.source]
        scaled = self.scale != 1  # unit rows, every row of a flip's, are copies
        if scaled.any():
            out[scaled] *= self.scale[scaled].reshape((-1,) + (1,) * (frame.ndim - 1))
        for row, terms in self.sums.items():
            out[row] = sum(coef * frame[col] for col, coef in terms)
        return out


def transition_for_flip(source: FlatSurface, edge) -> Transition:
    """Linear map from the chart of ``source`` to the chart after flipping
    ``edge``: identity on every column except the flipped edge, whose new
    value is z_e + s_a z_{e(a)} - s_c z_{e(c)} read off the source quad."""
    cut = cut_along_forest(source)
    h = source.edge_of(edge)
    return _flip_transition(cut, h, source.next(h), source.next(source.twin(h)))


def _flip_transition(cut: CutSurface, h, a, c) -> Transition:
    """``transition_for_flip`` on a cut of the source, from the flipped edge
    ``h`` and the quad sides ``a`` and ``c`` after it and its twin, with a
    repeated column's coefficients added up; a flip keeps the columns, so one
    cut serves a whole path."""
    col_e, _ = cut.column_of(h)
    col_a, sign_a = cut.column_of(a)
    col_c, sign_c = cut.column_of(c)
    terms = {}
    for col, coef in ((col_e, 1.0), (col_a, sign_a), (col_c, -sign_c)):
        terms[col] = terms.get(col, 0.0) + coef
    return Transition.identity(cut.num_edges, {col_e: tuple(terms.items())})


# ---------------------------------------------------------------------------
# re-choosing the forest on a fixed triangulation, in one development pass


def exchange_sequence(surface: FlatSurface, tree_from, tree_to):
    """Single-edge exchanges (remove, add) turning one spanning tree into the
    other; every intermediate set is again a spanning tree.  Both edge sets
    must be trees (acyclic, one edge fewer than the vertices they touch) on
    the same vertices."""
    halfedges = set(surface.halfedges)
    for name, tree in (("source", tree_from), ("target", tree_to)):
        if not set(tree) <= halfedges:
            raise NotSpanningTree(f"{name} tree uses unknown edges")
    a1 = {surface.edge_of(e) for e in tree_from}
    a2 = {surface.edge_of(e) for e in tree_to}
    spans = [edge_vertices(surface, tree) for tree in (a1, a2)]
    for tree, nodes in zip((a1, a2), spans):
        _, cycles = kruskal(nodes, vertex_edges(surface, tree))
        if cycles or len(tree) != max(len(nodes) - 1, 0):
            raise NotSpanningTree("edge set is not a tree")
    if spans[0] != spans[1]:
        raise NotSpanningTree("trees span different vertex sets")

    # the current tree's adjacency, updated per exchange; adding e closes a
    # unique cycle, which has an edge outside the acyclic a2, and the
    # smallest such edge is dropped
    adj = adjacency(spans[0], vertex_edges(surface, a1))
    moves = []
    for e in sorted(a2 - a1):
        va, vb = surface.origin(e), surface.head(e)
        out = min(f for f in path_keys(bfs(adj, va), vb) if f not in a2)
        moves.append((out, e))
        a, b = surface.origin(out), surface.head(out)
        adj[a].remove((out, b))
        adj[b].remove((out, a))
        adj[va].append((e, vb))
        adj[vb].append((e, va))
    return moves


def reforest(surface: FlatSurface, tree_edges):
    """Re-choose the forest (a single spanning tree) on a fixed triangulation.

    One development pass over the triangles, slit along the new tree, gives
    each triangle a phase: crossing an old slit from its side a to its side
    abar multiplies it by exp(-i theta), the reverse crossing by exp(i theta).
    Returns the surface with the phased vectors and the new tree, the chart
    ``Transition`` (each new column a unit-modulus multiple of one old
    column), and the exchange sequence; the surface itself and the identity,
    with nothing cut, when there is nothing to exchange."""
    moves = exchange_sequence(surface, surface.forest, tree_edges)
    if not moves:
        return surface, Transition.identity(len(surface.edges()) + len(surface.forest)), moves
    cut, transition = _reforest(cut_along_forest(surface), tree_edges)
    return cut.surface, transition, moves


def _reforest(cut_old: CutSurface, tree_edges):
    """``reforest`` from the cut of its surface, for a tree that
    ``exchange_sequence`` accepted: (the cut of the result, the transition);
    the cut itself and the identity when the tree is the forest."""
    surface = cut_old.surface
    new_forest = frozenset(surface.edge_of(e) for e in tree_edges)
    if new_forest == surface.forest:
        return cut_old, Transition.identity(cut_old.num_edges)
    phase = {}
    for t, h, t2, first in dual_bfs(surface, new_forest):
        if t is None:
            phase[t2] = 1.0
        elif first:
            phase[t2] = phase[t]
            e = surface.edge_of(h)
            if e in surface.forest:
                theta, a, _ = surface.forest_pairing(e)
                phase[t2] *= cmath.exp(-1j * theta if h == a else 1j * theta)
    vectors = {h: phase[surface.triangle_of(h)] * surface.vec(h) for h in surface.halfedges}
    targets = [(v, surface.angle_target(v)) for v in surface.vertex_ids]
    result = FlatSurface(surface.triangles, {h: surface.twin(h) for h in surface.halfedges},
                         vectors, new_forest, targets)

    cut_new = cut_along_forest(result)
    source, signs = zip(*map(cut_old.column_of, cut_new.columns))
    scale = [phase[surface.triangle_of(rep)] * sign for rep, sign in zip(cut_new.columns, signs)]
    return cut_new, Transition(np.array(source), np.array(scale, dtype=complex))
