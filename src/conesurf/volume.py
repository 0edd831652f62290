"""Volume densities on chart kernels via exact-sequence torsion.

A surjective linear map between spaces carrying Lebesgue volumes induces a
volume on its kernel.  Counting a complex k-space as 2k real dimensions, its
value on a frame F of the kernel of rows B of full rank is a Gram-determinant
ratio,

    density = det(F* F) / det(B B*),

where B B* is a connection Laplacian on the dual graph (Kenyon, *Spanning
forests and the vector bundle Laplacian*, Ann. Probab. 2011).

- Full row rank (short sequence), B = A: with the complement W = A*(AA*)^-1,
  the Gram matrix of [F | W] is block diagonal because AF = 0, and AW = 1, so
  |det [F | W]|^2 / |det AW|^2 = det(F* F) / det(AA*).
- Rank deficiency one (all cone angles full-turn multiples, four-term
  sequence through the coordinate-sum functional), B = A without its last
  row: the sign-normalized rows sum to zero, so replacing the last row of
  [A W | w] by the sum of all rows gives (0, ..., 0, sum w), which leaves the
  short-sequence value of B; row signs do not change |det|.

The ratio is evaluated as a tree minor.  Every column of the rows has two
unit-modulus entries, so the rows are the nodes of a graph and the columns
its edges.  Let S be the columns of a spanning tree rooted at the last row,
together with, at full rank, the free column whose fundamental cycle has the
holonomy h farthest from 1, and T the other columns, so that B_S is square and
invertible.  By Cauchy-Binet both Gram determinants are sums of squared
maximal minors, and by the Jacobi complementary-minor identity the minor of
a kernel basis K with K_T = 1 on any column set T' has the modulus of the
minor of B on the complement of T' divided by |det B_S|, so

    det(F* F) / det(B B*) = |det F_T|^2 / |det B_S|^2,

where |det B_S| is 1 in the four-term case (a tree with its root row removed
is triangular with unit-modulus diagonal) and |1 - h| in the short case.

Only ratios and constancy statements are geometrically meaningful: absolute
values depend on the frame and on these conventions, so every report carries
the frame and a convention tag.  Densities underflow on large charts, so every
report carries the logarithm too, and the tree-change and split-edge ratios
are taken from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._geom import FRAME_RESIDUAL_TOL, ROW_RELATION_TOL, is_turn_multiple
from ._graph import kruskal
from .charts import (
    BoundaryPair,
    ChartSystem,
    ChartTree,
    _flip_transition,
    _flipped_cut,
    _flipped_system,
    _reforest,
    assemble_system,
    chart_for,
    cut_along_forest,
    exchange_sequence,
    perturb_surface,
)
from .errors import (
    EdgeNotInterior,
    FrameNotInKernel,
    NoPrimitiveFamily,
    NotTranslationSurface,
    RankCaseMismatch,
)
from .flips import flip
from .surface import FlatSurface

SHORT_SEQUENCE = "short-sequence"
FOUR_TERM_SEQUENCE = "four-term-sequence"


@dataclass(frozen=True)
class DensityReport:
    """A density with its log, the frame it was taken on and the convention
    tag.  ``fingerprint`` is the chart's fingerprint, read from the chart's
    tree: it is computed on demand, once per chart, so a caller that never
    reads it never hashes the rows."""

    value: float
    log_value: float
    frame: np.ndarray
    convention: str
    tree: ChartTree = field(repr=False)

    @property
    def fingerprint(self) -> str:
        return self.tree.fingerprint


def kernel_density(system, frame) -> DensityReport:
    """Evaluate the induced kernel volume on a frame: det(F* F) / det(B B*),
    with B the rows at full rank, and in rank deficiency one, once the rows are
    checked to sum to zero with the boundary-pair rows negated, the rows without
    the last one.  The value is taken as the tree minor |det F_T|^2 / |det B_S|^2
    from the system's spanning tree, with one d x d log-determinant, so nothing
    overflows."""
    frame = np.asarray(frame, dtype=complex)
    tree = system.tree
    r, n1 = tree.shape
    d = n1 - system.rank
    if frame.shape != (n1, d):
        raise FrameNotInKernel(f"frame must be {n1} x {d}, got {frame.shape}")
    norm_rows = tree.norm()
    if not np.linalg.norm(tree.apply(frame)) <= FRAME_RESIDUAL_TOL * max(
            np.linalg.norm(frame), 1e-300) * (1.0 + norm_rows):
        raise FrameNotInKernel("frame columns do not lie in the kernel")

    if system.rank == r:
        convention = SHORT_SEQUENCE
    elif system.rank == r - 1:
        signs = np.array([1.0 if kind == "triangle" else -1.0 for kind, _ in system.row_kind])
        if not np.linalg.norm(tree.apply_left(signs)) <= ROW_RELATION_TOL * (1.0 + norm_rows):
            raise RankCaseMismatch(
                "row relation is not the expected sum after sign normalization")
        convention = FOUR_TERM_SEQUENCE
    else:
        raise RankCaseMismatch(f"rank {system.rank} is neither {r} nor {r - 1}")
    log_det_t = np.linalg.slogdet(frame[tree.free])[1]
    log_value = 2.0 * float(log_det_t) - 2.0 * math.log(tree.det_s)
    return DensityReport(float(np.exp(log_value)), log_value, frame, convention, tree)


# ---------------------------------------------------------------------------
# invariance harnesses


def flip_density_pair(surface: FlatSurface, edge, frame=None):
    """Densities before and after one flip, on frames matched through the
    chart transition of the flip.  Returns (report_a, report_b).  The
    surface's chart is kept on it (``chart_for``), and with no ``frame`` so
    is its density on its kernel (``ChartSystem.density``).  The flipped
    surface's chart is read once and not kept: its cut is derived from the
    source's (``charts._flipped_cut``), its rows are the source's with the
    flipped quad's triangle rows and the moved pairings rewritten
    (``charts._flipped_system``), the transition rewrites one row of the
    frame (``FlipTransition.apply``), and its density reads only the tree's
    free columns, so it never builds a kernel basis."""
    cut, system = chart_for(surface)
    transition = _flip_transition(cut, edge)
    flipped, _ = flip(surface, edge)
    system_b = _flipped_system(system, _flipped_cut(cut, flipped, edge), edge)
    report_a = system.density if frame is None else kernel_density(system, frame)
    report_b = kernel_density(system_b, transition.apply(report_a.frame))
    return report_a, report_b


@dataclass(frozen=True)
class SplitSystem(ChartSystem):
    """System of a cut surface split along one more interior edge.

    One extra column holds the second copy of the split edge and one extra
    row ties the two copies together; ``embed`` is the kernel isomorphism
    appending the negated coordinate of the split column.  Rows, kernel and
    fingerprint are derived as for any ``ChartSystem``."""

    split_edge: int
    split_column: int

    def embed(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=complex)
        if vec.ndim == 1:
            return np.concatenate([vec, [-vec[self.split_column]]])
        return np.vstack([vec, -vec[self.split_column:self.split_column + 1, :]])


def split_edge_system(cut, edge) -> SplitSystem:
    """System after splitting the cut surface along an interior edge: the cut
    with one more zero-rotation slit, the edge against its twin, whose column
    comes last, assembled and rank-checked like any chart."""
    surface = cut.surface
    edge = surface.edge_of(edge)
    if edge in surface.forest:
        raise EdgeNotInterior(f"edge {edge} is a boundary slit, not interior")
    twin = surface.twin(edge)
    system = assemble_system(replace(
        cut, columns=cut.columns + (twin,), boundary=cut.boundary | {edge, twin},
        pairings=cut.pairings + (BoundaryPair(edge, twin, 0.0, edge),),
        num_edges=cut.num_edges + 1, num_rows=cut.num_rows + 1,
        col_of={**cut.col_of, twin: (cut.num_edges, 1.0)}))
    return SplitSystem(system.row_kind[:-1] + (("split", edge),), system.column_map,
                       system.rank, system.cut, system.tree, edge, cut.column_of(edge)[0])


def split_constant(cut, edge, frame=None) -> float:
    """Density ratio through the split-edge embedding; by construction it does
    not depend on which interior edge is split."""
    base = assemble_system(cut)
    if frame is None:
        frame = base.kernel
    frame = np.asarray(frame, dtype=complex)
    split = split_edge_system(cut, edge)
    below = kernel_density(base, frame).log_value
    above = kernel_density(split, split.embed(frame)).log_value
    return math.exp(above - below)


def tree_change_densities(surface: FlatSurface, tree_a, tree_b, frame=None):
    """Densities of one metric in the charts of two forest trees, evaluated on
    frames matched through the cutting-gluing transition.  Each tree's
    surface is cut once.

    Returns (report_a, report_b, ratio)."""
    moves = exchange_sequence(surface, surface.forest, tree_a)
    cut_a = cut_along_forest(surface)
    if moves:
        cut_a, _ = _reforest(cut_a, tree_a)
    system_a = assemble_system(cut_a)
    if frame is None:
        frame = system_a.kernel
    frame = np.asarray(frame, dtype=complex)
    exchange_sequence(cut_a.surface, cut_a.surface.forest, tree_b)
    cut_b, transition = _reforest(cut_a, tree_b)
    system_b = assemble_system(cut_b)
    report_a = kernel_density(system_a, frame)
    report_b = kernel_density(system_b, transition @ frame)
    ratio = math.exp(report_b.log_value - report_a.log_value)
    return report_a, report_b, ratio


# ---------------------------------------------------------------------------
# comparison with period coordinates


def primitive_family(surface: FlatSurface, reverse: bool = False):
    """Edges whose complement is an open disk: the complement of a spanning
    tree of the dual graph (triangles as nodes).  ``reverse`` picks a second,
    generally different, family."""
    dual_edges = [(e, surface.triangle_of(e), surface.triangle_of(surface.twin(e)))
                  for e in sorted(surface.edges(), reverse=reverse)]
    dual_tree, family = kruskal(surface.triangles, dual_edges)
    if len(dual_tree) != len(surface.triangles) - 1:
        raise NoPrimitiveFamily("dual graph is disconnected")
    return tuple(sorted(family))


def period_density_ratio(surface: FlatSurface, samples: int = 10, rng=None,
                         reverse_family: bool = False):
    """Ratio of the kernel density to the Lebesgue density of the same frame
    in primitive-edge period coordinates, per sample point.

    Requires a translation surface, with any erasing forest.  Returns
    (ratios, primitive edge family)."""
    if samples < 1:
        raise ValueError(f"samples must be a positive integer, got {samples!r}")
    for v in surface.vertex_ids:
        if not is_turn_multiple(surface.cone_angle(v)):
            raise NotTranslationSurface(f"cone angle at vertex {v} is not a full-turn multiple")
    if rng is None:
        rng = np.random.default_rng(0)

    family = primitive_family(surface, reverse=reverse_family)
    cut, system = chart_for(surface)
    cols = [cut.column_of(e)[0] for e in family]
    d = system.kernel_dim
    if len(cols) != d:
        raise NoPrimitiveFamily(f"family size {len(cols)} != kernel dimension {d}")

    ratios = []
    sys_k = system
    for k in range(samples):
        coeff = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        frame = sys_k.kernel @ coeff
        density = kernel_density(sys_k, frame).value
        periods = frame[cols, :]
        ratios.append(density / abs(np.linalg.det(periods)) ** 2)
        if k + 1 < samples:
            sys_k = assemble_system(cut_along_forest(perturb_surface(surface, rng, system=system)))
    return ratios, family
