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

Only ratios and constancy statements are geometrically meaningful: absolute
values depend on the frame and on these conventions, so every report carries
the frame and a convention tag.  Densities underflow on large charts, so every
report carries the logarithm too, and the tree-change and split-edge ratios
are taken from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._geom import FRAME_RESIDUAL_TOL, KERNEL_RANK_TOL, is_turn_multiple
from ._graph import kruskal
from .charts import (
    assemble_system,
    chart_fingerprint,
    chart_for,
    cut_along_forest,
    perturb_surface,
    reforest,
    solution_vector,
    transition_for_flip,
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
    value: float
    log_value: float
    frame: np.ndarray
    convention: str
    fingerprint: str


def _log_gram_det(mat: np.ndarray) -> float:
    """log det(M* M), from the diagonal of a thin QR of M."""
    r = np.linalg.qr(mat, mode="r")
    return 2.0 * float(np.sum(np.log(np.abs(np.diagonal(r)))))


def kernel_density(system, frame) -> DensityReport:
    """Evaluate the induced kernel volume on a frame: det(F* F) / det(B B*),
    with B the rows at full rank, and in rank deficiency one, once the rows are
    checked to sum to zero with the boundary-pair rows negated, the rows without
    the last one.  Both log-determinants come from thin QRs, so nothing
    overflows and the condition number is not squared."""
    frame = np.asarray(frame, dtype=complex)
    rows = system.rows
    n1 = rows.shape[1]
    d = n1 - system.rank
    if frame.shape != (n1, d):
        raise FrameNotInKernel(f"frame must be {n1} x {d}, got {frame.shape}")
    norm_frame = np.linalg.norm(frame)
    if np.linalg.norm(rows @ frame) > FRAME_RESIDUAL_TOL * max(norm_frame, 1e-300) * (
            1.0 + np.linalg.norm(rows)):
        raise FrameNotInKernel("frame columns do not lie in the kernel")

    r = rows.shape[0]
    if system.rank == r:
        convention, image_rows = SHORT_SEQUENCE, rows
    elif system.rank == r - 1:
        signs = np.array([1.0 if kind == "triangle" else -1.0 for kind, _ in system.row_kind])
        if np.linalg.norm(signs @ rows) > 1e-9 * (1.0 + np.linalg.norm(rows)):
            raise RankCaseMismatch(
                "row relation is not the expected sum after sign normalization")
        convention, image_rows = FOUR_TERM_SEQUENCE, rows[:-1]
    else:
        raise RankCaseMismatch(f"rank {system.rank} is neither {r} nor {r - 1}")
    log_value = _log_gram_det(frame) - _log_gram_det(image_rows.conj().T)
    return DensityReport(float(np.exp(log_value)), log_value, frame, convention,
                         chart_fingerprint(rows))


# ---------------------------------------------------------------------------
# invariance harnesses


def flip_density_pair(surface: FlatSurface, edge, frame=None):
    """Densities before and after one flip, on frames matched through the
    chart transition of the flip.  Returns (report_a, report_b)."""
    _, system = chart_for(surface)
    if frame is None:
        frame = system.kernel
    transition = transition_for_flip(surface, edge)
    flipped, _ = flip(surface, edge)
    _, system_b = chart_for(flipped)
    report_a = kernel_density(system, frame)
    report_b = kernel_density(system_b, transition @ np.asarray(frame, dtype=complex))
    return report_a, report_b


@dataclass(frozen=True)
class SplitSystem:
    """System of a cut surface split along one more interior edge.

    One extra column holds the second copy of the split edge and one extra
    row ties the two copies together; ``embed`` is the kernel isomorphism
    appending the negated coordinate of the split column."""

    rows: np.ndarray
    row_kind: tuple
    kernel: np.ndarray
    rank: int
    split_edge: int
    split_column: int

    def embed(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=complex)
        if vec.ndim == 1:
            return np.concatenate([vec, [-vec[self.split_column]]])
        return np.vstack([vec, -vec[self.split_column:self.split_column + 1, :]])


def split_edge_system(cut, edge) -> SplitSystem:
    """System after splitting the cut surface along an interior edge."""
    surface = cut.surface
    edge = surface.edge_of(edge)
    if edge in surface.forest:
        raise EdgeNotInterior(f"edge {edge} is a boundary slit, not interior")
    base = assemble_system(cut)
    col0, _ = cut.column_of(edge)
    n1 = cut.num_edges
    r = base.rows.shape[0]

    rows = np.zeros((r + 1, n1 + 1), dtype=complex)
    rows[:r, :n1] = base.rows
    twin_tri = surface.triangle_of(surface.twin(edge))
    row_index = next(i for i, (kind, ident) in enumerate(base.row_kind)
                     if kind == "triangle" and ident == twin_tri)
    rows[row_index, n1] = -rows[row_index, col0]
    rows[row_index, col0] = 0.0
    rows[r, col0] = 1.0
    rows[r, n1] = 1.0
    row_kind = base.row_kind + (("split", edge),)

    u, s, vh = np.linalg.svd(rows)
    rank = int(np.sum(s > KERNEL_RANK_TOL * s[0]))
    if rank != base.rank + 1:
        raise RankCaseMismatch("splitting must raise the rank by exactly one")
    kernel = vh[rank:].conj().T
    return SplitSystem(rows, row_kind, kernel, rank, edge, col0)


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
    frames matched through the cutting-gluing transition.

    Returns (report_a, report_b, ratio)."""
    surface_a, _, _ = reforest(surface, tree_a)
    _, system_a = chart_for(surface_a)
    if frame is None:
        frame = system_a.kernel
    frame = np.asarray(frame, dtype=complex)
    surface_b, transition, _ = reforest(surface_a, tree_b)
    _, system_b = chart_for(surface_b)
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

    Requires a translation surface presented with an empty forest.  Returns
    (ratios, primitive edge family)."""
    if samples < 1:
        raise ValueError(f"samples must be a positive integer, got {samples!r}")
    if surface.forest:
        raise NotTranslationSurface("period coordinates need an empty forest")
    for v in surface.vertex_ids:
        if not is_turn_multiple(surface.cone_angle(v)):
            raise NotTranslationSurface(f"cone angle at vertex {v} is not a full-turn multiple")
    if rng is None:
        rng = np.random.default_rng(0)

    family = primitive_family(surface, reverse=reverse_family)
    cut = cut_along_forest(surface)
    cols = [cut.column_of(e)[0] for e in family]
    system = assemble_system(cut)
    d = system.kernel_dim
    if len(cols) != d:
        raise NoPrimitiveFamily(f"family size {len(cols)} != kernel dimension {d}")

    ratios = []
    current = surface
    for k in range(samples):
        _, sys_k = chart_for(current)
        coeff = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        frame = sys_k.kernel @ coeff
        density = kernel_density(sys_k, frame).value
        periods = frame[cols, :]
        ratios.append(density / abs(np.linalg.det(periods)) ** 2)
        if k + 1 < samples:
            current = perturb_surface(surface, rng, system=system)
    return ratios, family
