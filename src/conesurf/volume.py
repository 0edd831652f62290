"""Volume densities on chart kernels via exact-sequence torsion.

A surjective linear map between spaces carrying Lebesgue volumes induces a
volume on its kernel; evaluating that induced volume on a kernel frame is a
ratio of two complex determinants (squared, since a complex k-space counts as
2k real dimensions).  When the system has a one-dimensional row relation (all
cone angles full-turn multiples), the image is the zero-sum hyperplane and the
density is the torsion of the four-term sequence through the coordinate-sum
functional instead.

Only ratios and constancy statements are geometrically meaningful: absolute
values depend on the frame and on these conventions, so every report carries
the frame and a convention tag.
"""

from __future__ import annotations

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
    frame: np.ndarray
    convention: str
    fingerprint: str


def _abs_det_sq(mat: np.ndarray) -> float:
    return abs(np.linalg.det(mat)) ** 2


def _case_two_rows(system) -> np.ndarray:
    """Rows with boundary-pair signs flipped so that all rows sum to zero
    (the sign choice that makes the image equal the zero-sum hyperplane)."""
    rows = system.rows.copy()
    for i, (kind, _) in enumerate(system.row_kind):
        if kind != "triangle":
            rows[i] = -rows[i]
    residual = np.linalg.norm(rows.sum(axis=0))
    if residual > 1e-9 * (1.0 + np.linalg.norm(rows)):
        raise RankCaseMismatch(
            "row relation is not the expected sum after sign normalization")
    return rows


def kernel_density(system, frame, complement=None) -> DensityReport:
    """Evaluate the induced kernel volume on a frame.

    Full row rank: value = |det [frame | W]|^2 / |det (A W)|^2 for any
    complement W (default: minimum-norm preimages of the standard codomain
    basis, so the denominator is 1).  Rank deficiency one: two-stage torsion
    through the zero-sum hyperplane with the coordinate-sum functional.
    The value does not depend on the complement choices.
    """
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
        if complement is None:
            complement = np.linalg.pinv(rows)
        complement = np.asarray(complement, dtype=complex)
        if complement.shape != (n1, r):
            raise RankCaseMismatch(f"complement must be {n1} x {r}")
        value = _abs_det_sq(np.hstack([frame, complement])) / _abs_det_sq(rows @ complement)
        return DensityReport(value, frame, SHORT_SEQUENCE, chart_fingerprint(rows))

    if system.rank != r - 1:
        raise RankCaseMismatch(f"rank {system.rank} is neither {r} nor {r - 1}")
    adjusted = _case_two_rows(system)
    if complement is None:
        u, s, vh = np.linalg.svd(adjusted)
        image_basis = u[:, : r - 1]
        complement = np.linalg.lstsq(adjusted, image_basis, rcond=None)[0]
    complement = np.asarray(complement, dtype=complex)
    if complement.shape != (n1, r - 1):
        raise RankCaseMismatch(f"complement must be {n1} x {r - 1}")
    image_complement = np.full((r, 1), 1.0 / r, dtype=complex)
    s_w2 = image_complement.sum()
    numerator = _abs_det_sq(np.hstack([frame, complement])) * abs(s_w2) ** 2
    denominator = _abs_det_sq(np.hstack([adjusted @ complement, image_complement]))
    return DensityReport(numerator / denominator, frame, FOUR_TERM_SEQUENCE,
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
    below = kernel_density(base, frame).value
    above = kernel_density(split, split.embed(frame)).value
    return above / below


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
    ratio = report_b.value / report_a.value
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
        ratios.append(density / _abs_det_sq(periods))
        if k + 1 < samples:
            current = perturb_surface(surface, rng, system=system)
    return ratios, family
