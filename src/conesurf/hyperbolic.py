"""Genus-zero chart coordinates, the Hermitian area form of signature
(1, n-3), and the comparison of the induced unit-area density with the
complex hyperbolic volume density.

For a sphere with n cone points carrying a spanning forest tree, pick one
vertex to exclude; the tree edges not touching it give n-2 chart coordinates
and every other edge vector is a linear function of them.  The surface area
is a Hermitian form in these coordinates; after normalizing it to
diag(1, ..., 1, -1) (sign flipped so unit-area surfaces sit on f = -1), the
unit-area locus modulo the circle action carries two densities: the one
induced by the chart volume and the one of the hyperbolic metric.  Their
ratio is a constant of the family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._geom import (
    COMPLETION_TOL,
    HERMITIAN_TOL,
    KERNEL_RESIDUAL_TOL,
    NORMALIZER_TOL,
    Q1_TOL,
    SIGNATURE_TOL,
    TANGENT_TOL,
    THIN_AREA_TOL,
)
from ._graph import adjacency, vertex_edges
from .charts import ChartSystem, chart_for, fix_phases, solution_vector
from .errors import (
    FrameNotTangent,
    MetricNotPositive,
    NotGenusZero,
    PointNotOnQ1,
    SignatureUnexpected,
    TooFewVertices,
    Unsupported,
)
from .surface import FlatSurface
from .volume import kernel_density


@dataclass(frozen=True)
class GenusZeroChart:
    """Chart of a genus-zero surface by its tree-edge vectors."""

    surface: FlatSurface
    system: ChartSystem
    excluded_vertex: int
    coordinate_edges: tuple
    coordinate_columns: tuple
    expansion: np.ndarray  # all columns as linear functions of the coordinates

    @property
    def dim(self) -> int:
        return len(self.coordinate_edges)

    def coordinates(self) -> np.ndarray:
        """The chart coordinates of the chart's own surface."""
        return solution_vector(self.system.cut)[list(self.coordinate_columns)]


def genus_zero_chart(surface: FlatSurface, excluded_vertex=None) -> GenusZeroChart:
    """Chart coordinates on the tree edges away from one excluded vertex.

    The forest must be a single spanning tree and the excluded vertex one of
    its leaves; the remaining n-2 tree edges parametrize the chart."""
    if surface.genus() != 0:
        raise NotGenusZero(f"genus {surface.genus()}")
    n = len(surface.vertex_ids)
    if n < 4:
        raise TooFewVertices(f"need at least 4 cone points, got {n}")
    if len(surface.forest) != n - 1:
        raise NotGenusZero("forest must be a single spanning tree")

    tree = adjacency(surface.vertex_ids, vertex_edges(surface, surface.forest))
    leaves = sorted(v for v, nbrs in tree.items() if len(nbrs) == 1)
    if excluded_vertex is None:
        excluded_vertex = leaves[-1]
    if excluded_vertex not in leaves:
        raise Unsupported(
            f"vertex {excluded_vertex} is not a leaf of the forest tree (leaves: {leaves})")

    cut, system = chart_for(surface)
    ((leaf_edge, _),) = tree[excluded_vertex]
    edges = tuple(sorted(surface.forest - {leaf_edge}))
    pair_of = {p.edge: p for p in cut.pairings}
    columns = tuple(cut.column_of(pair_of[e].a)[0] for e in edges)
    if len(columns) != system.kernel_dim:
        raise SignatureUnexpected((len(columns), system.kernel_dim))

    selection = system.kernel[list(columns), :]
    expansion = system.kernel @ np.linalg.inv(selection)
    if not np.linalg.norm(system.tree.apply(expansion)) <= KERNEL_RESIDUAL_TOL * (
            1 + system.tree.norm()):
        raise SignatureUnexpected("expansion does not satisfy the chart system")
    return GenusZeroChart(surface, system, excluded_vertex, edges, columns, expansion)


# ---------------------------------------------------------------------------
# the area form


def _triangle_sides(cut, z):
    """Signed vectors of the first two ccw sides of every triangle, one row
    per triangle, at a chart point z (or at each column of a matrix z)."""
    z = np.asarray(z)
    tris = cut.surface.triangles.values()
    sides = []
    for k in (0, 1):
        cols, signs = zip(*(cut.column_of(tri[k]) for tri in tris))
        sides.append(np.reshape(signs, (-1,) + (1,) * (z.ndim - 1)) * z[list(cols)])
    return sides


def _triangle_areas(cut, z) -> np.ndarray:
    u, w = _triangle_sides(cut, z)
    return 0.5 * (u.conj() * w).imag


def area_of_solution(cut, z) -> float:
    """Total area of a chart point, summed triangle by triangle."""
    return float(_triangle_areas(cut, z).sum())


def min_triangle_area_of_solution(cut, z) -> float:
    return float(_triangle_areas(cut, z).min())


@dataclass(frozen=True)
class AreaForm:
    """Hermitian matrix H with area(v) = v* H v in chart coordinates."""

    matrix: np.ndarray
    signature: tuple
    normalizer: np.ndarray | None = None


def area_form(chart: GenusZeroChart) -> AreaForm:
    """The Hermitian area form, summed over the triangles.

    A triangle with sides a(v), b(v) linear in the coordinates has area
    Im(conj(a) b) / 2 = v* (A - A*) v / 4i with A = conj(a)^T b.  The
    eigenvalue signs must come out as one positive and n-3 negative (all cone
    angles below a full turn)."""
    d = chart.dim
    a, b = _triangle_sides(chart.system.cut, chart.expansion)
    m = a.conj().T @ b
    h = (m - m.conj().T) / 4j
    if np.linalg.norm(h - h.conj().T) > HERMITIAN_TOL * (1 + np.linalg.norm(h)):
        raise SignatureUnexpected("area form is not Hermitian")
    h = 0.5 * (h + h.conj().T)
    eig = np.linalg.eigvalsh(h)
    tol = SIGNATURE_TOL * max(abs(eig))
    pos = int(np.sum(eig > tol))
    neg = int(np.sum(eig < -tol))
    if (pos, neg) != (1, d - 1):
        raise SignatureUnexpected((pos, neg))
    return AreaForm(h, (pos, neg))


def normalize_form(form: AreaForm) -> AreaForm:
    """Normalizer P with P* (-H) P = diag(1, ..., 1, -1).

    Deterministic: descending eigenvalues of -H, eigenvectors in the
    phase convention of ``fix_phases``."""
    if form.signature[0] != 1:
        raise SignatureUnexpected(form.signature)
    neg_h = -form.matrix
    eig, vecs = np.linalg.eigh(neg_h)
    order = np.argsort(-eig)
    eig, vecs = eig[order], vecs[:, order]
    d = len(eig)
    if not (np.all(eig[: d - 1] > 0) and eig[d - 1] < 0):
        raise SignatureUnexpected(form.signature)
    normalizer = fix_phases(vecs) / np.sqrt(np.abs(eig))
    check = normalizer.conj().T @ neg_h @ normalizer
    target = np.diag(np.concatenate([np.ones(d - 1), [-1.0]]))
    if np.linalg.norm(check - target) > NORMALIZER_TOL * d:
        raise SignatureUnexpected("normalization failed numerically")
    return AreaForm(form.matrix, form.signature, normalizer)


# ---------------------------------------------------------------------------
# densities on the unit-area locus


def minkowski_product(x, y) -> complex:
    """Hermitian product of signature (n-3, 1): conjugate-linear in the first
    argument, negative on the last coordinate."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    return complex(np.sum(x[:-1].conj() * y[:-1]) - x[-1].conjugate() * y[-1])


def quadric_value(z) -> float:
    return minkowski_product(z, z).real


def _realify(columns) -> np.ndarray:
    cols = [np.asarray(c, dtype=complex) for c in columns]
    return np.array([np.concatenate([c.real, c.imag]) for c in cols]).T


def _check_point_and_frame(z, frame):
    z = np.asarray(z, dtype=complex)
    if abs(quadric_value(z) + 1.0) > Q1_TOL:
        raise PointNotOnQ1(f"f(Z) = {quadric_value(z)!r}")
    frame = np.asarray(frame, dtype=complex)
    n = z.shape[0]
    if frame.shape != (n, 2 * (n - 1)):
        raise FrameNotTangent(f"frame must be {n} x {2 * (n - 1)}")
    for j in range(frame.shape[1]):
        col = frame[:, j]
        if abs(minkowski_product(z, col)) > TANGENT_TOL * (1 + np.linalg.norm(col)):
            raise FrameNotTangent(f"frame column {j} is not orthogonal to the point")
    return z, frame


def _interleave_rotations(cols: np.ndarray) -> np.ndarray:
    """Columns c_0, i c_0, c_1, i c_1, ... of a complex matrix."""
    return np.stack([cols, 1j * cols], axis=2).reshape(len(cols), -1)


def tangent_frame(z) -> np.ndarray:
    """Real frame of the orthogonal complement of z: the complex basis vectors
    paired with their i-rotations, interleaved."""
    z = np.asarray(z, dtype=complex)
    b = np.eye(len(z), len(z) - 1, dtype=complex)
    b[-1] = z[:-1].conj() / z[-1].conjugate()
    return _interleave_rotations(b)


def reference_frame(z) -> np.ndarray:
    """The closed-form frame used for the determinant identities: for each k,
    the vector with conj(z_last) in slot k and conj(z_k) in the last slot,
    paired with its i-rotation."""
    z = np.asarray(z, dtype=complex)
    u = np.zeros((len(z), len(z) - 1), dtype=complex)
    np.fill_diagonal(u, z[-1].conjugate())
    u[-1] = z[:-1].conj()
    return _interleave_rotations(u)


def unit_area_density(z, frame, chart_constant: float, completion=None) -> float:
    """Density induced on the unit-area locus modulo the circle action.

    Evaluates to chart_constant times the Lebesgue volume of (frame, a, b)
    divided by |det_2| of the two constraint 1-forms on the completing pair
    (a, b); the default completion is (Z, iZ), giving |det_2| = 4."""
    z, frame = _check_point_and_frame(z, frame)
    if completion is None:
        completion = (z, 1j * z)
    a, b = (np.asarray(c, dtype=complex) for c in completion)

    def df(x):
        return 2.0 * minkowski_product(z, x).real

    def df_j(x):
        return -2.0 * minkowski_product(z, x).imag

    det2 = df(a) * df_j(b) - df(b) * df_j(a)
    if abs(det2) < COMPLETION_TOL:
        raise FrameNotTangent("completion pair is degenerate for the constraint forms")
    volume = abs(np.linalg.det(_realify(list(frame.T) + [a, b])))
    return chart_constant * volume / abs(det2)


def hyperbolic_density(z, frame) -> float:
    """Riemannian density of the hyperbolic metric on the frame: square root
    of the Gram determinant of the real part of the Hermitian product."""
    z, frame = _check_point_and_frame(z, frame)
    sign = np.ones(frame.shape[0])
    sign[-1] = -1.0
    gram = (frame.conj().T @ (sign[:, None] * frame)).real
    eig = np.linalg.eigvalsh(gram)
    if eig[0] <= 0:
        raise MetricNotPositive(f"Gram matrix has eigenvalue {eig[0]!r}")
    return math.sqrt(float(np.linalg.det(gram)))


def chart_constant(chart: GenusZeroChart, normalizer: np.ndarray) -> float:
    """Density of the chart volume against Lebesgue measure in the normalized
    coordinates: the kernel density of the pushed-forward standard frame."""
    frame = chart.expansion @ normalizer
    return kernel_density(chart.system, frame).value


@dataclass(frozen=True)
class RatioScan:
    ratios: tuple
    residuals: tuple  # |f(Z) + 1| per sample
    spread: float
    chart_constant: float
    passed: bool


def ratio_scan(chart: GenusZeroChart, samples: int, rng, rel: float = 0.01,
               tolerance: float = 1e-6) -> RatioScan:
    """Sample nearby unit-area surfaces in one chart and compare the two
    densities; the ratio must be constant across samples (and equals a quarter
    of the chart constant with these conventions)."""
    if samples < 1:
        raise ValueError(f"samples must be a positive integer, got {samples!r}")
    form = normalize_form(area_form(chart))
    p = form.normalizer
    c0 = chart_constant(chart, p)
    cut = chart.system.cut
    v0 = chart.coordinates()
    p_inv = np.linalg.inv(p)

    ratios = []
    residuals = []
    guard = 0
    while len(ratios) < samples:
        guard += 1
        if guard > 20 * samples:
            raise MetricNotPositive("sampling kept leaving the chart")
        v = v0 + rel * np.linalg.norm(v0) * (
            rng.standard_normal(chart.dim) + 1j * rng.standard_normal(chart.dim))
        z_full = chart.expansion @ v
        areas = _triangle_areas(cut, z_full)
        area = float(areas.sum())
        if area <= 0 or float(areas.min()) < THIN_AREA_TOL * area / len(chart.surface.triangles):
            continue
        zeta = (p_inv @ v) / math.sqrt(area)
        base = tangent_frame(zeta)
        mixer = rng.standard_normal((base.shape[1], base.shape[1]))
        frame = base @ mixer
        try:
            mu1 = unit_area_density(zeta, frame, c0)
            hyp = hyperbolic_density(zeta, frame)
        except (PointNotOnQ1, FrameNotTangent, MetricNotPositive):
            continue
        ratios.append(mu1 / hyp)
        residuals.append(abs(quadric_value(zeta) + 1.0))
    low, high = min(ratios), max(ratios)
    spread = (high - low) / abs(low)
    return RatioScan(tuple(ratios), tuple(residuals), spread, c0, spread < tolerance)
