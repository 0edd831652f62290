import cmath
import hashlib
import math

import numpy as np
import pytest

from conesurf import hyperbolic, make_doubled_polygon
from conesurf._geom import TANGENT_TOL
from conesurf.charts import (
    _flipped_cut,
    chart_for,
    cut_along_forest,
    solution_vector,
    surface_from_solution,
)
from conesurf.errors import (
    FrameNotTangent,
    MetricNotPositive,
    NotGenusZero,
    PointNotOnQ1,
    SignatureUnexpected,
    TooFewVertices,
    Unsupported,
)
from conesurf.flips import flip, is_flippable
from conesurf.hyperbolic import (
    AreaForm,
    _triangle_areas,
    area_form,
    area_of_solution,
    chart_constant,
    genus_zero_chart,
    hyperbolic_density,
    minkowski_product,
    normalize_form,
    quadric_value,
    ratio_scan,
    reference_frame,
    tangent_frame,
    unit_area_density,
)


def doubled_regular(k):
    return make_doubled_polygon([cmath.exp(2j * math.pi * j / k) for j in range(k)])


def random_q1_point(rng, dim):
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    z[-1] = cmath.exp(1j * rng.uniform(0, 2 * math.pi)) * math.sqrt(
        1.0 + float(np.sum(np.abs(z[:-1]) ** 2)))
    assert abs(quadric_value(z) + 1) < 1e-12
    return z


class TestChart:
    def test_coordinate_counts(self, pillowcase, doubled_pentagon):
        assert genus_zero_chart(pillowcase).dim == 2
        assert genus_zero_chart(doubled_pentagon).dim == 3

    def test_rejections(self, square_torus, doubled_triangle, doubled_pentagon):
        with pytest.raises(NotGenusZero):
            genus_zero_chart(square_torus)
        with pytest.raises(TooFewVertices):
            genus_zero_chart(doubled_triangle)
        # the excluded vertex must be a leaf of the fold path p0-p1-...-p4
        with pytest.raises(Unsupported):
            genus_zero_chart(doubled_pentagon, excluded_vertex=2)

    def test_forest_of_two_trees_is_refused(self, two_tree_pillowcase):
        with pytest.raises(NotGenusZero, match="single spanning tree"):
            genus_zero_chart(two_tree_pillowcase)

    def test_expansion_consistency(self, doubled_pentagon):
        chart = genus_zero_chart(doubled_pentagon)
        residual = np.linalg.norm(chart.system.rows @ chart.expansion)
        assert residual < 1e-10 * (1 + np.linalg.norm(chart.system.rows))
        from conesurf.charts import solution_vector

        z0 = solution_vector(chart.system.cut)
        assert np.allclose(chart.expansion @ chart.coordinates(), z0, atol=1e-9)

    def test_expansion_spans_kernel(self, pillowcase):
        chart = genus_zero_chart(pillowcase)
        k = chart.system.kernel
        coeff = np.linalg.lstsq(chart.expansion, k, rcond=None)[0]
        assert np.allclose(chart.expansion @ coeff, k, atol=1e-10)


class TestAreaForm:
    def test_signatures(self, pillowcase, doubled_pentagon):
        assert area_form(genus_zero_chart(pillowcase)).signature == (1, 1)
        assert area_form(genus_zero_chart(doubled_pentagon)).signature == (1, 2)

    def test_reflex_corner_inertia(self, star_shaped):
        # a measured regression, not a theorem: with one cone angle above
        # 2 pi the form reads (2, n - 4), not the (1, n - 3) that needs
        # every angle below 2 pi, and area_form refuses it
        chart = genus_zero_chart(star_shaped)
        with pytest.raises(SignatureUnexpected) as refusal:
            area_form(chart)
        assert refusal.value.signature == (2, len(star_shaped.vertex_ids) - 4)

    def test_straight_corners_are_refused(self):
        # the straight corners at p0 and p3 are 2-pi points of the forest;
        # measured: the form reads (1, 1), with two null directions of four
        chart = genus_zero_chart(make_doubled_polygon([0, 1, 1 + 1j, 1j, -1 + 1j, -1]))
        assert chart.dim == 4
        with pytest.raises(SignatureUnexpected) as refusal:
            area_form(chart)
        assert refusal.value.signature == (1, 1)

    def test_reproduces_area_at_random_points(self, doubled_pentagon, rng):
        chart = genus_zero_chart(doubled_pentagon)
        form = area_form(chart)
        cut = chart.system.cut
        v0 = chart.coordinates()
        checked = 0
        while checked < 20:
            v = v0 + 0.05 * np.linalg.norm(v0) * (
                rng.standard_normal(3) + 1j * rng.standard_normal(3))
            z = chart.expansion @ v
            try:
                surface = surface_from_solution(cut, z, chart.system)
            except Exception:
                continue
            quad = float((v.conj() @ form.matrix @ v).real)
            assert quad == pytest.approx(surface.total_area(), rel=1e-9)
            assert quad == pytest.approx(area_of_solution(cut, z), rel=1e-12)
            checked += 1

    def test_normalize(self, pillowcase, doubled_pentagon):
        for s in (pillowcase, doubled_pentagon):
            chart = genus_zero_chart(s)
            form = normalize_form(area_form(chart))
            p = form.normalizer
            d = chart.dim
            target = np.diag(np.concatenate([np.ones(d - 1), [-1.0]]))
            assert np.allclose(p.conj().T @ (-form.matrix) @ p, target, atol=1e-9)

    def test_unit_area_surface_lands_on_q1(self, pillowcase):
        chart = genus_zero_chart(pillowcase)
        form = normalize_form(area_form(chart))
        v = chart.coordinates()
        zeta = np.linalg.solve(form.normalizer, v) / math.sqrt(pillowcase.total_area())
        assert quadric_value(zeta) == pytest.approx(-1.0, abs=1e-9)

    def test_normalize_already_normalized(self):
        h = np.diag([1.0, -1.0]).astype(complex)  # signature (1, 1), already diagonal
        form = normalize_form(AreaForm(h, (1, 1)))
        # the normalizer can only permute and re-phase the basis here
        mags = np.abs(form.normalizer)
        assert np.allclose(np.sort(mags, axis=0), np.array([[0, 0], [1, 1]]), atol=1e-12)

    @pytest.mark.parametrize("matrix, signature", [
        (np.diag([1.0, -1.0]), (2, 1)),  # the recorded signature has two positive directions
        (np.diag([1.0, 1.0, -1.0]), (1, 2)),  # -H has one positive eigenvalue, not two
    ])
    def test_normalize_refuses_another_signature(self, matrix, signature):
        with pytest.raises(SignatureUnexpected) as refusal:
            normalize_form(AreaForm(matrix.astype(complex), signature))
        assert refusal.value.signature == signature


class TestDensities:
    def test_gram_identity_reference_frame(self, rng):
        # det(eta) identity: sqrt form equals |z_last|^(2(n-4)) for n = 5 and 6
        for n in (5, 6):
            for _ in range(6):
                z = random_q1_point(rng, n - 2)
                frame = reference_frame(z)
                value = hyperbolic_density(z, frame)
                expected = abs(z[-1]) ** (2 * (n - 4))
                assert value == pytest.approx(expected, rel=1e-9)

    def test_orthonormal_frame_gives_one(self, rng):
        z = random_q1_point(rng, 3)
        frame = tangent_frame(z)
        k = frame.shape[1]
        gram = np.empty((k, k))
        for i in range(k):
            for j in range(k):
                gram[i, j] = minkowski_product(frame[:, i], frame[:, j]).real
        chol = np.linalg.cholesky(gram)
        ortho = frame @ np.linalg.inv(chol).T
        assert hyperbolic_density(z, ortho) == pytest.approx(1.0, rel=1e-9)

    def test_density_transforms_by_real_det(self, rng):
        z = random_q1_point(rng, 4)
        frame = tangent_frame(z)
        m = rng.standard_normal((frame.shape[1], frame.shape[1]))
        assert hyperbolic_density(z, frame @ m) == pytest.approx(
            hyperbolic_density(z, frame) * abs(np.linalg.det(m)), rel=1e-9)

    def test_unit_area_density_completion_independence(self, rng):
        z = random_q1_point(rng, 3)
        frame = tangent_frame(z)
        base = unit_area_density(z, frame, 1.0)
        for _ in range(5):
            a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            try:
                value = unit_area_density(z, frame, 1.0, completion=(a, b))
            except FrameNotTangent:
                continue
            assert value == pytest.approx(base, rel=1e-10)

    def test_unit_area_density_scales_linearly(self, rng):
        z = random_q1_point(rng, 3)
        frame = tangent_frame(z)
        scaled = frame.copy()
        scaled[:, 0] *= 2.5
        assert unit_area_density(z, scaled, 1.0) == pytest.approx(
            2.5 * unit_area_density(z, frame, 1.0), rel=1e-10)

    def test_closed_form_on_reference_frame(self, doubled_pentagon, rng):
        chart = genus_zero_chart(doubled_pentagon)
        form = normalize_form(area_form(chart))
        c0 = chart_constant(chart, form.normalizer)
        n = 5
        for _ in range(4):
            z = random_q1_point(rng, n - 2)
            frame = reference_frame(z)
            value = unit_area_density(z, frame, c0)
            # the reference-frame evaluation of the induced form: the stated
            # coefficient times the Gram determinant of the frame
            expected = (c0 / 4.0) * abs(z[-1]) ** (2 * (n - 4))
            assert value == pytest.approx(expected, rel=1e-9)

    def test_circle_action_invariance(self, rng):
        z = random_q1_point(rng, 3)
        frame = tangent_frame(z)
        mu_base = unit_area_density(z, frame, 1.0)
        hyp_base = hyperbolic_density(z, frame)
        for _ in range(10):
            phase = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            assert unit_area_density(phase * z, phase * frame, 1.0) == pytest.approx(
                mu_base, rel=1e-10)
            assert hyperbolic_density(phase * z, phase * frame) == pytest.approx(
                hyp_base, rel=1e-10)

    def test_point_and_frame_validation(self, rng):
        z = random_q1_point(rng, 3)
        with pytest.raises(PointNotOnQ1):
            unit_area_density(2 * z, tangent_frame(2 * z) * 0 + tangent_frame(z), 1.0)
        bad = tangent_frame(z)
        bad[:, 0] = z
        with pytest.raises(FrameNotTangent):
            hyperbolic_density(z, bad)

    def test_frame_shape_is_refused(self, rng):
        z = random_q1_point(rng, 4)
        with pytest.raises(FrameNotTangent, match="frame must be 4 x 6"):
            hyperbolic_density(z, tangent_frame(z)[:, :-1])

    def test_first_non_tangent_column_is_named(self, rng):
        z = random_q1_point(rng, 4)
        bad = tangent_frame(z)
        bad[:, 3] = z
        bad[:, 5] = z
        with pytest.raises(FrameNotTangent, match="frame column 3 is not orthogonal"):
            unit_area_density(z, bad, 1.0)

    def test_tangency_check_names_the_column_a_loop_names(self, rng):
        # reference: minkowski_product column by column, the first past the bound
        for _ in range(20):
            z = random_q1_point(rng, 5)
            frame = tangent_frame(z)
            leaving = rng.choice(8, size=int(rng.integers(1, 4)), replace=False)
            frame[:, leaving] += 1e-3 * (rng.standard_normal((5, len(leaving)))
                                         + 1j * rng.standard_normal((5, len(leaving))))
            first = next(j for j in range(8) if abs(minkowski_product(z, frame[:, j]))
                         > TANGENT_TOL * (1 + np.linalg.norm(frame[:, j])))
            with pytest.raises(FrameNotTangent, match=f"frame column {first} is not"):
                hyperbolic_density(z, frame)

    def test_degenerate_completion_is_refused(self, rng):
        z = random_q1_point(rng, 4)
        with pytest.raises(FrameNotTangent, match="completion pair is degenerate"):
            unit_area_density(z, tangent_frame(z), 1.0, completion=(z, z))

    def test_zero_column_has_no_hyperbolic_density(self):
        # at the base point the tangent frame is orthonormal, so with one
        # column zeroed the Gram matrix is exactly diag(1, 1, 0, 1, 1, 1)
        z = np.array([0, 0, 0, 1], dtype=complex)
        frame = tangent_frame(z)
        frame[:, 2] = 0
        with pytest.raises(MetricNotPositive, match="Gram matrix has eigenvalue"):
            hyperbolic_density(z, frame)


class TestRatioScan:
    def test_pentagon_constant(self, doubled_pentagon, rng):
        chart = genus_zero_chart(doubled_pentagon)
        scan = ratio_scan(chart, 50, rng)
        assert scan.passed and scan.spread < 1e-6
        assert scan.ratios[0] * 4.0 / scan.chart_constant == pytest.approx(1.0,
                                                                           rel=1e-6)

    def test_pillowcase_constant(self, pillowcase, rng):
        scan = ratio_scan(genus_zero_chart(pillowcase), 20, rng)
        assert scan.passed
        assert scan.ratios[0] * 4.0 / scan.chart_constant == pytest.approx(1.0,
                                                                           rel=1e-6)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_rejects_non_positive_samples(self, doubled_pentagon, rng, samples):
        with pytest.raises(ValueError, match="samples"):
            ratio_scan(genus_zero_chart(doubled_pentagon), samples, rng)

    def test_one_check_per_accepted_sample(self, pillowcase, monkeypatch):
        """Each sample's point and frame are checked once, then read by both
        unchecked densities, which give the public functions' bits."""
        checked = []
        check = hyperbolic._check_point_and_frame

        def counted(z, frame):
            checked.append((z, frame))
            return check(z, frame)

        monkeypatch.setattr(hyperbolic, "_check_point_and_frame", counted)
        scan = ratio_scan(genus_zero_chart(pillowcase), 20, np.random.default_rng(1))
        assert len(checked) == len(scan.ratios) == 20
        monkeypatch.undo()
        c0 = scan.chart_constant
        assert list(scan.ratios) == [unit_area_density(z, frame, c0) / hyperbolic_density(z, frame)
                                     for z, frame in checked]

    def test_two_charts_same_constant(self, doubled_pentagon, rng):
        chart_a = genus_zero_chart(doubled_pentagon)
        leaves = sorted({0, 4} & set(doubled_pentagon.vertex_ids))
        chart_b = genus_zero_chart(doubled_pentagon, excluded_vertex=leaves[0])
        assert chart_a.excluded_vertex != chart_b.excluded_vertex
        scan_a = ratio_scan(chart_a, 10, np.random.default_rng(1))
        scan_b = ratio_scan(chart_b, 10, np.random.default_rng(2))
        assert scan_a.ratios[0] == pytest.approx(scan_b.ratios[0], rel=1e-6)

    def test_pinned_scans(self, doubled_pentagon, pillowcase):
        # every bit of the ratios, residuals, constant, spread and area form
        digest = hashlib.sha256()
        for surface in (doubled_pentagon, pillowcase, doubled_regular(12)):
            chart = genus_zero_chart(surface)
            digest.update(area_form(chart).matrix.tobytes())
            for seed in (1, 7):
                scan = ratio_scan(chart, 10, np.random.default_rng(seed))
                for value in (scan.ratios, scan.residuals, scan.chart_constant, scan.spread):
                    digest.update(repr(value).encode())
        assert digest.hexdigest() == (
            "43136c805158d8f8e79254d15d9abef959a55fa134c192258dd8d80bd4a8715f")

    def test_failed_density_skips_the_sample(self, doubled_pentagon, monkeypatch):
        density = hyperbolic._hyperbolic_density
        calls = []

        def fails_once(frame):
            calls.append(frame)
            if len(calls) == 1:
                raise MetricNotPositive("injected")
            return density(frame)

        monkeypatch.setattr(hyperbolic, "_hyperbolic_density", fails_once)
        scan = ratio_scan(genus_zero_chart(doubled_pentagon), 5, np.random.default_rng(1))
        assert scan.passed and len(scan.ratios) == 5 and len(calls) == 6

    def test_doubled_32_gon_leaves_the_chart(self, monkeypatch):
        """Known failure, pinned as measured: at the fixed step 0.01 |v0| the
        doubled 32-gon's samples keep leaving the chart (its smallest triangle
        is 0.036 of the mean area).  193 of the 200 attempts are thin-area
        skips and 7 are accepted.  ROADMAP item 1, a step scaled to the
        chart, must turn this into a pass."""
        areas, density = hyperbolic._triangle_areas, hyperbolic._hyperbolic_density
        attempts, accepted = [], []
        monkeypatch.setattr(hyperbolic, "_triangle_areas",
                            lambda cut, z: attempts.append(1) or areas(cut, z))
        monkeypatch.setattr(hyperbolic, "_hyperbolic_density",
                            lambda frame: accepted.append(1) or density(frame))
        chart = genus_zero_chart(doubled_regular(32))
        with pytest.raises(MetricNotPositive, match="sampling kept leaving the chart"):
            ratio_scan(chart, 10, np.random.default_rng(7))
        assert (len(attempts), len(accepted)) == (200, 7)


class TestTriangleSides:
    def test_flipped_cut_reads_its_own_sides(self):
        s = doubled_regular(12)
        cut, _ = chart_for(s)
        assert _triangle_areas(cut, solution_vector(cut)).min() > 0  # builds the source's sides
        for e in sorted(e for e in s.edges() if e not in s.forest and is_flippable(s, e))[:4]:
            flipped, _ = flip(s, e)
            derived, full = _flipped_cut(cut, flipped, e), cut_along_forest(flipped)
            assert derived is not cut and derived.columns == full.columns
            z = solution_vector(full)
            assert _triangle_areas(derived, z).tobytes() == _triangle_areas(full, z).tobytes()
            assert _triangle_areas(derived, z).tobytes() != _triangle_areas(cut, z).tobytes()
