import cmath
import gc
import math
import weakref
from collections import Counter

import numpy as np
import pytest

from conesurf import charts, flips, isomorphic, make_regular_4g_gon, make_torus, volume
from conesurf.charts import (
    assemble_system,
    chart_for,
    cut_along_forest,
    reforest,
    solution_vector,
    spanning_forest,
    transition_for_flip,
)
from conesurf.errors import (
    EdgeNotInterior,
    FrameNotInKernel,
    NotTranslationSurface,
)
from conesurf.flips import chart_transition, flip, flip_path, is_flippable, random_flips
from conesurf.volume import (
    flip_density_pair,
    kernel_density,
    period_density_ratio,
    primitive_family,
    split_constant,
    split_edge_system,
    tree_change_densities,
)


def realified(mat):
    """Real 2n x 2n block matrix of a complex n x n matrix."""
    return np.block([[mat.real, -mat.imag], [mat.imag, mat.real]])


def oracle_density_full_rank(rows, frame, rng):
    """Independent evaluation through real determinants with a random
    complement: |det_C M|^2 = det_R of the realified matrix."""
    n1, r = rows.shape[1], rows.shape[0]
    w = rng.standard_normal((n1, r)) + 1j * rng.standard_normal((n1, r))
    top = np.linalg.det(realified(np.hstack([frame, w])))
    bottom = np.linalg.det(realified(rows @ w))
    return top / bottom


def oracle_density_rank_deficient(system, frame, rng):
    rows = system.rows.copy()
    for i, (kind, _) in enumerate(system.row_kind):
        if kind != "triangle":
            rows[i] = -rows[i]
    r = rows.shape[0]
    u, s, vh = np.linalg.svd(rows)
    image = u[:, : r - 1]
    w1 = np.linalg.lstsq(rows, image, rcond=None)[0]
    w1 += system.kernel @ (rng.standard_normal((system.kernel.shape[1], r - 1))
                           + 1j * rng.standard_normal((system.kernel.shape[1], r - 1)))
    w2 = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    top = np.linalg.det(realified(np.hstack([frame, w1]))) * abs(w2.sum()) ** 2
    bottom = np.linalg.det(realified(np.column_stack([rows @ w1, w2])))
    return top / bottom


class TestKernelDensity:
    def test_torus_golden_value(self, square_torus):
        _, system = chart_for(square_torus)
        report = kernel_density(system, system.kernel)
        # frozen from the rank-deficient torsion oracle below
        assert report.value == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert report.convention == "four-term-sequence"

    def test_pentagon_against_oracle(self, doubled_pentagon, rng):
        _, system = chart_for(doubled_pentagon)
        report = kernel_density(system, system.kernel)
        assert report.convention == "short-sequence"
        for _ in range(5):
            oracle = oracle_density_full_rank(system.rows, system.kernel, rng)
            assert report.value == pytest.approx(oracle, rel=1e-9)

    def test_torus_against_oracle(self, square_torus, rng):
        _, system = chart_for(square_torus)
        report = kernel_density(system, system.kernel)
        for _ in range(5):
            oracle = oracle_density_rank_deficient(system, system.kernel, rng)
            assert report.value == pytest.approx(oracle, rel=1e-9)

    def test_column_scaling(self, doubled_pentagon):
        _, system = chart_for(doubled_pentagon)
        base = kernel_density(system, system.kernel).value
        frame = system.kernel.copy()
        frame[:, 1] *= 2 - 1j
        scaled = kernel_density(system, frame).value
        assert scaled == pytest.approx(abs(2 - 1j) ** 2 * base, rel=1e-12)

    def test_complement_independence(self, doubled_pentagon, rng):
        _, system = chart_for(doubled_pentagon)
        rows, kernel = system.rows, system.kernel
        r = rows.shape[0]
        expected = kernel_density(system, kernel).value
        for _ in range(20):
            w = np.linalg.pinv(rows) + kernel @ (
                rng.standard_normal((3, r)) + 1j * rng.standard_normal((3, r)))
            w += 0.3 * (rng.standard_normal((w.shape[0], r))
                        + 1j * rng.standard_normal((w.shape[0], r)))
            value = (abs(np.linalg.det(np.hstack([kernel, w]))) ** 2
                     / abs(np.linalg.det(rows @ w)) ** 2)
            assert value == pytest.approx(expected, rel=1e-10)

    def test_frame_equivariance(self, doubled_pentagon, marked_torus, rng):
        for s in (doubled_pentagon, marked_torus):
            _, system = chart_for(s)
            d = system.kernel_dim
            base = kernel_density(system, system.kernel).value
            for _ in range(5):
                m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                value = kernel_density(system, system.kernel @ m).value
                assert value == pytest.approx(abs(np.linalg.det(m)) ** 2 * base,
                                              rel=1e-10)

    def test_frame_not_in_kernel(self, square_torus):
        _, system = chart_for(square_torus)
        bad = np.eye(3, 2, dtype=complex)
        with pytest.raises(FrameNotInKernel):
            kernel_density(system, bad)

    def test_nan_frame_is_refused(self, square_torus):
        # the density reads only the free columns, so the residual check must
        # refuse a NaN anywhere else
        _, system = chart_for(square_torus)
        frame = system.kernel.copy()
        frame[0, 0] = np.nan
        assert 0 not in system.tree.free
        with pytest.raises(FrameNotInKernel):
            kernel_density(system, frame)

    def test_report_carries_conventions(self, square_torus, doubled_pentagon):
        for s, tag in ((square_torus, "four-term-sequence"),
                       (doubled_pentagon, "short-sequence")):
            _, system = chart_for(s)
            report = kernel_density(system, system.kernel)
            assert report.convention == tag
            assert len(report.fingerprint) == 16


def oracle_systems(s, split):
    """The chart system of a surface, or its split systems along every
    interior edge (their "split" rows are negated in the row relation)."""
    cut, system = chart_for(s)
    if not split:
        return [system]
    return [split_edge_system(cut, e) for e in sorted(s.edges()) if e not in s.forest]


@pytest.mark.parametrize("split", [False, True])
def test_left_product_is_the_dense_product(golden_surfaces, rng, split):
    for s in golden_surfaces.values():
        for system in oracle_systems(s, split):
            r, n = system.tree.shape
            y = rng.standard_normal(r) + 1j * rng.standard_normal(r)
            left = system.tree.apply_left(y)
            assert left.shape == (n,)
            # exactly the entrywise sum; BLAS may round the product differently
            assert np.array_equal(left, (y[:, None] * system.rows).sum(axis=0))
            assert np.abs(left - y @ system.rows).max() <= 4 * np.spacing(np.abs(y).max())


class TestOracleCases:
    """Both torsion cases against the independent real-determinant oracles,
    on the kernel frame and on a random frame."""

    @pytest.mark.parametrize("name, split, convention", [
        ("doubled_triangle", False, "short-sequence"),
        ("pillowcase", False, "short-sequence"),
        ("octagon_surface", False, "four-term-sequence"),
        ("marked_torus", False, "four-term-sequence"),
        ("skew_torus", False, "four-term-sequence"),
        ("doubled_triangle", True, "short-sequence"),
        ("doubled_pentagon", True, "short-sequence"),
        ("octagon_surface", True, "four-term-sequence"),
    ])
    def test_against_oracle(self, request, rng, name, split, convention):
        for system in oracle_systems(request.getfixturevalue(name), split):
            d = system.kernel.shape[1]
            mixer = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for frame in (system.kernel, system.kernel @ mixer):
                report = kernel_density(system, frame)
                assert report.convention == convention
                for _ in range(3):
                    if convention == "short-sequence":
                        oracle = oracle_density_full_rank(system.rows, frame, rng)
                    else:
                        oracle = oracle_density_rank_deficient(system, frame, rng)
                    assert report.value == pytest.approx(oracle, rel=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestUnderflow:
    """A frame scaled by 1e-60 has a density below the smallest float on the
    doubled pentagon; ratios are taken from the logarithms."""

    SCALE = 1e-60

    def test_log_value_scales(self, doubled_pentagon):
        _, system = chart_for(doubled_pentagon)
        base = kernel_density(system, system.kernel)
        tiny = kernel_density(system, self.SCALE * system.kernel)
        assert tiny.value == 0.0
        expected = base.log_value + 2 * system.kernel_dim * np.log(self.SCALE)
        assert tiny.log_value == pytest.approx(expected, rel=1e-13)

    def test_tree_ratio(self, doubled_pentagon):
        s = doubled_pentagon
        path, star = sorted(s.forest), sorted(spanning_forest(s))
        _, system_a = chart_for(reforest(s, path)[0])
        _, _, ratio = tree_change_densities(s, path, star, self.SCALE * system_a.kernel)
        assert abs(ratio - 1.0) < 1e-9

    def test_split_constant(self, doubled_pentagon):
        cut, _ = chart_for(doubled_pentagon)
        kernel = assemble_system(cut).kernel
        for e in sorted(doubled_pentagon.edges()):
            if e not in doubled_pentagon.forest:
                assert split_constant(cut, e, self.SCALE * kernel) == pytest.approx(
                    split_constant(cut, e), rel=1e-10)


class TestFlipInvariance:
    def test_single_flips_all_goldens(self, golden_surfaces, rng):
        for name, s in golden_surfaces.items():
            for _ in range(10):
                candidates = [e for e in s.edges()
                              if e not in s.forest and is_flippable(s, e)]
                edge = candidates[rng.integers(len(candidates))]
                report_a, report_b = flip_density_pair(s, edge)
                assert abs(report_b.value / report_a.value - 1.0) < 1e-9, name

    def test_five_flip_walks_all_goldens(self, golden_surfaces, rng):
        for name, s in golden_surfaces.items():
            _, system = chart_for(s)
            frame = system.kernel
            value_start = kernel_density(system, frame).value
            current = s
            for _ in range(5):
                candidates = [e for e in current.edges()
                              if e not in current.forest and is_flippable(current, e)]
                edge = candidates[rng.integers(len(candidates))]
                frame = transition_for_flip(current, edge) @ frame
                current, _ = flip(current, edge)
            _, system_end = chart_for(current)
            value_end = kernel_density(system_end, frame).value
            assert abs(value_end / value_start - 1.0) < 1e-9, name

    def test_marked_torus_case_two(self, marked_torus, rng):
        s = marked_torus
        candidates = [e for e in s.edges() if e not in s.forest and is_flippable(s, e)]
        for edge in candidates:
            report_a, report_b = flip_density_pair(s, edge)
            assert abs(report_b.value / report_a.value - 1.0) < 1e-9


class TestSplitSystems:
    def test_counts_and_embedding(self, doubled_triangle):
        cut, system = chart_for(doubled_triangle)
        interior = [e for e in doubled_triangle.edges()
                    if e not in doubled_triangle.forest]
        assert len(interior) == 1
        split = split_edge_system(cut, interior[0])
        assert split.rows.shape == (5, 6)
        assert split.rank == system.rank + 1
        assert split.kernel.shape[1] == system.kernel_dim
        z = solution_vector(cut)
        embedded = split.embed(z)
        assert np.linalg.norm(split.rows @ embedded) < 1e-10
        assert embedded[-1] == -z[split.split_column]

    def test_constant_across_edges(self, doubled_triangle, doubled_pentagon):
        for s in (doubled_triangle, doubled_pentagon):
            cut, _ = chart_for(s)
            interior = [e for e in s.edges() if e not in s.forest]
            constants = [split_constant(cut, e) for e in interior]
            low, high = min(constants), max(constants)
            assert (high - low) / abs(low) < 1e-10

    def test_boundary_edge_rejected(self, doubled_pentagon):
        cut, _ = chart_for(doubled_pentagon)
        with pytest.raises(EdgeNotInterior):
            split_edge_system(cut, sorted(doubled_pentagon.forest)[0])


class TestTreeInvariance:
    def test_identity_pair_is_exact(self, doubled_pentagon):
        _, _, ratio = tree_change_densities(doubled_pentagon, doubled_pentagon.forest,
                                            doubled_pentagon.forest)
        assert ratio == 1.0

    def test_three_tree_pairs(self, doubled_pentagon):
        s = doubled_pentagon
        path = sorted(s.forest)
        star = sorted(spanning_forest(s))
        mixed = star[:2] + path[2:]  # another spanning tree of the same skeleton
        pairs = [(path, star), (path, mixed), (star, mixed)]
        for tree_a, tree_b in pairs:
            _, _, ratio = tree_change_densities(s, tree_a, tree_b)
            assert abs(ratio - 1.0) < 1e-9, (tree_a, tree_b)

    def test_single_exchange_pair(self, doubled_pentagon):
        s = doubled_pentagon
        star = sorted(spanning_forest(s))
        from conesurf.charts import exchange_sequence

        out, into = exchange_sequence(s, s.forest, star)[0]
        tree_b = sorted((set(s.forest) - {out}) | {into})
        _, _, ratio = tree_change_densities(s, s.forest, tree_b)
        assert abs(ratio - 1.0) < 1e-9

    def test_each_surface_is_cut_once(self, doubled_pentagon, monkeypatch):
        s = doubled_pentagon
        path = sorted(s.forest)
        star = sorted(spanning_forest(s))
        cuts = []

        def counted(surface):
            cuts.append(surface)
            return cut_along_forest(surface)

        monkeypatch.setattr(charts, "cut_along_forest", counted)
        monkeypatch.setattr(volume, "cut_along_forest", counted)
        assert reforest(s, path)[0] is s and cuts == []
        assert reforest(s, path)[1].shape == (cut_along_forest(s).num_edges,) * 2
        for tree_a, expected in ((path, 2), (star, 3)):
            cuts.clear()
            report_a, report_b, _ = tree_change_densities(s, tree_a, star if tree_a is path
                                                          else path)
            assert len(cuts) == expected == len({id(x) for x in cuts})
            assert report_a.tree is not report_b.tree


class TestPeriodComparison:
    def test_torus_constant(self, square_torus, rng):
        ratios, family = period_density_ratio(square_torus, samples=10, rng=rng)
        assert len(family) == 2
        spread = (max(ratios) - min(ratios)) / abs(min(ratios))
        assert spread < 1e-8

    def test_two_families_agree(self, square_torus, octagon_surface, rng):
        for s in (square_torus, octagon_surface):
            r1, f1 = period_density_ratio(s, samples=2, rng=rng)
            r2, f2 = period_density_ratio(s, samples=2, rng=rng, reverse_family=True)
            assert f1 != f2
            assert r1[0] == pytest.approx(r2[0], rel=1e-9)

    def test_octagon_constant(self, octagon_surface, rng):
        ratios, family = period_density_ratio(octagon_surface, samples=6, rng=rng)
        assert len(family) == 4
        spread = (max(ratios) - min(ratios)) / abs(min(ratios))
        assert spread < 1e-8

    def test_lambda_flip_invariant(self, square_torus, octagon_surface, rng):
        for s in (square_torus, octagon_surface):
            base = period_density_ratio(s, samples=1, rng=rng)[0][0]
            dual_interior = set(s.edges()) - set(primitive_family(s))
            flippable = [e for e in sorted(dual_interior) if is_flippable(s, e)]
            flipped, _ = flip(s, flippable[0])
            after = period_density_ratio(flipped, samples=1, rng=rng)[0][0]
            assert base == pytest.approx(after, rel=1e-9)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_rejects_non_positive_samples(self, square_torus, samples):
        with pytest.raises(ValueError, match="samples"):
            period_density_ratio(square_torus, samples=samples)

    def test_rejects_non_translation(self, doubled_pentagon):
        with pytest.raises(NotTranslationSurface, match="full-turn multiple"):
            period_density_ratio(doubled_pentagon, samples=1)

    @pytest.mark.parametrize("name", ["marked_torus", "h11_decagon"])
    def test_lambda_under_an_erasing_forest(self, request, with_forest, name):
        """A translation surface with a forest: the marked torus (its regular
        center on a one-edge tree) and the H(1,1) decagon (its two 4-pi
        vertices joined by edge 0).  One lambda over the samples, both
        primitive families, a 20-flip walk, a tree change, and the
        presentation with an empty forest."""
        s = request.getfixturevalue(name)
        forested = s if s.forest else with_forest(s, (0,))
        other_tree = {"marked_torus": (4,), "h11_decagon": (1,)}[name]
        presentations = [forested, with_forest(forested, ()),
                         random_flips(forested, 20, np.random.default_rng(2))[0],
                         reforest(forested, other_tree)[0]]
        assert [sorted(p.forest) for p in presentations[2:]] == [sorted(forested.forest),
                                                                 list(other_tree)]
        lambdas = []
        for p in presentations:
            for reverse in (False, True):
                ratios, family = period_density_ratio(p, samples=3, rng=np.random.default_rng(1),
                                                      reverse_family=reverse)
                assert len(family) == 2 * p.genus() + len(p.vertex_ids) - 1
                lambdas += ratios
        assert max(lambdas) - min(lambdas) <= 1e-12 * min(lambdas)


class TestStarShapedPolygons:
    """Criteria 1, 3, 4 and 7 on doubled polygons that are star-shaped from
    their first vertex, each with one cone angle above 2 pi."""

    def test_dimension(self, star_shaped):
        angles = [star_shaped.cone_angle(v) for v in star_shaped.vertex_ids]
        assert sum(a > 2 * math.pi for a in angles) == 1
        assert chart_for(star_shaped)[1].kernel_dim == len(angles) - 2

    def test_flip_invariance_on_every_edge(self, star_shaped):
        edges = flippable_edges(star_shaped)
        assert edges
        for edge in edges:
            report_a, report_b = flip_density_pair(star_shaped, edge)
            assert abs(report_b.log_value - report_a.log_value) < 1e-12, edge

    def test_tree_change_invariance(self, star_shaped):
        star = spanning_forest(star_shaped)
        assert set(star) != set(star_shaped.forest)
        _, _, ratio = tree_change_densities(star_shaped, star_shaped.forest, star)
        assert abs(ratio - 1.0) < 1e-12

    def test_flip_path_and_transition(self, star_shaped):
        walked, _ = random_flips(star_shaped, 20, np.random.default_rng(2))
        assert isomorphic(flip_path(star_shaped, walked).replay(star_shaped), walked) is not None
        mat = chart_transition(star_shaped, walked)
        _, system = chart_for(star_shaped)
        before = kernel_density(system, system.kernel).log_value
        after = kernel_density(chart_for(walked)[1], mat @ system.kernel).log_value
        assert abs(after - before) <= 4 * math.ulp(before)


@pytest.mark.parametrize("call", [
    transition_for_flip, flip_density_pair,
    lambda s, h: split_edge_system(cut_along_forest(s), h)])
def test_unknown_halfedge_is_a_value_error(pillowcase, call):
    with pytest.raises(ValueError, match="unknown half-edge 1000000"):
        call(pillowcase, 10**6)


def flippable_edges(s):
    return [e for e in s.edges() if e not in s.forest and is_flippable(s, e)]


class TestChartCache:
    """``chart_for`` keeps one chart per surface; one-shot charts are not
    kept, and the kernel is orthonormalized only when read."""

    def test_second_call_returns_the_same_chart(self, doubled_pentagon):
        cut, system = chart_for(doubled_pentagon)
        again_cut, again_system = chart_for(doubled_pentagon)
        assert again_cut is cut and again_system is system
        assert system.kernel is system.kernel

    def test_copy_and_flip_in_place_drop_the_chart(self, doubled_pentagon):
        _, system = chart_for(doubled_pentagon)
        owned = doubled_pentagon._copy()
        assert "_chart" not in vars(owned)
        _, owned_system = chart_for(owned)
        assert owned_system is not system
        edge = flippable_edges(owned)[0]
        flips._flip_owned(owned, edge)
        assert "_chart" not in vars(owned)
        _, fresh = chart_for(owned)
        flipped, _ = flip(doubled_pentagon, edge)
        assert "_chart" not in vars(flipped)
        assert fresh.fingerprint() == assemble_system(cut_along_forest(flipped)).fingerprint()

    def test_one_chart_and_one_kernel_per_surface(self, monkeypatch):
        s = make_regular_4g_gon(3)
        counts = Counter()

        def counted(name, function):
            def wrapper(*args):
                counts[name] += 1
                return function(*args)
            return wrapper

        # both row sources, the surface and a source's patched rows, end in
        # the one checking step
        monkeypatch.setattr(charts, "_checked_system",
                            counted("_checked_system", charts._checked_system))
        monkeypatch.setattr(volume, "kernel_density",
                            counted("kernel_density", volume.kernel_density))
        monkeypatch.setattr(charts, "_deterministic_kernel",
                            counted("_deterministic_kernel", charts._deterministic_kernel))
        monkeypatch.setattr(charts, "_sweep_basis", counted("_sweep_basis", charts._sweep_basis))
        edges = flippable_edges(s)
        moves = 5
        for k in range(moves):
            flip_density_pair(s, edges[k % len(edges)])
        # the one basis is the source's, for its kernel: no flipped chart
        # builds one, and the source's density is taken once, with its chart
        assert counts == {"_checked_system": moves + 1, "kernel_density": moves + 1,
                          "_deterministic_kernel": 1, "_sweep_basis": 1}

    def test_basis_reads_the_assembled_tree(self, doubled_pentagon, monkeypatch):
        system = assemble_system(cut_along_forest(doubled_pentagon))
        assert system.kernel_dim == len(system.tree.free)
        assert "basis" not in vars(system)

        def refused(*args):
            raise AssertionError("the basis searched the row graph again")

        monkeypatch.setattr(charts, "adjacency", refused)
        monkeypatch.setattr(charts, "bfs", refused)
        assert system.kernel.shape == (system.tree.shape[1], system.kernel_dim)
        assert system.basis is system.basis

    def test_shared_arrays_are_read_only(self, doubled_pentagon):
        _, system = chart_for(doubled_pentagon)
        tree = system.tree
        for array in (system.kernel, system.basis, system.rows, tree.cols, tree.coefs,
                      tree.free, tree.ends):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_flipped_surface_is_freed_without_gc(self, doubled_pentagon, monkeypatch):
        flipped = []

        def recorded(surface, edge):
            result = flip(surface, edge)
            flipped.append(weakref.ref(result[0]))
            return result

        monkeypatch.setattr(volume, "flip", recorded)
        gc.disable()
        try:
            for edge in flippable_edges(doubled_pentagon):
                reports = flip_density_pair(doubled_pentagon, edge)
                assert flipped[-1]() is None
                assert len(reports[1].fingerprint) == 16
        finally:
            gc.enable()


def rotated_4g_gon(g, k):
    source = make_regular_4g_gon(g)
    return source, source.scale(cmath.exp(2j * math.pi * k / (4 * g)))


def rotations(g, k, power):
    """The regular 4g-gon and its rotations by k steps, up to the given
    power."""
    source = make_regular_4g_gon(g)
    return [source.scale(cmath.exp(2j * math.pi * k * j / (4 * g))) for j in range(power + 1)]


class TestGroupAction:
    """Elements of the group that fix a translation surface's chart: a
    change of lattice basis of the square torus, and a rotation of a regular
    4g-gon by a multiple of its angle (an element of its Veech group).  The
    group preserves the volume form: the density transported by an element
    is the source's."""

    ELEMENTS = {
        "torus_shear": lambda: (make_torus(1, 1j), make_torus(1, 1 + 1j)),
        "torus_basis_change": lambda: (make_torus(1, 1j), make_torus(2 + 1j, 1 + 1j)),
        "genus2_rotation": lambda: rotated_4g_gon(2, 1),
        "genus3_rotation": lambda: rotated_4g_gon(3, 2),
    }

    @pytest.mark.parametrize("name", ELEMENTS)
    def test_element_preserves_the_density(self, name):
        source, target = self.ELEMENTS[name]()
        _, system = chart_for(source)
        _, system_t = chart_for(target)
        assert system.fingerprint() == system_t.fingerprint()
        mat = chart_transition(source, target)
        assert np.array_equal(mat, np.round(mat.real)), "not an integer matrix"
        before = kernel_density(system, system.kernel).log_value
        after = kernel_density(system_t, mat @ system.kernel).log_value
        assert abs(after - before) <= 4 * math.ulp(before)
        # composed with its inverse, the element is the identity on the chart
        inverse = chart_transition(target, source)
        assert np.allclose(inverse @ mat @ system.kernel, system.kernel, rtol=0, atol=1e-12)

    # chains of surfaces whose consecutive pairs are the elements above or
    # their inverses
    PRODUCTS = {
        "shear_inverse_then_basis_change": lambda: [make_torus(1, 1 + 1j), make_torus(1, 1j),
                                                    make_torus(2 + 1j, 1 + 1j)],
        "basis_change_inverse_then_shear": lambda: [make_torus(2 + 1j, 1 + 1j), make_torus(1, 1j),
                                                    make_torus(1, 1 + 1j)],
        "shear_and_back_then_basis_change": lambda: [make_torus(1, 1j), make_torus(1, 1 + 1j),
                                                     make_torus(1, 1j),
                                                     make_torus(2 + 1j, 1 + 1j)],
        "genus2_rotation_squared": lambda: rotations(2, 1, 2),
        "genus2_rotation_to_the_fourth": lambda: rotations(2, 1, 4),
        "genus3_rotation_cubed": lambda: rotations(3, 2, 3),
    }

    @pytest.mark.parametrize("name", PRODUCTS)
    def test_product_preserves_the_density(self, name):
        chain = self.PRODUCTS[name]()
        _, system = chart_for(chain[0])
        _, system_t = chart_for(chain[-1])
        mat = np.eye(system.rows.shape[1])
        for source, target in zip(chain, chain[1:]):
            mat = chart_transition(source, target) @ mat
        assert np.array_equal(mat, np.round(mat.real)), "not an integer matrix"
        before = kernel_density(system, system.kernel).log_value
        after = kernel_density(system_t, mat @ system.kernel).log_value
        assert abs(after - before) <= 4 * math.ulp(before)
