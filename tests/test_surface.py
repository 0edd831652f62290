import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conesurf import (
    FlatSurface,
    SurfaceSpec,
    build_surface,
    isomorphic,
    load_surface,
    make_doubled_polygon,
    make_regular_4g_gon,
    make_torus,
    save_surface,
)
from conesurf import surface as surface_module
from conesurf._geom import angle_tol, reduce_angle
from conesurf.charts import chart_for, perturb_surface, reforest, spanning_forest
from conesurf.errors import (
    AngleMismatch,
    ClosureViolation,
    DegenerateInput,
    ForestNotTrees,
    GluingMismatch,
    NonIntegerGenus,
    OrientationViolation,
    UnknownVertex,
)
from conesurf.flips import FlipPath, flip, flip_path, random_flips

TWO_PI = 2 * math.pi


def relabel_halfedges(surface, mapping):
    """The surface with its half-edge ids renamed by the bijection
    ``mapping``; each vertex keeps its id and its angle target."""
    tris = {t: tuple(mapping[h] for h in surface.triangle(t)) for t in surface.triangles}
    twin = {mapping[h]: mapping[surface.twin(h)] for h in surface.halfedges}
    vectors = {mapping[h]: surface.vec(h) for h in surface.halfedges}
    forest = {min(mapping[e], mapping[surface.twin(e)]) for e in surface.forest}
    # the constructor takes the vertices in the order of their smallest half-edges
    order = sorted((min(mapping[h] for h in surface.corners_at(v)), v)
                   for v in surface.vertex_ids)
    return FlatSurface(tris, twin, vectors, forest,
                       [(v, surface.angle_target(v)) for _, v in order])


def square_torus_spec(c_vector=-1 - 1j):
    return SurfaceSpec(
        vertices=((0, TWO_PI),),
        triangles=((0, 1, 2), (3, 4, 5)),
        gluing=((0, 3), (1, 4), (2, 5)),
        vectors={0: 1, 1: 1j, 2: c_vector, 3: -1, 4: -1j, 5: 1 + 1j},
        forest=(),
    )


class TestBuildSurface:
    def test_square_torus_valid(self):
        s = build_surface(square_torus_spec())
        assert s.genus() == 1
        assert len(s.vertex_ids) == 1
        assert s.cone_angle(0) == pytest.approx(TWO_PI, abs=1e-12)

    def test_closure_violation(self):
        with pytest.raises(ClosureViolation) as exc:
            build_surface(square_torus_spec(c_vector=-1 - 1.1j))
        assert exc.value.triangle == 0
        assert exc.value.residual == pytest.approx(0.1, abs=1e-12)

    def test_doubled_triangle_valid(self, doubled_triangle):
        s = doubled_triangle
        assert s.genus() == 0
        assert len(s.forest) == 2
        for v in s.vertex_ids:
            assert s.cone_angle(v) == pytest.approx(2 * math.pi / 3, abs=1e-12)

    def test_orientation_violation(self):
        spec = square_torus_spec()
        bad = SurfaceSpec(spec.vertices, ((0, 2, 1), (3, 5, 4)), spec.gluing,
                          spec.vectors, spec.forest)
        with pytest.raises(OrientationViolation):
            build_surface(bad)

    def test_gluing_mismatch(self):
        spec = square_torus_spec()
        vectors = dict(spec.vectors)
        vectors[4] = -1.5j
        vectors[5] = 1 + 1.5j  # keep triangle 1 closed, break the twin relation
        bad = SurfaceSpec(spec.vertices, spec.triangles, spec.gluing, vectors, ())
        with pytest.raises(GluingMismatch):
            build_surface(bad)

    def test_angle_mismatch(self):
        spec = square_torus_spec()
        bad = SurfaceSpec(((0, 4 * math.pi),), spec.triangles, spec.gluing,
                          spec.vectors, ())
        with pytest.raises(AngleMismatch):
            build_surface(bad)

    def test_forest_cycle_rejected(self, doubled_triangle):
        s = doubled_triangle
        spec = s.to_spec()
        bad = SurfaceSpec(spec.vertices, spec.triangles, spec.gluing, spec.vectors,
                          (0, 1, 2))
        with pytest.raises(ForestNotTrees):
            build_surface(bad)

    def test_disconnected_gluing_rejected(self, square_torus, doubled_triangle,
                                          disjoint_union):
        # genus 0 by Euler characteristic and Gauss-Bonnet, but two pieces
        with pytest.raises(ValueError, match="disconnected: 2 components"):
            build_surface(disjoint_union(square_torus, doubled_triangle))

    def test_disconnected_gluing_keeps_earlier_errors(self, doubled_triangle, disjoint_union):
        with pytest.raises(NonIntegerGenus):
            build_surface(disjoint_union(doubled_triangle, doubled_triangle))

    def test_unpaired_halfedge_rejected(self):
        spec = square_torus_spec()
        bad = SurfaceSpec(spec.vertices, spec.triangles, ((0, 3), (1, 4)),
                          spec.vectors, ())
        with pytest.raises(ValueError):
            build_surface(bad)

    def test_unknown_vertex(self, square_torus):
        with pytest.raises(UnknownVertex):
            square_torus.cone_angle(7)


class TestInvariants:
    def test_genus_examples(self, square_torus, doubled_triangle, octagon_surface):
        assert square_torus.genus() == 1
        assert doubled_triangle.genus() == 0
        assert octagon_surface.genus() == 2

    def test_octagon_counts(self, octagon_surface):
        s = octagon_surface
        assert len(s.vertex_ids) == 1
        assert len(s.halfedges) // 2 == 9
        assert len(s.triangles) == 6

    def test_octagon_cone_angle_by_corner_summation(self, octagon_surface):
        # oracle: the fan triangulation has every corner at the single vertex,
        # so the cone angle is the plain sum of all developed triangle angles
        pts = [cmath.exp(2j * math.pi * j / 8) for j in range(8)]
        total = 0.0
        for t in range(6):
            tri = (pts[0], pts[t + 1], pts[t + 2])
            for i in range(3):
                u = tri[(i + 1) % 3] - tri[i]
                w = tri[(i + 2) % 3] - tri[i]
                total += math.atan2((u.conjugate() * w).imag, (u.conjugate() * w).real)
        assert total == pytest.approx(6 * math.pi, abs=1e-9)
        assert octagon_surface.cone_angle(0) == pytest.approx(total, abs=1e-9)

    def test_doubled_pentagon_angles(self, doubled_pentagon):
        for v in doubled_pentagon.vertex_ids:
            assert doubled_pentagon.cone_angle(v) == pytest.approx(6 * math.pi / 5,
                                                                   abs=1e-12)

    def test_total_area(self, square_torus, doubled_triangle):
        assert square_torus.total_area() == pytest.approx(1.0, abs=1e-12)
        assert doubled_triangle.total_area() == pytest.approx(math.sqrt(3) / 2,
                                                              abs=1e-12)

    def test_gauss_bonnet(self, golden_surfaces):
        for s in golden_surfaces.values():
            total = sum(s.cone_angle(v) for v in s.vertex_ids)
            expected = TWO_PI * (2 * s.genus() + len(s.vertex_ids) - 2)
            assert abs(total - expected) <= 1e-9 * (1 + total)

    @settings(max_examples=25, deadline=None)
    @given(re=st.floats(-3, 3), im=st.floats(-3, 3))
    def test_area_scaling(self, re, im):
        w = complex(re, im)
        if abs(w) < 1e-3:
            return
        s = make_torus(1, 1j)
        scaled = s.scale(w)
        assert scaled.total_area() == pytest.approx(
            abs(w) ** 2 * s.total_area(), rel=1e-12)

    def test_cone_angle_invariant_under_relabeling(self, doubled_pentagon, rng):
        s = doubled_pentagon
        perm = rng.permutation(len(s.halfedges))
        mapping = {h: int(perm[i]) for i, h in enumerate(s.halfedges)}
        relabeled = relabel_halfedges(s, mapping)
        for v in s.vertex_ids:
            assert relabeled.cone_angle(v) == pytest.approx(s.cone_angle(v), abs=1e-12)


def forest_component(surface, start, skip=None):
    """Vertices joined to start by forest edges other than skip."""
    comp = {start}
    grown = True
    while grown:
        grown = False
        for f in surface.forest:
            a, b = surface.origin(f), surface.origin(surface.twin(f))
            if f != skip and (a in comp) != (b in comp):
                comp |= {a, b}
                grown = True
    return comp


def subtree_off(surface, e):
    """Split the tree holding e at e; the component not containing the
    tree's smallest vertex."""
    ca = forest_component(surface, surface.origin(e), skip=e)
    cb = forest_component(surface, surface.origin(surface.twin(e)), skip=e)
    return cb if min(ca | cb) in ca else ca


def brute_force_rotation(surface, e):
    return sum(surface.cone_angle(v) for v in subtree_off(surface, e))


def doubled_regular(k):
    return make_doubled_polygon([cmath.exp(2j * math.pi * j / k) for j in range(k)])


def pentagon_star(doubled_pentagon):
    """The doubled pentagon with its star tree at vertex 0 as the forest."""
    star, _, _ = reforest(doubled_pentagon, spanning_forest(doubled_pentagon))
    return star


class TestForestRotations:
    def check(self, surface):
        assert surface.forest
        for e in surface.forest:
            expected = brute_force_rotation(surface, e)
            theta = surface.forest_pairing(e)[0]
            assert abs(math.remainder(theta - expected, TWO_PI)) <= angle_tol(expected)
        trees = {frozenset(forest_component(surface, v)) for v in surface.vertex_ids}
        assert surface.num_trees() == len(trees)
        assert surface.num_trees() == len(surface.vertex_ids) - len(surface.forest)

    def test_pentagon_star_tree(self, doubled_pentagon):
        star = pentagon_star(doubled_pentagon)
        assert star.forest != doubled_pentagon.forest
        self.check(star)

    def test_irregular_polygon_trees(self):
        # unequal cone angles, so each subtree sum depends on which side is taken
        s = make_doubled_polygon([0, 2, 2.5 + 1j, 1 + 2j, -0.5 + 1j, -0.3 + 0.2j])
        self.check(s)
        star, _, _ = reforest(s, spanning_forest(s))
        assert star.forest != s.forest
        self.check(star)

    def test_multi_tree_forest(self, two_tree_pillowcase):
        assert two_tree_pillowcase.num_trees() == 2
        self.check(two_tree_pillowcase)

    def test_marked_torus(self, marked_torus):
        self.check(marked_torus)

    @pytest.mark.parametrize("name", ["doubled_12_gon", "doubled_48_gon", "walked_48_gon",
                                      "pentagon_star", "two_tree_pillowcase"])
    def test_pairing_is_the_correctly_rounded_subtree_sum(self, doubled_pentagon,
                                                          two_tree_pillowcase, name):
        """Every theta equals the math.fsum of its subtree's cone angles, bit
        for bit, whatever order the angles were added in."""
        rng = np.random.default_rng(48)
        make = {"doubled_12_gon": lambda: doubled_regular(12),
                "doubled_48_gon": lambda: doubled_regular(48),
                "walked_48_gon": lambda: random_flips(
                    perturb_surface(doubled_regular(48), rng), 60, rng)[0],
                "pentagon_star": lambda: pentagon_star(doubled_pentagon),
                "two_tree_pillowcase": lambda: two_tree_pillowcase}
        s = make[name]()
        assert s.forest
        for e in s.forest:
            oracle = reduce_angle(math.fsum(s.cone_angle(v) for v in subtree_off(s, e)))
            assert s.forest_pairing(e)[0] == oracle, e


class TestRoundingWindow:
    """_window(x) holds exactly the exact sums that int / int division rounds
    to x: checked at each bound and one unit inside and outside it, on sums a
    quarter-ulp step apart (midpoints, so ties to even, included)."""

    @settings(max_examples=300, deadline=None)
    @given(scale=st.sampled_from([1e-8, 1.0, 1e8]),
           mantissa=st.floats(1.0, 2.0, exclude_max=True),
           quarters=st.integers(-6, 6), nudge=st.integers(-2, 2))
    @example(scale=1.0, mantissa=1.0, quarters=-1, nudge=0)  # tie below a power of two
    @example(scale=1e-8, mantissa=1.0, quarters=2, nudge=0)   # tie above one
    @example(scale=1e8, mantissa=1.5, quarters=2, nudge=0)  # tie next to an even float
    @example(scale=1e8, mantissa=1.5 + 2.0**-52, quarters=-2, nudge=0)  # and an odd one
    @example(scale=2.0**-1070, mantissa=1.5, quarters=0, nudge=1)  # an odd subnormal
    def test_window_classifies_as_division(self, scale, mantissa, quarters, nudge):
        unit = 1 << surface_module._ULP_BITS
        x0 = math.ldexp(mantissa, math.frexp(scale)[1])
        quarter = surface_module._exact(math.ulp(x0)) // 4
        total = surface_module._exact(x0) + quarters * quarter + nudge
        x = total / unit
        lo, hi = surface_module._window(x)
        assert lo <= total <= hi
        for exact in (lo - 1, lo, lo + 1, hi - 1, hi, hi + 1):
            assert (lo <= exact <= hi) == (exact / unit == x), exact - total


class TestConstructors:
    def test_make_torus_matches_square_spec(self, square_torus):
        reference = build_surface(square_torus_spec())
        assert isomorphic(square_torus, reference) is not None

    def test_make_torus_degenerate(self):
        with pytest.raises(DegenerateInput):
            make_torus(1, 2)  # collinear

    @pytest.mark.parametrize("points", [
        [0, 1, 1 + 1j, 0.5 + 0.4j],  # p3 lies right of the ray p0 -> p2
        [-1 + 1j, -1 - 1j, 1 - 1j, 1, 0, 1j],  # the L-hexagon from two other
        [1j, -1 + 1j, -1 - 1j, 1 - 1j, 1, 0],  # vertices
        [0, 1j, 1 + 1j, 1],  # cw
        [0, 1, 1j, 0],  # the reflection axis p(k-1) -> p0 has no length
    ], ids=["reflex_quadrilateral", "l_hexagon_from_corner", "l_hexagon_from_top", "cw_square",
            "zero_axis"])
    def test_doubled_polygon_needs_a_star_from_its_first_vertex(self, points):
        with pytest.raises(DegenerateInput, match="star-shaped from its first vertex"):
            make_doubled_polygon(points)

    def test_reflex_corners_are_cone_angles_above_a_full_turn(self):
        # every fan triangle from p0 is ccw; the corner at p0 is a 3-pi point
        s = make_doubled_polygon([0, 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1])
        assert [s.cone_angle(v) / math.pi for v in s.vertex_ids] == pytest.approx(
            [3, 1, 1, 1, 1, 1], abs=1e-12)

    def test_fan_winding_past_a_full_turn_is_an_angle_mismatch(self):
        # six ccw fan triangles turn 400 degrees about p0, whose corner
        # reads 40 degrees
        points = [0] + [(1 + 0.1 * j) * cmath.exp(1j * math.radians(80 * j)) for j in range(6)]
        with pytest.raises(AngleMismatch) as mismatch:
            make_doubled_polygon(points)
        assert (mismatch.value.vertex, mismatch.value.computed, mismatch.value.declared) \
            == (0, pytest.approx(math.radians(800)), pytest.approx(math.radians(80)))

    def test_straight_corners(self):
        # a straight corner inside a fan triangle leaves it flat
        with pytest.raises(DegenerateInput, match="star-shaped"):
            make_doubled_polygon([0, 1, 2, 2 + 1j, 1j])
        # straight corners at the fan's apex p0 and between two fan
        # triangles at p3 are regular points
        s = make_doubled_polygon([0, 1, 1 + 1j, 1j, -1 + 1j, -1])
        assert [s.cone_angle(v) / math.pi for v in s.vertex_ids] == pytest.approx(
            [2, 1, 1, 2, 1, 1], abs=1e-12)

    def test_near_degenerate_input_is_degenerate(self):
        # the constructors test their triangles as the surface does, so an
        # input they accept never fails its orientation check afterwards
        with pytest.raises(DegenerateInput):
            make_torus(1, 1 + 5e-12j)
        with pytest.raises(DegenerateInput):
            make_doubled_polygon([0, 1, 2 + 6e-12j, 1j])

    def test_doubled_pentagon_gauss_bonnet(self, doubled_pentagon):
        total = sum(doubled_pentagon.cone_angle(v) for v in doubled_pentagon.vertex_ids)
        assert total == pytest.approx(6 * math.pi, abs=1e-9)  # 2 pi (n - 2), n = 5

    def test_regular_4g_gon(self, octagon_surface):
        # genus 2 with a single zero of order 2g - 2 = 2: cone angle 2 pi (2 + 1)
        assert octagon_surface.genus() == 2
        assert octagon_surface.cone_angle(0) == pytest.approx(6 * math.pi, abs=1e-9)
        with pytest.raises(DegenerateInput):
            make_regular_4g_gon(1)

    def test_doubled_polygon_forest_is_fold_path(self, doubled_pentagon):
        s = doubled_pentagon
        assert len(s.forest) == 4
        covered = set()
        for e in s.forest:
            covered.add(s.origin(e))
            covered.add(s.origin(s.twin(e)))
        assert covered == set(s.vertex_ids)


class TestSerialization:
    def test_round_trip_exact(self, golden_surfaces):
        for s in golden_surfaces.values():
            text = s.to_json()
            rebuilt = build_surface(SurfaceSpec.from_json(text))
            assert rebuilt.to_json() == text
            for h in s.halfedges:
                assert rebuilt.vec(h) == s.vec(h)
                assert rebuilt.twin(h) == s.twin(h)
                assert rebuilt.next(h) == s.next(h)
            assert rebuilt.forest == s.forest

    def test_save_then_load_keeps_the_bytes(self, golden_surfaces, tmp_path):
        for name, s in golden_surfaces.items():
            path = tmp_path / f"{name}.json"
            save_surface(s, path)
            assert path.read_text(encoding="utf-8") == s.to_json()
            assert load_surface(path).to_json() == s.to_json()

    def test_unknown_field_rejected(self, square_torus):
        text = square_torus.to_json().rstrip().rstrip("}")
        text += ', "color": 3}'
        with pytest.raises(ValueError, match="unknown fields"):
            SurfaceSpec.from_json(text)

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing fields"):
            SurfaceSpec.from_json('{"vertices": [], "triangles": []}')

    def test_writers_golden_bytes(self, square_torus):
        # the surface file, the chart JSON and a one-move flip path of the
        # square torus, byte for byte; the kernel's last digits come from
        # LAPACK, so only its numbers are read from the kernel itself
        one = "1.0000000000000000e+00"
        zero = "0.0000000000000000e+00"
        assert square_torus.to_json() == (
            '{\n  "vertices": [{"id": 0, "angle": 6.2831853071795862e+00}],\n'
            '  "triangles": [[0, 1, 2], [3, 4, 5]],\n'
            '  "gluing": [[0, 3], [1, 4], [2, 5]],\n'
            f'  "vectors": {{"0": [{one}, {zero}], "1": [{zero}, {one}], '
            f'"2": [-{one}, -{one}], "3": [-{one}, -{zero}], "4": [-{zero}, -{one}], '
            f'"5": [{one}, {one}]}},\n'
            '  "forest": []\n}\n')

        system = chart_for(square_torus)[1]
        kernel = [", ".join(f"[{z.real:.16e}, {z.imag:.16e}]" for z in row)
                  for row in system.kernel]
        assert system.to_json() == (
            f'{{\n  "rows": [[[{one}, {zero}], [{one}, {zero}], [{one}, {zero}]], '
            f'[[-{one}, {zero}], [-{one}, {zero}], [-{one}, {zero}]]],\n'
            '  "row_kind": ["triangle:0", "triangle:1"],\n'
            '  "column_map": [0, 1, 2],\n'
            f'  "kernel": [[{kernel[0]}], [{kernel[1]}], [{kernel[2]}]],\n'
            '  "rank": 1\n}\n')

        path = flip_path(square_torus, flip(square_torus, 1)[0])
        assert path.to_json() == (
            '[{"edge": 1, "quad": [5, 3, 2, 0], '
            '"new_vector": [-2.0000000000000000e+00, -1.0000000000000000e+00]}]')

    def test_writers_reject_non_finite(self, square_torus):
        _, move = flip(square_torus, 1)
        with pytest.raises(ValueError, match="non-finite"):
            FlipPath((replace(move, new_diagonal=complex(math.nan, 0.0)),)).to_json()
        with pytest.raises(ValueError, match="non-finite"):
            SurfaceSpec(((0, math.inf),), (), (), {}).to_json()

    def test_vectors_survive_17_digits(self, skew_torus):
        s = skew_torus.scale(math.pi / 3)
        rebuilt = build_surface(SurfaceSpec.from_json(s.to_json()))
        for h in s.halfedges:
            assert rebuilt.vec(h) == s.vec(h)


class TestCanonicalEquality:
    def test_isomorphic_to_self(self, golden_surfaces):
        for s in golden_surfaces.values():
            assert isomorphic(s, s) is not None

    def test_not_isomorphic_after_scaling(self, square_torus):
        assert isomorphic(square_torus, square_torus.scale(2)) is None

    def test_not_isomorphic_across_sizes_labels_or_forests(self, square_torus, octagon_surface,
                                                           pillowcase, marked_torus):
        def rebuilt(s, forest, names):
            return FlatSurface(s.triangles, {h: s.twin(h) for h in s.halfedges},
                               {h: s.vec(h) for h in s.halfedges}, forest,
                               [(names.get(v, v), s.angle_target(v)) for v in s.vertex_ids])

        # one vertex 0 and no forest each, 6 and 18 half-edges
        assert isomorphic(square_torus, octagon_surface) is None
        assert isomorphic(pillowcase, rebuilt(pillowcase, pillowcase.forest, {3: 7})) is None
        assert isomorphic(marked_torus, rebuilt(marked_torus, (), {})) is None

    def test_isomorphic_under_relabeling(self, pillowcase, rng):
        perm = rng.permutation(len(pillowcase.halfedges))
        mapping = {h: int(perm[i]) for i, h in enumerate(pillowcase.halfedges)}
        relabeled = relabel_halfedges(pillowcase, mapping)
        assert isomorphic(pillowcase, relabeled) is not None
