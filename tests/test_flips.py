import cmath
import copy
import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesurf import (
    FlatSurface,
    isomorphic,
    make_doubled_polygon,
    make_regular_4g_gon,
    make_torus,
)
from conesurf import flips
from conesurf import surface as surface_module
from conesurf._geom import DELAUNAY_BAND, POSITION_TOL, ccw_angle, cross
from conesurf.charts import (
    chart_for,
    cut_along_forest,
    exchange_sequence,
    perturb_surface,
    solution_vector,
    spanning_forest,
)
from conesurf.errors import (
    ConesurfError,
    DegenerateInput,
    DoesNotTerminateAtVertex,
    ExitsThroughForest,
    ForestEdge,
    HitsVertexEarly,
    NonTermination,
    NotFlippable,
    NotSameMetric,
)
from conesurf.flips import (
    FlipPath,
    chart_transition,
    delaunay,
    delaunay_angle_sum,
    develop_segment,
    developing_polygon,
    flip,
    flip_path,
    has_half_turn_holonomy,
    insert_segment,
    is_delaunay_edge,
    is_flippable,
    random_flips,
)
from conesurf.volume import kernel_density

TWO_PI = 2 * math.pi


def torus_crossing_oracle(w: complex) -> int:
    """Crossings of the open segment 0 -> w with the unit square lattice
    triangulated by +1-slope diagonals (the square-torus development).

    Counts interior intersections with the lines x = k, y = k and y - x = k;
    the segment must end on a lattice point and avoid others."""
    x, y = w.real, w.imag

    def strict_between(value):
        count = 0
        k = math.ceil(min(0.0, value)) if value >= 0 else None
        lo, hi = sorted((0.0, value))
        k = math.floor(lo) + 1
        while k < hi - 1e-12:
            if k > lo + 1e-12:
                count += 1
            k += 1
        return count

    assert abs(x - round(x)) < 1e-9 and abs(y - round(y)) < 1e-9
    assert math.gcd(int(round(x)), int(round(y))) == 1, "segment must avoid lattice points"
    return strict_between(x) + strict_between(y) + strict_between(y - x)


def corner_for_direction(surface, vertex, w):
    for h in surface.corners_at(vertex):
        delta = ccw_angle(surface.vec(h), w)
        if delta <= 1e-12 or delta < surface.corner_angle(h) - 1e-12:
            return h
    raise AssertionError("no corner contains the direction")


class TestHolonomy:
    def test_cases(self, square_torus, pillowcase, doubled_pentagon, marked_torus):
        assert has_half_turn_holonomy(square_torus)
        assert has_half_turn_holonomy(marked_torus)
        assert has_half_turn_holonomy(pillowcase)
        check = has_half_turn_holonomy(doubled_pentagon)
        assert not check and check.witness in doubled_pentagon.forest


def _segment_call(function):
    return pytest.param(lambda s, h: function(s, h, 1 + 0j), id=function.__name__)


class TestFlip:
    @pytest.mark.parametrize("call", [
        flip, is_flippable, is_delaunay_edge, delaunay_angle_sum,
        *map(_segment_call, (develop_segment, developing_polygon, insert_segment))])
    def test_unknown_halfedge_is_a_value_error(self, pillowcase, call):
        with pytest.raises(ValueError, match="unknown half-edge 1000000"):
            call(pillowcase, 10**6)

    def test_square_torus_diagonal(self, square_torus):
        assert is_flippable(square_torus, 2)
        flipped, move = flip(square_torus, 2)
        assert abs(abs(move.new_diagonal) - abs(1 - 1j)) < 1e-12
        assert move.new_diagonal in (1 - 1j, -1 + 1j)
        assert flipped.total_area() == pytest.approx(1.0, rel=1e-12)

    def test_double_flip_is_identity(self, golden_surfaces):
        for s in golden_surfaces.values():
            for e in s.edges():
                if e in s.forest or not is_flippable(s, e):
                    continue
                once, _ = flip(s, e)
                twice, _ = flip(once, e)
                assert isomorphic(twice, s) is not None
                break

    def test_flip_preserves_structure(self, doubled_pentagon):
        s = doubled_pentagon
        edge = next(e for e in s.edges() if e not in s.forest and is_flippable(s, e))
        flipped, _ = flip(s, edge)
        assert flipped.forest == s.forest
        assert sorted(flipped.vertex_ids) == sorted(s.vertex_ids)
        for v in s.vertex_ids:
            assert abs(flipped.cone_angle(v) - s.cone_angle(v)) < 1e-9
        assert flipped.total_area() == pytest.approx(s.total_area(), rel=1e-12)

    def test_forest_edge_rejected(self, doubled_pentagon):
        with pytest.raises(ForestEdge):
            is_flippable(doubled_pentagon, sorted(doubled_pentagon.forest)[0])

    def test_collinear_quad_not_flippable(self, pillowcase):
        # the non-tree fold edge unfolds to a degenerate (collinear) quad
        s = pillowcase
        fold = next(e for e in s.edges() if e not in s.forest
                    and {s.origin(e), s.origin(s.twin(e))} == {0, 3})
        assert not is_flippable(s, fold)
        with pytest.raises(NotFlippable):
            flip(s, fold)

    def test_long_walk_on_perturbed_torus(self):
        # the flipped triangles of an accepted quad once failed the orientation
        # check at flip 65, sides near 6e5 with area 0.5
        rng = np.random.default_rng(5)
        _, path = random_flips(perturb_surface(make_torus(1, 1j), rng), 300, rng)
        assert len(path) == 300

    @pytest.mark.parametrize("name", ["square_torus", "octagon", "doubled_triangle",
                                      "pillowcase", "doubled_pentagon", "perturbed_torus"])
    def test_flippable_exactly_when_flip_succeeds(self, golden_surfaces, name):
        rng = np.random.default_rng(5)
        surfaces = dict(golden_surfaces,
                        perturbed_torus=perturb_surface(make_torus(1, 1j), rng))
        s = surfaces[name]
        for _ in range(80):
            for e in s.edges():
                if e in s.forest:
                    continue
                try:
                    flip(s, e)
                    flipped = True
                except ConesurfError:
                    flipped = False
                assert is_flippable(s, e) == flipped, e
            s, path = random_flips(s, 1, rng)
            if not len(path):
                break


class TestDelaunay:
    def test_square_torus_already_delaunay(self, square_torus):
        result, path = delaunay(square_torus)
        assert len(path) == 0

    def test_skew_torus(self, skew_torus):
        result, path = delaunay(skew_torus)
        assert len(path) > 0
        # oracle: exhaustive predicate check on every edge
        for e in result.edges():
            assert is_delaunay_edge(result, e)
        assert result.total_area() == pytest.approx(skew_torus.total_area(), rel=1e-12)

    def test_doubled_pentagon(self, doubled_pentagon):
        result, _ = delaunay(doubled_pentagon)
        for e in result.edges():
            assert is_delaunay_edge(result, e)

    def test_randomized_runs_agree_after_canonicalization(self, skew_torus):
        # random scrambles give delaunay different flip orders, which reach
        # one tessellation up to cocircular flips
        det = rescan_canonicalize_cocircular(delaunay(skew_torus)[0])
        for seed in range(5):
            scrambled, _ = random_flips(skew_torus, 10, np.random.default_rng(seed))
            rnd = rescan_canonicalize_cocircular(delaunay(scrambled)[0])
            assert isomorphic(det, rnd) is not None

    def test_replay(self, skew_torus):
        result, path = delaunay(skew_torus)
        assert isomorphic(path.replay(skew_torus), result) is not None


def doubled_polygon(k):
    return make_doubled_polygon([cmath.exp(2j * math.pi * j / k) for j in range(k)])


P12 = [cmath.exp(2j * math.pi * j / 12) for j in range(12)]  # doubled_polygon(12)'s corners


@pytest.fixture
def strip_surfaces(golden_surfaces):
    return {**golden_surfaces, "doubled_12gon": doubled_polygon(12)}


# (surface, seed) of the walks whose flip paths the strip tests read
STRIP_WALKS = [(name, seed)
               for name in ("square_torus", "octagon", "doubled_triangle", "pillowcase",
                            "doubled_pentagon", "doubled_12gon")
               for seed in range(3)]


def germs(surface, vertex, direction):
    """(corner, ccw offset from its leading ray) of every corner at the
    vertex whose sector, leading ray included, holds the plane direction: one
    per full turn of the cone angle.  Within 1e-9 rad of a ray the direction
    lies on it."""
    for h in surface.corners_at(vertex):
        delta = ccw_angle(surface.vec(h), direction)
        if delta <= 1e-9 or delta >= TWO_PI - 1e-9:
            yield h, 0.0
        elif delta < surface.corner_angle(h) - 1e-9:
            yield h, delta


def walk_insertions(surface, seed):
    """(surface, corner, vector) of the insertion of each non-forest edge of
    a seeded 20-flip walk of the surface into the surface, and of each edge
    of the surface into the walk, from every germ of the edge's direction at
    its origin."""
    walked, _ = random_flips(surface, 20, np.random.default_rng(seed))
    for source, target in ((walked, surface), (surface, walked)):
        for e in target.edges():
            if e in target.forest:
                continue
            w = target.vec(e)
            for h, delta in germs(source, target.origin(e), w / abs(w)):
                unit = source.vec(h) / abs(source.vec(h))
                yield source, h, unit * cmath.exp(1j * delta) * abs(w)


def walk_segments(surface, seed, monkeypatch):
    """(surface, corner, vector) of every segment that insert_segment develops
    during the ``walk_insertions`` of the surface and seed; the surface is a
    copy of the inserting surface at that moment.  Germs whose segment does
    not develop are left out."""
    segments = []
    develop = flips.develop_segment

    def recording(current, corner, w):
        trace = develop(current, corner, w)
        segments.append((current._copy(), corner, w))
        return trace

    with monkeypatch.context() as patch:
        patch.setattr(flips, "develop_segment", recording)
        for source, corner, w in walk_insertions(surface, seed):
            try:
                insert_segment(source, corner, w)
            except ConesurfError:
                pass
    assert segments
    return segments


class TestTrace:
    @pytest.mark.parametrize("w", [1 + 2j, 2 + 1j, 3 + 2j, 1 + 3j, 2 + 3j, 5 + 2j])
    def test_torus_against_unfolding_oracle(self, square_torus, w):
        corner = corner_for_direction(square_torus, 0, w)
        crossings = develop_segment(square_torus, corner, w).crossings
        assert len(crossings) == torus_crossing_oracle(w)

    def test_existing_edge_is_empty(self, square_torus):
        assert develop_segment(square_torus, 0, 1 + 0j).crossings == ()

    def test_hits_vertex_early(self, square_torus):
        corner = corner_for_direction(square_torus, 0, 2 + 2j)
        with pytest.raises(HitsVertexEarly) as exc:
            develop_segment(square_torus, corner, 2 + 2j)
        assert exc.value.parameter == pytest.approx(0.5, abs=1e-9)

    def test_passing_within_the_band_of_the_new_corner_hits_it(self):
        # aimed 1e-11 rad clockwise of the first triangle's far corner, the
        # segment passes within the band of it halfway along
        s = random_flips(make_torus(1, 1j), 15, np.random.default_rng(2))[0]
        v2 = s.vec(1) + s.vec(s.next(1))
        with pytest.raises(HitsVertexEarly) as exc:
            develop_segment(s, 1, 2 * v2 * cmath.exp(-1e-11j))
        assert exc.value.parameter == pytest.approx(0.5, abs=1e-9)

    def test_does_not_terminate(self, square_torus):
        with pytest.raises(DoesNotTerminateAtVertex):
            develop_segment(square_torus, 0, 0.5 + 0j)
        corner = corner_for_direction(square_torus, 0, 0.3 + 0.2j)
        with pytest.raises(DoesNotTerminateAtVertex):
            develop_segment(square_torus, corner, 0.3 + 0.2j)

    def test_exits_through_forest(self, doubled_pentagon):
        s = doubled_pentagon
        # aim from p0 across the fold edge (p1, p2)
        p = [cmath.exp(2j * math.pi * k / 5) for k in range(5)]
        w = 1.2 * (0.5 * (p[1] + p[2]) - p[0])
        corner = corner_for_direction(s, 0, w)
        with pytest.raises(ExitsThroughForest):
            develop_segment(s, corner, w)

    def test_crossing_cap_grows_with_the_segment(self):
        # 17,997 crossings, past the floor of 1000 per half-edge, so the cap
        # is raised from the smallest triangle altitude
        torus = make_torus(1, 1j)
        w = 9000 + 1j
        trace = develop_segment(torus, 0, w)
        assert len(trace.crossings) == 17997 > 1000 * (len(torus.halfedges) + 1)
        assert abs(sum(s * torus.vec(h) for h, s in trace.chain) - w) <= POSITION_TOL * abs(w)

    def test_direction_outside_sector(self, square_torus):
        with pytest.raises(ValueError):
            develop_segment(square_torus, 0, -1 + 0.5j)

    @pytest.mark.parametrize("name, seed", STRIP_WALKS)
    def test_chain_telescopes(self, strip_surfaces, name, seed, monkeypatch):
        surface = strip_surfaces[name]
        for s, corner, w in walk_segments(surface, seed, monkeypatch):
            trace = develop_segment(s, corner, w)
            total = sum(sign * s.vec(h) for h, sign in trace.chain)
            assert abs(total - w) < 1e-9 * abs(w)
            # every crossed side runs from the clockwise side of the segment
            # to its counterclockwise side
            for c in trace.crossings:
                assert cross(w, c.p_from) < 0 < cross(w, c.p_to)
                # and its corners lie outside the band around the segment's line
                local = max(abs(w), abs(s.vec(c.halfedge)))
                for p in (c.p_from, c.p_to):
                    assert abs(cross(w, p)) > POSITION_TOL * local * abs(w)

    @pytest.mark.parametrize("name, seed", STRIP_WALKS)
    def test_developing_polygon(self, strip_surfaces, name, seed, monkeypatch):
        surface = strip_surfaces[name]
        for s, corner, w in walk_segments(surface, seed, monkeypatch):
            trace = develop_segment(s, corner, w)
            polygon = developing_polygon(s, corner, w)
            m = len(trace.crossings)
            # an existing edge is a strip of no triangles
            assert len(polygon.vertices) == (m + 3 if m else 2)
            assert len(polygon.diagonals) == m
            start, end = polygon.diagonal
            assert start == 0 and polygon.vertices[start] == 0j
            assert abs(polygon.vertices[end] - w) < 1e-9 * abs(w)
            assert polygon.corner_map[start] == s.origin(corner)
            assert polygon.corner_map[end] == trace.end_vertex
            for c, (i, j) in zip(trace.crossings, polygon.diagonals):
                # a lower (clockwise) corner to an upper (counterclockwise) one
                assert 0 < i < end < j < len(polygon.vertices)
                assert abs(polygon.vertices[i] - c.p_from) < 1e-9 * abs(w)
                assert abs(polygon.vertices[j] - c.p_to) < 1e-9 * abs(w)
                assert polygon.corner_map[i] == s.origin(c.halfedge)
                assert polygon.corner_map[j] == s.head(c.halfedge)

    def test_developing_polygon_keeps_coincident_corners(self, octagon_surface):
        # around the 6-pi vertex this strip comes back over itself: three
        # pairs of its corners develop to the same point and stay two corners
        w = -0.2928932188134538 + 6.363961030678931j
        polygon = developing_polygon(octagon_surface, 11, w)
        m = len(develop_segment(octagon_surface, 11, w).crossings)
        assert m == 31
        assert len(polygon.vertices) == m + 3
        close = [(i, j) for j, q in enumerate(polygon.vertices)
                 for i, p in enumerate(polygon.vertices[:j]) if abs(p - q) < 1e-9]
        assert len(close) == 3


class TestInsert:
    def test_single_crossing_needs_one_flip(self, square_torus):
        corner = corner_for_direction(square_torus, 0, 2 + 1j)
        result, path = insert_segment(square_torus, corner, 2 + 1j)
        assert len(path) == 1
        assert any(abs(result.vec(h) - (2 + 1j)) < 1e-9 for h in result.halfedges)

    def test_target_already_edge(self, square_torus):
        result, path = insert_segment(square_torus, 0, 1 + 0j)
        assert len(path) == 0
        assert isomorphic(result, square_torus) is not None

    @pytest.mark.parametrize("w", [3 + 2j, 1 + 3j, 5 + 2j])
    def test_longer_segments(self, square_torus, w):
        corner = corner_for_direction(square_torus, 0, w)
        m = len(develop_segment(square_torus, corner, w).crossings)
        assert m >= 2
        result, path = insert_segment(square_torus, corner, w)
        assert any(abs(result.vec(h) - w) < 1e-9 for h in result.halfedges)
        # one flip may remove several crossings (a crossed edge can be crossed
        # more than once), but at least one flip is always needed
        assert len(path) >= 1

    def test_a_stalled_fan_round_is_stopped(self, square_torus, monkeypatch):
        # with flips that change nothing, the count stays at m0: the first
        # round and m0 + 2 more each flip once, and the next one raises
        w = 5 + 2j
        corner = corner_for_direction(square_torus, 0, w)
        m0 = len(develop_segment(square_torus, corner, w).crossings)
        attempts = []
        monkeypatch.setattr(flips, "_flip_owned", lambda surface, edge: attempts.append(edge))
        with pytest.raises(NonTermination, match="no crossing-count progress within a fan round"):
            insert_segment(square_torus, corner, w)
        assert len(attempts) == m0 + 3

    def test_a_rising_crossing_count_is_stopped(self, square_torus, monkeypatch):
        # the traces cross 7 (the up-front check), 7, 5, 3, 1 and 0 edges;
        # the third, read with each crossing twice, crosses 10 after 7
        w = 5 + 1j
        corner = corner_for_direction(square_torus, 0, w)
        develop = flips.develop_segment
        traces = []

        def doubled_third(*args):
            trace = develop(*args)
            traces.append(trace)
            if len(traces) == 3:
                return dataclasses.replace(trace, crossings=trace.crossings * 2)
            return trace
        monkeypatch.setattr(flips, "develop_segment", doubled_third)
        with pytest.raises(NonTermination, match="crossing count increased"):
            insert_segment(square_torus, corner, w)
        assert len(traces) == 3

    @pytest.mark.parametrize("name, count, digest", [
        ("genus_one_octagon", 154,
         "9309901746f0efb7ef5e531c7e7f657ab3bf7d3bdb98746294d9ca9a8296d15b"),
        ("doubled_pentagon", 108,
         "186fbddc1184c8d4420beaab14367a0dab889919c66725f1213c9c11d27f7c6a"),
    ], ids=["genus_one_octagon", "doubled_pentagon"])
    def test_reinserted_diagonals_give_back_the_source(self, request, name, count, digest):
        # any holonomy: the octagon's forest edge 1 crosses with a quarter
        # turn, and the pentagon is genus 0 with generic rotations; the old
        # diagonal of every flippable edge is inserted from both ends, on the
        # surface and on its 5- and 20-flip walks
        surface = request.getfixturevalue(name)
        assert not has_half_turn_holonomy(surface)
        bases = [surface] + [random_flips(surface, n, np.random.default_rng(seed))[0]
                             for n in (5, 20) for seed in range(6)]
        paths = []
        for s in bases:
            for e in s.edges():
                if e in s.forest or not is_flippable(s, e):
                    continue
                flipped, move = flip(s, e)
                for h, w in ((e, move.old_diagonal), (s.twin(e), -move.old_diagonal)):
                    result, path = insert_segment(
                        flipped, corner_for_direction_any(flipped, w, s, h), w)
                    assert isomorphic(result, s) is not None
                    paths.append(path.to_json())
        assert len(paths) == count
        assert hashlib.sha256("\n".join(paths).encode()).hexdigest() == digest


def corner_for_direction_any(surface, w, original, edge):
    """Corner of the flipped surface at the old diagonal's origin vertex whose
    sector contains the old diagonal's germ, carried over as its ccw offset
    from a half-edge at that vertex that the flip kept."""
    v = original.origin(edge)
    anchor = next(h for h in original.corners_at(v)
                  if original.edge_of(h) != original.edge_of(edge))
    theta = flips._offset_between(original, anchor, edge)
    corner, _ = flips._locate_germ(surface, anchor, theta, abs(w))
    return corner


class TestFlipPath:
    def test_identity(self, square_torus):
        path = flip_path(square_torus, square_torus)
        assert len(path) == 0
        # a walked doubled 12-gon's cells are not fans: each side flips its
        # cells to the same fans, and the two ends cancel
        for seed in range(3):
            walked, _ = random_flips(doubled_polygon(12), 20, np.random.default_rng(seed))
            assert len(flip_path(walked, walked)) == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_torus_scrambles(self, square_torus, seed):
        rng = np.random.default_rng(seed)
        scrambled, _ = random_flips(square_torus, 10, rng)
        path = flip_path(square_torus, scrambled)
        assert isomorphic(path.replay(square_torus), scrambled) is not None

    @pytest.mark.parametrize("seed", [3, 4])
    def test_pillowcase_scrambles(self, pillowcase, seed):
        rng = np.random.default_rng(seed)
        scrambled, _ = random_flips(pillowcase, 10, rng)
        path = flip_path(pillowcase, scrambled)
        assert isomorphic(path.replay(pillowcase), scrambled) is not None

    @pytest.mark.parametrize("seed", [5, 6])
    def test_pentagon_scrambles(self, doubled_pentagon, seed):
        rng = np.random.default_rng(seed)
        scrambled, _ = random_flips(doubled_pentagon, 10, rng)
        path = flip_path(doubled_pentagon, scrambled)
        assert isomorphic(path.replay(doubled_pentagon), scrambled) is not None

    def test_long_segments_after_a_walk(self, square_torus):
        # the walk's longest edge has length about 5,800; the way back is its
        # Delaunay flips, through edges that long
        walked, _ = random_flips(square_torus, 40, np.random.default_rng(5))
        path = flip_path(walked, square_torus)
        assert len(path) == 20
        assert isomorphic(path.replay(walked), square_torus) is not None

    def test_round_trip_composition(self, pillowcase, rng):
        scrambled, _ = random_flips(pillowcase, 6, rng)
        there = flip_path(pillowcase, scrambled)
        back = flip_path(scrambled, pillowcase)
        total = FlipPath(there.moves + back.moves)
        assert isomorphic(total.replay(pillowcase), pillowcase) is not None

    def test_rejects_different_metric(self, square_torus):
        with pytest.raises(NotSameMetric):
            flip_path(square_torus, make_torus(1, 0.5 + 1j))

    @pytest.mark.parametrize("seed", [17, 18])
    def test_octagon_scrambles_via_germ_backtracking(self, octagon_surface, seed):
        # one 6-pi vertex without a forest edge, and every diagonal of the
        # octagon cocircular: one Delaunay cell, flipped to a fan on each side
        rng = np.random.default_rng(seed)
        scrambled, _ = random_flips(octagon_surface, 8, rng)
        path = flip_path(octagon_surface, scrambled)
        assert isomorphic(path.replay(octagon_surface), scrambled) is not None

    def test_two_unanchored_cone_vertices(self, h11_decagon):
        # two 4-pi vertices and an empty forest; the path replays, and the
        # transition is an integer matrix that keeps the density
        s = h11_decagon
        assert [s.cone_angle(v) for v in s.vertex_ids] == pytest.approx([2 * TWO_PI] * 2)
        _, system = chart_for(s)
        before = kernel_density(system, system.kernel).log_value
        flipped, _ = flip(s, next(e for e in s.edges() if is_flippable(s, e)))
        walks = [random_flips(s, 10, np.random.default_rng(seed))[0] for seed in (0, 1)]
        for target in [flipped, *walks]:
            path = flip_path(s, target)
            assert isomorphic(path.replay(s), target) is not None
            mat = chart_transition(s, target)
            assert np.array_equal(mat, np.round(mat.real))
            _, system_t = chart_for(target)
            after = kernel_density(system_t, mat @ system.kernel).log_value
            assert abs(after - before) <= 4 * math.ulp(before)


WALKED_TORI = {"square": (1, 1j), "skew": (1, 0.3 + 1.1j), "thin": (1, 0.05 + 0.2j)}
# 40-flip walks whose Delaunay edges drift from the torus by more than
# VEC_TOL: the way back does not replay to the torus within VEC_TOL
DRIFTED = {("skew", 11), ("thin", 1), ("thin", 11)}


class TestWalkedTori:
    """flip_path both ways and chart_transition between a torus and its
    seeded 40-flip walks, whose edges reach lengths of about 5e4."""

    @pytest.mark.parametrize("name", WALKED_TORI)
    def test_walks_replay(self, name):
        torus = make_torus(*WALKED_TORI[name])
        z_torus = solution_vector(cut_along_forest(torus))
        for seed in range(12):
            walked, _ = random_flips(torus, 40, np.random.default_rng(seed))
            assert isomorphic(flip_path(torus, walked).replay(torus), walked) is not None
            if (name, seed) not in DRIFTED:
                assert isomorphic(flip_path(walked, torus).replay(walked), torus) is not None
            mat = chart_transition(torus, walked)
            z_walked = solution_vector(cut_along_forest(walked))
            assert np.array_equal(mat, np.round(mat.real))
            assert np.linalg.norm(mat @ z_torus - z_walked) <= 1e-8 * np.linalg.norm(z_walked)


class TestPinnedPaths:
    """FlipPath.to_json() digests of seeded runs, so that a changed fan
    choice, Delaunay order or cell corner fails here and not only at scale."""

    @pytest.mark.parametrize("name, seed, back, flips_, digest", [
        ("square_torus", 2, True, 16,
         "9377274c4cc71531cb39991acef2dd7ff2c33f2c666f2a7360a459ca5caa8fe1"),
        ("octagon", 4, False, 10,
         "ebe42bd2f33f4ab09302724aa76a91d92e6fc4e854fe349229b42d50f8853ec2"),
        ("doubled_pentagon", 2, True, 4,
         "620dc359fb3cddac70288c4392056e3c9ab211a1defa8830ef4ad59727addb15"),
        ("doubled_12gon", 1, True, 14,
         "dadfcf5f587daf12570d6ce2c6bd7ada2ffd0e752a3a7eee4ff723235fdde329"),
        ("doubled_12gon", 3, False, 13,
         "3202b432ab20c3bcf802d2f8af533601e4a13b1867c96ebd2391d1c554945f89"),
    ], ids=["torus-2-back", "octagon-4-there", "pentagon-2-back", "12gon-1-back",
            "12gon-3-there"])
    def test_flip_path(self, strip_surfaces, name, seed, back, flips_, digest):
        surface = strip_surfaces[name]
        walked, _ = random_flips(surface, 40, np.random.default_rng(seed))
        path = flip_path(walked, surface) if back else flip_path(surface, walked)
        assert len(path) == flips_
        assert hashlib.sha256(path.to_json().encode()).hexdigest() == digest

    @pytest.mark.parametrize("name, vertex, w, flips_, digest", [
        ("square_torus", 0, 5 + 2j, 3,
         "b8d1487a9e328e23a1c8cdf5dbb7c678836494348f543d1b2b586c86e48e0e84"),
        ("square_torus", 0, -3 + 4j, 4,
         "b6bff8275b464898a24f638ee910b89dfefd0c14b0a2e8d26dc99810e6308b1d"),
        ("doubled_12gon", 1, P12[7] - P12[1], 5,
         "57d3f93eab71eb98298bdf33603081b5a1122eddf5b1e275b0dc3f05880c27fd"),
        ("doubled_12gon", 3, P12[8] - P12[3], 4,
         "87defd30ec5a89f72d132803a5f69a0262181ec4912686e21d1dc6a6215f3949"),
    ], ids=["torus-5+2j", "torus-(-3+4j)", "12gon-1-7", "12gon-3-8"])
    def test_insert_segment(self, strip_surfaces, name, vertex, w, flips_, digest):
        surface = strip_surfaces[name]
        _, path = insert_segment(surface, corner_for_direction(surface, vertex, w), w)
        assert len(path) == flips_
        assert hashlib.sha256(path.to_json().encode()).hexdigest() == digest

    def test_insert_segment_across_coincident_corners(self, octagon_surface):
        _, path = insert_segment(octagon_surface, 11, -0.2928932188134538 + 6.363961030678931j)
        assert len(path) == 9
        assert hashlib.sha256(path.to_json().encode()).hexdigest() == (
            "469f563bfc4fbef4138e5d8e05ab9c9d2495e6b81b45ed524c8e9d4c1aae3d50")

    def test_insert_segment_breaks_a_height_tie_by_the_last_bit(self, octagon_surface):
        # the strip corners of this segment on a walked octagon tie in
        # height, so the fan choices turn on the last bits of w
        walked, _ = random_flips(octagon_surface, 20, np.random.default_rng(3))
        _, path = insert_segment(walked, 13, 1.7071067811865475 + 0.7071067811865475j)
        assert [move.edge for move in path] == [8, 14]
        assert hashlib.sha256(path.to_json().encode()).hexdigest() == (
            "8b3e059c743a45e5e0342b78b8e8c5fe4760952d55d916e7b22044212480e225")
        _, path = insert_segment(walked, 13, 1.7071067811865477 + 0.7071067811865475j)
        assert [move.edge for move in path] == [14, 8]

    def test_insert_segment_on_strip_walks(self, strip_surfaces):
        # the path, or the error class, of every walk insertion of the strip
        # tests, so that a change in the last bits of a traced vector shows
        outcomes = []
        for name, seed in STRIP_WALKS:
            for source, corner, w in walk_insertions(strip_surfaces[name], seed):
                try:
                    outcomes.append(insert_segment(source, corner, w)[1].to_json())
                except ConesurfError as exc:
                    outcomes.append(type(exc).__name__)
        assert len(outcomes) == 386
        assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == (
            "b7001e14e9af296937e48dc1b27993bd2bd32b0a5b3c479daab1bfb1288e51bc")


class TestExchangeTree:
    def test_identity(self, doubled_pentagon):
        assert exchange_sequence(doubled_pentagon, doubled_pentagon.forest,
                                 doubled_pentagon.forest) == []

    def test_path_vs_star(self, doubled_pentagon):
        s = doubled_pentagon
        star = spanning_forest(s)  # the breadth-first tree is the star at p0
        moves = exchange_sequence(s, s.forest, star)
        assert len(moves) == len(set(star) - set(s.forest))
        current = set(s.forest)
        for out, into in moves:
            assert out in current and into not in current
            current = (current - {out}) | {into}
            assert len(current) == 4
        assert current == set(star)


class TestDegenerateSegment:
    @pytest.mark.parametrize("w", [0, complex(math.nan, 1), complex(1, math.inf)])
    @pytest.mark.parametrize("call", [develop_segment, developing_polygon, insert_segment])
    def test_zero_or_non_finite_vector_is_rejected(self, square_torus, call, w):
        with pytest.raises(DegenerateInput):
            call(square_torus, 0, w)


def rebuilt(s):
    """The surface rebuilt and revalidated by the public constructor."""
    return FlatSurface(s.triangles, {h: s.twin(h) for h in s.halfedges},
                       {h: s.vec(h) for h in s.halfedges}, s.forest,
                       [(v, s.angle_target(v)) for v in s.vertex_ids])


def assert_same_surface(s, r):
    """Every public accessor and every field of s equals that of r, bit for
    bit."""
    assert s.halfedges == r.halfedges
    for h in s.halfedges:
        assert (s.next(h), s.prev(h), s.twin(h), s.origin(h)) == \
            (r.next(h), r.prev(h), r.twin(h), r.origin(h))
        assert (s.vec(h), s.triangle_of(h), s.corner_angle(h)) == \
            (r.vec(h), r.triangle_of(h), r.corner_angle(h))
    assert s.triangles == r.triangles
    assert s.vertex_ids == r.vertex_ids
    for v in s.vertex_ids:
        assert (s.corners_at(v), s.cone_angle(v)) == (r.corners_at(v), r.cone_angle(v))
    assert s.forest == r.forest
    for e in s.forest:
        assert s.forest_pairing(e) == r.forest_pairing(e)
    assert s.genus() == r.genus()
    assert s.to_json() == r.to_json()
    assert vars(s) == vars(r)


def doubled_regular(k):
    return make_doubled_polygon([cmath.exp(2j * math.pi * j / k) for j in range(k)])


def root_paths(surface):
    """Vertex -> the forest edges on its path to its tree's smallest vertex."""
    adj = {v: [] for v in surface.vertex_ids}
    for e in surface.forest:
        a, b = surface.origin(e), surface.head(e)
        adj[a].append((e, b))
        adj[b].append((e, a))
    paths = {}
    for root in sorted(adj):
        if root in paths:
            continue
        paths[root] = frozenset()
        stack = [root]
        while stack:
            v = stack.pop()
            for e, w in adj[v]:
                if w not in paths:
                    paths[w] = paths[v] | {e}
                    stack.append(w)
    return paths


def theta_exits(surface, path):
    """Window exits of a walk, counted independently: each (flip, forest
    edge) whose correctly rounded subtree cone-angle sum, math.fsum of the
    public cone angles, changed."""
    subtrees = {}
    for v, edges in root_paths(surface).items():
        for e in edges:
            subtrees.setdefault(e, []).append(v)

    def rounded(s):
        return {e: math.fsum(s.cone_angle(v) for v in vs) for e, vs in subtrees.items()}

    exits, before = 0, rounded(surface)
    for move in path:
        surface, _ = flip(surface, move.edge)
        after = rounded(surface)
        exits += sum(after[e] != before[e] for e in subtrees)
        before = after
    return exits


class TestLocalFlip:
    """A flip updates the quad in place of a rebuild; every accessor must
    come out exactly as the constructor computes it."""

    @pytest.mark.parametrize("name", ["square_torus", "octagon", "doubled_triangle",
                                      "pillowcase", "doubled_pentagon", "marked_torus",
                                      "doubled_12_gon", "genus_5", "doubled_48_gon",
                                      "doubled_48_gon_1e-8", "doubled_48_gon_1e8"])
    def test_walk_equals_rebuild(self, golden_surfaces, marked_torus, name):
        surfaces = dict(golden_surfaces, marked_torus=marked_torus,
                        doubled_12_gon=doubled_regular(12), genus_5=make_regular_4g_gon(5))
        scales = {"doubled_48_gon": 1.0, "doubled_48_gon_1e-8": 1e-8, "doubled_48_gon_1e8": 1e8}
        if name in scales:
            surfaces[name] = doubled_regular(48).scale(scales[name])
        rng = np.random.default_rng(314)
        s = perturb_surface(surfaces[name], rng)
        for _ in range(40):
            edges = [e for e in s.edges() if e not in s.forest and is_flippable(s, e)]
            s, _ = flip(s, edges[rng.integers(len(edges))])
            assert_same_surface(s, rebuilt(s))

    def test_flip_rechecks_only_root_path_pairings(self, monkeypatch):
        """A flip moves the cone angles of its quad vertices only, so it
        checks no forest pairing off their paths to the root."""
        rng = np.random.default_rng(314)
        s = perturb_surface(doubled_regular(48), rng)
        paths = root_paths(s)
        assert max(len(p) for p in paths.values()) == len(s.forest) == 47
        checked = []
        rotation = FlatSurface._forest_rotation

        def counted(surface, e, theta):
            checked.append(e)
            return rotation(surface, e, theta)

        monkeypatch.setattr(FlatSurface, "_forest_rotation", counted)
        rechecks = 0
        for _ in range(60):
            edges = [e for e in s.edges() if e not in s.forest and is_flippable(s, e)]
            checked.clear()
            s, move = flip(s, edges[rng.integers(len(edges))])
            allowed = frozenset().union(*(paths[s.origin(x)] for x in move.quad))
            assert set(checked) <= allowed
            assert len(checked) == len(set(checked))
            rechecks += len(checked)
        assert rechecks > 0

    def test_walk_copies_once_and_divides_only_on_window_exits(self, monkeypatch):
        """random_flips copies its input once and flips the copy in place; a
        subtree sum is divided again only when it leaves the window of sums
        that round to its float."""
        rng = np.random.default_rng(314)
        s = perturb_surface(doubled_regular(48), rng)
        calls = {"_copy": 0, "_theta": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(owner, name, wrapper)

        counted(FlatSurface, "_copy")
        counted(surface_module, "_theta")
        walked, path = random_flips(s, 120, rng)
        counts = dict(calls)
        assert len(path) == 120
        assert counts["_copy"] == 1
        exits = theta_exits(s, path)
        assert 0 < counts["_theta"] == exits
        assert_same_surface(walked, rebuilt(walked))


WALKS = ("random_flips", "delaunay", "insert_segment", "flip_path", "replay")


def walk_cases():
    """Name in WALKS -> (input surface, walk): every walk flips at least three
    times."""
    rng = np.random.default_rng(7)
    base = perturb_surface(doubled_regular(12), rng)
    scrambled, path = random_flips(base, 30, rng)
    torus = make_torus(1, 1j)
    return {
        "random_flips": (base, lambda s: random_flips(s, 30, np.random.default_rng(1))),
        "delaunay": (scrambled, delaunay),
        "insert_segment": (torus, lambda s: insert_segment(
            s, corner_for_direction(s, 0, 5 + 2j), 5 + 2j)),
        "flip_path": (scrambled, lambda s: flip_path(s, base)),
        "replay": (base, path.replay),
    }


class TestOwnership:
    """A walk copies its input once and flips only its copy: the input's
    fields are unchanged after the walk, also after one that raises
    partway."""

    @pytest.mark.parametrize("name", WALKS)
    def test_walk_leaves_input(self, name):
        surface, walk = walk_cases()[name]
        snapshot = copy.deepcopy(vars(surface))
        walk(surface)
        assert vars(surface) == snapshot

    @pytest.mark.parametrize("name", WALKS)
    def test_walk_result_carries_no_chart(self, name):
        surface, walk = walk_cases()[name]
        chart_for(surface)
        result = walk(surface)
        surfaces = [x for x in (result if isinstance(result, tuple) else (result,))
                    if isinstance(x, FlatSurface)]
        if name == "flip_path":
            surfaces.append(result.replay(surface))
        assert surfaces
        for s in surfaces:
            assert "_chart" not in vars(s)

    @pytest.mark.parametrize("name", WALKS)
    def test_walk_raising_partway_leaves_input(self, name, monkeypatch):
        surface, walk = walk_cases()[name]
        snapshot = copy.deepcopy(vars(surface))
        flip_in_place = FlatSurface._flip_in_place
        done = []

        def third_flip_raises(owned, *quad):
            flip_in_place(owned, *quad)
            done.append(quad)
            if len(done) == 3:
                raise NonTermination("stopped after three flips")

        monkeypatch.setattr(FlatSurface, "_flip_in_place", third_flip_raises)
        with pytest.raises(NonTermination, match="three flips"):
            walk(surface)
        assert vars(surface) == snapshot

    def test_failed_tessellation_match_leaves_input(self):
        """Walks of two tori of equal area and cone angle are flipped to their
        Delaunay tessellations, which do not match; neither input changes."""
        source, _ = random_flips(make_torus(1, 1j), 10, np.random.default_rng(0))
        target, _ = random_flips(make_torus(1, 0.5 + 1j), 10, np.random.default_rng(1))
        snapshots = [copy.deepcopy(vars(s)) for s in (source, target)]
        for call in (flip_path, chart_transition):
            with pytest.raises(NotSameMetric, match="tessellations do not match"):
                call(source, target)
            assert [vars(s) for s in (source, target)] == snapshots


# Full-rescan versions of the flip loops: each rescans every edge after every
# flip.  The worklist versions must take the same path to the same surface.


def rescan_random_flips(surface, count, rng):
    moves = []
    for _ in range(count):
        candidates = [e for e in surface.edges()
                      if e not in surface.forest and is_flippable(surface, e)]
        if not candidates:
            break
        surface, move = flip(surface, candidates[rng.integers(len(candidates))])
        moves.append(move)
    return surface, FlipPath(tuple(moves))


def rescan_delaunay(surface):
    moves = []
    while True:
        bad = [e for e in surface.edges()
               if e not in surface.forest and not is_delaunay_edge(surface, e)]
        if not bad:
            return surface, FlipPath(tuple(moves))
        surface, move = flip(surface, bad[0])
        moves.append(move)


def rescan_canonicalize_cocircular(surface):
    def vec_key(v):
        return max((v.real, v.imag), (-v.real, -v.imag))

    def edge_key(verts, v):
        return (tuple(sorted(verts)), vec_key(v))

    while True:
        improved = False
        for e in surface.edges():
            if e in surface.forest:
                continue
            if abs(delaunay_angle_sum(surface, e) - math.pi) > DELAUNAY_BAND:
                continue
            if not is_flippable(surface, e):
                continue
            h = surface.edge_of(e)
            hb = surface.twin(h)
            a, c = surface.next(h), surface.next(hb)
            b, d = surface.next(a), surface.next(c)
            old = edge_key((surface.origin(h), surface.origin(hb)), surface.vec(h))
            new_vec = surface.vec(h) + surface.vec(a) - surface.vec(c)
            new = edge_key((surface.origin(b), surface.origin(d)), new_vec)
            if new < old:
                surface, _ = flip(surface, e)
                improved = True
                break
        if not improved:
            return surface


@st.composite
def convex_polygons(draw):
    """Strictly convex polygons with 4 to 9 vertices on an ellipse (a circle
    for aspect 1, where every quad is cocircular within rounding)."""
    gaps = draw(st.lists(st.floats(1.0, 3.0), min_size=4, max_size=9))
    aspect = draw(st.sampled_from([1.0, 0.7, 0.45]))
    turns = np.cumsum([0.0] + gaps[:-1]) / sum(gaps)
    return [complex(math.cos(TWO_PI * t), aspect * math.sin(TWO_PI * t)) for t in turns]


class TestWorklists:
    """random_flips and delaunay keep their edge lists up to date over each
    flipped quad; a full rescan is the oracle."""

    @settings(max_examples=15, deadline=None)
    @given(points=convex_polygons(), seed=st.integers(0, 2**32 - 1))
    def test_same_paths_as_full_rescans(self, points, seed):
        s = make_doubled_polygon(points)
        count = 3 * len(points)
        walked, path = random_flips(s, count, np.random.default_rng(seed))
        ref, ref_path = rescan_random_flips(s, count, np.random.default_rng(seed))
        assert (walked.to_json(), path.to_json()) == (ref.to_json(), ref_path.to_json())
        assert_same_surface(walked, rebuilt(walked))

        result, path = delaunay(walked)
        ref, ref_path = rescan_delaunay(walked)
        assert (result.to_json(), path.to_json()) == (ref.to_json(), ref_path.to_json())
        assert_same_surface(result, rebuilt(result))
