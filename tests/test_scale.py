"""Relative tolerances compare against the local length, so the same
geometry is accepted or rejected at every scale."""

import cmath
import math

import numpy as np
import pytest

from conesurf import FlatSurface, isomorphic, make_doubled_polygon, make_regular_4g_gon, make_torus
from conesurf.charts import chart_for
from conesurf.errors import ClosureViolation, GluingMismatch, NotSameMetric
from conesurf.flips import chart_transition, delaunay, develop_segment, flip_path, random_flips

SCALES = [1e-10, 1e-9, 1e-8, 1.0, 1e4, 1e8]


@pytest.mark.parametrize("s", SCALES)
@pytest.mark.parametrize("error, bent", [
    (ClosureViolation, {2: -1.05 - 1j}),             # a triangle that does not close
    (GluingMismatch, {3: -1.05, 5: 1.05 + 1j}),      # twins five percent apart
])
def test_five_percent_mismatch_is_rejected(s, error, bent):
    vectors = {0: 1, 1: 1j, 2: -1 - 1j, 3: -1, 4: -1j, 5: 1 + 1j}
    vectors.update(bent)
    twin = {0: 3, 3: 0, 1: 4, 4: 1, 2: 5, 5: 2}
    with pytest.raises(error):
        FlatSurface([(0, 1, 2), (3, 4, 5)], twin, {h: s * z for h, z in vectors.items()},
                    (), [(0, 2 * math.pi)])


@pytest.mark.parametrize("s", SCALES)
def test_isomorphic_separates_nearby_tori(s):
    square = make_torus(s, 1j * s)
    assert isomorphic(square, make_torus(s, 1j * s)) is not None
    assert isomorphic(square, make_torus(1.01 * s, 1j * s)) is None
    assert isomorphic(square, make_torus(s, (0.5 + 1j) * s)) is None


@pytest.mark.parametrize("s", SCALES)
def test_flip_path_compares_areas(s):
    with pytest.raises(NotSameMetric, match="areas differ"):
        flip_path(make_torus(s, 1j * s), make_torus(1.01 * s, 1j * s))


@pytest.mark.parametrize("s", SCALES)
def test_chart_transition_needs_matching_forest_edges(s):
    square = make_doubled_polygon([0, s, s + 1j * s, 1j * s])
    oblong = make_doubled_polygon([0, 1.01 * s, 1.01 * s + 1j * s, 1j * s])
    with pytest.raises(NotSameMetric, match="areas differ"):
        chart_transition(square, oblong)


# surfaces whose Delaunay cells all have more than three sides
COCIRCULAR = {
    "square_torus": lambda s: make_torus(s, 1j * s),
    "octagon": lambda s: make_regular_4g_gon(2).scale(s),
    "doubled_12gon": lambda s: make_doubled_polygon(
        [s * cmath.exp(2j * math.pi * k / 12) for k in range(12)]),
}


@pytest.mark.parametrize("s", SCALES)
@pytest.mark.parametrize("name", COCIRCULAR)
def test_flip_paths_through_cocircular_cells(s, name):
    # both ways between the surface and two walks of it, which on the square
    # torus end on its two diagonals
    surface = COCIRCULAR[name](s)
    diagonals = set()
    for seed in (1, 2):
        walked, _ = random_flips(surface, 10, np.random.default_rng(seed))
        for a, b in ((surface, walked), (walked, surface)):
            assert isomorphic(flip_path(a, b).replay(a), b) is not None
        chart_transition(surface, walked)
        meeting, _ = delaunay(walked)
        diagonals.update(v.real * v.imag > 0 for v in map(meeting.vec, meeting.halfedges)
                         if abs(abs(v) - math.sqrt(2) * s) <= 1e-9 * s)
    if name == "square_torus":
        assert diagonals == {True, False}


@pytest.mark.parametrize("s", SCALES)
def test_trace_crossings_do_not_depend_on_scale(s):
    assert len(develop_segment(make_torus(s, 1j * s), 0, (5 + 2j) * s).crossings) == 7


@pytest.mark.parametrize("s", SCALES)
def test_chart_dimension_does_not_depend_on_scale(s):
    points = [s * cmath.exp(2j * math.pi * k / 12) for k in range(12)]
    _, system = chart_for(make_doubled_polygon(points))
    assert system.kernel_dim == 12 - 2  # 2g + n - 2 with genus 0 and 12 cone points
