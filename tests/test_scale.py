"""Relative tolerances compare against the local length, so the same
geometry is accepted or rejected at every scale."""

import cmath
import math

import pytest

from conesurf import FlatSurface, isomorphic, make_doubled_polygon, make_torus
from conesurf.charts import chart_for
from conesurf.errors import ClosureViolation, GluingMismatch, NotSameMetric
from conesurf.flips import chart_transition, develop_segment, flip_path

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
    with pytest.raises(NotSameMetric, match="has 0 geometric matches"):
        chart_transition(square, oblong)


@pytest.mark.parametrize("s", SCALES)
def test_trace_crossings_do_not_depend_on_scale(s):
    assert len(develop_segment(make_torus(s, 1j * s), 0, (5 + 2j) * s).crossings) == 7


@pytest.mark.parametrize("s", SCALES)
def test_chart_dimension_does_not_depend_on_scale(s):
    points = [s * cmath.exp(2j * math.pi * k / 12) for k in range(12)]
    _, system = chart_for(make_doubled_polygon(points))
    assert system.kernel_dim == 12 - 2  # 2g + n - 2 with genus 0 and 12 cone points
