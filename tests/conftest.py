import cmath
import math

import numpy as np
import pytest

from conesurf import (
    FlatSurface,
    build_surface,
    make_doubled_polygon,
    make_regular_4g_gon,
    make_torus,
)
from conesurf import surface as surface_module
from conesurf.charts import spanning_forest
from conesurf.surface import SurfaceSpec

# doubled polygons star-shaped from their first vertex, each with one reflex
# corner: the L-hexagon's is a 3-pi cone point, the dart's about 3.153 pi
STAR_SHAPED = {"l_hexagon": [0, 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1],
               "dart": [0, 2, 1 + 0.3j, 2 + 2j, -1 + 1j]}


@pytest.fixture
def square_torus():
    return make_torus(1, 1j)


@pytest.fixture
def skew_torus():
    return make_torus(1, 2 + 1j)


@pytest.fixture
def doubled_triangle():
    return make_doubled_polygon([0, 1, cmath.exp(1j * math.pi / 3)])


@pytest.fixture
def pillowcase():
    return make_doubled_polygon([0, 1, 1 + 1j, 1j])


@pytest.fixture
def doubled_pentagon():
    return make_doubled_polygon([cmath.exp(2j * math.pi * k / 5) for k in range(5)])


@pytest.fixture
def octagon_surface():
    return make_regular_4g_gon(2)


@pytest.fixture
def golden_surfaces(square_torus, octagon_surface, doubled_triangle, pillowcase,
                    doubled_pentagon):
    return {
        "square_torus": square_torus,
        "octagon": octagon_surface,
        "doubled_triangle": doubled_triangle,
        "pillowcase": pillowcase,
        "doubled_pentagon": doubled_pentagon,
    }


def make_marked_torus() -> FlatSurface:
    """Unit square torus with a marked regular point at the center and a
    one-edge forest tree joining it to the corner vertex."""
    m = 0.5 + 0.5j
    spec = SurfaceSpec(
        vertices=((0, 2 * math.pi), (1, 2 * math.pi)),
        triangles=((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)),
        gluing=((0, 6), (3, 9), (1, 5), (4, 8), (7, 11), (2, 10)),
        vectors={
            0: 1 + 0j, 1: m - 1, 2: -m,
            3: 1j, 4: m - 1 - 1j, 5: 1 - m,
            6: -1 + 0j, 7: m - 1j, 8: 1 + 1j - m,
            9: -1j, 10: m, 11: 1j - m,
        },
        forest=(2,),
    )
    return build_surface(spec)


@pytest.fixture
def marked_torus():
    return make_marked_torus()


@pytest.fixture
def h11_decagon():
    """The regular decagon with opposite sides glued: two 4-pi vertices and
    an empty forest (stratum H(1,1))."""
    pts = [cmath.exp(2j * math.pi * j / 10) for j in range(10)]
    triangles, vectors, twin, sides = surface_module._fan(pts)
    for a, b in zip(sides[:5], sides[5:]):
        twin[a], twin[b] = b, a
    return FlatSurface(triangles, twin, vectors)


@pytest.fixture(params=sorted(STAR_SHAPED))
def star_shaped(request):
    return make_doubled_polygon(STAR_SHAPED[request.param])


def _with_forest(surface, forest) -> FlatSurface:
    """The surface on the same triangulation with another forest, each cone
    angle kept."""
    return FlatSurface(surface.triangles, {h: surface.twin(h) for h in surface.halfedges},
                       {h: surface.vec(h) for h in surface.halfedges}, forest,
                       [(v, surface.angle_target(v)) for v in surface.vertex_ids])


@pytest.fixture
def with_forest():
    return _with_forest


@pytest.fixture
def two_tree_pillowcase(pillowcase):
    """The pillowcase with a forest of two one-edge trees."""
    return _with_forest(pillowcase, spanning_forest(pillowcase, parts=[{0, 1}, {2, 3}]))


@pytest.fixture
def genus_one_octagon():
    """Genus-1 octagon a, c, c', b, -a, d, d', -b with c and d each glued
    about a right-angled tip, and the forest (1, 13): one tree from the
    diagonal to a tip, whose complement develops by translations."""
    points = [0, 3, 3.5 + 0.5j, 3 + 1j, 3 + 3j, 3j, -0.5 + 2.5j, 2j]
    corners = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 7), (4, 6, 7), (4, 5, 6)]
    vectors = {3 * t + k: points[c[(k + 1) % 3]] - points[c[k]]
               for t, c in enumerate(corners) for k in range(3)}
    twin = {}
    for a, b in [(2, 3), (5, 6), (8, 9), (10, 14), (12, 17), (0, 15), (1, 4), (7, 11),
                 (13, 16)]:
        twin[a], twin[b] = b, a
    return FlatSurface([(3 * t, 3 * t + 1, 3 * t + 2) for t in range(6)], twin, vectors,
                       (1, 13))


def _disjoint_union(a, b) -> SurfaceSpec:
    """Spec of two surfaces side by side, b's half-edge and vertex ids shifted
    past a's."""
    sa, sb = a.to_spec(), b.to_spec()
    dh, dv = max(a.halfedges) + 1, max(a.vertex_ids) + 1
    return SurfaceSpec(
        vertices=sa.vertices + tuple((v + dv, angle) for v, angle in sb.vertices),
        triangles=sa.triangles + tuple(tuple(h + dh for h in t) for t in sb.triangles),
        gluing=sa.gluing + tuple((h + dh, k + dh) for h, k in sb.gluing),
        vectors={**sa.vectors, **{h + dh: z for h, z in sb.vectors.items()}},
        forest=sa.forest + tuple(e + dh for e in sb.forest),
    )


@pytest.fixture
def disjoint_union():
    return _disjoint_union


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
