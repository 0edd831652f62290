"""Flat surfaces with cone singularities as complexes of Euclidean triangles.

A surface is stored as a half-edge complex: every triangle is a ccw cycle of
three half-edges, a twin involution glues half-edges in pairs, and each
half-edge carries a complex vector (its planar development).  A distinguished
set of edges, the *forest* (disjoint trees in the 1-skeleton), absorbs all
rotational holonomy: away from the forest, twin half-edges develop to exactly
opposite vectors; across a forest edge the development picks up a fixed
rotation determined by the cone angles hanging off the tree.

Vertices with cone angle an exact multiple of 2*pi may stay off the forest
(they behave like marked regular points); every other vertex must lie on it.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

from ._geom import (
    AREA_TOL,
    TWO_PI,
    VEC_TOL,
    angle_tol,
    ccw_angle,
    cross,
    is_turn_multiple,
    json_text,
    reduce_angle,
    signed_angle,
)
from ._graph import adjacency, edge_vertices, kruskal, path_keys, subtree_sums, vertex_edges
from .errors import (
    AngleMismatch,
    ClosureViolation,
    DegenerateInput,
    ForestNotTrees,
    GaussBonnetViolation,
    GluingMismatch,
    InconsistentRotation,
    NonIntegerGenus,
    OrientationViolation,
    UnknownVertex,
)


# Subtree cone-angle sums are kept exactly, as integers in units of the
# smallest subnormal 2**-1074: a flip adds exact angle changes to them, and
# int / int true division rounds correctly, so every theta is the math.fsum
# of its subtree and equals the one a rebuild computes.
_ULP_BITS = 1074


def _exact(x):
    """The float x as an integer multiple of 2**-1074."""
    n, d = x.as_integer_ratio()
    return n << (_ULP_BITS + 1 - d.bit_length())


def _theta(total):
    """Pairing rotation of an exact subtree sum, the sum correctly rounded
    and reduced to (-pi, pi], and the rounding window of that float."""
    x = total / (1 << _ULP_BITS)
    return reduce_angle(x), _window(x)


def _window(x):
    """(lo, hi): the least and greatest exact sums, in units of 2**-1074, that
    int / int division rounds to the float x, ties to even.  A sum that stays
    inside needs no new division: its float, and so its theta, is unchanged."""
    n = _exact(x)
    m, e = math.frexp(x)
    shift = max(e + 1021, 0) if x else 0  # ulp(x) = 2**shift units
    odd = (abs(n) >> shift) & 1
    away = (1 << shift) >> 1  # half the gap to the next float away from zero
    toward = away >> 1 if abs(m) == 0.5 and shift else away  # and toward zero
    below, above = (toward, away) if x > 0 else (away, toward)
    # a midpoint is an exact sum only when the half gap is whole; a tie there
    # rounds to the even float
    return n - below + (odd if below else 0), n + above - (odd if above else 0)


def _canonical(cycle):
    """Rotation of a cycle tuple that starts at its smallest element."""
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


def triangle_fault(tid, v1, v2, v3):
    """The ClosureViolation or OrientationViolation of the triangle with ccw
    side vectors v1, v2, v3, or None: the sides must close and span a positive
    area, both relative to the longest side.  Every orientation decision is
    this test, on a surface triangle read from its smallest half-edge."""
    scale = max(abs(v1), abs(v2), abs(v3))
    residual = abs(v1 + v2 + v3)
    if residual > VEC_TOL * scale:
        return ClosureViolation(tid, residual)
    area = 0.5 * cross(v1, v2)
    if area <= AREA_TOL * scale * scale:
        return OrientationViolation(tid, area)
    return None


def _require_triangles(sides, message):
    """Raise DegenerateInput unless every ccw triangle of side vectors passes
    the constructor's test."""
    if any(triangle_fault(None, *vs) is not None for vs in sides):
        raise DegenerateInput(message)


class FlatSurface:
    """Validated triangulated flat surface.

    A surface that a caller sees never changes: every operation returns a
    new surface.  A flip walk (:mod:`conesurf.flips`) copies its input once
    and flips only that copy, in place.  Construction runs the full
    validation suite and raises one of the errors from
    :mod:`conesurf.errors` on the first violated invariant; a flip runs its
    local form on the flipped quad.  Each forest edge keeps the exact
    cone-angle sum of the subtree it cuts off and the window of sums that
    round to the same float, and each vertex its link toward its tree's
    root, so a flip moves only the pairings on the root paths of the
    vertices it touches, and divides again only the sums that left their
    windows.  The chart of a surface is kept on it once built
    (``charts.chart_for``); a copy does not carry it, and a flip in place
    drops it.
    """

    _chart = None  # (cut, system), set by charts.chart_for

    def __init__(self, triangles, twin, vectors, forest=(), vertices=None):
        """
        Parameters
        ----------
        triangles:
            Mapping triangle id -> (h1, h2, h3) in ccw order, or a sequence
            (ids are then positional).
        twin:
            Mapping half-edge -> half-edge; a fixed-point-free involution.
        vectors:
            Mapping half-edge -> complex development vector.
        forest:
            Iterable of edge ids (an edge is named by the smaller of its two
            half-edge ids) forming disjoint trees.
        vertices:
            Optional list of (vertex id, target cone angle or None), one per
            vertex, listed in the order of vertex orbits sorted by their
            smallest half-edge id.
        """
        if not isinstance(triangles, dict):
            triangles = {i: tuple(t) for i, t in enumerate(triangles)}
        tris = {}
        tri_of = {}
        nxt = {}
        for tid, cyc in triangles.items():
            cyc = tuple(int(h) for h in cyc)
            if len(cyc) != 3 or len(set(cyc)) != 3:
                raise ValueError(f"triangle {tid} is not a triple of distinct half-edges")
            cyc = _canonical(cyc)
            tris[int(tid)] = cyc
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if a in nxt:
                    raise ValueError(f"half-edge {a} appears in more than one triangle")
                nxt[a] = b
                tri_of[a] = int(tid)
        halfedges = sorted(nxt)

        twin = {int(h): int(k) for h, k in dict(twin).items()}
        for h in halfedges:
            k = twin.get(h)
            if k is None:
                raise ValueError(f"half-edge {h} has no twin (surfaces are closed)")
            if k == h or k not in nxt or twin.get(k) != h:
                raise ValueError(f"twin map is not a fixed-point-free involution at {h}")

        vec = {int(h): complex(v) for h, v in dict(vectors).items()}
        if set(vec) != set(halfedges):
            raise ValueError("vectors must be given for exactly the half-edges of the triangles")
        for h, v in vec.items():
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError(f"non-finite vector on half-edge {h}")

        self._tris = tris
        self._tri_of = tri_of
        self._next = nxt
        self._twin = twin
        self._vec = vec
        self._halfedges = tuple(halfedges)
        self._prev = {nxt[h]: h for h in halfedges}

        # twin and next are permutations, so every orbit walk closes; visiting
        # the half-edges in increasing order starts each orbit at its smallest
        # half-edge and lists the orbits sorted by it
        orbits = []
        seen = set()
        for h in halfedges:
            if h not in seen:
                orbits.append(self._orbit(h))
                seen.update(orbits[-1])

        if vertices is None:
            vertices = [(i, None) for i in range(len(orbits))]
        vertices = [(int(v), None if a is None else float(a)) for v, a in vertices]
        if len(vertices) != len(orbits):
            raise ValueError(
                f"{len(vertices)} vertices declared but the gluing produces {len(orbits)}")
        if len({v for v, _ in vertices}) != len(vertices):
            raise ValueError("duplicate vertex ids")
        origin = {}
        corners_at = {}
        for (vid, _), orbit in zip(vertices, orbits):
            corners_at[vid] = orbit
            for h in orbit:
                origin[h] = vid
        self._origin = origin
        self._corners_at = corners_at
        self._angle_target = {v: a for v, a in vertices}

        self._validate_geometry()
        self._validate_forest(forest)
        self._validate_angles()
        # last, so that an input the checks above refuse keeps its error
        joining, _ = kruskal(corners_at, vertex_edges(self, self.edges()))
        if len(joining) != len(corners_at) - 1:
            raise ValueError(f"the gluing is disconnected: {len(corners_at) - len(joining)} "
                             "components")

    def _orbit(self, h):
        """Outgoing half-edges at origin(h) in ccw order from h (sigma orbit)."""
        orbit = [h]
        x = self._twin[self._prev[h]]
        while x != h:
            orbit.append(x)
            x = self._twin[self._prev[x]]
        return tuple(orbit)

    def _corner_of(self, h):
        return signed_angle(self._vec[h], -self._vec[self._prev[h]])

    def _copy(self):
        """A surface equal to this one that shares no map a flip writes and
        carries no chart; the root links are never written and stay shared."""
        s = FlatSurface.__new__(FlatSurface)
        s.__dict__ = {k: dict(v) if isinstance(v, dict) and k != "_forest_link" else v
                      for k, v in self.__dict__.items() if k != "_chart"}
        return s

    def _flip_in_place(self, h, hb, a, b, c, d, new_vec):
        """Replace the diagonal h of the quad (h, a, b | hb, c, d) by new_vec
        from origin(d) to origin(b), once _flip_fault has passed: rewrites
        what the flip changes and checks the rest as construction would.  Only
        the pairings on the root paths of quad vertices whose cone angle moved
        are recomputed (_move_pairings).  The surface must be the caller's
        own copy.  A chart kept on it is dropped."""
        self.__dict__.pop("_chart", None)
        origin, tri_of, corner = self._origin, self._tri_of, self._corner
        quad_vertices = {origin[x]: x for x in (a, b, c, d)}
        self._vec[h], self._vec[hb] = new_vec, -new_vec
        origin[h], origin[hb] = origin[d], origin[b]
        for tid, cyc in ((tri_of[h], (h, b, c)), (tri_of[hb], (hb, d, a))):
            self._tris[tid] = _canonical(cyc)
            for x, y in zip(cyc, cyc[1:] + cyc[:1]):
                self._next[x], self._prev[y], tri_of[x] = y, x, tid
        for x in (h, b, c, hb, d, a):
            corner[x] = self._corner_of(x)

        # re-walk each quad vertex's rotation, re-sum its cone angle in order
        moved = {}
        for v, x in quad_vertices.items():
            orbit = _canonical(self._orbit(x))
            alpha, old = sum(corner[y] for y in orbit), self._vertex_angle[v]
            self._check_angle(v, alpha, old)
            self._check_angle(v, alpha, self._angle_target[v])
            if alpha != old:
                moved[v] = _exact(alpha) - _exact(old)
            self._corners_at[v], self._vertex_angle[v] = orbit, alpha
        if moved:
            self._move_pairings(moved)

    def _move_pairings(self, moved):
        """Add each vertex's exact cone-angle change to the subtree sums on
        its root path.  Only a sum that left its rounding window changes its
        float: it alone is divided again, and paired again if its theta
        changed.  A pairing depends on theta and on the two forest vectors,
        which no flip writes."""
        sums, windows, pairing = self._forest_sum, self._forest_window, self._forest_pairing
        path = set()
        for v, delta in moved.items():
            for e in path_keys(self._forest_link, v):
                sums[e] += delta
                path.add(e)
        for e in sorted(e for e in path if not windows[e][0] <= sums[e] <= windows[e][1]):
            theta, windows[e] = _theta(sums[e])
            if theta != pairing[e][0]:
                pairing[e] = self._forest_rotation(e, theta)

    def _flip_fault(self, h, hb, a, b, c, d, new_vec):
        """The fault of the first of the two triangles _flip_in_place builds,
        each read from its smallest half-edge as construction reads it, or
        None."""
        vec = self._vec
        for tid, cyc, sides in ((self._tri_of[h], (h, b, c), (new_vec, vec[b], vec[c])),
                                (self._tri_of[hb], (hb, d, a), (-new_vec, vec[d], vec[a]))):
            k = cyc.index(min(cyc))
            fault = triangle_fault(tid, *sides[k:], *sides[:k])
            if fault is not None:
                return fault
        return None

    # -- validation ---------------------------------------------------------

    def _validate_geometry(self):
        for tid, cyc in self._tris.items():
            fault = triangle_fault(tid, *(self._vec[h] for h in cyc))
            if fault is not None:
                raise fault
        self._corner = {h: self._corner_of(h) for h in self._halfedges}
        self._vertex_angle = {
            v: sum(self._corner[h] for h in orbit) for v, orbit in self._corners_at.items()
        }

    def _validate_forest(self, forest):
        forest = frozenset(int(e) for e in forest)
        for e in forest:
            if e not in self._next:
                raise ValueError(f"forest names unknown half-edge {e}")
            if e != min(e, self._twin[e]):
                raise ValueError(f"forest edge {e} must be named by the smaller half-edge id")
        edges = vertex_edges(self, sorted(forest))
        _, cycles = kruskal(self._corners_at, edges)
        if cycles:
            raise ForestNotTrees(f"forest edge {cycles[0]} closes a cycle")
        self._forest = forest

        for h in self._halfedges:
            k = self._twin[h]
            if h < k and h not in forest:
                residual = abs(self._vec[k] + self._vec[h])
                if residual > VEC_TOL * abs(self._vec[h]):
                    raise GluingMismatch(h, residual)
        self._pair_forest(edges)

    def _pair_forest(self, edges):
        """Pair every forest edge.  The rotation across a forest edge is the
        cone-angle sum of the subtree it cuts off, on the side away from the
        tree's smallest vertex, summed exactly.  Flips keep the forest and its
        endpoints, so they keep the root links and update the exact sums and
        their rounding windows."""
        exact = {v: _exact(alpha) for v, alpha in self._vertex_angle.items()}
        self._forest_sum, self._forest_link = subtree_sums(
            adjacency(self._corners_at, edges), exact)
        self._forest_window, self._forest_pairing = {}, {}
        for e in sorted(self._forest):
            theta, self._forest_window[e] = _theta(self._forest_sum[e])
            self._forest_pairing[e] = self._forest_rotation(e, theta)

    def _forest_rotation(self, e, theta):
        """Oriented pairing (theta, a, abar) of forest edge e with
        vec(abar) = -exp(i*theta)*vec(a) within tolerance, where theta is the
        subtree angle sum reduced to (-pi, pi]."""
        h, k = e, self._twin[e]
        rot = -cmath.exp(1j * theta)
        scale = VEC_TOL * abs(self._vec[h])
        if abs(self._vec[k] - rot * self._vec[h]) <= scale:
            return theta, h, k
        if abs(self._vec[h] - rot * self._vec[k]) <= scale:
            return theta, k, h
        actual = ccw_angle(self._vec[h], -self._vec[k])
        raise InconsistentRotation(e, theta, reduce_angle(actual))

    def _check_angle(self, v, alpha, expected):
        """Cone angle alpha at v matches expected (None: anything)."""
        if expected is not None and abs(alpha - expected) > angle_tol(expected):
            raise AngleMismatch(v, alpha, expected)

    def _validate_angles(self):
        on_forest = edge_vertices(self, self._forest)
        for v in self._corners_at:  # built in vertex order
            alpha = self._vertex_angle[v]
            if v not in on_forest and not is_turn_multiple(alpha):
                raise AngleMismatch(v, alpha, TWO_PI * round(alpha / TWO_PI))
            self._check_angle(v, alpha, self._angle_target[v])

        chi = len(self._corners_at) - len(self._halfedges) // 2 + len(self._tris)
        if chi % 2 != 0 or chi > 2:
            raise NonIntegerGenus(f"Euler characteristic {chi}")
        self._genus = (2 - chi) // 2

        total = sum(self._vertex_angle.values())
        expected = TWO_PI * (2 * self._genus + len(self._corners_at) - 2)
        if abs(total - expected) > angle_tol(total):
            raise GaussBonnetViolation(total, expected)

    # -- combinatorics ------------------------------------------------------

    @property
    def halfedges(self):
        return self._halfedges

    def next(self, h):
        return self._next[h]

    def prev(self, h):
        return self._prev[h]

    def twin(self, h):
        return self._twin[h]

    def origin(self, h):
        return self._origin[h]

    def head(self, h):
        return self._origin[self._next[h]]

    def vec(self, h) -> complex:
        return self._vec[h]

    def triangle_of(self, h):
        return self._tri_of[h]

    @property
    def triangles(self):
        return dict(self._tris)

    def triangle(self, tid):
        return self._tris[tid]

    def edge_of(self, h):
        """The edge of a half-edge: the smaller id of the pair.  An id that
        names no half-edge is a ValueError."""
        try:
            return min(h, self._twin[h])
        except KeyError:
            raise ValueError(f"unknown half-edge {h}") from None

    def edges(self):
        return tuple(h for h in self._halfedges if h < self._twin[h])

    @property
    def forest(self):
        return self._forest

    @property
    def vertex_ids(self):
        """The vertices in the order of their smallest outgoing half-edges,
        the first entry of each rotation."""
        return tuple(sorted(self._corners_at, key=lambda v: self._corners_at[v][0]))

    def corners_at(self, v):
        """Outgoing half-edges at v in ccw (rotation) order."""
        if v not in self._corners_at:
            raise UnknownVertex(f"vertex {v}")
        return self._corners_at[v]

    def sigma(self, h):
        """Next outgoing half-edge rotating ccw around origin(h)."""
        return self._twin[self._prev[h]]

    # -- geometry -----------------------------------------------------------

    def corner_angle(self, h) -> float:
        """Interior angle of the triangle of h at origin(h)."""
        return self._corner[h]

    def cone_angle(self, v) -> float:
        if v not in self._vertex_angle:
            raise UnknownVertex(f"vertex {v}")
        return self._vertex_angle[v]

    def angle_target(self, v):
        if v not in self._angle_target:
            raise UnknownVertex(f"vertex {v}")
        return self._angle_target[v]

    def genus(self) -> int:
        return self._genus

    def total_area(self) -> float:
        return sum(
            0.5 * cross(self._vec[h1], self._vec[h2]) for h1, h2, _ in self._tris.values())

    def crossing_rotation(self, h) -> float:
        """Rotation picked up by crossing the edge of h, in (-pi, pi].

        This is the angle relating the developments on the two sides of the
        edge; it is zero on non-forest edges up to numerical noise."""
        return reduce_angle(signed_angle(self._vec[h], -self._vec[self._twin[h]]))

    def forest_pairing(self, e):
        """(theta, a, abar) for forest edge e; vec(abar) = -e^{i theta} vec(a)."""
        return self._forest_pairing[e]

    def num_trees(self) -> int:
        """Number of forest trees, counting vertices off the forest as
        one-point trees."""
        # construction checked that the forest is acyclic
        return len(self._corners_at) - len(self._forest)

    # -- derived surfaces ----------------------------------------------------

    def scale(self, w: complex) -> "FlatSurface":
        """Surface with every development vector multiplied by w (w != 0)."""
        w = complex(w)
        if abs(w) < 1e-300:
            raise DegenerateInput("scale factor must be nonzero")
        return FlatSurface(
            dict(self._tris),
            dict(self._twin),
            {h: w * v for h, v in self._vec.items()},
            self._forest,
            [(v, self._angle_target[v]) for v in self.vertex_ids],
        )

    # -- serialization -------------------------------------------------------

    def to_spec(self) -> "SurfaceSpec":
        verts = []
        for v in self.vertex_ids:
            target = self._angle_target[v]
            verts.append((v, self._vertex_angle[v] if target is None else target))
        return SurfaceSpec(
            vertices=tuple(verts),
            triangles=tuple(self._tris[t] for t in sorted(self._tris)),
            gluing=tuple((h, self._twin[h]) for h in self.edges()),
            vectors={h: self._vec[h] for h in self._halfedges},
            forest=tuple(sorted(self._forest)),
        )

    def to_json(self) -> str:
        return self.to_spec().to_json()

    def __repr__(self):
        return (f"FlatSurface(genus={self._genus}, vertices={len(self._corners_at)}, "
                f"triangles={len(self._tris)}, forest_edges={len(self._forest)})")


# ---------------------------------------------------------------------------
# declarative descriptions and the exchange file format


@dataclass
class SurfaceSpec:
    """Declarative description of a flat surface (the file-format contents)."""

    vertices: tuple
    triangles: tuple
    gluing: tuple
    vectors: dict
    forest: tuple = ()

    def to_json(self) -> str:
        return json_text({
            "vertices": [{"id": v} if a is None else {"id": v, "angle": float(a)}
                         for v, a in self.vertices],
            "triangles": self.triangles,
            "gluing": self.gluing,
            "vectors": {h: complex(self.vectors[h]) for h in sorted(self.vectors)},
            "forest": self.forest,
        })

    @classmethod
    def from_json(cls, text: str) -> "SurfaceSpec":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("surface file must contain a JSON object")
        fields = ("vertices", "triangles", "gluing", "vectors", "forest")
        unknown = set(doc) - set(fields)
        if unknown:
            raise ValueError(f"unknown fields in surface file: {sorted(unknown)}")
        missing = set(fields) - set(doc)
        if missing:
            raise ValueError(f"missing fields in surface file: {sorted(missing)}")
        verts, tris, glue, vecs, forest = (doc[name] for name in fields)
        pairs = list(vecs.values()) if type(vecs) is dict else None
        shapes = (  # (JSON type and entry shape hold, what the field must be)
            (type(verts) is list and _types(verts) <= {dict}
             and _types(v.get("id") for v in verts) <= {int}
             and _types(v.get("angle", 0.0) for v in verts) <= {int, float},
             'an array of {"id": integer, "angle": number} objects'),
            (type(tris) is list and _types(tris) <= {list}
             and _types(h for t in tris for h in t) <= {int}, "an array of integer lists"),
            (type(glue) is list and _types(glue) <= {list} and {len(g) for g in glue} <= {2}
             and _types(h for g in glue for h in g) <= {int}, "an array of integer pairs"),
            (pairs is not None and _types(pairs) <= {list} and {len(z) for z in pairs} <= {2}
             and _types(x for z in pairs for x in z) <= {int, float}, "an object of number pairs"),
            (type(forest) is list and _types(forest) <= {int}, "an array of integers"),
        )
        for name, (ok, shape) in zip(fields, shapes):
            if not ok:
                raise ValueError(f"surface file field {name!r} must be {shape}")
        for v in verts:
            extra = set(v) - {"id", "angle"}
            if extra:
                raise ValueError(f"unknown vertex fields: {sorted(extra)}")
        verts = tuple((v["id"], float(v["angle"]) if "angle" in v else None) for v in verts)
        vectors = {int(key): complex(re, im) for key, (re, im) in vecs.items()}
        return cls(verts, tuple(map(tuple, tris)), tuple(map(tuple, glue)), vectors, tuple(forest))


def _types(values):
    """The JSON types among decoded values; bool is a type of its own."""
    return {type(x) for x in values}


def build_surface(spec: SurfaceSpec) -> FlatSurface:
    """Assemble and validate a surface from its declarative description."""
    twin = {}
    for a, b in spec.gluing:
        if a in twin or b in twin or a == b:
            raise ValueError(f"half-edge glued twice in pair ({a}, {b})")
        twin[a] = b
        twin[b] = a
    return FlatSurface(list(spec.triangles), twin, spec.vectors, spec.forest, list(spec.vertices))


def load_surface(path) -> FlatSurface:
    with open(path, "r", encoding="utf-8") as fh:
        return build_surface(SurfaceSpec.from_json(fh.read()))


def save_surface(surface: FlatSurface, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(surface.to_json())


# ---------------------------------------------------------------------------
# canonical example constructors


def make_torus(u: complex, v: complex) -> FlatSurface:
    """Torus obtained from the parallelogram spanned by u, v (ccw)."""
    u, v = complex(u), complex(v)
    triangles = [(0, 1, 2), (3, 4, 5)]
    twin = {0: 3, 3: 0, 1: 4, 4: 1, 2: 5, 5: 2}
    vectors = {0: u, 1: v, 2: -u - v, 3: -u, 4: -v, 5: u + v}
    _require_triangles([[vectors[h] for h in t] for t in triangles], "need Im(conj(u) v) > 0")
    return FlatSurface(triangles, twin, vectors, (), [(0, TWO_PI)])


def _fan(pts, back=False):
    """Fan triangulation of the polygon pts from pts[0]: (triangles, vectors,
    twin) with each diagonal glued, and the half-edges on the sides
    (p_j, p_{j+1}) in order.  Triangle t has the half-edges 3t, 3t + 1,
    3t + 2 along p0 -> p_{t+1} -> p_{t+2}.  ``back`` is the back copy of a
    doubled polygon, its mirror image in cw order: triangle t runs along
    p0 -> p_{t+2} -> p_{t+1} and is numbered after the front's len(pts) - 2
    triangles."""
    ntri = len(pts) - 2
    first = ntri if back else 0
    near, far = (2, 0) if back else (0, 2)  # the sides (p0, p_{t+1}) and (p0, p_{t+2})
    triangles, vectors, twin, sides = {}, {}, {}, [3 * first + near]
    for t in range(ntri):
        corners = (0, t + 2, t + 1) if back else (0, t + 1, t + 2)
        h = 3 * (first + t)
        triangles[first + t] = (h, h + 1, h + 2)
        for x, i, j in zip(triangles[first + t], corners, corners[1:] + corners[:1]):
            vectors[x] = pts[j] - pts[i]
        sides.append(h + 1)
        if t > 0:  # the diagonal (p0, p_{t+1}) joins triangle t - 1 to t
            twin[h - 3 + far], twin[h + near] = h + near, h - 3 + far
    sides.append(h + far)
    return triangles, vectors, twin, sides


def make_doubled_polygon(points) -> FlatSurface:
    """Double of a ccw polygon, star-shaped from its first vertex, across its
    boundary.

    The two copies of the polygon are glued fold-to-fold, producing a genus-0
    surface with one cone point of angle twice the interior angle at each
    polygon vertex.  The forest is the path of fold edges p0-p1-...-p(k-1);
    the remaining fold edge (p(k-1), p0) is the reflection axis used to
    develop the back copy.
    """
    pts = [complex(p) for p in points]
    k = len(pts)
    if k < 3:
        raise DegenerateInput("need at least 3 vertices")
    star = "polygon must be ccw and star-shaped from its first vertex"
    triangles, vectors, twin, front = _fan(pts)
    _require_triangles([[vectors[h] for h in t] for t in triangles.values()], star)
    axis = pts[0] - pts[-1]  # nonzero, since the last fan triangle passed
    rot = (axis / abs(axis)) ** 2

    def reflect(z):
        return pts[-1] + rot * (z - pts[-1]).conjugate()

    *copy, back = _fan(list(map(reflect, pts)), back=True)
    back_triangles, back_vectors, _ = copy
    _require_triangles([[back_vectors[h] for h in t] for t in back_triangles.values()], star)
    for part, more in zip((triangles, vectors, twin), copy):
        part.update(more)
    for x, y in zip(front, back):  # the folds (p_j, p_{j+1})
        twin[x], twin[y] = y, x
    forest = front[:-1]

    def interior_angle(i):
        return ccw_angle(pts[(i + 1) % k] - pts[i], pts[i - 1] - pts[i])

    vertices = [(i, 2.0 * interior_angle(i)) for i in range(k)]
    return FlatSurface(triangles, twin, vectors, forest, vertices)


def make_regular_4g_gon(g: int) -> FlatSurface:
    """Regular 4g-gon with opposite sides identified: genus g, one cone point
    of angle 2*pi*(2g-1), empty forest (a translation surface)."""
    g = int(g)
    if g < 2:
        raise DegenerateInput("need g >= 2")
    n = 4 * g
    triangles, vectors, twin, sides = _fan([cmath.exp(2j * math.pi * j / n) for j in range(n)])
    for a, b in zip(sides[:2 * g], sides[2 * g:]):  # opposite sides
        twin[a], twin[b] = b, a
    return FlatSurface(triangles, twin, vectors, (), [(0, TWO_PI * (2 * g - 1))])


# ---------------------------------------------------------------------------
# canonical equality


def isomorphic(s1: FlatSurface, s2: FlatSurface):
    """Canonical equality of surfaces.

    True when there is a bijection of half-edges commuting with next and twin,
    preserving origin vertex ids and forest membership, and matching vectors
    within VEC_TOL.  Returns the bijection (dict) or None.
    """
    return _match(s1, s2, s1._next, s2._next, VEC_TOL, 0.0)


def _match(s1, s2, step1, step2, rel, bound):
    """The bijection from the half-edges keyed in ``step1`` onto those keyed
    in ``step2`` that commutes with the steps and with twin, keeps origin
    vertex ids and forest membership, and matches vectors within
    ``rel * |v| + bound``, v the s1 vector; or None.  Every step and twin
    must land in its key set.  The smallest key of ``step1`` is tried against
    every candidate at its origin in increasing id order, and the first
    candidate whose image closes is returned."""
    if len(step1) != len(step2):
        return None
    twin1, twin2, origin1, origin2 = s1._twin, s2._twin, s1._origin, s2._origin
    vec1, vec2 = s1._vec, s2._vec
    forest1 = s1._forest.union(twin1[e] for e in s1._forest)
    forest2 = s2._forest.union(twin2[e] for e in s2._forest)
    h0 = min(step1)
    v0 = vec1[h0]
    for cand in sorted(s2._corners_at.get(origin1[h0], ())):
        if (cand not in step2 or abs(v0 - vec2[cand]) > rel * abs(v0) + bound
                or (h0 in forest1) != (cand in forest2)):
            continue
        mapping = {h0: cand}
        stack = [h0]
        while stack:
            h = stack.pop()
            k = mapping[h]
            for nh, img in ((step1[h], step2[k]), (twin1[h], twin2[k])):
                seen = mapping.get(nh)
                if seen is None:
                    v = vec1[nh]
                    if (origin1[nh] != origin2[img] or abs(v - vec2[img]) > rel * abs(v) + bound
                            or (nh in forest1) != (img in forest2)):
                        break
                    mapping[nh] = img
                    stack.append(nh)
                elif seen != img:
                    break
            else:
                continue
            break
        else:
            if len(mapping) == len(step1) == len(set(mapping.values())):
                return mapping
    return None
