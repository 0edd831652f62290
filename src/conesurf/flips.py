"""Elementary moves on geodesic triangulations, Delaunay canonicalization,
straight-segment tracing and insertion, and flip paths and chart transitions
between triangulations of the same flat metric, which meet in their common
Delaunay tessellation.

Segment insertion serves ``insert_segment`` only.  It unfolds the triangles
crossed by the target segment into a planar strip (the developing polygon),
picks the highest vertex of the strip above the segment, and flips one
diagonal of its fan per step; every flip keeps the crossing count from
growing and each round strictly reduces it.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from ._geom import (
    AREA_MATCH_TOL,
    DELAUNAY_BAND,
    POSITION_TOL,
    SOLUTION_RESIDUAL_TOL,
    VEC_TOL,
    angle_tol,
    cross,
    json_text,
    reduce_angle,
    signed_angle,
)
from .charts import HolonomyCheck, Transition, _flip_transition, cut_along_forest, solution_vector
from .errors import (
    DegenerateInput,
    DoesNotTerminateAtVertex,
    ExitsThroughForest,
    ForestEdge,
    HitsVertexEarly,
    NonTermination,
    NotFlippable,
    NotSameMetric,
    TransitionUndefined,
)
from .surface import FlatSurface, _match, isomorphic


# ---------------------------------------------------------------------------
# holonomy hypothesis


def has_half_turn_holonomy(surface: FlatSurface) -> HolonomyCheck:
    """True when every cycle's rotation is 0 or pi modulo full turns.

    The rotation group is generated by the crossing rotations of the forest
    edges (cycles avoiding the forest are translations, and any cycle is a
    product of forest crossings), so it suffices to inspect those; the witness
    is a forest edge whose crossing loop has a different rotation."""
    for e in sorted(surface.forest):
        theta = surface.forest_pairing(e)[0]
        r = reduce_angle(theta)
        if min(abs(r), abs(r - math.pi), abs(r + math.pi)) > angle_tol(theta):
            return HolonomyCheck(False, e)
    return HolonomyCheck(True)


# ---------------------------------------------------------------------------
# single flips


@dataclass(frozen=True)
class FlipMove:
    """One elementary move: ``quad`` lists the four boundary half-edges of the
    convex quadrilateral in ccw order starting on the twin side."""

    edge: int
    old_diagonal: complex
    new_diagonal: complex
    quad: tuple


@dataclass(frozen=True)
class FlipPath:
    moves: tuple

    def __len__(self):
        return len(self.moves)

    def __iter__(self):
        return iter(self.moves)

    def replay(self, surface: FlatSurface) -> FlatSurface:
        surface = surface._copy()
        for move in self.moves:
            _flip_owned(surface, move.edge)
        return surface

    def to_json(self) -> str:
        return json_text([{"edge": m.edge, "quad": m.quad, "new_vector": m.new_diagonal}
                          for m in self.moves])


def _flip_quad(surface: FlatSurface, edge):
    """(h, hb, a, b, c, d, new diagonal) for the quad (h, a, b | hb, c, d) of
    a flippable edge; None when its two triangles are one or a triangle the
    flip builds fails the constructor's check (``FlatSurface._flip_quad``)."""
    h = surface.edge_of(edge)
    if h in surface.forest:
        raise ForestEdge(f"edge {h} lies in the forest")
    return surface._flip_quad(h)


def is_flippable(surface: FlatSurface, edge) -> bool:
    """True when the two triangles of the edge form a strictly convex quad:
    the two flipped triangles pass the constructor's check, read exactly as
    ``flip`` builds them."""
    return _flip_quad(surface, edge) is not None


def flip(surface: FlatSurface, edge):
    """Replace the diagonal of a convex quadrilateral by the other one.

    Returns (new surface, move).  The flipped edge keeps its half-edge pair.
    Only the quad's two triangles, six corner angles, the flipped pair's
    vectors and origins, and its four vertices' rotations, cone angles and
    order change, and, where a cone angle moves, the forest pairings on that
    vertex's path to its tree's root, settled on their first read."""
    flipped = surface._copy()
    return flipped, _flip_owned(flipped, edge)


def _flip_owned(surface: FlatSurface, edge, quad=None) -> FlipMove:
    """``flip`` in place, on a surface the caller owns (a copy made at the
    start of its walk); returns the move.  An edge that is not flippable
    raises before anything changes.  ``quad`` is the edge's ``_flip_quad``
    on the surface as it stands, when the caller has it; it is not checked
    again."""
    quad = quad or _flip_quad(surface, edge)
    if quad is None:
        raise NotFlippable(f"edge {surface.edge_of(edge)} is not flippable")
    h, hb, a, b, c, d, new_vec = quad
    move = FlipMove(h, surface.vec(h), new_vec, (c, d, a, b))
    surface._flip_in_place(*quad)
    return move


def _worklist(surface, test):
    """Sorted non-forest edges e with test(surface, e)."""
    return [e for e in surface.edges() if e not in surface.forest and test(surface, e)]


def _flip_tracked(surface, edge, worklist, test, quad=None):
    """Flip the edge of an owned surface in place, by its quad when given,
    and keep the sorted worklist equal to _worklist(surface, test).  A flip
    changes only the two triangles of its quad, so only the five quad edges
    are tested again."""
    move = _flip_owned(surface, edge, quad)
    for e in {move.edge, *(surface.edge_of(x) for x in move.quad)}:
        i = bisect_left(worklist, e)
        listed = i < len(worklist) and worklist[i] == e
        if listed != (e not in surface.forest and test(surface, e)):
            if listed:
                del worklist[i]
            else:
                worklist.insert(i, e)
    return move


def random_flips(surface: FlatSurface, count, rng):
    """Random walk in the flip graph; returns (surface, path).  Each listed
    edge keeps the quad of its last test, which no later flip has touched,
    and is flipped by it.  The input never changes for its callers, so the
    first scan of its flippable edges and their quads is kept on it once a
    walk completes, and later walks start from their own copy of it."""
    if surface._flippable is None:
        quads = {e: _flip_quad(surface, e) for e in surface.edges() if e not in surface.forest}
        scan = [e for e, quad in quads.items() if quad is not None], quads
    else:
        scan = surface._flippable
    candidates, quads = list(scan[0]), dict(scan[1])
    owned = surface._copy()
    moves = []

    def flippable(surface, e):
        quads[e] = _flip_quad(surface, e)
        return quads[e] is not None

    for _ in range(count):
        if not candidates:
            break
        edge = candidates[rng.integers(len(candidates))]
        moves.append(_flip_tracked(owned, edge, candidates, flippable, quads[edge]))
    surface._flippable = scan
    return owned, FlipPath(tuple(moves))


# ---------------------------------------------------------------------------
# Delaunay


def delaunay_angle_sum(surface: FlatSurface, edge) -> float:
    """Sum of the two angles opposite the edge in its quad (<= pi means the
    edge is locally Delaunay)."""
    h = surface.edge_of(edge)
    return (surface.corner_angle(surface.prev(h))
            + surface.corner_angle(surface.prev(surface.twin(h))))


def is_delaunay_edge(surface: FlatSurface, edge) -> bool:
    h = surface.edge_of(edge)
    if h in surface.forest:
        return True
    if surface.triangle_of(h) == surface.triangle_of(surface.twin(h)):
        return True
    return delaunay_angle_sum(surface, h) <= math.pi + DELAUNAY_BAND


def _violates(surface, edge):
    return not is_delaunay_edge(surface, edge)


def delaunay(surface: FlatSurface):
    """Flip until every non-forest interior edge passes the local predicate,
    always the first violating edge of the worklist; returns (surface, path).

    The result depends on the input surface alone, which never changes for
    its callers, so a complete walk is kept on the input, as a chart is
    (``charts.chart_for``), and later calls return it.  A walk that raises
    keeps nothing."""
    if surface._delaunay is not None:
        return surface._delaunay
    cap = 50 * (len(surface.halfedges) // 2 + len(surface.forest)) ** 2
    owned = surface._copy()
    moves = []
    bad = _worklist(owned, _violates)
    while bad:
        moves.append(_flip_tracked(owned, bad[0], bad, _violates))
        if len(moves) > cap:
            raise NonTermination(f"Delaunay flipping exceeded {cap} moves")
    surface._delaunay = owned, FlipPath(tuple(moves))
    return surface._delaunay


# ---------------------------------------------------------------------------
# segment tracing


@dataclass(frozen=True)
class Crossing:
    halfedge: int
    p_from: complex
    p_to: complex


@dataclass(frozen=True)
class Trace:
    """Development of a straight segment across the triangulation.

    ``chain`` is the boundary chain of the developed strip on the clockwise
    side of the segment: surface half-edges with signs whose signed vectors
    telescope to the segment vector."""

    corner: int
    w: complex
    crossings: tuple
    chain: tuple
    end_vertex: int


@dataclass(frozen=True)
class DevelopingPolygon:
    vertices: tuple
    diagonal: tuple
    diagonals: tuple
    corner_map: dict


def _near(p, q, scale):
    return abs(p - q) <= POSITION_TOL * scale


def develop_segment(surface: FlatSurface, corner, w: complex) -> Trace:
    """Trace the straight segment of vector w from the corner's vertex.

    The corner is an outgoing half-edge; the direction must lie in the closed
    sector from that half-edge's ray (inclusive) to the next corner's ray
    (exclusive).  Forest edges may not be crossed; w must be nonzero and
    finite.  Each triangle is decided by the side of the segment's line its
    one new corner lies on (the straight walk of Devillers, Pion and Teillaud)."""
    h0 = corner
    w = complex(w)
    if w == 0 or not cmath.isfinite(w):
        raise DegenerateInput(f"segment vector must be nonzero and finite, got {w!r}")
    surface.edge_of(h0)  # an unknown corner id is a ValueError
    u = surface.vec(h0)
    scale = max(abs(w), abs(u))
    ang = surface.corner_angle(h0)
    sin_part = cross(u, w)
    cos_part = (u.conjugate() * w).real
    if abs(sin_part) <= POSITION_TOL * scale * abs(u) and cos_part > 0:
        # along the leading ray of the corner
        if _near(w, u, scale):
            return Trace(h0, w, (), ((h0, 1.0),), surface.head(h0))
        if abs(w) < abs(u):
            raise DoesNotTerminateAtVertex("segment ends inside an existing edge")
        raise HitsVertexEarly(surface.head(h0), abs(u) / abs(w))
    delta = math.atan2(sin_part, cos_part)
    if delta < 0 or delta >= ang:
        raise ValueError("direction does not lie in the given corner sector")

    # the current triangle's half-edges, from the one it was entered by (h0 in
    # the first triangle, whose new corner lies left of the segment), and the
    # positions of their origins; the third corner is the new one
    tri_hes = [h0, surface.next(h0), surface.prev(h0)]
    pos = [0j, u, u + surface.vec(tri_hes[1])]
    crossings = []
    cap = 1000 * (len(surface.halfedges) + 1)

    while True:
        if len(crossings) == cap:
            # past this floor, each half-edge may be crossed once per smallest
            # triangle altitude of segment length (flip walks use under a third)
            altitude = min(cross(surface.vec(a), surface.vec(b))
                           / max(abs(surface.vec(x)) for x in (a, b, c))
                           for a, b, c in surface.triangles.values())
            cap = max(cap, len(surface.halfedges) * (1 + math.ceil(abs(w) / altitude)))
            if len(crossings) == cap:
                raise NonTermination("segment tracing exceeded the iteration cap")
        q = pos[2]
        local = max([abs(w)] + [abs(surface.vec(x)) for x in tri_hes])
        if _near(q, w, local):
            # the clockwise side of the strip: h0, then next(entry) of every
            # triangle left through prev(entry), and of the last triangle
            cw, _, _ = _strip(surface, crossings)
            chain = ([(h0, 1.0)] + [(surface.next(surface.twin(crossings[k - 1].halfedge)), 1.0)
                                    for k in cw[1:]] + [(tri_hes[1], 1.0)])
            trace = Trace(h0, w, tuple(crossings), tuple(chain), surface.origin(tri_hes[2]))
            total = sum(s * surface.vec(x) for x, s in trace.chain)
            if not _near(total, w, local):
                raise AssertionError("developed chain does not telescope to the segment")
            return trace

        side = cross(w, q)
        if abs(side) <= POSITION_TOL * local * abs(w):
            t_q = (w.conjugate() * q).real / abs(w) ** 2
            if t_q < 1.0:
                raise HitsVertexEarly(surface.origin(tri_hes[2]), t_q)
            raise DoesNotTerminateAtVertex("segment ends inside a triangle")
        # q left of the segment: leave through next(entry), from pos[1] to q;
        # right of it: through prev(entry), from q to pos[0]
        i = 1 if side > 0 else 2
        exit_he, p_from = tri_hes[i], pos[i]
        p_to = p_from + surface.vec(exit_he)
        if cross(p_to - p_from, w - p_from) >= 0:
            raise DoesNotTerminateAtVertex("segment ends inside a triangle")
        if surface.edge_of(exit_he) in surface.forest:
            raise ExitsThroughForest(surface.edge_of(exit_he))

        crossings.append(Crossing(exit_he, p_from, p_to))
        entry = surface.twin(exit_he)
        tri_hes = [entry, surface.next(entry), surface.prev(entry)]
        pos = [p_to, p_from, p_from + surface.vec(tri_hes[1])]


def _strip(surface: FlatSurface, crossings):
    """The developed strip, read off the crossing sequence.

    Every crossed side runs from the strip's corner clockwise of the segment
    to its corner counterclockwise of it.  The first crossing opens a corner
    on each side; every later one leaves the triangle it entered through
    prev(entry), opening the next clockwise corner, or through next(entry),
    opening the next counterclockwise one.  Returns (cw, ccw, corners): the
    crossings that open the clockwise and the counterclockwise corners, in
    order, and per crossing the indices (i, j) of its two corners in them."""
    cw, ccw, corners = [], [], []
    for k, c in enumerate(crossings):
        entry = surface.twin(crossings[k - 1].halfedge) if k else None
        if entry is None or c.halfedge == surface.prev(entry):
            cw.append(k)
        if entry is None or c.halfedge == surface.next(entry):
            ccw.append(k)
        corners.append((len(cw) - 1, len(ccw) - 1))
    return cw, ccw, corners


def developing_polygon(surface: FlatSurface, corner, w: complex) -> DevelopingPolygon:
    """Planar unfolding of the triangles crossed by the segment, with the
    segment as a diagonal: ccw from its start, the clockwise corners, its
    end, then the counterclockwise corners in reverse order."""
    trace = develop_segment(surface, corner, w)
    crossings = trace.crossings
    cw, ccw, corners = _strip(surface, crossings)
    verts = ([0j] + [crossings[k].p_from for k in cw] + [w]
             + [crossings[k].p_to for k in reversed(ccw)])
    ids = ([surface.origin(trace.corner)] + [surface.origin(crossings[k].halfedge) for k in cw]
           + [trace.end_vertex] + [surface.head(crossings[k].halfedge) for k in reversed(ccw)])
    last = len(verts) - 1
    diagonals = tuple((1 + i, last - j) for i, j in corners)
    return DevelopingPolygon(tuple(verts), (0, 1 + len(cw)), diagonals, dict(enumerate(ids)))


# ---------------------------------------------------------------------------
# segment insertion


def _fan_flip_choice(surface: FlatSurface, trace: Trace):
    """Crossing index to flip: in the fan of the highest strip vertex, the
    diagonal whose far endpoint is lowest (smallest index on ties).  Heights
    are measured away from the segment on its side with more corners, the
    counterclockwise one on a tie; the first highest corner in crossing
    order is the apex, and the crossings that share it are its fan."""
    w = trace.w
    rot = w.conjugate() / abs(w)
    cw, ccw, corners = _strip(surface, trace.crossings)
    ends = [(c.p_from, c.p_to) for c in trace.crossings]
    side, sign = (1, 1.0) if len(ccw) >= len(cw) else (0, -1.0)

    def height(k, end):
        return sign * (ends[k][end] * rot).imag

    openers = (cw, ccw)[side]
    apex = max(range(len(openers)), key=lambda i: height(openers[i], side))
    fan = [k for k, pair in enumerate(corners) if pair[side] == apex]
    return min(fan, key=lambda k: (height(k, 1 - side), k))


def insert_segment(surface: FlatSurface, corner, w: complex):
    """Flip until the straight segment from the corner becomes an edge.

    Works under any holonomy: the segment must end at a vertex without
    crossing the forest, so its strip develops by translations alone.
    Returns (surface, path).  The germ of the segment is kept as a ccw offset
    from a reference half-edge at its vertex, re-anchored before any flip that
    would remove the reference edge: the offset between two geodesic germs at
    a vertex never changes, so the germ survives every flip.

    A round whose crossing count m rises raises ``NonTermination``, and so
    does one that would make an (m + 4)th flip at the same m, so an
    insertion whose first trace crosses m0 edges makes at most
    m0 (m0 + 7) / 2 flips."""
    develop_segment(surface, corner, w)  # validate the trace up front
    delta = max(signed_angle(surface.vec(corner), w), 0.0)
    length = abs(w)
    surface = surface._copy()
    vertex = surface.origin(corner)
    h_ref, wv = _locate_germ(surface, corner, delta, length)
    delta = max(signed_angle(surface.vec(h_ref), wv), 0.0)

    moves = []
    prev_m = None
    budget = None
    while True:
        corner, wv = _locate_germ(surface, h_ref, delta, length)
        trace = develop_segment(surface, corner, wv)
        m = len(trace.crossings)
        if m == 0:
            return surface, FlipPath(tuple(moves))
        if prev_m is None or m < prev_m:
            prev_m = m
            budget = m + 2
        elif m > prev_m:
            raise NonTermination("crossing count increased during insertion")
        else:
            budget -= 1
            if budget < 0:
                raise NonTermination("no crossing-count progress within a fan round")
        k = _fan_flip_choice(surface, trace)
        edge = surface.edge_of(trace.crossings[k].halfedge)
        if surface.edge_of(h_ref) == edge:
            others = [h for h in surface.corners_at(vertex)
                      if surface.edge_of(h) != edge]
            if not others:
                raise NonTermination("no stable reference edge at the start vertex")
            h_new = min(others)
            delta = (_offset_between(surface, h_new, h_ref) + delta) \
                % surface.cone_angle(vertex)
            h_ref = h_new
        moves.append(_flip_owned(surface, edge))


# ---------------------------------------------------------------------------
# direction germs
#
# A germ is an outgoing direction at a vertex; a vertex of cone angle k*2*pi
# has k germs per plane direction.


def _offset_between(surf: FlatSurface, from_corner, to_corner) -> float:
    """ccw angle at a common vertex from one outgoing germ to another."""
    theta = 0.0
    h = from_corner
    for _ in range(len(surf.corners_at(surf.origin(from_corner))) + 1):
        if h == to_corner:
            return theta
        theta += surf.corner_angle(h)
        h = surf.sigma(h)
    raise AssertionError("corners do not share a vertex")


def _locate_germ(surf: FlatSurface, anchor, theta, length):
    """Resolve the germ ``theta`` ccw from the anchor germ, at the anchor's
    origin, to a (corner half-edge, vector of the given length) pair."""
    vertex = surf.origin(anchor)
    theta %= surf.cone_angle(vertex)
    h = anchor
    acc = 0.0
    for _ in range(len(surf.corners_at(vertex)) + 1):
        ang = surf.corner_angle(h)
        delta = theta - acc
        if delta <= ang - angle_tol(ang):
            delta = max(delta, 0.0)
            unit = surf.vec(h) / abs(surf.vec(h))
            return h, unit * cmath.exp(1j * delta) * length
        if delta <= ang + angle_tol(ang):
            # lands on the trailing ray, which is the next corner's leading ray
            h = surf.sigma(h)
            unit = surf.vec(h) / abs(surf.vec(h))
            return h, unit * length
        acc += ang
        h = surf.sigma(h)
    raise TransitionUndefined("angle offset exceeds the cone angle")


# ---------------------------------------------------------------------------
# flip paths and chart transitions through the Delaunay tessellation
#
# Two presentations of one metric with the same forest have the same
# constrained Delaunay tessellation, which is unique (Bobenko and Springborn
# 2007), and Delaunay flipping reaches it (Indermitte, Liebling, Troyanov and
# Clemencon 2001).  Its cells are the triangles joined across cocircular
# edges: convex polygons inscribed in a circle, which any triangulation
# presents with other diagonals.  Flipped to the fan at matched corners, the
# two sides become one triangulation.


def _check_same_metric(source: FlatSurface, target: FlatSurface):
    """Require equal vertex labels, cone angles and forest sizes."""
    if sorted(source.vertex_ids) != sorted(target.vertex_ids):
        raise NotSameMetric("vertex labels differ")
    for v in source.vertex_ids:
        if abs(source.cone_angle(v) - target.cone_angle(v)) > angle_tol(source.cone_angle(v)):
            raise NotSameMetric(f"cone angles differ at vertex {v}")
    if len(source.forest) != len(target.forest):
        raise NotSameMetric("forests differ")


def _cells(surface: FlatSurface):
    """(inner, step) of a Delaunay surface: the cocircular edges, non-forest
    ones whose angle sum lies within DELAUNAY_BAND of pi, which lie inside
    the cells; and, for every other half-edge, the next half-edge on the
    boundary of the cell on its left, found by turning clockwise about its
    head past the inner edges."""
    inner = {e for e in surface.edges() if e not in surface.forest
             and abs(delaunay_angle_sum(surface, e) - math.pi) <= DELAUNAY_BAND}
    if not inner:
        return inner, surface._next
    step = {}
    for h in surface.halfedges:
        if surface.edge_of(h) not in inner:
            x = surface.next(h)
            while surface.edge_of(x) in inner:
                x = surface.next(surface.twin(x))
            step[h] = x
    return inner, step


def _fan_degree(surface: FlatSurface, corner, inner):
    """The inner edges at the cell corner that the boundary half-edge
    ``corner`` leaves: the fan edges that corner already has."""
    count, h = 0, surface.sigma(corner)
    while surface.edge_of(h) in inner:
        count, h = count + 1, surface.sigma(h)
    return count


def _fan(surface: FlatSurface, corner, inner, moves):
    """Flip the cell on the left of the boundary half-edge ``corner``, in
    place, to the fan from the corner's origin, appending the moves: flip the
    side opposite the origin while it is inner, then turn to the next fan
    edge, until the turn reaches the cell's boundary."""
    h = corner
    while True:
        while surface.edge_of(surface.next(h)) in inner:
            moves.append(_flip_owned(surface, surface.next(h)))
        h = surface.sigma(h)
        if surface.edge_of(h) not in inner:
            return


def _tessellation_path(source: FlatSurface, target: FlatSurface):
    """(path, isomorphism from the replayed source onto the target).

    The surfaces must pass ``_check_same_metric``.  The path is the source's
    ``delaunay`` moves, each cell with inner edges flipped to the fan at the
    corner where the two sides have the most fan edges between them (the
    smallest boundary half-edge on ties), then the target's own moves to the
    same place, reversed and relabelled through the match, less the flips of
    one edge that meet where the two ends join.  The two tessellations are
    matched with their inner edges ignored and vectors compared within
    VEC_TOL times the longest edge of the two inputs, so walk drift on short
    edges passes; a failed match reports whether the areas differ.  The
    replayed source must then be ``isomorphic`` to the target, within VEC_TOL
    of each edge."""
    _check_same_metric(source, target)
    bound = VEC_TOL * max(abs(s.vec(h)) for s in (source, target) for h in s.halfedges)
    # the fans below flip in place, and the kept Delaunay walks stay as they are
    (current, there), (meeting, back) = delaunay(source), delaunay(target)
    current, meeting = current._copy(), meeting._copy()
    inner_s, step_s = _cells(current)
    inner_t, step_t = _cells(meeting)
    match = _match(current, meeting, step_s, step_t, 0.0, bound)
    if match is None:
        area = source.total_area()
        if abs(area - target.total_area()) > AREA_MATCH_TOL * area:
            raise NotSameMetric("areas differ")
        raise NotSameMetric("the Delaunay tessellations do not match")
    moves, back = list(there.moves), list(back.moves)
    seen = set()
    for h in sorted(step_s) if inner_s else ():
        if h in seen:
            continue
        cycle = [h]
        while step_s[cycle[-1]] != h:
            cycle.append(step_s[cycle[-1]])
        seen.update(cycle)
        if len(cycle) > 3:
            corner = max(cycle, key=lambda c: (_fan_degree(current, c, inner_s)
                                               + _fan_degree(meeting, match[c], inner_t), -c))
            _fan(current, corner, inner_s, moves)
            _fan(meeting, match[corner], inner_t, back)
            x, y = corner, match[corner]
            for _ in range(len(cycle) - 3):
                x, y = current.sigma(x), meeting.sigma(y)
                match[x], match[current.twin(x)] = y, meeting.twin(y)
    if len(match) != len(current.halfedges):
        raise NotSameMetric("the Delaunay cells do not match")
    inverse = {y: x for x, y in match.items()}
    back = [current.edge_of(inverse[move.edge]) for move in back]
    # a flip followed by the flip of the same edge leaves the triangulation
    # as it was, so the two ends cancel where they meet
    k = 0
    while k < min(len(moves), len(back)) and moves[-1 - k].edge == back[-1 - k]:
        k += 1
    if k:
        current = source._copy()
        moves = [_flip_owned(current, move.edge) for move in moves[:-k]]
        del back[-k:]
    for edge in reversed(back):
        moves.append(_flip_owned(current, edge))
    iso = isomorphic(current, target)
    if iso is None:
        raise NotSameMetric("the replayed source is not the target")
    return FlipPath(tuple(moves)), iso


def chart_transition(source: FlatSurface, target: FlatSurface) -> Transition:
    """Linear map sending source-chart coordinates to target-chart coordinates.

    The two surfaces must carry the same metric, vertex labels and forest,
    under any holonomy.  The map is the product of the flip transitions along
    the path of ``flip_path``, its rows then read through the final
    isomorphism onto the target's columns, with the signs of the source's
    column map: a ``Transition`` of integer rows, constant on a chart
    neighbourhood.  It must reproduce the target coordinates from the source's."""
    path, iso = _tessellation_path(source, target)
    cut_s, cut_t = cut_along_forest(source), cut_along_forest(target)
    # the product's rows as {column: integer}; each move's transition
    # rewrites one row, as its own sum of rows
    rows = [{col: 1} for col in range(cut_s.num_edges)]
    for move in path:
        c, _, a, _ = move.quad
        (row, terms), = _flip_transition(cut_s, move.edge, a, c).sums.items()
        new = {}
        for col, coef in terms:
            for k, x in rows[col].items():
                new[k] = new.get(k, 0) + int(coef) * x
        rows[row] = {k: x for k, x in new.items() if x}
    inverse = {k: h for h, k in iso.items()}
    sums = {}
    for col_t, rep in enumerate(cut_t.columns):
        col_s, sign = cut_s.column_of(inverse[rep])
        sums[col_t] = tuple((k, int(sign) * x) for k, x in rows[col_s].items())
    mat = Transition.identity(cut_t.num_edges, sums)
    z_s = solution_vector(cut_s)
    z_t = solution_vector(cut_t)
    if not np.linalg.norm(mat @ z_s - z_t) <= SOLUTION_RESIDUAL_TOL * np.linalg.norm(z_t):
        raise NotSameMetric("transition does not reproduce the target coordinates")
    return mat


def flip_path(source: FlatSurface, target: FlatSurface) -> FlipPath:
    """Sequence of flips carrying the source triangulation onto the target.

    Both surfaces must present the same flat metric, of any holonomy, with
    the same vertex labels, forest and area.  The path meets the target in
    their common Delaunay tessellation: both sides are flipped to it and
    their cells to fans at matched corners, and the target's moves are
    replayed backwards.  The tessellations match within VEC_TOL times the
    longest edge of the two inputs; the replayed path must end in a surface
    ``isomorphic`` to the target, within VEC_TOL of each edge, or the call
    raises ``NotSameMetric``."""
    return _tessellation_path(source, target)[0]
