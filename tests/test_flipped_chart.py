"""The flipped chart built from the source's chart: the sparse flip
transition, the cut derived with a local erasing check, the rows patched
from the source's, and the rank and S block read off gauge potentials
instead of the kernel sweep."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesurf import charts, make_doubled_polygon, make_regular_4g_gon, make_torus
from conesurf._geom import HOLONOMY_GAP_TOL
from conesurf._graph import adjacency, bfs
from conesurf.charts import (
    _flip_transition,
    _flipped_cut,
    _flipped_system,
    _quad_erasing,
    assemble_system,
    chart_for,
    cut_along_forest,
    is_erasing,
    transition_for_flip,
)
from conesurf.errors import ForestNotErasing
from conesurf.flips import flip, is_flippable, random_flips
from conesurf.volume import kernel_density


def doubled_regular(k):
    return make_doubled_polygon([cmath.exp(2j * math.pi * j / k) for j in range(k)])


SURFACES = {
    "skew_torus": lambda: make_torus(1, 2 + 1j),
    "doubled_12_gon": lambda: doubled_regular(12),
    "doubled_80_gon": lambda: doubled_regular(80),
    "genus5_4g_gon": lambda: make_regular_4g_gon(5),
}


@pytest.fixture
def surfaces(golden_surfaces):
    return {**golden_surfaces, **{name: make() for name, make in SURFACES.items()}}


def flippable_edges(s):
    return [e for e in s.edges() if e not in s.forest and is_flippable(s, e)]


def quad_of(flipped, edge):
    h = flipped.edge_of(edge)
    return (flipped.triangle(flipped.triangle_of(h))
            + flipped.triangle(flipped.triangle_of(flipped.twin(h))))


def assert_same_cut(derived, full):
    assert derived.surface is full.surface
    for name in ("columns", "boundary", "col_of", "pairings", "covered", "num_edges",
                 "num_triangles", "num_trees", "num_rows"):
        assert getattr(derived, name) == getattr(full, name), name


# ---------------------------------------------------------------------------
# the local erasing check


def walk_cuts(s, steps, rng):
    """Flip along a random walk from s, deriving each cut from the last one;
    check each derived cut and local result against the full check."""
    _, walk = random_flips(s, steps, rng)
    current, cut = s, cut_along_forest(s)
    for move in walk:
        flipped, _ = flip(current, move.edge)
        local = _quad_erasing(cut, flipped, quad_of(flipped, move.edge))
        assert local == bool(is_erasing(flipped, flipped.forest))
        cut = _flipped_cut(cut, flipped, move.edge)
        assert_same_cut(cut, cut_along_forest(flipped))
        current = flipped
    return len(walk)


@st.composite
def convex_polygons(draw):
    """Strictly convex polygons with 4 to 12 vertices on a rotated ellipse."""
    gaps = draw(st.lists(st.integers(1, 4), min_size=4, max_size=12))
    aspect = draw(st.floats(0.5, 1.0))
    rot = cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
    angles = 2 * math.pi * np.cumsum(gaps) / sum(gaps)
    return [rot * complex(math.cos(a), aspect * math.sin(a)) for a in angles]


@settings(max_examples=25, deadline=None)
@given(points=convex_polygons(), seed=st.integers(0, 2**32 - 1))
def test_local_check_equals_full_on_doubled_polygons(points, seed):
    # the path forest's pairings move with the cone angles of flipped quads
    s = make_doubled_polygon(points)
    assert walk_cuts(s, 3 * len(points), np.random.default_rng(seed)) > 0


@settings(max_examples=10, deadline=None)
@given(genus=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_local_check_equals_full_on_4g_gons(genus, seed):
    s = make_regular_4g_gon(genus)
    assert walk_cuts(s, 12, np.random.default_rng(seed)) > 0


def test_forced_local_failure_runs_the_full_check(doubled_pentagon, monkeypatch):
    s = doubled_pentagon
    cut = cut_along_forest(s)
    edge = flippable_edges(s)[0]
    flipped, _ = flip(s, edge)
    monkeypatch.setattr(charts, "_quad_erasing", lambda *args: False)
    calls = []
    full = charts._holonomy
    monkeypatch.setattr(charts, "_holonomy", lambda *args: calls.append(args) or full(*args))
    derived = _flipped_cut(cut, flipped, edge)
    assert len(calls) == 1
    reference = cut_along_forest(flipped)
    assert_same_cut(derived, reference)
    assert derived.offsets == reference.offsets


def test_local_failure_raises_the_full_witness(square_torus, monkeypatch):
    # give one quad edge of the flipped torus a rotation: the local check
    # sees it, and the fallback raises what cutting the surface raises
    s = square_torus
    cut = cut_along_forest(s)
    edge = flippable_edges(s)[0]
    flipped, _ = flip(s, edge)
    x = flipped.next(flipped.edge_of(edge))
    twin = flipped.twin(x)
    crossing = flipped.crossing_rotation

    def bent(h):
        return crossing(h) + (0.5 if h == x else -0.5 if h == twin else 0.0)

    monkeypatch.setattr(flipped, "crossing_rotation", bent)
    assert not _quad_erasing(cut, flipped, quad_of(flipped, edge))
    with pytest.raises(ForestNotErasing) as local:
        _flipped_cut(cut, flipped, edge)
    with pytest.raises(ForestNotErasing) as full:
        cut_along_forest(flipped)
    assert local.value.witness == full.value.witness
    assert local.value.witness[0] == "holonomy"
    assert str(local.value) == str(full.value)


def test_uncovered_quad_vertex_raises_the_full_witness(octagon_surface, monkeypatch):
    # the octagon's one vertex lies on no forest edge: a cone angle that
    # stopped being a multiple of a full turn fails the coverage test
    s = octagon_surface
    cut = cut_along_forest(s)
    edge = flippable_edges(s)[0]
    flipped, _ = flip(s, edge)
    monkeypatch.setattr(flipped, "cone_angle", lambda v: 1.0)
    assert not _quad_erasing(cut, flipped, quad_of(flipped, edge))
    with pytest.raises(ForestNotErasing) as local:
        _flipped_cut(cut, flipped, edge)
    assert local.value.witness == ("uncovered", flipped.origin(flipped.edge_of(edge)))


# ---------------------------------------------------------------------------
# the flipped rows patched from the source's


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def check_patched_charts(s):
    """Patch the chart of every flippable edge of s from s's chart and
    compare it with a full assembly of the same flipped cut, bit for bit;
    returns how many of those flips moved a pairing."""
    cut, system = chart_for(s)
    kernel = system.kernel
    moved = 0
    for e in flippable_edges(s):
        flipped, _ = flip(s, e)
        flipped_cut = _flipped_cut(cut, flipped, e)
        derived = _flipped_system(system, flipped_cut, e)
        full = assemble_system(flipped_cut)
        for name in ("cols", "coefs", "ends", "free"):
            assert same_bits(getattr(derived.tree, name), getattr(full.tree, name)), (e, name)
        assert derived.tree.links == full.tree.links, e
        assert (derived.tree.det_s, derived.tree.pivot) == (full.tree.det_s, full.tree.pivot), e
        assert (derived.rank, derived.row_kind) == (full.rank, full.row_kind), e
        frame = _flip_transition(cut, e).apply(kernel)
        assert (kernel_density(derived, frame).log_value
                == kernel_density(full, frame).log_value), e
        moved += flipped_cut.pairings != cut.pairings
    return moved


def test_patched_chart_equals_a_full_assembly(golden_surfaces, pillowcase):
    surfaces = {**golden_surfaces, "doubled_80_gon": doubled_regular(80),
                "genus5_4g_gon": make_regular_4g_gon(5)}
    for seed, start in enumerate((doubled_regular(12), pillowcase)):
        surfaces[f"walk_{seed}"] = random_flips(start, 30, np.random.default_rng(seed))[0]
    moved = {name: check_patched_charts(s) for name, s in surfaces.items()}
    # the walks reach flips that move a forest pairing, whose rows are patched too
    assert sum(moved.values()) > 0, moved


def test_patched_chart_after_the_full_check(doubled_pentagon, monkeypatch):
    # a failed local erasing check hands over the surface's full cut
    monkeypatch.setattr(charts, "_quad_erasing", lambda *args: False)
    check_patched_charts(doubled_pentagon)


# ---------------------------------------------------------------------------
# the sparse flip transition


def test_transition_apply_matches_the_dense_product(surfaces):
    for name, s in surfaces.items():
        cut, system = chart_for(s)
        frame = system.kernel
        edges = flippable_edges(s)
        assert edges, name
        dense_checked = False
        for e in edges:
            transition = _flip_transition(cut, e)
            dense = transition.dense()
            if not dense_checked:  # transition_for_flip cuts again; once per surface
                assert transition_for_flip(s, e).tobytes() == dense.tobytes()
                dense_checked = True
            flipped, _ = flip(s, e)
            system_b = assemble_system(_flipped_cut(cut, flipped, e))
            sparse = kernel_density(system_b, transition.apply(frame)).log_value
            reference = kernel_density(system_b, dense @ frame).log_value
            assert abs(sparse - reference) <= 4 * math.ulp(reference), (name, e)


def test_transition_adds_a_repeated_column(square_torus):
    # on the torus the quad's sides a and c are one edge, so the new row
    # holds z_e and a doubled (or cancelled) column
    cut = cut_along_forest(square_torus)
    for e in flippable_edges(square_torus):
        transition = _flip_transition(cut, e)
        columns = [col for col, _ in transition.terms]
        assert len(columns) == len(set(columns))
        frame = np.random.default_rng(e).standard_normal((cut.num_edges, 2)) + 0j
        assert np.allclose(transition.apply(frame), transition.dense() @ frame, atol=1e-15)


# ---------------------------------------------------------------------------
# gauge potentials against the kept sweep


def sweep_oracle(cols, coefs, num_columns):
    """The kernel sweep the potentials replace: BFS tree rooted at the last
    row, free columns set to the identity, tree columns solved leaf to root,
    and the rank and S block read off the root row's residuals, over
    {column: coefficient} dicts of the rows.  Returns (basis, free, det_s,
    rank)."""
    entries = [{j: c for j, c in zip(row_cols, row_coefs) if c != 0}
               for row_cols, row_coefs in zip(cols.tolist(), coefs.tolist())]
    num_rows = len(entries)
    ends = [[] for _ in range(num_columns)]
    for i, row in enumerate(entries):
        for j in row:
            ends[j].append(i)
    root = num_rows - 1
    prev = bfs(adjacency(range(num_rows), ((j, a, b) for j, (a, b) in enumerate(ends))), root)
    in_tree = np.zeros(num_columns, dtype=bool)
    in_tree[[link[0] for link in prev.values() if link is not None]] = True
    free = np.flatnonzero(~in_tree)
    m = len(free)
    basis = np.zeros((num_columns, m), dtype=complex)
    acc = np.zeros((num_rows, m), dtype=complex)
    for k, j in enumerate(free.tolist()):
        basis[j, k] = 1.0
        for i in ends[j]:
            acc[i, k] = entries[i][j]
    for row in reversed(list(prev)[1:]):
        col, parent = prev[row]
        x = acc[row] / -entries[row][col]
        basis[col] = x
        acc[parent] += entries[parent][col] * x
    residual = acc[root]
    gaps = np.abs(residual)
    if m == 0 or gaps.max() <= HOLONOMY_GAP_TOL:
        return basis, free, 1.0, num_rows - 1
    k = int(np.argmax(gaps))
    keep = np.arange(m) != k
    basis = basis[:, keep] - np.outer(basis[:, k], residual[keep] / residual[k])
    return basis, free[keep], float(gaps[k]), num_rows


def test_potentials_agree_with_the_sweep(surfaces):
    surfaces = {**surfaces, "genus40_4g_gon": make_regular_4g_gon(40)}
    for name, s in surfaces.items():
        cut, system = chart_for(s)
        charts_to_check = [system]
        edges = flippable_edges(s)
        if edges:  # and one flipped chart, with its derived cut
            edge = edges[len(edges) // 2]
            flipped, _ = flip(s, edge)
            charts_to_check.append(assemble_system(_flipped_cut(cut, flipped, edge)))
        for chart in charts_to_check:
            tree = chart.tree
            basis, free, det_s, rank = sweep_oracle(tree.cols, tree.coefs, tree.shape[1])
            assert tree.free.tolist() == free.tolist(), name
            assert chart.rank == rank, name
            assert tree.det_s == pytest.approx(det_s, rel=1e-12, abs=0), name
            assert chart.kernel_dim == len(free)
            # the basis is the same sweep, read over the kept tree
            assert chart.basis.tobytes() == basis.tobytes(), name
