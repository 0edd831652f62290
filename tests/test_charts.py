import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from conesurf import isomorphic, make_doubled_polygon
from conesurf._graph import kruskal, vertex_edges
from conesurf.charts import (
    HolonomyCheck,
    _tree_kernel,
    assemble_system,
    chart_for,
    cut_along_forest,
    exchange_sequence,
    is_erasing,
    perturb_surface,
    reforest,
    solution_vector,
    spanning_forest,
    surface_from_solution,
    transition_for_flip,
)
from conesurf.errors import (
    DegenerateTriangle,
    GluingMismatch,
    NotErasing,
    NotInKernel,
    NotSameMetric,
    NotSpanningTree,
    PartitionUnrealizable,
    Unsupported,
)
from conesurf.flips import chart_transition, flip, is_flippable, random_flips
from conesurf.volume import tree_change_densities


def exact_rank_pm1(rows):
    """Oracle: exact rank of an integer +-1/0 matrix by Fraction elimination."""
    mat = [[Fraction(int(round(z.real))) for z in row] for row in rows]
    assert all(abs(complex(int(round(z.real))) - z) < 1e-12 for row in rows for z in row)
    n_rows, n_cols = len(mat), len(mat[0])
    rank, col = 0, 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = Fraction(1) / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(n_rows):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


class TestForests:
    def test_spanning_forest_defaults(self, square_torus, doubled_triangle,
                                      doubled_pentagon):
        assert spanning_forest(square_torus) == frozenset()
        tree = spanning_forest(doubled_triangle)
        assert len(tree) == 2 and is_erasing(doubled_triangle, tree)
        tree = spanning_forest(doubled_pentagon)
        assert len(tree) == 4 and is_erasing(doubled_pentagon, tree)
        # oracle: acyclicity of the returned edge set
        seen = {}
        for e in tree:
            a = doubled_pentagon.origin(e)
            b = doubled_pentagon.origin(doubled_pentagon.twin(e))
            ra, rb = seen.get(a, a), seen.get(b, b)
            assert ra != rb or a == b is None
            for k, val in list(seen.items()):
                if val == ra:
                    seen[k] = rb
            seen[a] = rb
            seen[b] = rb

    def test_is_erasing_cases(self, square_torus, doubled_triangle):
        assert is_erasing(square_torus, ())
        assert is_erasing(doubled_triangle, doubled_triangle.forest)
        single = sorted(doubled_triangle.forest)[:1]
        check = is_erasing(doubled_triangle, single)
        assert not check and check.witness is not None
        # the third side closes the tree into a cycle
        assert is_erasing(doubled_triangle, doubled_triangle.forest | {2}) == HolonomyCheck(
            False, ("cycle", 2))

    def test_is_erasing_candidate_differs_from_forest(self, doubled_pentagon):
        # a different spanning tree of the same surface is accepted
        alt = spanning_forest(doubled_pentagon)
        assert alt != doubled_pentagon.forest
        assert is_erasing(doubled_pentagon, alt)

    def test_boundary_rotation_doubled_triangle(self, doubled_triangle):
        values = sorted(abs(doubled_triangle.forest_pairing(e)[0])
                        for e in doubled_triangle.forest)
        assert values == pytest.approx([2 * math.pi / 3] * 2, abs=1e-12)

    def test_boundary_rotation_translation_tree(self, marked_torus):
        (edge,) = marked_torus.forest
        assert marked_torus.forest_pairing(edge)[0] == pytest.approx(0.0, abs=1e-12)

    def test_boundary_rotation_pentagon_two_vertex_subtree(self, doubled_pentagon):
        # the tree is the fold path p0-p1-p2-p3-p4; edge (p2, p3) cuts off two
        # vertices: rotation = 2 * (6 pi / 5) mod 2 pi = 2 pi / 5
        s = doubled_pentagon
        for e in s.forest:
            ends = {s.origin(e), s.origin(s.twin(e))}
            if ends == {2, 3}:
                assert s.forest_pairing(e)[0] == pytest.approx(2 * math.pi / 5, abs=1e-12)
                break
        else:
            pytest.fail("fold edge (p2, p3) not found in the forest")

    def test_no_default_forest_in_positive_genus_with_cone_points(self, genus_one_octagon):
        with pytest.raises(Unsupported, match="pass parts"):
            spanning_forest(genus_one_octagon)

    def test_parts_take_the_breadth_first_tree(self, genus_one_octagon):
        # two erasing trees span vertices 0, 1 and 2, but the part's BFS tree
        # is neither
        s = genus_one_octagon
        assert is_erasing(s, {1, 13}) and is_erasing(s, {2, 12})
        with pytest.raises(NotErasing) as exc:
            spanning_forest(s, parts=[{0, 1, 2}])
        assert exc.value.witness == ("holonomy", 7)

    def test_spanning_forest_partition(self, marked_torus, doubled_pentagon):
        # two one-point parts: no forest edges at all
        assert spanning_forest(marked_torus, parts=[{0}, {1}]) == frozenset()
        # one two-vertex part connected by the radial edge
        tree = spanning_forest(marked_torus, parts=[{0, 1}])
        assert len(tree) == 1
        # vertices 1 and 3 of the pentagon are not adjacent in the skeleton
        with pytest.raises(PartitionUnrealizable):
            spanning_forest(doubled_pentagon, parts=[{1, 3}, {0, 2, 4}])
        with pytest.raises(PartitionUnrealizable, match="^unknown vertex 9$"):
            spanning_forest(doubled_pentagon, parts=[{0, 1}, {9}])


class TestCutSurface:
    def test_counts(self, square_torus, doubled_triangle, doubled_pentagon,
                    octagon_surface):
        cut = cut_along_forest(doubled_triangle)
        assert (cut.num_edges, cut.num_triangles, len(cut.pairings)) == (5, 2, 2)
        cut = cut_along_forest(square_torus)
        assert (cut.num_edges, cut.num_triangles, len(cut.pairings)) == (3, 2, 0)
        cut = cut_along_forest(doubled_pentagon)
        assert cut.num_edges == 13 == 4 * 5 - 7
        assert cut.num_triangles == 6
        assert cut.num_rows == 10 == 3 * 5 - 5
        cut = cut_along_forest(octagon_surface)
        assert (cut.num_edges, cut.num_triangles) == (9, 6)

    def test_pairing_lengths_match(self, doubled_pentagon):
        cut = cut_along_forest(doubled_pentagon)
        s = doubled_pentagon
        for pair in cut.pairings:
            assert abs(s.vec(pair.a)) == pytest.approx(abs(s.vec(pair.abar)), rel=1e-12)
            rot = -cmath.exp(1j * pair.rotation)
            assert abs(s.vec(pair.abar) - rot * s.vec(pair.a)) < 1e-9

    def test_disk_boundary_word_closes(self, doubled_triangle, doubled_pentagon):
        for s in (doubled_triangle, doubled_pentagon):
            cut = cut_along_forest(s)
            total = sum(s.vec(h) for h in cut.boundary)
            assert abs(total) < 1e-12 * max(abs(s.vec(h)) for h in s.halfedges)


class TestSystem:
    def test_kernel_dimensions(self, golden_surfaces):
        expected = {"square_torus": 2, "octagon": 4, "doubled_triangle": 1,
                    "pillowcase": 2, "doubled_pentagon": 3}
        for name, s in golden_surfaces.items():
            _, system = chart_for(s)
            assert system.kernel_dim == expected[name], name

    def test_rank_and_row_counts(self, square_torus, doubled_triangle):
        cut, system = chart_for(square_torus)
        assert (cut.num_rows, system.rank) == (2, 1)
        cut, system = chart_for(doubled_triangle)
        assert (cut.num_rows, system.rank) == (4, 4)

    def test_rank_against_exact_oracle(self, square_torus, octagon_surface):
        for s in (square_torus, octagon_surface):
            _, system = chart_for(s)
            assert system.rank == exact_rank_pm1(system.rows)

    def test_marked_torus_case_two_with_pair(self, marked_torus):
        cut, system = chart_for(marked_torus)
        assert cut.num_edges == 7 and cut.num_rows == 5
        assert system.rank == 4 and system.kernel_dim == 3

    def test_row_normalization(self, golden_surfaces, marked_torus):
        for s in list(golden_surfaces.values()) + [marked_torus]:
            _, system = chart_for(s)
            nonzero = np.abs(system.rows[np.abs(system.rows) > 1e-12])
            assert np.allclose(nonzero, 1.0, atol=1e-12)

    def test_solution_in_kernel(self, golden_surfaces):
        for s in golden_surfaces.values():
            cut, system = chart_for(s)
            z = solution_vector(cut)
            residual = np.linalg.norm(system.rows @ z)
            assert residual <= 1e-10 * np.linalg.norm(system.rows) * np.linalg.norm(z)

    def test_case_two_row_relation(self, square_torus, octagon_surface, marked_torus):
        # all cone angles are full turns: triangle rows minus pair rows sum to zero
        for s in (square_torus, octagon_surface, marked_torus):
            _, system = chart_for(s)
            total = np.zeros(system.rows.shape[1], dtype=complex)
            for row, (kind, _) in zip(system.rows, system.row_kind):
                total += row if kind == "triangle" else -row
            assert np.max(np.abs(total)) < 1e-12

    def test_kernel_deterministic(self, doubled_pentagon):
        _, sys1 = chart_for(doubled_pentagon)
        _, sys2 = chart_for(doubled_pentagon)
        assert sys1.kernel.tobytes() == sys2.kernel.tobytes()

    @pytest.mark.parametrize("cols, coefs", [
        ([0, 0, 1, 1, 2, 2], [1.0, -1.0, 1.0, 1.0, 1.0, -1.0]),  # columns 0 and 2 in one row
        ([0, 1, 2, 0, 1, 0], [1.0, 1.0, 1.0, 1.0, 1.0, 0.0]),  # column 2 in one row only
    ])
    def test_column_must_join_two_rows(self, cols, coefs):
        with pytest.raises(AssertionError, match="does not join two rows"):
            _tree_kernel(cols, coefs, 3)

    def test_row_graph_must_be_connected(self):
        # columns 0 and 1 join rows 0 and 1, columns 2 and 3 rows 2 and 3
        with pytest.raises(AssertionError, match="the row graph is disconnected"):
            _tree_kernel([0, 1, 0, 0, 1, 0, 2, 3, 0, 2, 3, 0],
                         [1, 1, 0, -1, -1, 0, 1, 1, 0, -1, -1, 0], 4)

    def test_chart_dump_round_trip(self, doubled_triangle):
        import json

        _, system = chart_for(doubled_triangle)
        doc = json.loads(system.to_json())
        assert doc["rank"] == system.rank
        assert len(doc["rows"]) == system.rows.shape[0]
        rows = np.array([[complex(float(re), float(im)) for re, im in row]
                         for row in doc["rows"]])
        assert np.array_equal(rows, system.rows)


class TestReconstruction:
    def test_identity(self, golden_surfaces):
        for s in golden_surfaces.values():
            cut, system = chart_for(s)
            rebuilt = surface_from_solution(cut, solution_vector(cut), system)
            assert isomorphic(rebuilt, s) is not None

    def test_scaling(self, square_torus):
        cut, system = chart_for(square_torus)
        doubled = surface_from_solution(cut, 2 * solution_vector(cut), system)
        assert doubled.total_area() == pytest.approx(4.0, rel=1e-12)
        for h in square_torus.halfedges:
            assert abs(doubled.vec(h)) == pytest.approx(2 * abs(square_torus.vec(h)),
                                                        rel=1e-12)

    def test_skewed_torus(self, square_torus):
        cut, system = chart_for(square_torus)
        z = np.array([1.0, 0.1 + 1.0j, -1.1 - 1.0j])
        skewed = surface_from_solution(cut, z, system)
        assert skewed.genus() == 1
        assert skewed.total_area() == pytest.approx(1.0, rel=1e-12)

    def test_not_in_kernel(self, square_torus):
        cut, system = chart_for(square_torus)
        with pytest.raises(NotInKernel):
            surface_from_solution(cut, np.array([1.0, 1.0j, -1 - 1.1j]), system)

    def test_nan_point_is_not_in_kernel(self, square_torus):
        cut, system = chart_for(square_torus)
        with pytest.raises(NotInKernel):
            surface_from_solution(cut, np.array([1.0, 1.0j, complex(np.nan, 0.0)]), system)

    def test_degenerate_triangle(self, square_torus):
        cut, system = chart_for(square_torus)
        with pytest.raises(DegenerateTriangle):
            surface_from_solution(cut, np.array([1.0, -2.0j, -1 + 2.0j]), system)

    def test_perturbations_stay_valid(self, golden_surfaces, rng):
        for s in golden_surfaces.values():
            _, system = chart_for(s)
            for _ in range(20):
                p = perturb_surface(s, rng, system=system)
                assert p.genus() == s.genus()
                assert p.forest == s.forest


class TestTransitions:
    def test_identity_transition(self, doubled_pentagon):
        n = cut_along_forest(doubled_pentagon).num_edges
        mat = chart_transition(doubled_pentagon, doubled_pentagon) @ np.eye(n)
        assert np.allclose(mat, np.eye(mat.shape[0]), atol=1e-12)
        walked, _ = random_flips(doubled_pentagon, 10, np.random.default_rng(0))
        mat = chart_transition(walked, walked) @ np.eye(n)
        assert np.array_equal(mat, np.eye(mat.shape[0]))

    def test_flip_transition_agrees_on_kernel(self, square_torus, doubled_pentagon):
        for s in (square_torus, doubled_pentagon):
            edges = [e for e in s.edges() if e not in s.forest and is_flippable(s, e)]
            edge = edges[0]
            flipped, _ = flip(s, edge)
            direct = chart_transition(s, flipped)
            quad_form = transition_for_flip(s, edge)
            _, system = chart_for(s)
            assert np.allclose(direct @ system.kernel, quad_form @ system.kernel,
                               atol=1e-10)

    def test_flip_transition_unimodular_on_kernel(self, square_torus):
        edge = 2
        flipped, _ = flip(square_torus, edge)
        mat = transition_for_flip(square_torus, edge)
        _, sys_a = chart_for(square_torus)
        _, sys_b = chart_for(flipped)
        image = mat @ sys_a.kernel
        coeff = np.linalg.lstsq(sys_b.kernel, image, rcond=None)[0]
        assert abs(abs(np.linalg.det(coeff)) - 1.0) < 1e-10
        assert np.allclose(sys_b.kernel @ coeff, image, atol=1e-10)

    def test_two_flip_composition(self, doubled_pentagon):
        s = doubled_pentagon
        edges = [e for e in s.edges() if e not in s.forest and is_flippable(s, e)]
        e1 = edges[0]
        s1, _ = flip(s, e1)
        edges1 = [e for e in s1.edges() if e not in s1.forest and is_flippable(s1, e)
                  and e != e1]
        e2 = edges1[0]
        s2, _ = flip(s1, e2)
        eye = np.eye(cut_along_forest(s).num_edges)
        l1 = chart_transition(s, s1) @ eye
        l2 = chart_transition(s1, s2) @ eye
        direct = chart_transition(s, s2) @ eye
        _, system = chart_for(s)
        assert np.max(np.abs((direct - l2 @ l1) @ system.kernel)) < 1e-10

    def test_skew_torus_is_the_square_lattice(self, square_torus, skew_torus):
        # (1, 2+i) generates the square lattice, so the transition exists and
        # carries source coordinates to target coordinates
        mat = chart_transition(square_torus, skew_torus)
        z_s = solution_vector(cut_along_forest(square_torus))
        z_t = solution_vector(cut_along_forest(skew_torus))
        assert np.allclose(mat @ z_s, z_t, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_scrambles_without_a_forest_anchor(self, octagon_surface, seed):
        # the octagon's one vertex (cone angle 6*pi) has no forest edge; the
        # transition must equal the product of the flip transitions of the walk
        s = octagon_surface
        target, walk = random_flips(s, 10, np.random.default_rng(seed))
        expected = np.eye(cut_along_forest(s).num_edges)
        current = s
        for move in walk:
            expected = transition_for_flip(current, move.edge) @ expected
            current, _ = flip(current, move.edge)
        _, system = chart_for(s)
        direct = chart_transition(s, target) @ np.eye(len(expected))
        assert np.max(np.abs((direct - expected) @ system.kernel)) < 1e-10

    def test_octagon_single_flips(self, octagon_surface):
        s = octagon_surface
        _, system = chart_for(s)
        eye = np.eye(len(system.kernel))
        for edge in [e for e in s.edges() if is_flippable(s, e)]:
            flipped, _ = flip(s, edge)
            direct = chart_transition(s, flipped) @ eye
            assert np.max(np.abs((direct - transition_for_flip(s, edge) @ eye)
                                 @ system.kernel)) < 1e-10

    def test_transition_rejects_different_metric(self, square_torus):
        from conesurf import make_torus

        other = make_torus(1, 0.5 + 1j)  # genuinely another flat torus
        with pytest.raises(NotSameMetric):
            chart_transition(square_torus, other)


class TestTreeExchange:
    def test_exchange_sequence_identity(self, doubled_pentagon):
        assert exchange_sequence(doubled_pentagon, doubled_pentagon.forest,
                                 doubled_pentagon.forest) == []

    def test_exchange_single_edge(self, doubled_pentagon):
        s = doubled_pentagon
        alt = spanning_forest(s)  # the breadth-first tree is the star at p0
        moves = exchange_sequence(s, s.forest, alt)
        assert len(moves) == len(alt - s.forest)
        current = set(s.forest)
        for out, into in moves:
            assert out in current and into not in current
            current.discard(out)
            current.add(into)
            assert len(current) == 4
            # oracle: acyclicity at every intermediate step
            parent = {}

            def find(x):
                while parent.get(x, x) != x:
                    x = parent[x]
                return x

            for e in current:
                a = find(s.origin(e))
                b = find(s.origin(s.twin(e)))
                assert a != b
                parent[a] = b
        assert current == set(alt)

    def test_single_exchange_maps_solution(self, doubled_pentagon):
        s = doubled_pentagon
        alt = spanning_forest(s)
        out, into = exchange_sequence(s, s.forest, alt)[0]
        result, mat, moves = reforest(s, (s.forest - {out}) | {into})
        assert moves == [(out, into)]
        z_old = solution_vector(cut_along_forest(s))
        z_new = solution_vector(cut_along_forest(result))
        assert np.allclose(mat @ z_old, z_new, atol=1e-12)
        assert result.total_area() == pytest.approx(s.total_area(), rel=1e-12)
        # each new column is a unit-modulus multiple of one old column
        assert not mat.sums
        assert np.allclose(np.abs(mat.scale), 1.0, atol=1e-12)

    def test_reforest_full(self, doubled_pentagon):
        alt = spanning_forest(doubled_pentagon)
        result, mat, moves = reforest(doubled_pentagon, alt)
        assert result.forest == frozenset(alt)
        z_old = solution_vector(cut_along_forest(doubled_pentagon))
        z_new = solution_vector(cut_along_forest(result))
        assert np.allclose(mat @ z_old, z_new, atol=1e-12)

    def test_invalid_exchange(self, doubled_pentagon):
        s = doubled_pentagon
        non_forest = [e for e in s.edges() if e not in s.forest]
        with pytest.raises(NotSpanningTree):
            reforest(s, (s.forest - {non_forest[0]}) | {non_forest[1]})
        # four edges over all five vertices, but the triangle p0 p1 p2 and a
        # separate edge p3 p4: the right count with a cycle
        assert {(s.origin(e), s.head(e)) for e in (0, 1, 2, 7)} == {
            (0, 1), (1, 2), (2, 0), (3, 4)}
        with pytest.raises(NotSpanningTree):
            reforest(s, {0, 1, 2, 7})
        # one forest edge is a tree, but on two of the five vertices
        with pytest.raises(NotSpanningTree, match="^trees span different vertex sets$"):
            reforest(s, {min(s.forest)})

    def test_genus_one_targets(self, genus_one_octagon):
        # a tree through the diagonal to one tip leaves that tip's quarter-turn
        # gluing in its complement
        s = genus_one_octagon
        assert s.genus() == 1 and not is_erasing(s, {2, 13}) and not is_erasing(s, {1, 12})
        with pytest.raises(GluingMismatch):
            reforest(s, {2, 13})
        # both trees one exchange away are not erasing, but the target is
        result, mat, moves = reforest(s, {2, 12})
        assert len(moves) == 2 and result.forest == {2, 12}
        z_old = solution_vector(cut_along_forest(s))
        z_new = solution_vector(cut_along_forest(result))
        assert np.max(np.abs(mat @ z_old - z_new)) < 1e-12
        _, _, ratio = tree_change_densities(s, s.forest, {2, 12})
        assert abs(ratio - 1.0) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(gaps=st.lists(st.integers(1, 4), min_size=4, max_size=12),
           aspect=st.floats(0.5, 1.0), turn=st.floats(0.0, 2 * math.pi),
           data=st.data())
    def test_random_tree_on_convex_polygon(self, gaps, aspect, turn, data):
        # points on an ellipse in ccw order form a strictly convex polygon
        angles = 2 * math.pi * np.cumsum(gaps) / sum(gaps)
        rot = cmath.exp(1j * turn)
        s = make_doubled_polygon([rot * complex(math.cos(a), aspect * math.sin(a))
                                  for a in angles])
        # every spanning tree is erasing in genus 0
        edges = data.draw(st.permutations(sorted(s.edges())))
        tree, _ = kruskal(s.vertex_ids, vertex_edges(s, edges))
        result, mat, _ = reforest(s, tree)
        assert result.forest == frozenset(tree)
        z_old = solution_vector(cut_along_forest(s))
        z_new = solution_vector(cut_along_forest(result))
        assert np.max(np.abs(mat @ z_old - z_new)) < 1e-12
        _, _, ratio = tree_change_densities(s, s.forest, tree)
        assert abs(ratio - 1.0) < 1e-9
