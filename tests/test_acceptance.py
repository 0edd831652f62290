"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import cmath
import math
import time

import numpy as np
import pytest

from conesurf import isomorphic, make_doubled_polygon, make_regular_4g_gon, make_torus
from conesurf.charts import chart_for, perturb_surface, spanning_forest
from conesurf.flips import (
    delaunay,
    flip,
    flip_path,
    is_delaunay_edge,
    is_flippable,
    random_flips,
)
from conesurf.hyperbolic import (
    area_form,
    genus_zero_chart,
    hyperbolic_density,
    quadric_value,
    ratio_scan,
    reference_frame,
)
from conesurf.volume import (
    flip_density_pair,
    period_density_ratio,
    primitive_family,
    split_constant,
    tree_change_densities,
)

TWO_PI = 2 * math.pi


def goldens():
    return {
        "square_torus": make_torus(1, 1j),
        "octagon": make_regular_4g_gon(2),
        "doubled_triangle": make_doubled_polygon([0, 1, cmath.exp(1j * math.pi / 3)]),
        "pillowcase": make_doubled_polygon([0, 1, 1 + 1j, 1j]),
        "doubled_pentagon": make_doubled_polygon(
            [cmath.exp(2j * math.pi * k / 5) for k in range(5)]),
    }


def report(number, label, ok, started, budget):
    elapsed = time.perf_counter() - started
    print(f"criterion {number:2d} [{label}]: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {number} failed"
    assert elapsed < budget, f"criterion {number} exceeded its time budget"


def test_criterion_1_dimension_formula():
    started = time.perf_counter()
    expected = {"square_torus": 2, "octagon": 4, "doubled_triangle": 1,
                "pillowcase": 2, "doubled_pentagon": 3}
    ok = True
    for name, surface in goldens().items():
        _, system = chart_for(surface)
        ok = ok and system.kernel_dim == expected[name]
        g, n = surface.genus(), len(surface.vertex_ids)
        full_turns = all(
            abs(surface.cone_angle(v) / TWO_PI - round(surface.cone_angle(v) / TWO_PI))
            < 1e-9 for v in surface.vertex_ids)
        formula = 2 * g + n - 1 if full_turns else 2 * g + n - 2
        ok = ok and system.kernel_dim == formula
    report(1, "dimension formula", ok, started, 1.0)


def test_criterion_2_residuals():
    started = time.perf_counter()
    ok = True
    rng = np.random.default_rng(2026)

    def residuals(s):
        closure = max(
            abs(s.vec(h1) + s.vec(h2) + s.vec(h3)) for h1, h2, h3 in s.triangles.values())
        total = sum(s.cone_angle(v) for v in s.vertex_ids)
        expected = TWO_PI * (2 * s.genus() + len(s.vertex_ids) - 2)
        return closure, abs(total - expected)

    for surface in goldens().values():
        closure, gb = residuals(surface)
        ok = ok and closure < 1e-9 and gb < 1e-9
        _, system = chart_for(surface)
        for _ in range(100):
            sample = perturb_surface(surface, rng, system=system)
            closure, gb = residuals(sample)
            ok = ok and closure < 1e-9 and gb < 1e-9
    report(2, "gauss-bonnet and closure residuals", ok, started, 1.0)


def test_criterion_3_flip_invariance():
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    ok = True
    for surface in goldens().values():
        for _ in range(20):
            candidates = [e for e in surface.edges()
                          if e not in surface.forest and is_flippable(surface, e)]
            edge = candidates[rng.integers(len(candidates))]
            before, after = flip_density_pair(surface, edge)
            ok = ok and abs(after.value / before.value - 1.0) < 1e-9
    report(3, "flip invariance of the kernel density", ok, started, 10.0)


def test_criterion_4_tree_change_invariance():
    started = time.perf_counter()
    pentagon = goldens()["doubled_pentagon"]
    path = sorted(pentagon.forest)
    star = sorted(spanning_forest(pentagon))
    mixed = star[:2] + path[2:]
    ok = True
    for tree_a, tree_b in ((path, star), (path, mixed), (star, mixed)):
        _, _, ratio = tree_change_densities(pentagon, tree_a, tree_b)
        ok = ok and abs(ratio - 1.0) < 1e-9
    report(4, "tree-change invariance", ok, started, 5.0)


def test_criterion_5_split_constant():
    started = time.perf_counter()
    ok = True
    for name in ("doubled_triangle", "doubled_pentagon"):
        surface = goldens()[name]
        cut, _ = chart_for(surface)
        constants = [split_constant(cut, e)
                     for e in surface.edges() if e not in surface.forest]
        spread = (max(constants) - min(constants)) / abs(min(constants))
        ok = ok and spread < 1e-10
    report(5, "split-edge constant independent of the edge", ok, started, 5.0)


def test_criterion_6_period_comparison():
    started = time.perf_counter()
    rng = np.random.default_rng(6)
    ok = True
    for name in ("square_torus", "octagon"):
        surface = goldens()[name]
        ratios, _ = period_density_ratio(surface, samples=10, rng=rng)
        spread = (max(ratios) - min(ratios)) / abs(min(ratios))
        ok = ok and spread < 1e-8
        flippable = [e for e in sorted(set(surface.edges()) - set(primitive_family(surface)))
                     if is_flippable(surface, e)]
        flipped, _ = flip(surface, flippable[0])
        after, _ = period_density_ratio(flipped, samples=1, rng=rng)
        ok = ok and abs(after[0] / ratios[0] - 1.0) < 1e-8
    report(6, "period-coordinate comparison", ok, started, 10.0)


def test_criterion_7_flip_paths():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    ok = True
    for name in ("square_torus", "pillowcase"):
        surface = goldens()[name]
        for _ in range(20):
            scrambled, _ = random_flips(surface, 10, rng)
            path = flip_path(surface, scrambled)
            ok = ok and isomorphic(path.replay(surface), scrambled) is not None
    pentagon = goldens()["doubled_pentagon"]
    for _ in range(10):
        scrambled, _ = random_flips(pentagon, 10, rng)
        path = flip_path(pentagon, scrambled)
        ok = ok and isomorphic(path.replay(pentagon), scrambled) is not None
    report(7, "flip paths replay to canonical equality", ok, started, 60.0)


def test_criterion_8_delaunay():
    started = time.perf_counter()
    rng = np.random.default_rng(8)
    ok = True
    for surface in goldens().values():
        result, _ = delaunay(surface)
        ok = ok and all(is_delaunay_edge(result, e) for e in result.edges())
        _, system = chart_for(surface)
        for _ in range(50):
            sample = perturb_surface(surface, rng, system=system)
            result, _ = delaunay(sample)
            ok = ok and all(is_delaunay_edge(result, e) for e in result.edges())
    report(8, "delaunay predicate after canonicalization", ok, started, 30.0)


def test_criterion_9_hyperbolic_comparison():
    started = time.perf_counter()
    rng = np.random.default_rng(9)
    ok = True
    # (a) Gram determinant identity on the closed-form frame, n = 5
    for _ in range(6):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        z[-1] = cmath.exp(1j * rng.uniform(0, TWO_PI)) * math.sqrt(
            1.0 + float(np.sum(np.abs(z[:-1]) ** 2)))
        assert abs(quadric_value(z) + 1) < 1e-9
        value = hyperbolic_density(z, reference_frame(z))
        ok = ok and abs(value / abs(z[-1]) ** 2 - 1.0) < 1e-9
    # (b) constancy of the density ratio over samples and across two charts
    pentagon = goldens()["doubled_pentagon"]
    chart_a = genus_zero_chart(pentagon)
    scan_a = ratio_scan(chart_a, 50, rng)
    ok = ok and scan_a.passed
    leaves = [v for v in pentagon.vertex_ids if v != chart_a.excluded_vertex]
    chart_b = genus_zero_chart(pentagon, excluded_vertex=min(leaves))
    scan_b = ratio_scan(chart_b, 10, rng)
    ok = ok and scan_b.passed
    ok = ok and abs(scan_b.ratios[0] / scan_a.ratios[0] - 1.0) < 1e-6
    report(9, "hyperbolic volume comparison", ok, started, 60.0)


def test_criterion_10_signatures():
    started = time.perf_counter()
    g = goldens()
    sig_pillow = area_form(genus_zero_chart(g["pillowcase"])).signature
    sig_pent = area_form(genus_zero_chart(g["doubled_pentagon"])).signature
    ok = sig_pillow == (1, 1) and sig_pent == (1, 2)
    report(10, "area-form signatures", ok, started, 1.0)
