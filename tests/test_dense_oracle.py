"""The spanning-tree chart against an independent dense computation.

The rank comes from a dense SVD, the kernel from its right singular vectors,
and the density from the Gram-determinant ratio det(F* F) / det(B B*) taken
from two thin QRs.  The tree sweep must agree on the rank exactly, on the
kernel span, and on log densities to 1e-10, on the kernel frame and on a
random frame."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from conesurf import make_doubled_polygon, make_regular_4g_gon
from conesurf.charts import (
    BoundaryPair,
    assemble_system,
    chart_fingerprint,
    chart_for,
    cut_along_forest,
)
from conesurf.errors import DimensionMismatch
from conesurf.volume import kernel_density, split_edge_system

ORACLE_RANK_TOL = 1e-8  # singular values below ORACLE_RANK_TOL * s_max are zero
LOG_TOL = 1e-10


def oracle_rank_and_kernel(rows):
    """Numeric rank and an orthonormal kernel basis from a dense SVD."""
    _, s, vh = np.linalg.svd(rows)
    rank = int(np.sum(s > ORACLE_RANK_TOL * s[0]))
    return rank, vh[rank:].conj().T


def log_gram_det(mat):
    """log det(M* M), from the diagonal of a thin QR of M."""
    r = np.linalg.qr(mat, mode="r")
    return 2.0 * float(np.sum(np.log(np.abs(np.diagonal(r)))))


def oracle_log_density(system, frame):
    """log det(F* F) / det(B B*), B the rows at full rank and the rows without
    the last one in rank deficiency one."""
    rows = system.rows
    image_rows = rows if system.rank == rows.shape[0] else rows[:-1]
    return log_gram_det(frame) - log_gram_det(image_rows.conj().T)


def doubled_regular(k):
    return make_doubled_polygon([cmath.exp(2j * math.pi * j / k) for j in range(k)])


SURFACES = {
    "genus5_4g_gon": lambda: make_regular_4g_gon(5),
    "doubled_12_gon": lambda: doubled_regular(12),
    "doubled_80_gon": lambda: doubled_regular(80),
    "doubled_160_gon": lambda: doubled_regular(160),
}
FIXTURES = ("square_torus", "octagon_surface", "doubled_triangle", "pillowcase",
            "doubled_pentagon", "marked_torus", "skew_torus")


def check_against_oracle(system, rng):
    rows = system.rows
    rank, null = oracle_rank_and_kernel(rows)
    assert system.rank == rank
    kernel = system.kernel
    d = kernel.shape[1]
    assert d == null.shape[1]
    assert np.linalg.norm(rows @ kernel) <= 1e-10 * np.linalg.norm(rows)
    assert np.max(np.abs(kernel.conj().T @ kernel - np.eye(d))) < 1e-12
    assert np.max(np.abs(kernel @ kernel.conj().T - null @ null.conj().T)) < 1e-10
    mixer = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    for frame in (kernel, kernel @ mixer):
        log_value = kernel_density(system, frame).log_value
        assert abs(log_value - oracle_log_density(system, frame)) <= LOG_TOL


@pytest.mark.parametrize("name", FIXTURES)
def test_goldens_and_tori(request, rng, name):
    _, system = chart_for(request.getfixturevalue(name))
    check_against_oracle(system, rng)


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_size_ladder(rng, name):
    _, system = chart_for(SURFACES[name]())
    check_against_oracle(system, rng)


@pytest.mark.parametrize("name", ["square_torus", "octagon_surface", "doubled_triangle",
                                  "doubled_pentagon", "marked_torus"])
def test_split_systems(request, rng, name):
    s = request.getfixturevalue(name)
    cut = cut_along_forest(s)
    for e in sorted(s.edges()):
        if e not in s.forest:
            check_against_oracle(split_edge_system(cut, e), rng)


def assemble_rows(cut):
    """The dense rows of a cut, filled independently of ``assemble_system``."""
    rows = np.zeros((cut.num_rows, cut.num_edges), dtype=complex)
    for r, tid in enumerate(sorted(cut.surface.triangles)):
        for h in cut.surface.triangle(tid):
            col, sign = cut.column_of(h)
            rows[r, col] += sign
    for r, pair in enumerate(cut.pairings, start=len(cut.surface.triangles)):
        rows[r, cut.column_of(pair.a)[0]] += cmath.exp(1j * pair.rotation)
        rows[r, cut.column_of(pair.abar)[0]] += 1.0
    return rows


def test_rank_disagreeing_with_the_prediction_is_refused(marked_torus):
    # the marked torus is a translation surface: a rotated slit gives its one
    # boundary pair a nontrivial holonomy, so the rows reach full rank
    cut = cut_along_forest(marked_torus)
    (pair,) = cut.pairings
    twisted = replace(cut, pairings=(BoundaryPair(pair.a, pair.abar, 0.5, pair.edge),))
    assert oracle_rank_and_kernel(assemble_rows(twisted))[0] == twisted.num_rows
    with pytest.raises(DimensionMismatch):
        assemble_system(twisted)


@pytest.mark.parametrize("name", ["marked_torus", "doubled_triangle"])
def test_nan_rotation_is_refused(request, name):
    # a NaN gap is not within HOLONOMY_GAP_TOL, and a NaN residual fails its
    # check, in both rank cases
    cut = cut_along_forest(request.getfixturevalue(name))
    pair = cut.pairings[0]
    broken = replace(cut, pairings=(BoundaryPair(pair.a, pair.abar, math.nan, pair.edge),)
                     + cut.pairings[1:])
    with pytest.raises(DimensionMismatch):
        assemble_system(broken)


GOLDEN_FINGERPRINTS = {
    "square_torus": "dc672083772a7f2b",
    "octagon": "9cf68d0bee6d8408",
    "doubled_triangle": "60484cc0faddcf1a",
    "pillowcase": "61f2b4e82c7ffd36",
    "doubled_pentagon": "633977d9073771a0",
}


def test_rows_are_filled_as_before(golden_surfaces, marked_torus):
    """The dense rows read from the sparse entries equal an independent
    dense fill byte for byte, on charts and on every split system."""
    larger = [SURFACES["doubled_80_gon"](), SURFACES["genus5_4g_gon"]()]
    for s in list(golden_surfaces.values()) + [marked_torus] + larger:
        cut, system = chart_for(s)
        assert system.rows.tobytes() == assemble_rows(cut).tobytes()
        assert system.fingerprint() == chart_fingerprint(assemble_rows(cut))
    for s in golden_surfaces.values():
        cut = cut_along_forest(s)
        for e in sorted(s.edges()):
            if e not in s.forest:
                split = split_edge_system(cut, e)
                assert split.rows.tobytes() == assemble_rows(split.cut).tobytes()


def test_golden_fingerprints(golden_surfaces):
    for name, s in golden_surfaces.items():
        _, system = chart_for(s)
        assert system.fingerprint() == GOLDEN_FINGERPRINTS[name]
        assert kernel_density(system, system.kernel).fingerprint == GOLDEN_FINGERPRINTS[name]
