"""Size ladder for the traced run.

Times single layers on doubled regular k-gons and regular 4g-gons of three
sizes each and fits the log-log slope of each layer's median time against the
triangle count.  The slopes make the complexity targets visible.  On a
2-vCPU x86_64 VM they read about 1 for a flip that rebuilds the surface (0
once flips are O(1)), about 2 for Delaunay, whose flips grow with N and each
rescan all edges (1 with a worklist), and about 2 for the dense chart and
density at these sizes (less with sparse elimination).
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from conesurf import make_regular_4g_gon
from conesurf.charts import assemble_system, cut_along_forest, perturb_surface
from conesurf.flips import delaunay, flip
from conesurf.surface import build_surface
from conesurf.volume import kernel_density

from spans import Tracer
from workloads import doubled_regular, flip_candidates, rng_for

RUNGS = {"full": ((20, 40, 80), (10, 20, 40)), "tiny": ((6, 8, 10), (2, 3, 4))}
REPS = 3
EXP_LAYERS = ("surface.build", "charts.assemble", "volume.kernel_density",
              "flips.flip", "flips.delaunay")


def _measure(tr, surface, seed):
    n = len(surface.triangles)
    rng = rng_for(seed, 2, n)
    spec = surface.to_spec()
    edges = flip_candidates(surface)
    # the perturbed fan triangulation needs a number of Delaunay flips that
    # grows with n (the regular polygon itself is cocircular and needs none)
    perturbed = perturb_surface(surface, rng)
    cut = cut_along_forest(surface)
    tr.op = n
    for _ in range(REPS):
        with tr.span("surface.build"):
            build_surface(spec)
        with tr.span("charts.assemble"):
            system = assemble_system(cut)
        with tr.span("volume.kernel_density"):
            kernel_density(system, system.kernel)
        with tr.span("flips.flip"):
            flip(surface, edges[rng.integers(len(edges))])
        with tr.span("flips.delaunay"):
            delaunay(perturbed)


def run_ladder(seed, size):
    """Returns ({"<layer>.exp": slope}, {layer: [[triangles, median s], ...]})."""
    sides, genera = RUNGS[size]
    tr = Tracer()
    for k in sides:
        _measure(tr, doubled_regular(k), seed)
    for g in genera:
        _measure(tr, make_regular_4g_gon(g), seed)
    samples = {}
    for name, n, dur, _ in tr.durations():
        samples.setdefault(name, {}).setdefault(n, []).append(dur)
    points = {name: sorted([n, statistics.median(durs)] for n, durs in by_n.items())
              for name, by_n in samples.items()}
    exps = {}
    for name in EXP_LAYERS:
        x = [math.log(n) for n, _ in points[name]]
        y = [math.log(t) for _, t in points[name]]
        exps[f"{name}.exp"] = float(np.polyfit(x, y, 1)[0])
    return exps, points
