"""The three benchmark workloads.

Each workload generates its inputs from the seed during ``setup`` and then
runs numbered ops.  ``plain(k)`` is op k as a user runs it; ``traced(k, tr)``
is the same op re-expressed as the public library calls it makes, with a
span around each call.  ``check`` classifies an op's output as ``ok``,
``known`` (a known library defect, kept in the workload and counted) or
``failed``.  Ops are deterministic for a given seed.

A workload also sets ``cycle``, the ops in one round of its fixed mix (runs
end only after whole rounds), ``count_window``, the first ops over which
counts are taken so that they repeat for a seed, and ``LINALG_SHARE``, its
share of time in LAPACK, which weighs the speed calibration in run.py.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import math
import os
import sys

import numpy as np

from conesurf import cli, make_doubled_polygon, make_regular_4g_gon, make_torus
from conesurf.charts import (
    assemble_system,
    cut_along_forest,
    perturb_surface,
    reforest,
    spanning_forest,
    transition_for_flip,
)
from conesurf.errors import (
    ConesurfError,
    FrameNotTangent,
    MetricNotPositive,
    PointNotOnQ1,
)
from conesurf.flips import (
    delaunay,
    delaunay_angle_sum,
    flip,
    flip_path,
    has_half_turn_holonomy,
    insert_segment,
    is_delaunay_edge,
    is_flippable,
    random_flips,
)
from conesurf.hyperbolic import (
    area_form,
    area_of_solution,
    genus_zero_chart,
    hyperbolic_density,
    min_triangle_area_of_solution,
    normalize_form,
    quadric_value,
    tangent_frame,
    unit_area_density,
)
from conesurf.surface import SurfaceSpec, build_surface, isomorphic, save_surface
from conesurf.volume import flip_density_pair, kernel_density, primitive_family

# same tolerance as ``conesurf check-flip-invariance``
FLIP_RATIO_TOL = 1e-9


def rng_for(seed, *key):
    """Generator for one purpose: keys starting with 0 are set-up, (1, k)
    is op k and (2, n) the ladder rung with n triangles."""
    return np.random.default_rng([seed, *key])


def doubled_regular(k):
    return make_doubled_polygon([cmath.exp(2j * math.pi * j / k) for j in range(k)])


def flip_candidates(surface):
    return [e for e in surface.edges() if e not in surface.forest and is_flippable(surface, e)]


def is_normal(x):
    return math.isfinite(x) and x >= sys.float_info.min


# ---------------------------------------------------------------------------
# traced forms of library calls shared by the workloads


def t_chart(tr, surface):
    """``chart_for``: cut, then assemble."""
    with tr.span("charts.cut"):
        cut = cut_along_forest(surface)
    return cut, t_assemble(tr, cut)


def t_assemble(tr, cut):
    with tr.span("charts.assemble"):
        system = assemble_system(cut)
    tr.note("assemble.rows", system.rows.shape[0])
    tr.note("assemble.columns", system.rows.shape[1])
    return system


def t_density(tr, system, frame):
    with tr.span("volume.kernel_density"):
        report = kernel_density(system, frame)
    tr.note("density", report.value)
    return report


def t_flip(tr, surface, edge):
    with tr.span("flips.flip"):
        result = flip(surface, edge)
    tr.note("flips", 1)
    return result


def t_flip_density_pair(tr, surface, edge):
    """``volume.flip_density_pair`` with the chart's own kernel as frame."""
    _, system = t_chart(tr, surface)
    frame = system.kernel
    with tr.span("charts.transition"):
        transition = transition_for_flip(surface, edge)
    flipped, _ = t_flip(tr, surface, edge)
    _, system_b = t_chart(tr, flipped)
    report_a = t_density(tr, system, frame)
    report_b = t_density(tr, system_b, transition @ frame)
    return report_a, report_b


def t_delaunay(tr, surface):
    violations = sum(1 for e in surface.edges()
                     if e not in surface.forest and not is_delaunay_edge(surface, e))
    with tr.span("flips.delaunay"):
        result, path = delaunay(surface)
    tr.note("delaunay.violations", violations)
    tr.note("delaunay.flips", len(path))
    tr.note("flips", len(path))
    return result, path


def t_replay(tr, path, surface):
    """``FlipPath.replay``: one flip per move."""
    with tr.span("flips.replay"):
        for move in path:
            surface, _ = t_flip(tr, surface, move.edge)
    return surface


def t_isomorphic(tr, s1, s2):
    with tr.span("surface.isomorphic"):
        return isomorphic(s1, s2)


def t_load(tr, path):
    """``load_surface``: parse, then build."""
    with tr.span("surface.load"):
        with open(path, "r", encoding="utf-8") as fh:
            spec = SurfaceSpec.from_json(fh.read())
        with tr.span("surface.build"):
            return build_surface(spec)


def t_save(tr, surface, path):
    with tr.span("surface.save"):
        save_surface(surface, path)


# ---------------------------------------------------------------------------
# chart-density


class ChartDensity:
    """One ``check-flip-invariance`` move per op, alternating a full-rank
    input (doubled regular polygon) with a rank-deficient one (regular
    4g-gon translation surface)."""

    name = "chart-density"
    cycle = 2
    # share of op time in LAPACK calls (svd, lstsq, det), from a profile
    LINALG_SHARE = 0.5
    count_window = 8
    SIZES = {"full": (80, 40), "tiny": (8, 2)}

    def setup(self, seed, size, workdir):
        k, g = self.SIZES[size]
        self.seed = seed
        self.inputs = [doubled_regular(k), make_regular_4g_gon(g)]
        self.candidates = [flip_candidates(s) for s in self.inputs]

    def _input(self, k):
        i = k % 2
        edges = self.candidates[i]
        return self.inputs[i], edges[rng_for(self.seed, 1, k).integers(len(edges))]

    def plain(self, k):
        return flip_density_pair(*self._input(k))

    def traced(self, k, tr):
        return t_flip_density_pair(tr, *self._input(k))

    def check(self, k, result):
        a, b = result
        ok = (is_normal(a.value) and is_normal(b.value)
              and abs(b.value / a.value - 1.0) < FLIP_RATIO_TOL)
        return "ok" if ok else "failed"


# ---------------------------------------------------------------------------
# flip-walk


class FlipWalk:
    """Scramble a Delaunay triangulation by random flips and recover it:
    ``random_flips``, ``delaunay``, ``flip_path``, ``replay``, ``isomorphic``."""

    name = "flip-walk"
    cycle = 1
    LINALG_SHARE = 0.0
    count_window = 4
    SIZES = {"full": (48, 48), "tiny": (10, 6)}
    # Every Delaunay decision on the base sits this far outside the cocircular
    # band, so the Delaunay triangulation is unique and the walk must recover
    # the base exactly.  A perturbation that misses it is redrawn: nearly
    # cocircular inputs are a robustness question, not this workload's.
    MIN_COCIRCULAR_MARGIN = 1e-6

    def setup(self, seed, size, workdir):
        sides, self.walk = self.SIZES[size]
        regular = doubled_regular(sides)
        for attempt in range(100):
            self.base, _ = delaunay(perturb_surface(regular, rng_for(seed, 0, attempt)))
            margin = min(abs(delaunay_angle_sum(self.base, e) - math.pi)
                         for e in self.base.edges() if e not in self.base.forest)
            if margin >= self.MIN_COCIRCULAR_MARGIN:
                break
        else:
            raise RuntimeError("no perturbation without a nearly cocircular quad")
        self.seed = seed

    def plain(self, k):
        scrambled, _ = random_flips(self.base, self.walk, rng_for(self.seed, 1, k))
        result, _ = delaunay(scrambled)
        path = flip_path(scrambled, self.base)
        replayed = path.replay(scrambled)
        return result, isomorphic(replayed, self.base)

    def traced(self, k, tr):
        with tr.span("flips.random_flips"):
            scrambled, walk = random_flips(self.base, self.walk, rng_for(self.seed, 1, k))
        tr.note("flips", len(walk))
        tr.note("random_flips.len", len(walk))
        result, _ = t_delaunay(tr, scrambled)
        with tr.span("flips.flip_path"):
            path = flip_path(scrambled, self.base)
        tr.note("flips", len(path))
        tr.note("flip_path.len", len(path))
        replayed = t_replay(tr, path, scrambled)
        return result, t_isomorphic(tr, replayed, self.base)

    def check(self, k, result):
        surface, replay_map = result
        ok = (replay_map is not None
              and all(is_delaunay_edge(surface, e) for e in surface.edges())
              and isomorphic(surface, self.base) is not None)
        return "ok" if ok else "failed"


# ---------------------------------------------------------------------------
# desk-cli


def run_cli(argv):
    """One in-process ``conesurf`` call; returns (exit status, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            status = exc.code
    return status, buf.getvalue()


def _record(key, value):
    """A record line as ``conesurf`` prints it."""
    if isinstance(value, float):
        value = repr(float(value))
    return f"{key} = {value}"


class CliOp:
    """One verb on one input: its argv, whether it ends in PASS/FAIL, and its
    re-expression as library calls.  ``reexpress(tr)`` returns records that
    the verb's stdout must contain, so a stale re-expression fails the op."""

    def __init__(self, label, argv, reexpress, is_check=False, known_error=None):
        self.label = label
        self.argv = argv
        self.reexpress = reexpress
        self.is_check = is_check
        self.known_error = known_error


def _surface_report(surface):
    """The library queries behind ``_surface_report`` in the CLI."""
    for v in surface.vertex_ids:
        surface.cone_angle(v)
    return [("genus", surface.genus()), ("area", surface.total_area())]


def _reexpress_density(tr, path):
    """``chart_for`` and ``kernel_density`` as in ``conesurf density``."""
    _, system = t_chart(tr, t_load(tr, path))
    report = t_density(tr, system, system.kernel)
    residual = float(np.linalg.norm(system.rows @ system.kernel))
    frame_hash = hashlib.sha256(np.ascontiguousarray(report.frame).tobytes()).hexdigest()[:16]
    return [("value", report.value), ("chart_fingerprint", report.fingerprint),
            ("kernel_residual", residual), ("frame_hash", frame_hash)]


def _reexpress_hyp(tr, path, samples, seed, rel=0.01):
    """``genus_zero_chart`` and ``ratio_scan`` as in ``conesurf hyp-compare``."""
    surface = t_load(tr, path)
    with tr.span("hyperbolic.chart"):
        chart = genus_zero_chart(surface)
    rng = np.random.default_rng(seed)
    with tr.span("hyperbolic.ratio_scan"):
        with tr.span("hyperbolic.area_form"):
            form = area_form(chart)
        p = normalize_form(form).normalizer
        c0 = t_density(tr, chart.system, chart.expansion @ p).value
        cut = chart.system.cut
        v0 = chart.coordinates()
        p_inv = np.linalg.inv(p)
        ratios = []
        guard = 0
        while len(ratios) < samples:
            guard += 1
            if guard > 20 * samples:
                raise MetricNotPositive("sampling kept leaving the chart")
            v = v0 + rel * np.linalg.norm(v0) * (
                rng.standard_normal(chart.dim) + 1j * rng.standard_normal(chart.dim))
            z_full = chart.expansion @ v
            areas_min = min_triangle_area_of_solution(cut, z_full)
            area = area_of_solution(cut, z_full)
            if area <= 0 or areas_min < 1e-10 * area / len(chart.surface.triangles):
                continue
            zeta = (p_inv @ v) / math.sqrt(area)
            base = tangent_frame(zeta)
            frame = base @ rng.standard_normal((base.shape[1], base.shape[1]))
            try:
                mu1 = unit_area_density(zeta, frame, c0)
                hyp = hyperbolic_density(zeta, frame)
            except (PointNotOnQ1, FrameNotTangent, MetricNotPositive):
                continue
            quadric_value(zeta)
            ratios.append(mu1 / hyp)
    low, high = min(ratios), max(ratios)
    return [("chart_constant", c0), ("spread", (high - low) / abs(low))]


def _reexpress_period(tr, path, samples, seed):
    """``period_density_ratio`` as in ``conesurf compare-period``."""
    surface = t_load(tr, path)
    rng = np.random.default_rng(seed)
    with tr.span("volume.period_ratio"):
        family = primitive_family(surface)
        with tr.span("charts.cut"):
            cut = cut_along_forest(surface)
        cols = [cut.column_of(e)[0] for e in family]
        system = t_assemble(tr, cut)
        d = system.kernel_dim
        ratios = []
        current = surface
        for k in range(samples):
            _, sys_k = t_chart(tr, current)
            coeff = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            frame = sys_k.kernel @ coeff
            density = t_density(tr, sys_k, frame).value
            ratios.append(density / abs(np.linalg.det(frame[cols, :])) ** 2)
            if k + 1 < samples:
                with tr.span("charts.perturb"):
                    current = perturb_surface(surface, rng, system=system)
    low, high = min(ratios), max(ratios)
    return [("lambda[0]", ratios[0]), ("spread", (high - low) / abs(low))]


def golden_ops(name, surface, path, rng, work, mirror):
    """The README verbs on one golden surface.  ``work`` holds the CLI's
    output files and ``mirror`` the re-expressions' copies of them."""

    def out(tag):
        return os.path.join(work, f"{name}.{tag}.json")

    def alt(tag):
        return os.path.join(mirror, f"{name}.{tag}.json")

    candidates = flip_candidates(surface)
    flip_edge = candidates[rng.integers(len(candidates))]
    # insert the other diagonal of a seeded convex quad, from its corner
    e = candidates[rng.integers(len(candidates))]
    h = surface.edge_of(e)
    c = surface.next(surface.twin(h))
    corner = surface.next(c)
    w = surface.vec(h) + surface.vec(surface.next(h)) - surface.vec(c)
    tree = sorted(spanning_forest(surface))
    moves, check_seed = 3, int(rng.integers(1 << 30))

    def validate(tr):
        return _surface_report(t_load(tr, path))

    def info(tr):
        s = t_load(tr, path)
        records = _surface_report(s)
        _, system = t_chart(tr, s)
        has_half_turn_holonomy(s)
        return records + [("rank", system.rank), ("chart_fingerprint", system.fingerprint())]

    def cut(tr):
        s = t_load(tr, path)
        with tr.span("charts.cut"):
            result = cut_along_forest(s)
        return [("cut_edges", result.num_edges), ("boundary_pairs", len(result.pairings))]

    def chart(tr):
        _, system = t_chart(tr, t_load(tr, path))
        with open(alt("chart"), "w", encoding="utf-8") as fh:
            fh.write(system.to_json())
        return [("kernel_dim", system.kernel_dim), ("chart_fingerprint", system.fingerprint())]

    def flip_(tr):
        flipped, move = t_flip(tr, t_load(tr, path), flip_edge)
        t_save(tr, flipped, alt("flip"))
        return [("edge", move.edge)]

    def delaunay_(tr):
        result, path_ = t_delaunay(tr, t_load(tr, path))
        bad = [x for x in result.edges() if not is_delaunay_edge(result, x)]
        t_save(tr, result, alt("delaunay"))
        return [("flips", len(path_)), ("violations", len(bad))]

    def insert(tr):
        with tr.span("flips.insert_segment"):
            result, path_ = insert_segment(t_load(tr, path), corner, w)
        tr.note("flips", len(path_))
        t_save(tr, result, alt("insert"))
        return [("flips", len(path_))]

    def flip_path_(tr):
        source = t_load(tr, path)
        target = t_load(tr, out("flip"))
        with tr.span("flips.flip_path"):
            moves_ = flip_path(source, target)
        tr.note("flips", len(moves_))
        ok = t_isomorphic(tr, t_replay(tr, moves_, source), target) is not None
        with open(alt("path"), "w", encoding="utf-8") as fh:
            fh.write(moves_.to_json() + "\n")
        return [("flips", len(moves_)), ("replay_matches", str(ok).lower())]

    def flip_invariance(tr):
        s = t_load(tr, path)
        local = np.random.default_rng(check_seed)
        edges = flip_candidates(s)
        worst = 0.0
        for _ in range(moves):
            a, b = t_flip_density_pair(tr, s, edges[local.integers(len(edges))])
            worst = max(worst, abs(b.value / a.value - 1.0))
        return [("max_deviation", worst)]

    def tree_invariance(tr):
        s = t_load(tr, path)
        surface_a, _, _ = reforest(s, s.forest)
        _, system_a = t_chart(tr, surface_a)
        frame = system_a.kernel
        surface_b, transition, _ = reforest(surface_a, tree)
        _, system_b = t_chart(tr, surface_b)
        a = t_density(tr, system_a, frame)
        b = t_density(tr, system_b, transition @ frame)
        return [("ratio", b.value / a.value)]

    ops = [
        CliOp(f"validate:{name}", ["validate", path], validate),
        CliOp(f"info:{name}", ["info", path], info),
        CliOp(f"cut:{name}", ["cut", path], cut),
        CliOp(f"chart:{name}", ["chart", path, "-o", out("chart")], chart),
        CliOp(f"density:{name}", ["density", path], lambda tr: _reexpress_density(tr, path)),
        CliOp(f"flip:{name}", ["flip", path, "--edge", str(flip_edge), "-o", out("flip")], flip_),
        CliOp(f"delaunay:{name}", ["delaunay", path, "-o", out("delaunay")], delaunay_),
        CliOp(f"insert:{name}", ["insert", path, "--corner", str(corner),
                                 f"--vec={w.real!r},{w.imag!r}", "-o", out("insert")], insert),
        CliOp(f"flip-path:{name}", ["flip-path", path, out("flip"), "-o", out("path")],
              flip_path_, is_check=True),
        CliOp(f"check-flip-invariance:{name}",
              ["check-flip-invariance", path, "--moves", str(moves), "--seed", str(check_seed)],
              flip_invariance, is_check=True),
        CliOp(f"check-tree-invariance:{name}",
              ["check-tree-invariance", path, "--tree", ",".join(map(str, tree))],
              tree_invariance, is_check=True),
    ]
    if not surface.forest:  # period coordinates need a translation surface
        samples, period_seed = 4, int(rng.integers(1 << 30))
        ops.append(CliOp(f"compare-period:{name}",
                         ["compare-period", path, "--samples", str(samples),
                          "--seed", str(period_seed)],
                         lambda tr: _reexpress_period(tr, path, samples, period_seed),
                         is_check=True))
    return ops


class DeskCli:
    """The README's verbs, in process, on the paper's five golden surfaces,
    plus ``density`` and ``hyp-compare`` on two larger doubled polygons."""

    name = "desk-cli"
    LINALG_SHARE = 0.0  # small matrices: numpy call overhead, not LAPACK, dominates
    SIZES = {"full": (12, 32), "tiny": (6, 8)}
    HYP_SAMPLES = 10
    # The README's hyp-compare seed, for every run: on the doubled 32-gon the
    # outcome of ratio_scan depends on the sampling seed (most seeds raise
    # MetricNotPositive), and a fixed seed keeps that known failure in every
    # run instead of letting the workload seed decide whether it shows.
    HYP_SEED = 7
    KNOWN_FAILURES = {"hyp-compare:reg32": "MetricNotPositive"}

    def setup(self, seed, size, workdir):
        work = os.path.join(workdir, "cli")
        mirror = os.path.join(workdir, "mirror")
        os.makedirs(work, exist_ok=True)
        os.makedirs(mirror, exist_ok=True)
        rng = rng_for(seed, 0)
        goldens = {
            "square_torus": make_torus(1, 1j),
            "octagon": make_regular_4g_gon(2),
            "doubled_triangle": make_doubled_polygon([0, 1, cmath.exp(1j * math.pi / 3)]),
            "pillowcase": make_doubled_polygon([0, 1, 1 + 1j, 1j]),
            "doubled_pentagon": doubled_regular(5),
        }
        self.ops = []
        for name, surface in goldens.items():
            path = os.path.join(work, f"{name}.json")
            save_surface(surface, path)
            self.ops += golden_ops(name, surface, path, rng, work, mirror)
        for k in self.SIZES[size]:
            path = os.path.join(work, f"reg{k}.json")
            save_surface(doubled_regular(k), path)
            self.ops.append(CliOp(f"density:reg{k}", ["density", path],
                                  lambda tr, p=path: _reexpress_density(tr, p)))
            label = f"hyp-compare:reg{k}"
            self.ops.append(CliOp(
                label, ["hyp-compare", path, "--samples", str(self.HYP_SAMPLES),
                        "--seed", str(self.HYP_SEED)],
                lambda tr, p=path: _reexpress_hyp(tr, p, self.HYP_SAMPLES, self.HYP_SEED),
                is_check=True, known_error=self.KNOWN_FAILURES.get(label)))
        self.cycle = len(self.ops)
        self.count_window = self.cycle  # counts over one whole cycle
        self.reference = {}

    def plain(self, k):
        return run_cli(self.ops[k % self.cycle].argv)

    def traced(self, k, tr):
        with tr.span("cli.main"):
            return run_cli(self.ops[k % self.cycle].argv)

    def probe(self, k, tr, result):
        """Re-run the verb as library calls under ``cli.library``; False when
        the records they produce are missing from the verb's stdout."""
        op = self.ops[k % self.cycle]
        with tr.span("cli.library"):
            try:
                records = op.reexpress(tr)
            except ConesurfError as exc:
                records = [("error", type(exc).__name__)]
        lines = set(result[1].splitlines())
        return all(_record(key, value) in lines for key, value in records)

    def check(self, k, result):
        i = k % self.cycle
        status, text = result
        # the first round is the reference: later rounds must repeat it exactly
        reference = self.reference.setdefault(i, text)
        if text != reference:
            return "failed"
        op = self.ops[i]
        last = text.rstrip("\n").rsplit("\n", 1)[-1]
        if status == 0 and (not op.is_check or last == "PASS"):
            return "ok"
        if op.known_error and status == 1 and f"error = {op.known_error}\n" in text:
            return "known"
        return "failed"


WORKLOADS = {w.name: w for w in (ChartDensity, FlipWalk, DeskCli)}
