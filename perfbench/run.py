"""conesurf benchmark: one process, one closed-loop caller.

    python3 perfbench/run.py --workload chart-density --seed 1 --seconds 30 --trace 0

Runs one workload of ``workloads.py`` for the given seconds, the next op
starting when the previous one returns, and checks every op's output.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs the same ops both plainly and as spans around each library call and
reports the per-layer metrics, then runs the size ladder.  The last line of
standard output is one JSON object {correct, attempted, failed, metrics}.
A result file with the environment and the detail behind each metric, and
for traced runs the spans, are written under perfbench/out/.

Times are reported at a reference machine speed.  The speed of a shared
virtual CPU drifts by +-20% over tens of seconds, far more than the bounds.
So fixed calibration kernels run every CAL_EVERY_S seconds between ops, and
each time is divided by the machine's slowdown around it against CAL_REF_S.
The result file keeps the raw times and the kernel samples.

The library is imported from src/ of the checkout this file sits in, never
from an installed copy; without it the run exits non-zero, printing no result.
"""

import os
import sys

# The launcher pins the environment: one process, BLAS on one thread.  This
# must happen before numpy is imported anywhere in the process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 3
# Calibration: the two kernels' times on the reference machine (2-vCPU x86_64
# VM, Python 3.11, numpy 2.4, OpenBLAS 0.3.31 on one thread), the cadence of
# samples and the window around an op whose samples scale it.
CAL_REF_S = (0.008, 0.007)
CAL_EVERY_S = 0.25
CAL_WINDOW_S = 1.0
# Tail latency: the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs, for the smoke test")
    return p.parse_args(argv)


def import_library():
    """Import conesurf from this checkout; returns the import time in s."""
    if not (SRC / "conesurf" / "__init__.py").is_file():
        sys.exit(f"conesurf sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import numpy  # noqa: F401
    import conesurf
    import workloads  # noqa: F401
    if Path(conesurf.__file__).resolve().parent != SRC / "conesurf":
        sys.exit(f"imported conesurf from {conesurf.__file__}, not from {SRC}")
    return time.perf_counter() - started


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


class Calibrator:
    """Samples two fixed kernels, interpreter work on small objects and a
    dense complex SVD, and weighs their slowdowns by the workload's share of
    time in LAPACK, so that a sample follows the machine's speed for the
    workload's own mix of work."""

    def __init__(self, linalg_share):
        import numpy as np

        self._svd = np.linalg.svd
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((150, 220)) + 1j * rng.standard_normal((150, 220))
        self.linalg_share = linalg_share
        self.parts = []    # (interpreter s, linalg s) per sample
        self.samples = []  # weighted slowdown against the reference machine
        self.times = []    # sample start times
        self.spent = 0.0

    def sample(self):
        started = time.perf_counter()
        values = {i: complex(i, -i) * 1.5 for i in range(15000)}
        sum(abs(v) for v in values.values())
        middle = time.perf_counter()
        self._svd(self._matrix, compute_uv=False)
        ended = time.perf_counter()
        interp, linalg = middle - started, ended - middle
        self.parts.append((interp, linalg))
        self.samples.append((1.0 - self.linalg_share) * interp / CAL_REF_S[0]
                            + self.linalg_share * linalg / CAL_REF_S[1])
        self.times.append(started)
        self.spent += ended - started

    def tick(self):
        """Sample when CAL_EVERY_S has passed since the last sample."""
        if not self.times or time.perf_counter() - self.times[-1] >= CAL_EVERY_S:
            self.sample()

    def scale(self, start=None, seconds=0.0):
        """Factor taking a time measured from ``start`` for ``seconds`` to the
        reference speed: from the mean slowdown within CAL_WINDOW_S of that
        interval, or over the whole run without ``start``.  The mean, not the
        median, because a time integrates the speed over its interval."""
        near = self.samples
        if start is not None:
            lo = bisect.bisect_left(self.times, start - CAL_WINDOW_S)
            hi = bisect.bisect_right(self.times, start + seconds + CAL_WINDOW_S)
            near = self.samples[lo:hi] or near
        return 1.0 / statistics.fmean(near)


def run_op(fn, k, *args):
    """(result, seconds, error name); the op's exceptions are its failure."""
    started = time.perf_counter()
    try:
        result = fn(k, *args)
    except Exception as exc:  # an op that raises fails; the run goes on
        return None, time.perf_counter() - started, f"{type(exc).__name__}: {exc}"
    return result, time.perf_counter() - started, None


def classify(wl, k, result, error):
    return "failed" if error is not None else wl.check(k, result)


def setup_workload(cls, args, workdir, cal):
    """Set up from scratch SETUP_REPS times (inputs plus one warm-up round of
    ops, which is also the reference round); keep the last.  Returns the
    workload, each set-up's (start, seconds) and the warm-up outcomes."""
    reps, warm = [], Counter()
    for _ in range(SETUP_REPS):
        cal.sample()
        started = time.perf_counter()
        wl = cls()
        wl.setup(args.seed, args.size, workdir)
        warm = Counter()
        for k in range(wl.cycle):
            result, _, error = run_op(wl.plain, k)
            warm[classify(wl, k, result, error)] += 1
        reps.append((started, time.perf_counter() - started))
    cal.sample()
    return wl, reps, warm


def tail(latencies):
    """(value, percentile, samples): the highest percentile with at least
    TAIL_BEYOND samples beyond it (the maximum when there are fewer)."""
    ordered = sorted(latencies)
    n = len(ordered)
    i = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[i], 100.0 * (i + 1) / n, n


def timed_phase(wl, seconds, cal):
    """Closed loop over whole cycles of ops; returns the wall time less the
    calibration, every op as (start, seconds, outcome), and error counts."""
    ops, errors = [], Counter()
    k = 0
    cal.tick()
    started = time.perf_counter()
    spent_before = cal.spent
    while True:
        for _ in range(wl.cycle):  # whole cycles keep the op mix fixed
            t0 = time.perf_counter()
            result, dt, error = run_op(wl.plain, k)
            ops.append((t0, dt, classify(wl, k, result, error)))
            if error:
                errors[error] += 1
            k += 1
            cal.tick()
        if time.perf_counter() - started >= seconds:
            break
    return time.perf_counter() - started - (cal.spent - spent_before), ops, errors


def end_to_end(wl, args, cal, import_s, setup_reps):
    elapsed, ops, errors = timed_phase(wl, args.seconds, cal)
    outcomes = Counter(outcome for _, _, outcome in ops)
    attempted = len(ops)
    ok = outcomes["ok"]
    latencies = [dt * cal.scale(t0, dt) for t0, dt, outcome in ops if outcome == "ok"]
    # op time at its own speed; the loop's remaining time at the run's speed
    op_time = sum(dt for _, dt, _ in ops)
    scaled_elapsed = (sum(dt * cal.scale(t0, dt) for t0, dt, _ in ops)
                      + (elapsed - op_time) * cal.scale())
    tail_s, tail_pct, tail_n = tail(latencies) if latencies else (0.0, 0.0, 0)
    setup_s = [dt * cal.scale(t0, dt) for t0, dt in setup_reps]
    metrics = {
        "ops_per_s": (ok / scaled_elapsed, "1/s"),
        "op_ms_p50": (1e3 * statistics.median(latencies) if latencies else 0.0, "ms"),
        "op_ms_tail": (1e3 * tail_s, "ms"),
        "ok_ops_frac": (ok / attempted, "ratio"),
        "setup_s": (import_s * cal.scale() + statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "failed_ops_frac": 1.0 - ok / attempted,
        "op_ms_tail_percentile": tail_pct,
        "op_ms_tail_samples": tail_n,
        "outcomes": dict(outcomes),
        "errors": dict(errors),
        "raw": {"ops_per_s": ok / elapsed, "elapsed_s": elapsed, "import_s": import_s,
                "setup_s": [dt for _, dt in setup_reps], "ops": ops},
        "speed_scale": cal.scale(),
        "calibration": list(zip(cal.times, cal.parts)),
    }
    return attempted, outcomes["failed"], metrics, detail


def traced_phase(wl, seconds, cal):
    """Every op runs plainly and traced, alternating which goes first; the
    run continues past ``seconds`` until the count window is complete.
    Returns the tracer, each op's traced/plain time ratio, the outcomes and
    error counts."""
    from spans import Tracer

    tr = Tracer()
    ratios = []
    outcomes, errors = Counter(), Counter()
    probe = getattr(wl, "probe", None)
    k = 0
    cal.tick()
    started = time.perf_counter()
    while True:
        for _ in range(wl.cycle):
            seen, spent = {}, {}
            for form in (("plain", "traced") if k % 2 == 0 else ("traced", "plain")):
                tr.op = k if form == "traced" else None
                args = (tr,) if form == "traced" else ()
                result, dt, error = run_op(getattr(wl, form), k, *args)
                spent[form] = dt
                if error:
                    errors[error] += 1
                seen[form] = (result, classify(wl, k, result, error))
            ratios.append(spent["traced"] / spent["plain"])
            outcome = seen["traced"][1]
            if seen["plain"][1] != outcome:
                outcome = "failed"
            if probe is not None and seen["traced"][0] is not None:
                tr.op = k
                if not probe(k, tr, seen["traced"][0]):
                    outcome = "failed"
            outcomes[outcome] += 1
            k += 1
            cal.tick()
        if time.perf_counter() - started >= seconds and k >= wl.count_window:
            break
    tr.op = None
    return tr, ratios, outcomes, errors


def count_metrics(tr, window):
    """Counts over the first ``window`` ops, so they repeat for a seed."""
    notes = {}
    for op, key, value in tr.notes:
        if op is not None and op < window:
            notes.setdefault(key, []).append(value)

    def total(key):
        return sum(notes.get(key, ()))

    def mean(key):
        values = notes.get(key)
        return statistics.fmean(values) if values else 0.0

    def ratio(a, b):
        return total(a) / total(b) if total(b) else 0.0

    densities = notes.get("density")
    return {
        "flips.flip.count_per_op": total("flips") / window,
        "flips.delaunay.flips": mean("delaunay.flips"),
        "flips.delaunay.flips_per_violation": ratio("delaunay.flips", "delaunay.violations"),
        "flips.flip_path.flips_per_scramble": ratio("flip_path.len", "random_flips.len"),
        "charts.assemble.rows": mean("assemble.rows"),
        "charts.assemble.columns": mean("assemble.columns"),
        # log10 of the smallest density seen: the margin left before underflow
        "volume.density_log10_min": (
            min(math.log10(max(v, 5e-324)) for v in densities) if densities else 0.0),
    }


def cli_overhead_ms(tr):
    """Median over ops of cli.main time minus the library calls it makes."""
    main, library = {}, {}
    for name, op, dur, _ in tr.durations():
        if name == "cli.main":
            main[op] = dur
        elif name == "cli.library":
            library[op] = dur
    gaps = [main[op] - library[op] for op in main if op in library]
    return 1e3 * statistics.median(gaps) if gaps else 0.0


def per_layer(wl, args, cal, run_id):
    from ladder import run_ladder
    from layers import SPANS, layer_map, per_layer_units

    tr, ratios, outcomes, errors = traced_phase(wl, args.seconds, cal)
    scale = cal.scale()
    tr.write(OUT / f"{run_id}-spans.json")
    values = tr.summary(SPANS)
    values["cli.overhead_ms_p50"] = cli_overhead_ms(tr)
    values.update(count_metrics(tr, wl.count_window))
    # per op, so that speed drift between ops cancels
    values["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    exps, points = run_ladder(args.seed, args.size)
    values.update(exps)
    units = per_layer_units()
    metrics = {name: (values[name] * scale if unit == "ms" else values[name], unit)
               for name, (unit, _) in units.items()}
    detail = {"speed_scale": scale, "calibration": list(zip(cal.times, cal.parts)),
              "outcomes": dict(outcomes), "errors": dict(errors),
              "traced_over_plain": ratios,
              "count_window_ops": wl.count_window,
              "ladder_points": points, "layer_map": layer_map()}
    attempted = sum(outcomes.values())
    return attempted, outcomes["failed"], metrics, detail


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    import_s = import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{run_id}-{os.getpid()}"
    cal = Calibrator(WORKLOADS[args.workload].LINALG_SHARE)
    try:
        wl, setup_reps, warm = setup_workload(WORKLOADS[args.workload], args, workdir, cal)
        if args.trace:
            attempted, failed, metrics, detail = per_layer(wl, args, cal, run_id)
        else:
            attempted, failed, metrics, detail = end_to_end(wl, args, cal, import_s, setup_reps)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    warm_failed = warm["failed"]
    correct = failed == 0 and warm_failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "environment": environment(),
              "warm_up": dict(warm), "detail": detail, "result": result}
    with open(OUT / f"{run_id}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
