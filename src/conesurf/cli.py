"""Command-line front end.

Reports are line-oriented ``key = value`` records; check commands end with a
single PASS or FAIL line.  Exit status: 0 on success or PASS, 1 on validation
failure or FAIL, 2 on usage errors.  Every randomized command takes a
mandatory --seed, and output is byte-identical for identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import hashlib
import math
import sys

import numpy as np

from . import __version__
from ._geom import TWO_PI, VEC_TOL
from .charts import assemble_system, cut_along_forest
from .errors import ConesurfError
from .flips import (
    delaunay,
    developing_polygon,
    flip,
    flip_path,
    has_half_turn_holonomy,
    insert_segment,
    is_delaunay_edge,
    is_flippable,
)
from .hyperbolic import genus_zero_chart, ratio_scan
from .surface import (
    FlatSurface,
    isomorphic,
    load_surface,
    make_doubled_polygon,
    make_regular_4g_gon,
    make_torus,
)
from .volume import (
    FOUR_TERM_SEQUENCE,
    SHORT_SEQUENCE,
    flip_density_pair,
    kernel_density,
    period_density_ratio,
    tree_change_densities,
)

PASS_TOL_FLIP = 1e-9
PASS_TOL_TREE = 1e-9
PASS_TOL_PERIOD = 1e-8
PASS_TOL_HYP = 1e-6


def _emit(out, key, value):
    if isinstance(value, float):
        value = repr(float(value))
    out.append(f"{key} = {value}")


def _header(out):
    _emit(out, "version", __version__)
    _emit(out, "density_conventions", f"{SHORT_SEQUENCE},{FOUR_TERM_SEQUENCE}")


def _parse_complex(text):
    try:
        re, im = text.split(",")
        z = complex(float(re), float(im))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected re,im but got {text!r}") from exc
    if not cmath.isfinite(z):
        raise argparse.ArgumentTypeError(f"expected finite re,im but got {text!r}")
    return z


def _parse_polygon(text):
    return [_parse_complex(part) for part in text.split(";")] if text else []


def _positive_int(text):
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _parse_edge_list(text):
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a comma-separated edge list, got {text!r}") from exc


def _known_halfedge(surface: FlatSurface, h, flag):
    if h not in surface.halfedges:
        raise ValueError(f"{flag} names unknown half-edge {h}")
    return h


def _surface_report(out, surface: FlatSurface):
    _emit(out, "genus", surface.genus())
    _emit(out, "vertices", len(surface.vertex_ids))
    _emit(out, "triangles", len(surface.triangles))
    _emit(out, "forest_edges", len(surface.forest))
    _emit(out, "area", surface.total_area())
    for v in sorted(surface.vertex_ids):
        _emit(out, f"angle[{v}]", surface.cone_angle(v))
    total = sum(surface.cone_angle(v) for v in surface.vertex_ids)
    expected = TWO_PI * (2 * surface.genus() + len(surface.vertex_ids) - 2)
    _emit(out, "gauss_bonnet_residual", abs(total - expected))


def _within_tolerance(out, key, value, tol):
    """Emit a measured deviation and its tolerance; True when it passes."""
    _emit(out, key, value)
    _emit(out, "tolerance", tol)
    return value < tol


def _cmd_make(args, out):
    if args.kind == "torus":
        if args.u is None or args.v is None:
            raise ConesurfError("make torus needs --u and --v")
        surface = make_torus(args.u, args.v)
    elif args.kind == "polygon":
        if not args.vertices:
            raise ConesurfError("make polygon needs --vertices re,im;re,im;...")
        surface = make_doubled_polygon(args.vertices)
    elif args.kind == "regular-polygon":
        if args.sides is None:
            raise ConesurfError("make regular-polygon needs --sides")
        pts = [cmath.exp(2j * math.pi * k / args.sides) for k in range(args.sides)]
        surface = make_doubled_polygon(pts)
    else:  # translation-4g, the last of the kinds argparse allows
        if args.genus is None:
            raise ConesurfError("make translation-4g needs --genus")
        surface = make_regular_4g_gon(args.genus)
    _surface_report(out, surface)
    return True, surface


def _cmd_validate(args, out):
    surface = load_surface(args.surface)
    _surface_report(out, surface)
    return True, None


def _cmd_info(args, out):
    surface = load_surface(args.surface)
    _surface_report(out, surface)
    cut = cut_along_forest(surface)
    system = assemble_system(cut)
    _emit(out, "cut_edges", cut.num_edges)
    _emit(out, "cut_triangles", cut.num_triangles)
    _emit(out, "cut_trees", cut.num_trees)
    _emit(out, "system_rows", cut.num_rows)
    _emit(out, "rank", system.rank)
    _emit(out, "kernel_dim", system.kernel_dim)
    _emit(out, "chart_fingerprint", system.fingerprint())
    _emit(out, "half_turn_holonomy", str(bool(has_half_turn_holonomy(surface))).lower())
    return True, None


def _cmd_flip(args, out):
    surface = load_surface(args.surface)
    flipped, move = flip(surface, _known_halfedge(surface, args.edge, "--edge"))
    _emit(out, "edge", move.edge)
    _emit(out, "old_vector", f"{move.old_diagonal.real!r},{move.old_diagonal.imag!r}")
    _emit(out, "new_vector", f"{move.new_diagonal.real!r},{move.new_diagonal.imag!r}")
    _emit(out, "quad", ",".join(str(q) for q in move.quad))
    return True, flipped


def _cmd_delaunay(args, out):
    surface = load_surface(args.surface)
    result, path = delaunay(surface)
    _emit(out, "flips", len(path))
    bad = [e for e in result.edges() if not is_delaunay_edge(result, e)]
    _emit(out, "violations", len(bad))
    return not bad, result


def _cmd_insert(args, out):
    surface = load_surface(args.surface)
    _known_halfedge(surface, args.corner, "--corner")
    # written before the insertion runs, so it is there when the insertion fails
    if args.dump_development:
        polygon = developing_polygon(surface, args.corner, args.vec)
        with open(args.dump_development, "w", encoding="utf-8") as fh:
            for i, p in enumerate(polygon.vertices):
                fh.write(f"{p.real!r} {p.imag!r} {polygon.corner_map[i]}\n")
        _emit(out, "development", args.dump_development)
    result, path = insert_segment(surface, args.corner, args.vec)
    _emit(out, "flips", len(path))
    present = any(abs(result.vec(h) - args.vec) <= VEC_TOL * abs(args.vec)
                  for h in result.halfedges)
    _emit(out, "segment_is_edge", str(present).lower())
    return present, result


def _cmd_flip_path(args, out):
    source = load_surface(args.surface)
    target = load_surface(args.target)
    path = flip_path(source, target)
    _emit(out, "flips", len(path))
    replayed = path.replay(source)
    ok = isomorphic(replayed, target) is not None
    _emit(out, "replay_matches", str(ok).lower())
    return ok, path.to_json() + "\n"


def _cmd_cut(args, out):
    surface = load_surface(args.surface)
    cut = cut_along_forest(surface)
    _emit(out, "cut_edges", cut.num_edges)
    _emit(out, "cut_triangles", cut.num_triangles)
    _emit(out, "cut_trees", cut.num_trees)
    _emit(out, "boundary_pairs", len(cut.pairings))
    for pair in cut.pairings:
        _emit(out, f"pair[{pair.edge}]", f"{pair.a},{pair.abar},{pair.rotation!r}")
    return True, None


def _cmd_chart(args, out):
    surface = load_surface(args.surface)
    cut = cut_along_forest(surface)
    system = assemble_system(cut)
    _emit(out, "columns", cut.num_edges)
    _emit(out, "rows", cut.num_rows)
    _emit(out, "rank", system.rank)
    _emit(out, "kernel_dim", system.kernel_dim)
    _emit(out, "chart_fingerprint", system.fingerprint())
    return True, system


def _cmd_density(args, out):
    surface = load_surface(args.surface)
    system = assemble_system(cut_along_forest(surface))
    report = kernel_density(system, system.kernel)
    _emit(out, "value", report.value)
    _emit(out, "log_value", report.log_value)
    _emit(out, "convention", report.convention)
    _emit(out, "chart_fingerprint", system.fingerprint())
    _emit(out, "kernel_residual", float(np.linalg.norm(system.rows @ system.kernel)))
    frame_hash = hashlib.sha256(np.ascontiguousarray(report.frame).tobytes()).hexdigest()[:16]
    _emit(out, "frame_hash", frame_hash)
    return True, None


def _cmd_check_flip_invariance(args, out):
    surface = load_surface(args.surface)
    rng = np.random.default_rng(args.seed)
    candidates = [e for e in surface.edges()
                  if e not in surface.forest and is_flippable(surface, e)]
    if not candidates:
        raise ConesurfError("no flippable edges")
    worst = 0.0
    for k in range(args.moves):
        edge = candidates[rng.integers(len(candidates))]
        report_a, report_b = flip_density_pair(surface, edge)
        if all(sys.float_info.min <= abs(r.value) <= sys.float_info.max
               for r in (report_a, report_b)):
            deviation = abs(report_b.value / report_a.value - 1.0)
        else:  # a density that is not a normal float keeps its log
            deviation = abs(math.expm1(report_b.log_value - report_a.log_value))
        _emit(out, f"ratio_deviation[{k}]", deviation)
        worst = max(worst, deviation)
    return _within_tolerance(out, "max_deviation", worst, PASS_TOL_FLIP), None


def _cmd_check_tree_invariance(args, out):
    surface = load_surface(args.surface)
    report_a, report_b, ratio = tree_change_densities(surface, surface.forest, args.tree)
    _emit(out, "value_a", report_a.value)
    _emit(out, "value_b", report_b.value)
    _emit(out, "ratio", ratio)
    deviation = abs(ratio - 1.0)
    return _within_tolerance(out, "deviation", deviation, PASS_TOL_TREE), None


def _cmd_compare_period(args, out):
    surface = load_surface(args.surface)
    rng = np.random.default_rng(args.seed)
    ratios, family = period_density_ratio(surface, samples=args.samples, rng=rng)
    for k, value in enumerate(ratios):
        _emit(out, f"lambda[{k}]", value)
    _emit(out, "family", ",".join(str(e) for e in family))
    low, high = min(ratios), max(ratios)
    spread = (high - low) / abs(low)
    return _within_tolerance(out, "spread", spread, PASS_TOL_PERIOD), None


def _cmd_hyp_compare(args, out):
    surface = load_surface(args.surface)
    chart = genus_zero_chart(surface)
    rng = np.random.default_rng(args.seed)
    scan = ratio_scan(chart, args.samples, rng, tolerance=PASS_TOL_HYP)
    for k, (ratio, residual) in enumerate(zip(scan.ratios, scan.residuals)):
        _emit(out, f"ratio[{k}]", ratio)
        _emit(out, f"residual[{k}]", residual)
    _emit(out, "chart_constant", scan.chart_constant)
    return _within_tolerance(out, "spread", scan.spread, PASS_TOL_HYP), None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="conesurf",
        description="flat surfaces with cone singularities: charts, flips and densities")
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, func, *positionals, help, output=False, check=False, **flags):
        """Add one verb: its help line, positionals, a --flag per keyword
        (argparse options), -o when it writes a file, and whether it ends in PASS/FAIL."""
        p = sub.add_parser(name, help=help)
        for arg in positionals:
            p.add_argument(arg)
        for flag, options in flags.items():
            p.add_argument("--" + flag.replace("_", "-"), **options)
        if output:
            p.add_argument("-o", dest="output", metavar="path")
        p.set_defaults(func=func, output=None, check=check)
        return p

    def required(kind):
        return {"type": kind, "required": True}

    verb("make", _cmd_make, output=True, help="construct an example surface",
         u={"type": _parse_complex}, v={"type": _parse_complex},
         vertices={"type": _parse_polygon}, sides={"type": int}, genus={"type": int},
         ).add_argument("kind", choices=["torus", "polygon", "regular-polygon", "translation-4g"])
    for name, func, text in (("validate", _cmd_validate, "validate a surface file"),
                             ("info", _cmd_info, "genus, cut counts, rank and kernel dimension"),
                             ("cut", _cmd_cut, "slit counts and boundary-pair rotations"),
                             ("density", _cmd_density, "kernel density on the kernel frame")):
        verb(name, func, "surface", help=text)
    verb("chart", _cmd_chart, "surface", output=True, help="assemble the chart system")
    verb("flip", _cmd_flip, "surface", output=True, help="flip one edge", edge=required(int))
    verb("delaunay", _cmd_delaunay, "surface", output=True, help="flip until Delaunay")
    verb("insert", _cmd_insert, "surface", output=True, help="flip a segment into an edge",
         corner=required(int), vec=required(_parse_complex), dump_development={})
    verb("flip-path", _cmd_flip_path, "surface", "target", output=True, check=True,
         help="find and replay a flip path between two surfaces")
    verb("check-flip-invariance", _cmd_check_flip_invariance, "surface", check=True,
         help="density ratios across random flips",
         moves=required(_positive_int), seed=required(int))
    verb("check-tree-invariance", _cmd_check_tree_invariance, "surface", check=True,
         help="density ratio across a forest change", tree=required(_parse_edge_list))
    verb("compare-period", _cmd_compare_period, "surface", check=True,
         help="density against Lebesgue measure in period coordinates",
         samples=required(_positive_int), seed=required(int))
    verb("hyp-compare", _cmd_hyp_compare, "surface", check=True,
         help="unit-area density against the complex hyperbolic density",
         samples=required(_positive_int), seed=required(int))
    return parser


def main(argv=None) -> int:
    """Run one verb.  Each _cmd_* emits its records and returns (ok, artifact):
    ok sets the exit status and a check verb's PASS/FAIL line; -o writes the
    artifact, a text or an object serialized by its to_json() only then."""
    parser = build_parser()
    args = parser.parse_args(argv)
    out = []
    _header(out)
    try:
        ok, artifact = args.func(args, out)
        if args.output:
            text = artifact if isinstance(artifact, str) else artifact.to_json()
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
            _emit(out, "written", args.output)
        if args.check:
            out.append("PASS" if ok else "FAIL")
    except (ConesurfError, OSError, ValueError) as exc:
        _emit(out, "error", type(exc).__name__)
        _emit(out, "message", str(exc))
        ok = False
    print("\n".join(out))
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
