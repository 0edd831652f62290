"""Spans of the traced run and the end-to-end metric each should move.

Later performance work cites these by name: a change to a layer predicts a
move in the named end-to-end metric on the named workload, and no move on
the workloads that bypass the layer.
"""

# span -> [(end-to-end metric, workload), ...]
LAYER_MAP = {
    "surface.build": [("op_ms_p50", "desk-cli"), ("ops_per_s", "flip-walk")],
    "surface.load": [("op_ms_p50", "desk-cli"), ("ops_per_s", "flip-walk")],
    "surface.save": [("op_ms_p50", "desk-cli"), ("ops_per_s", "flip-walk")],
    "surface.isomorphic": [("op_ms_p50", "desk-cli"), ("ops_per_s", "flip-walk")],
    "charts.cut": [("op_ms_p50", "desk-cli")],
    "charts.assemble": [("ops_per_s", "chart-density")],
    "charts.transition": [("op_ms_p50", "desk-cli")],
    "charts.perturb": [("op_ms_p50", "desk-cli")],
    "volume.kernel_density": [("ops_per_s", "chart-density"), ("op_ms_tail", "desk-cli")],
    "volume.period_ratio": [("ops_per_s", "chart-density"), ("op_ms_tail", "desk-cli")],
    "flips.flip": [("ops_per_s", "flip-walk"), ("op_ms_p50", "flip-walk")],
    "flips.random_flips": [("ops_per_s", "flip-walk"), ("op_ms_p50", "flip-walk")],
    "flips.delaunay": [("ops_per_s", "flip-walk"), ("op_ms_p50", "flip-walk")],
    "flips.flip_path": [("ops_per_s", "flip-walk"), ("op_ms_p50", "flip-walk")],
    "flips.replay": [("ops_per_s", "flip-walk"), ("op_ms_p50", "flip-walk")],
    "flips.insert_segment": [("ops_per_s", "flip-walk"), ("op_ms_p50", "flip-walk")],
    "hyperbolic.chart": [("op_ms_tail", "desk-cli")],
    "hyperbolic.area_form": [("op_ms_tail", "desk-cli")],
    "hyperbolic.ratio_scan": [("op_ms_tail", "desk-cli")],
}

SPANS = tuple(LAYER_MAP)

# derived per-layer metrics: name -> (unit, better, [(end-to-end metric, workload)])
DERIVED = {
    "cli.overhead_ms_p50": ("ms", "lower", [("op_ms_p50", "desk-cli")]),
    "flips.flip.count_per_op": ("flips/op", "lower", [("ops_per_s", "flip-walk")]),
    "flips.delaunay.flips": ("flips/call", "lower", [("ops_per_s", "flip-walk")]),
    "flips.delaunay.flips_per_violation": ("ratio", "lower", [("ops_per_s", "flip-walk")]),
    "flips.flip_path.flips_per_scramble": ("ratio", "lower", [("ops_per_s", "flip-walk")]),
    "charts.assemble.rows": ("count", "lower", [("ops_per_s", "chart-density")]),
    "charts.assemble.columns": ("count", "lower", [("ops_per_s", "chart-density")]),
    "volume.density_log10_min": ("log10", "higher", [("ops_per_s", "chart-density")]),
    "trace.overhead_frac": ("ratio", "lower", []),
    "surface.build.exp": ("slope", "lower", [("op_ms_p50", "desk-cli")]),
    "charts.assemble.exp": ("slope", "lower", [("ops_per_s", "chart-density")]),
    "volume.kernel_density.exp": ("slope", "lower", [("ops_per_s", "chart-density")]),
    "flips.flip.exp": ("slope", "lower", [("ops_per_s", "flip-walk")]),
    "flips.delaunay.exp": ("slope", "lower", [("ops_per_s", "flip-walk")]),
}

SPAN_STATS = (("calls", "count", "higher"), ("self_ms", "ms", "lower"), ("ms_p50", "ms", "lower"))


def layer_map():
    """Every per-layer metric family -> [(end-to-end metric, workload), ...]."""
    return {**LAYER_MAP, **{name: moves for name, (_, _, moves) in DERIVED.items()}}


def per_layer_units():
    """Every per-layer metric name with its (unit, better)."""
    units = {}
    for span in SPANS:
        for stat, unit, better in SPAN_STATS:
            units[f"{span}.{stat}"] = (unit, better)
    for name, (unit, better, _) in DERIVED.items():
        units[name] = (unit, better)
    return units
