"""Metric definitions.  BENCHMARK.json repeats END_TO_END and PER_LAYER
(the self-test checks that they agree); MOVES records, for each per-layer
metric, the end-to-end metric and workloads it should move."""

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "best_k_sum", "unit": "count", "better": "higher", "bound": 0.05},
    {"name": "exact_instances", "unit": "count", "better": "higher", "bound": 0.05},
]


def _layer(name: str, unit: str, better: str) -> dict:
    return {"name": name, "unit": unit, "better": better}


PER_LAYER = [
    _layer("graphs.iso_classes_s", "s", "lower"),
    _layer("graphs.orbit_useful_share", "ratio", "higher"),
    _layer("graphs.canonical_form_calls", "count", "lower"),
    _layer("graphs.canonical_form_s", "s", "lower"),
    _layer("graphs.graph_build_s", "s", "lower"),
    _layer("errormap.setup_calls", "count", "lower"),
    _layer("errormap.setup_s", "s", "lower"),
    _layer("clique.build_s", "s", "lower"),
    _layer("clique.m_min", "count", "lower"),
    _layer("clique.m_median", "count", "lower"),
    _layer("clique.m_max", "count", "lower"),
    _layer("clique.solve_s", "s", "lower"),
    _layer("clique.bnb_nodes", "count", "lower"),
    _layer("clique.bnb_nodes_per_s", "1/s", "higher"),
    _layer("clique.useful_node_share", "ratio", "higher"),
    _layer("clique.bound_instances", "count", "lower"),
    _layer("verify.detection_check_calls", "count", "lower"),
    _layer("verify.detection_check_s", "s", "lower"),
    _layer("verify.kl_oracle_s", "s", "lower"),
    _layer("search.checkpoint_write_s", "s", "lower"),
    _layer("search.checkpoint_bytes", "B", "lower"),
    _layer("search.checkpoint_load_s", "s", "lower"),
    _layer("search.overhead_s", "s", "lower"),
    _layer("trace.overhead_s", "s", "lower"),
]

# Counts that must repeat exactly from pass to pass and run to run.
EXACT_COUNTS = [
    "graphs.orbit_useful_share",
    "graphs.canonical_form_calls",
    "errormap.setup_calls",
    "clique.m_min",
    "clique.m_median",
    "clique.m_max",
    "clique.bnb_nodes",
    "clique.useful_node_share",
    "clique.bound_instances",
    "verify.detection_check_calls",
    "search.checkpoint_bytes",
]

MOVES = {
    "graphs.iso_classes_s": "wall_s on absence6; no change elsewhere",
    "graphs.orbit_useful_share": "wall_s on absence6",
    "graphs.canonical_form_calls": "wall_s on sweep5; solve10 minor; absence6 none",
    "graphs.canonical_form_s": "wall_s on sweep5; solve10 minor; absence6 none",
    "graphs.graph_build_s": "wall_s on sweep5 and resume5",
    "errormap.setup_calls": "wall_s on sweep5",
    "errormap.setup_s": "wall_s on sweep5",
    "clique.build_s": "wall_s on sweep5 and solve10",
    "clique.m_min": "wall_s on sweep5 and solve10",
    "clique.m_median": "wall_s on sweep5 and solve10",
    "clique.m_max": "wall_s on sweep5 and solve10",
    "clique.solve_s": "wall_s on sweep5 and solve10; best_k_sum and exact_instances on solve10",
    "clique.bnb_nodes": "wall_s on sweep5 and solve10; best_k_sum and exact_instances on solve10",
    "clique.bnb_nodes_per_s": "wall_s on sweep5 and solve10; best_k_sum and exact_instances on solve10",
    "clique.useful_node_share": "wall_s on sweep5",
    "clique.bound_instances": "exact_instances on solve10",
    "verify.detection_check_calls": "wall_s on resume5; witness checks only elsewhere",
    "verify.detection_check_s": "wall_s on resume5; witness checks only elsewhere",
    "verify.kl_oracle_s": "wall_s on resume5; witness checks only elsewhere",
    "search.checkpoint_write_s": "wall_s on sweep5",
    "search.checkpoint_bytes": "wall_s on sweep5 (write) and resume5 (read)",
    "search.checkpoint_load_s": "wall_s on resume5",
    "search.overhead_s": "wall_s on all workloads",
    "trace.overhead_s": "none: traced pass wall minus untraced wall, the cost of tracing",
}
