"""Proof insight: provenance graphs, shape analytics, run history.

The semantic layer on top of :mod:`repro.obs`'s counters and spans —
*why* each clause verified (:mod:`~repro.obs.insight.depgraph`), how
the proof's shape compares to the paper's Section-5 predictions
(:mod:`~repro.obs.insight.analytics`), whether this run regressed
against recorded history (:mod:`~repro.obs.insight.history`), and
where the time went (:mod:`~repro.obs.insight.profiling`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".analytics": ("ProofShapeAnalytics", "analytics_footer",
                   "analyze_proof_shape", "estimated_resolutions",
                   "is_local"),
    ".depgraph": ("DEPGRAPH_SCHEMA", "DepGraphRecorder",
                  "depgraph_deterministic_view", "depgraph_records",
                  "depgraph_to_dot", "read_depgraph_jsonl",
                  "write_depgraph_dot", "write_depgraph_jsonl"),
    ".history": ("RUN_SCHEMA", "HistoryStore", "check_regression",
                 "compare_runs", "fingerprint", "format_compare_table",
                 "format_history", "load_fingerprint"),
    ".profiling": ("profile_session", "write_profile"),
})

__all__ = [
    "DEPGRAPH_SCHEMA",
    "RUN_SCHEMA",
    "DepGraphRecorder",
    "HistoryStore",
    "ProofShapeAnalytics",
    "analytics_footer",
    "analyze_proof_shape",
    "check_regression",
    "compare_runs",
    "depgraph_deterministic_view",
    "depgraph_records",
    "depgraph_to_dot",
    "estimated_resolutions",
    "fingerprint",
    "format_compare_table",
    "format_history",
    "is_local",
    "load_fingerprint",
    "profile_session",
    "read_depgraph_jsonl",
    "write_depgraph_dot",
    "write_depgraph_jsonl",
    "write_profile",
]
