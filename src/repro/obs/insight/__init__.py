"""Proof insight: provenance graphs and shape analytics.

The semantic layer on top of :mod:`repro.obs`'s counters and spans —
*why* each clause verified (:mod:`~repro.obs.insight.depgraph`) and
how the proof's shape compares to the paper's Section-5 predictions
(:mod:`~repro.obs.insight.analytics`).
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
})

__all__ = [
    "DEPGRAPH_SCHEMA",
    "DepGraphRecorder",
    "ProofShapeAnalytics",
    "analytics_footer",
    "analyze_proof_shape",
    "depgraph_deterministic_view",
    "depgraph_records",
    "depgraph_to_dot",
    "estimated_resolutions",
    "is_local",
    "read_depgraph_jsonl",
    "write_depgraph_dot",
    "write_depgraph_jsonl",
]
