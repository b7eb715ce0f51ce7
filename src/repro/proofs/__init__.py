"""Proof objects: solver logs, conflict clause proofs, resolution graphs."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".conflict_clause": ("ENDING_EMPTY", "ENDING_FINAL_PAIR",
                         "ENDING_NONE", "ConflictClauseProof"),
    ".drup": ("DrupEvent", "DrupProof", "format_drup", "parse_drup",
              "parse_drup_line", "read_drup", "write_drup"),
    ".log": ("ProofLog", "ProofStep"),
    ".resolution": ("CheckResult", "ResolutionGraphProof",
                    "ResolutionNode"),
    ".sizes": ("ProofSizeComparison", "compare_proof_sizes"),
    ".stats": ("ClauseShape", "ProofStatistics", "analyze_log",
               "clause_shapes"),
    ".trace_format": ("format_proof", "parse_proof", "read_proof",
                      "write_proof"),
})

__all__ = [
    "ProofLog",
    "ProofStep",
    "ConflictClauseProof",
    "ENDING_FINAL_PAIR",
    "ENDING_EMPTY",
    "ENDING_NONE",
    "ResolutionGraphProof",
    "ResolutionNode",
    "CheckResult",
    "ProofSizeComparison",
    "compare_proof_sizes",
    "ProofStatistics",
    "ClauseShape",
    "analyze_log",
    "clause_shapes",
    "format_proof",
    "DrupProof",
    "DrupEvent",
    "format_drup",
    "parse_drup",
    "parse_drup_line",
    "read_drup",
    "write_drup",
    "parse_proof",
    "read_proof",
    "write_proof",
]
