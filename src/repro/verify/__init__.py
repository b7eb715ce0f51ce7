"""Conflict clause proof verification — the paper's contribution."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".budget": ("BudgetExhausted", "BudgetMeter", "CheckBudget"),
    ".checker": ("CHECKER_MODES", "CheckOutcome", "ProofChecker"),
    ".conflict_analysis": ("mark_responsible",),
    ".core_extraction": ("extract_core", "validate_core"),
    ".instrument": ("ReportBuilder",),
    ".report": ("PROOF_IS_CORRECT", "PROOF_IS_NOT_CORRECT",
                "RESOURCE_LIMIT_EXCEEDED", "UnsatCore",
                "VerificationReport", "VerificationStats"),
    ".reconstruct": ("ReconstructionResult",
                     "reconstruct_resolution_graph"),
    ".trimming": ("TrimResult", "trim_proof"),
    ".verification": ("verify_proof", "verify_proof_v1",
                      "verify_proof_v2"),
})

__all__ = [
    "verify_proof",
    "verify_proof_v1",
    "verify_proof_v2",
    "trim_proof",
    "TrimResult",
    "reconstruct_resolution_graph",
    "ReconstructionResult",
    "ProofChecker",
    "CheckOutcome",
    "CHECKER_MODES",
    "mark_responsible",
    "extract_core",
    "validate_core",
    "VerificationReport",
    "VerificationStats",
    "ReportBuilder",
    "UnsatCore",
    "PROOF_IS_CORRECT",
    "PROOF_IS_NOT_CORRECT",
    "RESOURCE_LIMIT_EXCEEDED",
    "CheckBudget",
    "BudgetMeter",
    "BudgetExhausted",
]
