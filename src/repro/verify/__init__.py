"""Conflict clause proof verification — the paper's contribution."""

from repro.verify.budget import BudgetExhausted, BudgetMeter, CheckBudget
from repro.verify.checker import CHECKER_MODES, CheckOutcome, ProofChecker
from repro.verify.conflict_analysis import mark_responsible
from repro.verify.core_extraction import extract_core, validate_core
from repro.verify.instrument import ReportBuilder
from repro.verify.report import (
    PROOF_IS_CORRECT,
    PROOF_IS_NOT_CORRECT,
    RESOURCE_LIMIT_EXCEEDED,
    UnsatCore,
    VerificationReport,
    VerificationStats,
)
from repro.verify.streaming import (
    CHECKPOINT_SCHEMA,
    StreamingCheckReport,
    load_checkpoint,
    validate_checkpoint,
    verify_stream,
)
from repro.verify.reconstruct import (
    ReconstructionResult,
    reconstruct_resolution_graph,
)
from repro.verify.trimming import TrimResult, trim_proof
from repro.verify.verification import (
    verify_proof,
    verify_proof_v1,
    verify_proof_v2,
)

__all__ = [
    "verify_proof",
    "verify_proof_v1",
    "verify_proof_v2",
    "trim_proof",
    "verify_stream",
    "StreamingCheckReport",
    "load_checkpoint",
    "validate_checkpoint",
    "CHECKPOINT_SCHEMA",
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
