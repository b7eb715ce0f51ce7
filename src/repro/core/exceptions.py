"""Exception hierarchy for the :mod:`repro` library.

Only *malformed input* conditions raise exceptions.  A proof that fails
verification is not exceptional — it is a legitimate result the paper's
procedures report (``proof_is_not_correct``) — so verification outcomes are
returned as report objects, never raised.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class DimacsParseError(ReproError):
    """Raised when a DIMACS CNF file or string cannot be parsed."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ResolutionError(ReproError):
    """Raised when two clauses cannot be resolved as requested.

    Per the paper (Section 1), a resolution step is valid only when the two
    parent clauses contain opposite literals of *exactly one* variable.
    """


class ProofFormatError(ReproError):
    """Raised when a proof file or proof object is structurally malformed."""


class BudgetExhausted(ReproError):
    """Internal control-flow signal: a check budget ran out.

    Caught by the verification drivers and turned into a
    ``resource_limit_exceeded`` report; user code never sees it unless
    it drives a :class:`~repro.verify.checker.ProofChecker` directly.
    Defined here, not in :mod:`repro.verify.budget`, so the drivers can
    catch it without loading the budget module on unbudgeted runs.
    """


class CircuitError(ReproError):
    """Raised on inconsistent circuit construction (unknown nets, arity)."""


class ModelError(ReproError):
    """Raised on inconsistent transition-system or pipeline construction."""
