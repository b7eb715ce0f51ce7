"""Fault-injection tooling.

Two complementary harnesses:

* :mod:`repro.testing.mutate` — adversarial mutation of known-good
  proofs (logical faults: the checkers must reject);
* :mod:`repro.testing.faults` — operational faults against
  ``repro verify``'s process envelope (truncation, corruption,
  signals, budgets, worker death: typed exit codes, never tracebacks).
"""

from repro.testing.mutate import (
    DEFAULT_V1_CONFIGS,
    EXPECT_ACCEPT,
    EXPECT_ANY,
    EXPECT_REJECT_ALL,
    EXPECT_REJECT_V1,
    KIND_CC,
    KIND_DRUP,
    LIGHT_V1_CONFIGS,
    DifferentialSummary,
    MutationVerdict,
    ProofMutation,
    ProofMutator,
    check_mutation,
    run_differential,
)

# Lazy so `python -m repro.testing.faults` does not import the module
# twice (once for the package, once for runpy).
_FAULT_EXPORTS = ("SCENARIOS", "FaultOutcome", "run_suite")


def __getattr__(name: str):
    if name in _FAULT_EXPORTS:
        from repro.testing import faults

        return getattr(faults, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "SCENARIOS",
    "FaultOutcome",
    "run_suite",
    "ProofMutator",
    "ProofMutation",
    "MutationVerdict",
    "DifferentialSummary",
    "check_mutation",
    "run_differential",
    "DEFAULT_V1_CONFIGS",
    "LIGHT_V1_CONFIGS",
    "EXPECT_REJECT_ALL",
    "EXPECT_REJECT_V1",
    "EXPECT_ACCEPT",
    "EXPECT_ANY",
    "KIND_CC",
    "KIND_DRUP",
]
