"""The record contracts the CLI's output lines depend on.

The verify path's records are plain ``__slots__`` classes and
``NamedTuple`` classes rather than dataclasses (the ``dataclasses`` import
chain costs a short ``repro verify`` process more than its checks).
These tests pin what that change had to keep: keyword construction,
defaults, value equality, ``repr`` and the ``as_dict()`` key order that
the ``c bcp:`` line prints in.
"""

import os
import subprocess
import sys

import repro
from repro.bcp.engine import PropagationCounters
from repro.core.formula import CnfFormula
from repro.verify.checker import CheckOutcome
from repro.verify.report import (
    PROOF_IS_CORRECT,
    UnsatCore,
    VerificationReport,
    VerificationStats,
)
from repro.verify.verification import ScanResult

COUNTER_ORDER = ["assignments", "watch_visits", "clause_visits", "purged",
                 "detach_misses"]


class TestPropagationCounters:
    def test_as_dict_order_is_the_bcp_line_order(self):
        assert list(PropagationCounters().as_dict()) == COUNTER_ORDER

    def test_equal_values_compare_equal(self):
        a = PropagationCounters(assignments=3, purged=1)
        b = PropagationCounters(assignments=3, purged=1)
        assert a == b
        b.watch_visits += 1
        assert a != b
        assert a != a.as_dict()

    def test_keyword_construction_repr_and_reset(self):
        counters = PropagationCounters(clause_visits=7)
        assert repr(counters) == (
            "PropagationCounters(assignments=0, watch_visits=0, "
            "clause_visits=7, purged=0, detach_misses=0)")
        assert counters.total_work() == 7
        counters.reset()
        assert counters == PropagationCounters()

    def test_rebuilt_from_its_dict(self):
        counters = PropagationCounters(1, 2, 3, 4, 5)
        assert PropagationCounters(**counters.as_dict()) == counters


class TestReports:
    def test_report_defaults(self):
        report = VerificationReport(outcome=PROOF_IS_CORRECT,
                                    procedure="verification2",
                                    num_proof_clauses=4)
        defaults = {
            "num_checked": 0, "num_skipped": 0,
            "failed_clause_index": None, "failure_reason": None,
            "verification_time": 0.0, "core": None,
            "marked_proof_indices": (), "mode": "incremental",
            "engine": "watched", "jobs": 1, "bcp_counters": None,
            "stopped_at_index": None, "worker_failures": 0,
            "warnings": (), "stats": None}
        assert {name: getattr(report, name) for name in defaults} \
            == defaults
        assert report.ok and not report.exhausted
        assert report.tested_fraction == 0.0

    def test_report_equality_and_repr(self):
        fields = dict(outcome=PROOF_IS_CORRECT, procedure="verification1",
                      num_proof_clauses=2, num_checked=2)
        assert VerificationReport(**fields) == VerificationReport(**fields)
        assert VerificationReport(**fields) \
            != VerificationReport(**{**fields, "num_checked": 1})
        assert repr(VerificationReport(**fields)).startswith(
            "VerificationReport(outcome='proof_is_correct', "
            "procedure='verification1', num_proof_clauses=2, "
            "num_checked=2, num_skipped=0,")

    def test_stats_defaults_and_dict_order(self):
        stats = VerificationStats()
        assert stats.as_dict() == {"total_time": 0.0, "phase_times": {},
                                   "props": 0, "checks": 0,
                                   "slowest_checks": []}
        assert list(VerificationStats(checks=2).as_dict()) == [
            "total_time", "phase_times", "props", "checks",
            "slowest_checks"]

    def test_core(self):
        formula = CnfFormula([[1], [-1], [2]])
        core = UnsatCore(clause_indices=(0, 1), formula=formula)
        assert core == UnsatCore((0, 1), formula)
        assert core.size == 2
        assert [c.literals for c in core.clauses()] == [(1,), (-1,)]
        assert core.as_formula().num_clauses == 2

    def test_check_outcome_and_scan_result(self):
        assert CheckOutcome(conflict=False) \
            == CheckOutcome(conflict=False, confl_cid=None)
        assert repr(CheckOutcome(True, 3)) \
            == "CheckOutcome(conflict=True, confl_cid=3)"
        result = ScanResult(5, 2, failed_index=9)
        assert (result.num_checked, result.num_skipped, result.failed_index,
                result.budget_reason, result.stopped_at_index) \
            == (5, 2, 9, None, None)


def test_bcp_import_leaves_counting_unloaded():
    """``ENGINES`` names every engine before any engine but watched is
    imported: the CLI's ``--engine`` choices and the parity tests'
    parameters are built from it at import time."""
    code = ("import sys, repro.bcp; "
            "print('repro.bcp.counting' in sys.modules, "
            "tuple(repro.bcp.ENGINES))")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    result = subprocess.run([sys.executable, "-c", code],
                            env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False ('watched', 'counting')"
