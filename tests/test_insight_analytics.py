"""Tests for proof-shape analytics (the paper's Section-5 quantities).

The anchor is the paper's worked example, whose analytics are small
enough to compute by hand: two derived units, each supported by two
input clauses, giving two local clauses, two estimated resolution
nodes against two proof literals (ratio 100%), and a 4-clause core of
the 5-clause formula.
"""

import math

from repro.core.formula import CnfFormula
from repro.obs import Obs, read_jsonl, run_summary, validate_trace
from repro.obs.insight.analytics import (
    ProofShapeAnalytics,
    analytics_footer,
    analyze_proof_shape,
    estimated_resolutions,
    is_local,
)
from repro.proofs.conflict_clause import (
    ENDING_FINAL_PAIR,
    ConflictClauseProof,
)
from repro.verify.verification import verify_proof_v1, verify_proof_v2

PAPER_F = CnfFormula([[1, 2], [1, -2], [-1, 3], [-1, -3], [4, 5]])
PAPER_PROOF = ConflictClauseProof([(1,), (-1,)], ENDING_FINAL_PAIR)


def paper_analytics(obs=None):
    obs = obs if obs is not None else Obs.enabled(depgraph=True)
    report = verify_proof_v2(PAPER_F, PAPER_PROOF, obs=obs)
    assert report.ok
    return analyze_proof_shape(PAPER_PROOF, report, obs.depgraph), report


def paper_trace(path) -> list[dict]:
    """The paper example's trace, closed by a ``run_summary`` event
    carrying its analytics, written to ``path`` and read back."""
    obs = Obs.enabled(depgraph=True)
    analytics, report = paper_analytics(obs)
    obs.event("run_summary",
              **run_summary(obs, "verify", report, analytics))
    obs.tracer.write_jsonl(str(path))
    return read_jsonl(str(path))


class TestEstimators:
    def test_estimated_resolutions(self):
        # Empty support (tautology) derives nothing; a unit support is
        # one step; k antecedents chain through k-1 resolutions.
        assert estimated_resolutions(0) == 0
        assert estimated_resolutions(1) == 1
        assert estimated_resolutions(2) == 1
        assert estimated_resolutions(5) == 4

    def test_local_threshold_matches_stats_module(self):
        # Same scale-free rule as repro.proofs.stats.analyze_log:
        # local iff estimated resolutions <= 2 * max(literals, 1).
        assert is_local(3, 1)          # 2 resolutions vs threshold 2
        assert not is_local(4, 1)      # 3 resolutions vs threshold 2
        assert is_local(9, 4)          # 8 vs 8
        assert not is_local(10, 4)     # 9 vs 8
        assert is_local(0, 0)          # tautology is trivially local


class TestPaperExampleValues:
    """Every quantity hand-computed from the worked example."""

    def test_shape(self):
        analytics, _ = paper_analytics()
        assert analytics.num_proof_clauses == 2
        assert analytics.proof_literals == 2
        assert analytics.checked == 2
        assert analytics.skipped == 0
        assert analytics.marked_fraction == 1.0
        # Each unit has a 2-clause support: 1 resolution each, local.
        assert analytics.local_clauses == 2
        assert analytics.global_clauses == 0
        assert analytics.estimated_resolution_nodes == 2
        assert analytics.max_antecedents == 2
        assert analytics.mean_antecedents == 2.0
        # 2 literals vs 2 resolution nodes: the ratio is exactly 100%.
        assert math.isclose(analytics.ratio_percent, 100.0)

    def test_core(self):
        analytics, report = paper_analytics()
        assert analytics.core_size == 4
        assert math.isclose(analytics.core_fraction, 0.8)
        assert report.core.size == 4

    def test_depths(self):
        analytics, _ = paper_analytics()
        # Both units resolve straight from F: depth 1, twice.
        assert analytics.antecedent_chain_depths == {1: 2}
        assert analytics.max_chain_depth == 1

    def test_props_histogram_populated(self):
        analytics, _ = paper_analytics()
        assert analytics.check_props  # counters were available
        assert analytics.check_props["count"] == 2


class TestV1Analytics:
    def test_no_core_and_full_marking(self):
        obs = Obs.enabled(depgraph=True)
        report = verify_proof_v1(PAPER_F, PAPER_PROOF, obs=obs)
        assert report.ok
        analytics = analyze_proof_shape(PAPER_PROOF, report,
                                        obs.depgraph)
        assert analytics.core_size is None
        assert analytics.core_fraction is None
        assert analytics.checked == 2
        # verification1's per-check evidence matches verification2's.
        assert analytics.local_clauses == 2
        assert analytics.estimated_resolution_nodes == 2


class TestDocument:
    def test_document_validates(self, tmp_path):
        analytics, _ = paper_analytics()
        events = paper_trace(tmp_path / "trace.jsonl")
        assert validate_trace(events) == []
        assert events[-1]["attrs"]["analytics"] == analytics.as_dict()

    def test_written_artifact_validates(self, tmp_path):
        events = paper_trace(tmp_path / "trace.jsonl")
        assert validate_trace(events) == []
        shape = events[-1]["attrs"]["analytics"]
        assert shape["local_clauses"] == 2
        assert shape["ratio_percent"] == 100.0
        assert shape["antecedent_chain_depths"] == {"1": 2}

    def test_footer_lines(self):
        analytics, _ = paper_analytics()
        lines = analytics_footer(analytics)
        assert any("local=2 global=0" in line for line in lines)
        assert any("ratio=100.0%" in line for line in lines)
        assert any("core=4 clauses (80.0% of F)" in line
                   for line in lines)


class TestRatioEdgeCases:
    def test_empty_proof_shape(self):
        shape = ProofShapeAnalytics(
            num_proof_clauses=0, proof_literals=0, checked=0, skipped=0,
            marked_fraction=0.0, local_clauses=0, global_clauses=0,
            estimated_resolution_nodes=0, max_antecedents=0,
            mean_antecedents=0.0)
        assert shape.ratio_percent == 0.0
        assert shape.as_dict()["ratio_percent"] == 0.0

    def test_literals_without_nodes(self):
        shape = ProofShapeAnalytics(
            num_proof_clauses=1, proof_literals=3, checked=0, skipped=1,
            marked_fraction=0.0, local_clauses=0, global_clauses=0,
            estimated_resolution_nodes=0, max_antecedents=0,
            mean_antecedents=0.0)
        assert shape.ratio_percent == float("inf")
        assert shape.as_dict()["ratio_percent"] is None
