"""Tests for the proof dependency-graph recorder and artifact.

The graph is the paper's Section-4 marking machinery made visible:
every checked clause's conflict-analysis support, exported as a
schema-versioned JSONL artifact.  The pinned guarantees: the paper's
worked example produces exactly the hand-derivable graph, the artifact
round-trips, validates, and — after :func:`depgraph_deterministic_view`
— is identical across ``jobs=1`` and ``jobs=4`` under the counting
engine in rebuild mode; and capturing changes nothing the run reports.
"""

import random

import pytest

from repro.core.formula import CnfFormula
from repro.obs import Obs, validate_depgraph
from repro.obs.insight.depgraph import (
    DEPGRAPH_SCHEMA,
    DepGraphRecorder,
    depgraph_deterministic_view,
    depgraph_header,
    depgraph_records,
    depgraph_to_dot,
    read_depgraph_jsonl,
    write_depgraph_jsonl,
)
from repro.proofs.conflict_clause import (
    ENDING_FINAL_PAIR,
    ConflictClauseProof,
)
from repro.solver.cdcl import solve
from repro.verify.verification import verify_proof_v1, verify_proof_v2


# The paper's running example (Section 2): F has a refutation through
# the derived units (1) and (-1); clause (4 5) is padding.
PAPER_F = CnfFormula([[1, 2], [1, -2], [-1, 3], [-1, -3], [4, 5]])
PAPER_PROOF = ConflictClauseProof([(1,), (-1,)], ENDING_FINAL_PAIR)


def random_unsat_instance(seed: int = 7, min_proof: int = 6):
    rng = random.Random(seed)
    while True:
        clauses = [[rng.choice([1, -1]) * v
                    for v in rng.sample(range(1, 13), 3)]
                   for _ in range(50)]
        formula = CnfFormula(clauses)
        result = solve(formula)
        if result.is_unsat:
            proof = ConflictClauseProof.from_log(result.log)
            if len(proof) >= min_proof:
                return formula, proof


class TestRecorder:
    def test_record_check_normalizes_antecedents(self):
        recorder = DepGraphRecorder()
        recorder.record_check(0, 7, [5, 3, 5, 7], confl=3, props=12)
        (record,) = recorder.checks
        # Sorted, deduplicated, and the checked clause itself excluded.
        assert record["antecedents"] == [3, 5]
        assert record["confl"] == 3
        assert record["props"] == 12

    def test_totals(self):
        recorder = DepGraphRecorder()
        recorder.record_check(0, 5, [0, 1])
        recorder.record_check(1, 6, [2, 3, 5])
        assert recorder.num_checks == 2
        assert recorder.num_edges == 5

    def test_merge_is_order_independent(self):
        records = [{"type": "check", "index": i, "cid": 10 + i,
                    "antecedents": [i], "confl": i, "props": None}
                   for i in range(6)]
        forward, shuffled = DepGraphRecorder(), DepGraphRecorder()
        forward.merge(records)
        mixed = list(records)
        random.Random(3).shuffle(mixed)
        shuffled.merge(mixed[:3])
        shuffled.merge(mixed[3:])
        assert forward.sorted_checks() == shuffled.sorted_checks()


class TestPaperExample:
    """Hand-derivable graph of the paper's worked example.

    Checking (1) falsifies it; BCP over {(1 2), (1 -2)} conflicts, so
    both are responsible.  Checking (-1) under marked (1): BCP over
    {(-1 3), (-1 -3)} conflicts.  Clause (4 5) supports nothing.
    """

    def run(self):
        obs = Obs.enabled(depgraph=True)
        report = verify_proof_v2(PAPER_F, PAPER_PROOF, mode="rebuild",
                                 obs=obs)
        assert report.ok
        return obs.depgraph.sorted_checks()

    def test_exact_antecedents(self):
        first, second = self.run()
        assert first["index"] == 0 and first["cid"] == 5
        assert first["antecedents"] == [0, 1]
        assert second["index"] == 1 and second["cid"] == 6
        assert second["antecedents"] == [2, 3]

    def test_padding_clause_never_referenced(self):
        referenced = set()
        for record in self.run():
            referenced.update(record["antecedents"])
        assert 4 not in referenced  # (4 5) is not in any support


class TestArtifact:
    def make_lines(self, tmp_path):
        obs = Obs.enabled(depgraph=True)
        report = verify_proof_v2(PAPER_F, PAPER_PROOF, mode="rebuild",
                                 obs=obs)
        assert report.ok
        path = tmp_path / "dep.jsonl"
        lines = write_depgraph_jsonl(
            path, obs.depgraph, {"id": "r-test"},
            num_input=PAPER_F.num_clauses, num_proof=len(PAPER_PROOF),
            procedure="verification2", mode="rebuild")
        return path, lines

    def test_round_trip(self, tmp_path):
        path, lines = self.make_lines(tmp_path)
        assert read_depgraph_jsonl(path) == lines
        header = lines[0]
        assert header["schema"] == DEPGRAPH_SCHEMA
        assert header["meta"]["num_input"] == 5
        assert header["meta"]["num_proof"] == 2

    def test_validates(self, tmp_path):
        _, lines = self.make_lines(tmp_path)
        assert validate_depgraph(lines) == []

    def test_validator_rejects_cid_mismatch(self, tmp_path):
        _, lines = self.make_lines(tmp_path)
        lines[1]["cid"] += 1  # breaks cid == num_input + index
        assert any("cid" in problem
                   for problem in validate_depgraph(lines))

    def test_validator_rejects_forward_edge(self, tmp_path):
        _, lines = self.make_lines(tmp_path)
        lines[1]["antecedents"] = [lines[1]["cid"] + 1]
        assert validate_depgraph(lines)

    def test_deterministic_view_strips_volatile_fields(self, tmp_path):
        _, lines = self.make_lines(tmp_path)
        view = depgraph_deterministic_view(lines)
        assert "jobs" not in view["meta"]
        assert all("props" not in record for record in view["checks"])
        assert [record["antecedents"] for record in view["checks"]] \
            == [[0, 1], [2, 3]]

    def test_dot_output(self, tmp_path):
        _, lines = self.make_lines(tmp_path)
        dot = depgraph_to_dot(lines)
        assert dot.startswith("digraph depgraph {")
        assert 'c0 [shape=box, label="F[0]"];' in dot
        assert 'p0 [shape=ellipse, label="F*[0]"];' in dot
        assert "c0 -> p0;" in dot
        assert "p0 -> p1;" not in dot  # (-1)'s support is F-only

    def test_dot_truncation(self, tmp_path):
        _, lines = self.make_lines(tmp_path)
        dot = depgraph_to_dot(lines, max_nodes=2)
        assert "truncated" in dot

    def test_records_normalizer_accepts_all_shapes(self, tmp_path):
        obs = Obs.enabled(depgraph=True)
        verify_proof_v2(PAPER_F, PAPER_PROOF, mode="rebuild", obs=obs)
        from_recorder = depgraph_records(obs.depgraph)
        path, lines = self.make_lines(tmp_path)
        assert depgraph_records(lines) == from_recorder
        assert depgraph_records(from_recorder) == from_recorder


class TestShardingIndependence:
    """The acceptance guarantee: identical artifact for any --jobs."""

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_rebuild_view_identical_across_jobs(self, jobs):
        formula, proof = random_unsat_instance()
        views = []
        for job_count in (1, jobs):
            obs = Obs.enabled(depgraph=True)
            report = verify_proof_v1(formula, proof, "counting",
                                     mode="rebuild", jobs=job_count,
                                     obs=obs)
            assert report.ok
            header = depgraph_header(
                {"id": f"r-{job_count}"},
                num_input=formula.num_clauses, num_proof=len(proof),
                procedure="verification1", mode="rebuild",
                jobs=job_count)
            views.append(depgraph_deterministic_view(
                [header] + obs.depgraph.sorted_checks()))
        assert views[0] == views[1]

    @pytest.mark.parametrize("verify", [verify_proof_v1,
                                        verify_proof_v2])
    def test_capture_keeps_the_uncaptured_run(self, verify):
        """A recorder only watches: the captured run reports the
        engine, checks, core and BCP work of the run without it."""
        formula, proof = random_unsat_instance()
        plain = verify(formula, proof)
        captured = verify(formula, proof,
                          obs=Obs.enabled(depgraph=True))
        for name in ("engine", "num_checked", "core", "bcp_counters"):
            assert getattr(captured, name) == getattr(plain, name), name

    @pytest.mark.parametrize("mode", ["rebuild", "incremental"])
    def test_v2_supports_lie_in_final_marks(self, mode):
        # verification2 propagates over marked clauses first, so its
        # supports depend on earlier checks' marks and may differ from
        # verification1's; they must still be earlier clauses that the
        # run ends up marking.
        formula, proof = random_unsat_instance()
        obs = Obs.enabled(depgraph=True)
        report = verify_proof_v2(formula, proof, mode=mode, obs=obs)
        assert report.ok
        num_input = formula.num_clauses
        marks = set(report.core.clause_indices) | {
            num_input + index for index in report.marked_proof_indices}
        records = obs.depgraph.sorted_checks()
        assert records
        for record in records:
            assert record["cid"] in marks
            assert all(cid < record["cid"] and cid in marks
                       for cid in record["antecedents"])

    @pytest.mark.parametrize("mode", ["rebuild", "incremental"])
    def test_v2_capture_is_reproducible(self, mode):
        formula, proof = random_unsat_instance()
        captures = []
        for _ in range(2):
            obs = Obs.enabled(depgraph=True)
            assert verify_proof_v2(formula, proof, mode=mode, obs=obs).ok
            captures.append(obs.depgraph.sorted_checks())
        assert captures[0] == captures[1]
