"""CLI tests for the proof-insight layer.

Covers the insight artifact flags (``--depgraph-out``,
``--depgraph-dot``) and the analytics they feed, the interrupt-safe
artifact flush (a ^C mid-verification leaves complete, schema-valid
artifacts), the ``repro obs timeline`` verb, and the
``python -m repro.obs.validate`` dispatcher.
"""

import json

import pytest

from repro.cli import EXIT_ERROR, EXIT_INTERRUPT, main
from repro.core.dimacs import write_dimacs
from repro.core.formula import CnfFormula
from repro.obs import (
    build_timeline,
    read_jsonl,
    validate_depgraph,
    validate_trace,
)
from repro.obs.insight.depgraph import read_depgraph_jsonl
from repro.obs.validate import main as validate_main


@pytest.fixture
def unsat_cnf(tmp_path):
    path = tmp_path / "unsat.cnf"
    write_dimacs(CnfFormula([[1, 2], [1, -2], [-1, 2], [-1, -2],
                             [3, 4]]), path)
    return path


@pytest.fixture
def good_proof(unsat_cnf, tmp_path):
    path = tmp_path / "good.ccp"
    assert main(["solve", str(unsat_cnf), "--proof", str(path)]) == 20
    return path


class TestInsightArtifacts:
    def test_depgraph_and_analytics(self, unsat_cnf, good_proof,
                                    tmp_path, capsys):
        dep = tmp_path / "dep.jsonl"
        dot = tmp_path / "dep.dot"
        trace = tmp_path / "trace.jsonl"
        code = main(["verify", str(unsat_cnf), str(good_proof),
                     "--depgraph-out", str(dep),
                     "--depgraph-dot", str(dot),
                     "--trace-out", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "c depgraph written to" in out

        lines = read_depgraph_jsonl(dep)
        assert validate_depgraph(lines) == []
        assert lines[0]["meta"]["num_input"] == 5
        assert dot.read_text().startswith("digraph depgraph {")

        # The analytics ride the trace's closing run_summary event.
        events = read_jsonl(trace)
        assert validate_trace(events) == []
        shape = events[-1]["attrs"]["analytics"]
        assert shape["checked"] >= 1
        assert shape["local_clauses"] + shape["global_clauses"] \
            == shape["checked"]

    def test_stats_footer_gains_insight_lines(self, unsat_cnf,
                                              good_proof, tmp_path,
                                              capsys):
        code = main(["verify", str(unsat_cnf), str(good_proof),
                     "--depgraph-out", str(tmp_path / "dep.jsonl"),
                     "--stats"])
        assert code == 0
        out = capsys.readouterr().out
        assert "c insight: local=" in out
        assert "c insight: core=" in out  # verification2 default

    def test_depgraph_under_jobs(self, unsat_cnf, good_proof, tmp_path,
                                 capsys):
        dep = tmp_path / "dep.jsonl"
        code = main(["verify", str(unsat_cnf), str(good_proof),
                     "--procedure", "verification1", "--engine",
                     "counting", "--mode", "rebuild", "--jobs", "2",
                     "--depgraph-out", str(dep)])
        assert code == 0
        lines = read_depgraph_jsonl(dep)
        assert validate_depgraph(lines) == []
        assert lines[0]["meta"]["jobs"] == 2
        assert len(lines) > 1  # worker buffers made it back

    def test_validate_dispatcher(self, unsat_cnf, good_proof, tmp_path,
                                 capsys):
        dep = tmp_path / "dep.jsonl"
        trace = tmp_path / "trace.jsonl"
        assert main(["verify", str(unsat_cnf), str(good_proof),
                     "--depgraph-out", str(dep),
                     "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        # Each file is dispatched on the schema id it declares.
        assert validate_main([str(dep), str(trace)]) == 0
        out = capsys.readouterr().out
        assert out.count("ok:") == 2
        # There are no per-schema flags: dispatch is by declared id.
        with pytest.raises(SystemExit):
            validate_main(["--trace", str(trace)])

    def test_validate_rejects_unknown_schema(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"schema": "nope/v9"}))
        assert validate_main([str(bogus)]) == 1
        out = capsys.readouterr().out
        assert "unknown schema id 'nope/v9'" in out
        assert "repro.obs.depgraph/v1" in out  # names the known ids


class TestInterruptFlush:
    """Satellite S1: ^C mid-verification still flushes every artifact."""

    def interrupt_after(self, monkeypatch, calls: int):
        from repro.verify.checker import ProofChecker

        original = ProofChecker.check_clause
        state = {"calls": 0}

        def flaky(self, index):
            state["calls"] += 1
            if state["calls"] > calls:
                raise KeyboardInterrupt
            return original(self, index)

        monkeypatch.setattr(ProofChecker, "check_clause", flaky)

    def test_partial_artifacts_flushed(self, unsat_cnf, good_proof,
                                       tmp_path, monkeypatch, capsys):
        self.interrupt_after(monkeypatch, 1)
        dep = tmp_path / "dep.jsonl"
        trace = tmp_path / "trace.jsonl"
        code = main(["verify", str(unsat_cnf), str(good_proof),
                     "--depgraph-out", str(dep),
                     "--trace-out", str(trace)])
        assert code == EXIT_INTERRUPT
        captured = capsys.readouterr()
        assert "c error: interrupted" in captured.err

        # The partial depgraph is complete-as-written and schema-valid.
        lines = read_depgraph_jsonl(dep)
        assert validate_depgraph(lines) == []
        assert lines[0]["run"]["interrupted"] is True
        assert len(lines) == 2  # exactly the one completed check

        events = read_jsonl(trace)
        assert validate_trace(events) == []
        summary = events[-1]["attrs"]
        assert summary["interrupted"] is True
        assert summary["elapsed"] is None
        assert summary["stats"] is None

    def test_no_tmp_litter_after_interrupt(self, unsat_cnf, good_proof,
                                           tmp_path, monkeypatch):
        self.interrupt_after(monkeypatch, 1)
        dep = tmp_path / "dep.jsonl"
        main(["verify", str(unsat_cnf), str(good_proof),
              "--depgraph-out", str(dep)])
        # Atomic writes never leave *.tmp behind.
        assert not list(tmp_path.glob("*.tmp"))


class TestTimelineCli:
    """The ``repro obs timeline`` verb, end to end through the CLI."""

    def _trace(self, unsat_cnf, good_proof, tmp_path, jobs=None):
        trace = tmp_path / "trace.jsonl"
        argv = ["verify", str(unsat_cnf), str(good_proof),
                "--trace-out", str(trace)]
        if jobs:
            argv += ["--procedure", "verification1",
                     "--jobs", str(jobs)]
        assert main(argv) == 0
        return trace

    def test_timeline_artifact_validates(self, unsat_cnf, good_proof,
                                         tmp_path, capsys):
        from repro.verify.parallel import fork_available

        if not fork_available():
            pytest.skip("the pool forks its workers")
        trace = self._trace(unsat_cnf, good_proof, tmp_path, jobs=2)
        capsys.readouterr()
        assert main(["obs", "timeline", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "utilization=" in out
        assert "critical path" in out
        # The timeline is a view derived from the trace on demand.
        doc = build_timeline(read_jsonl(trace))
        assert doc["utilization"] is not None
        assert doc["attribution"] is not None
        assert doc["dropped"] == {"orphans": 0, "open": 0}
        assert validate_main([str(trace)]) == 0  # sniffed

    def test_timeline_peak_is_max_of_summary_and_shards(
            self, unsat_cnf, good_proof, tmp_path):
        """The memory peak is the parent's one end-of-run read folded
        with every worker's shard peak — never a parent sample that
        fell outside a span."""
        from repro.verify.parallel import fork_available

        if not fork_available():
            pytest.skip("the pool forks its workers")
        events = read_jsonl(self._trace(unsat_cnf, good_proof, tmp_path,
                                        jobs=2))
        doc = build_timeline(events)
        parent_peak = events[-1]["attrs"]["mem"]["peak_rss_bytes"]
        shard_peaks = [row["peak_rss"]
                       for row in doc["attribution"]["shards"]]
        assert parent_peak > 0 and all(shard_peaks)
        assert doc["memory"] == {
            "peak_rss_bytes": max(parent_peak, *shard_peaks)}

    def test_timeline_negative_top_exits_error(
            self, unsat_cnf, good_proof, tmp_path, capsys):
        trace = self._trace(unsat_cnf, good_proof, tmp_path)
        capsys.readouterr()
        assert main(["obs", "timeline", str(trace), "--top", "-1"]) \
            == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "c error: --top must be >= 0" in captured.err

    def test_timeline_sequential_trace(self, unsat_cnf, good_proof,
                                       tmp_path, capsys):
        trace = self._trace(unsat_cnf, good_proof, tmp_path)
        capsys.readouterr()
        assert main(["obs", "timeline", str(trace), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_timeline_missing_file_exits_error(self, tmp_path,
                                               capsys):
        code = main(["obs", "timeline", str(tmp_path / "nope.jsonl")])
        assert code == EXIT_ERROR
        assert "c error:" in capsys.readouterr().err
