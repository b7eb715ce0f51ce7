"""CLI tests for the proof-insight layer.

Covers the insight artifact flags (``--depgraph-out``,
``--depgraph-dot``) and the analytics they feed, the profiling hooks
(``--profile``), the run-history verbs (``repro obs history / compare /
check-regression``) with their exit-code contract, the interrupt-safe
artifact flush (a ^C mid-verification leaves complete, schema-valid
artifacts), and the ``python -m repro.obs.validate`` dispatcher.
"""

import json

import pytest

from repro.cli import EXIT_ERROR, EXIT_INTERRUPT, EXIT_RESOURCE_LIMIT, main
from repro.core.dimacs import write_dimacs
from repro.core.formula import CnfFormula
from repro.obs import (
    build_timeline,
    read_jsonl,
    validate_depgraph,
    validate_trace,
)
from repro.obs.insight.depgraph import read_depgraph_jsonl
from repro.obs.insight.history import RUN_SCHEMA, HistoryStore
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
                     "--trace-out", str(trace),
                     "--no-history"])
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
                     "--stats", "--no-history"])
        assert code == 0
        out = capsys.readouterr().out
        assert "c insight: local=" in out
        assert "c insight: core=" in out  # verification2 default

    def test_depgraph_under_jobs(self, unsat_cnf, good_proof, tmp_path,
                                 capsys):
        dep = tmp_path / "dep.jsonl"
        code = main(["verify", str(unsat_cnf), str(good_proof),
                     "--procedure", "verification1", "--mode", "rebuild",
                     "--jobs", "2", "--depgraph-out", str(dep),
                     "--no-history"])
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
                     "--trace-out", str(trace),
                     "--no-history"]) == 0
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


class TestProfile:
    def test_profile_artifacts(self, unsat_cnf, good_proof, tmp_path,
                               capsys):
        prof = tmp_path / "run.prof"
        code = main(["verify", str(unsat_cnf), str(good_proof),
                     "--profile", str(prof), "--no-history"])
        assert code == 0
        assert "c profile written to" in capsys.readouterr().out
        assert prof.exists()
        folded = (tmp_path / "run.prof.folded").read_text()
        # Collapsed stacks: "frame;frame;frame weight" lines.
        assert any(line.rsplit(" ", 1)[-1].isdigit()
                   for line in folded.splitlines() if line)
        phases = json.loads((tmp_path / "run.prof.phases.json")
                            .read_text())
        assert "phase_times" in phases

    def test_profile_is_loadable_pstats(self, unsat_cnf, good_proof,
                                        tmp_path):
        import pstats

        prof = tmp_path / "run.prof"
        assert main(["verify", str(unsat_cnf), str(good_proof),
                     "--profile", str(prof), "--no-history"]) == 0
        stats = pstats.Stats(str(prof))
        assert stats.total_calls > 0


class TestHistoryVerbs:
    def run_verify(self, unsat_cnf, good_proof, history):
        return main(["verify", str(unsat_cnf), str(good_proof),
                     "--history-dir", str(history)])

    def test_verify_records_history_by_default(self, unsat_cnf,
                                               good_proof, tmp_path):
        history = tmp_path / "hist"
        assert self.run_verify(unsat_cnf, good_proof, history) == 0
        records = HistoryStore(str(history)).read()
        assert len(records) == 1
        assert records[0]["schema"] == RUN_SCHEMA
        assert records[0]["outcome"] == "proof_is_correct"
        assert records[0]["instance"] == str(unsat_cnf)

    def test_no_history_flag(self, unsat_cnf, good_proof, tmp_path):
        history = tmp_path / "hist"
        assert main(["verify", str(unsat_cnf), str(good_proof),
                     "--history-dir", str(history),
                     "--no-history"]) == 0
        assert HistoryStore(str(history)).read() == []

    def test_history_listing(self, unsat_cnf, good_proof, tmp_path,
                             capsys):
        history = tmp_path / "hist"
        self.run_verify(unsat_cnf, good_proof, history)
        capsys.readouterr()
        assert main(["obs", "history", "--history-dir",
                     str(history)]) == 0
        out = capsys.readouterr().out
        assert "outcome" in out and "proof_is_correct" in out

    def test_compare_prints_delta_table(self, unsat_cnf, good_proof,
                                        tmp_path, capsys):
        history = tmp_path / "hist"
        self.run_verify(unsat_cnf, good_proof, history)
        self.run_verify(unsat_cnf, good_proof, history)
        capsys.readouterr()
        assert main(["obs", "compare", "-2", "-1",
                     "--history-dir", str(history)]) == 0
        out = capsys.readouterr().out
        for metric in ("wall_time", "props_per_sec", "checks"):
            assert metric in out
        assert "delta%" in out

    def test_check_regression_identical_runs_exit_0(
            self, unsat_cnf, good_proof, tmp_path, capsys):
        history = tmp_path / "hist"
        self.run_verify(unsat_cnf, good_proof, history)
        records = HistoryStore(str(history)).read()
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(records[-1]))
        capsys.readouterr()
        code = main(["obs", "check-regression",
                     "--baseline", str(baseline), "--current", "-1",
                     "--history-dir", str(history),
                     "--max-wall-pct", "0",
                     "--max-props-drop-pct", "0",
                     "--max-phase-pct", "0"])
        assert code == 0
        assert "c no regression past thresholds" \
            in capsys.readouterr().out

    def test_check_regression_seeded_slowdown_exits_3(
            self, unsat_cnf, good_proof, tmp_path, capsys):
        history = tmp_path / "hist"
        self.run_verify(unsat_cnf, good_proof, history)
        record = HistoryStore(str(history)).read()[-1]
        # Seed a baseline that was twice as fast as the real run.
        seeded = dict(record)
        seeded["id"] = "baseline-seeded"
        seeded["wall_time"] = record["wall_time"] / 2 or 0.001
        seeded["props_per_sec"] = (record["props_per_sec"] or 1.0) * 2
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(seeded))
        capsys.readouterr()
        code = main(["obs", "check-regression",
                     "--baseline", str(baseline), "--current", "-1",
                     "--history-dir", str(history),
                     "--max-wall-pct", "25",
                     "--max-props-drop-pct", "25"])
        assert code == EXIT_RESOURCE_LIMIT
        out = capsys.readouterr().out
        assert "c regression:" in out
        assert "props_per_sec dropped" in out

    def test_missing_selector_exits_2(self, tmp_path, capsys):
        code = main(["obs", "compare", "-2", "-1",
                     "--history-dir", str(tmp_path / "empty")])
        assert code == EXIT_ERROR
        assert "c error:" in capsys.readouterr().err

    def test_verify_drup_records_history(self, unsat_cnf, tmp_path,
                                         capsys):
        drup = tmp_path / "trace.drup"
        assert main(["solve", str(unsat_cnf), "--drup",
                     str(drup)]) == 20
        history = tmp_path / "hist"
        assert main(["verify-drup", str(unsat_cnf), str(drup),
                     "--history-dir", str(history)]) == 0
        records = HistoryStore(str(history)).read()
        assert len(records) == 1
        assert records[0]["command"] == "verify-drup"


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
                     "--trace-out", str(trace),
                     "--no-history"])
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

    def test_interrupt_with_profile(self, unsat_cnf, good_proof,
                                    tmp_path, monkeypatch, capsys):
        self.interrupt_after(monkeypatch, 0)
        prof = tmp_path / "run.prof"
        code = main(["verify", str(unsat_cnf), str(good_proof),
                     "--profile", str(prof), "--no-history"])
        assert code == EXIT_INTERRUPT
        assert prof.exists()  # the profile of the partial run

    def test_no_tmp_litter_after_interrupt(self, unsat_cnf, good_proof,
                                           tmp_path, monkeypatch):
        self.interrupt_after(monkeypatch, 1)
        dep = tmp_path / "dep.jsonl"
        main(["verify", str(unsat_cnf), str(good_proof),
              "--depgraph-out", str(dep), "--no-history"])
        # Atomic writes never leave *.tmp behind.
        assert not list(tmp_path.glob("*.tmp"))


class TestTimelineCli:
    """The ``repro obs timeline`` / ``obs top`` / ``history prune``
    operational verbs, end to end through the CLI."""

    def _trace(self, unsat_cnf, good_proof, tmp_path, jobs=None):
        trace = tmp_path / "trace.jsonl"
        argv = ["verify", str(unsat_cnf), str(good_proof),
                "--trace-out", str(trace), "--no-history"]
        if jobs:
            argv += ["--procedure", "verification1",
                     "--jobs", str(jobs)]
        assert main(argv) == 0
        return trace

    def test_timeline_artifact_validates(self, unsat_cnf, good_proof,
                                         tmp_path, capsys):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("parallel backend needs fork")
        trace = self._trace(unsat_cnf, good_proof, tmp_path, jobs=2)
        out_html = tmp_path / "timeline.html"
        capsys.readouterr()
        assert main(["obs", "timeline", str(trace),
                     "--html", str(out_html)]) == 0
        out = capsys.readouterr().out
        assert "utilization=" in out
        assert "critical path" in out
        # The timeline is a view derived from the trace on demand.
        doc = build_timeline(read_jsonl(trace))
        assert doc["utilization"] is not None
        assert doc["attribution"] is not None
        assert doc["dropped"] == {"duplicates": 0, "orphans": 0,
                                  "open": 0}
        assert out_html.read_text().startswith("<!DOCTYPE html>")
        assert validate_main([str(trace)]) == 0  # sniffed

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

    def test_live_dir_and_top(self, unsat_cnf, good_proof, tmp_path,
                              capsys):
        live = tmp_path / "live"
        assert main(["verify", str(unsat_cnf), str(good_proof),
                     "--live-dir", str(live), "--no-history"]) == 0
        files = list(live.glob("*.json"))
        assert len(files) == 1
        doc = json.loads(files[0].read_text())
        assert doc["schema"] == "repro.obs.live/v1"
        assert doc["state"] == "done"
        assert doc["meta"]["command"] == "verify"
        capsys.readouterr()
        assert main(["obs", "top", "--live-dir", str(live)]) == 0
        out = capsys.readouterr().out
        assert "RUN" in out and "done" in out

    def test_top_empty_dir(self, tmp_path, capsys):
        assert main(["obs", "top",
                     "--live-dir", str(tmp_path / "none")]) == 0
        assert "no live runs" in capsys.readouterr().out

    def test_history_prune(self, unsat_cnf, good_proof, tmp_path,
                           capsys):
        history = tmp_path / "hist"
        for _ in range(3):
            assert main(["verify", str(unsat_cnf), str(good_proof),
                         "--history-dir", str(history)]) == 0
        capsys.readouterr()
        assert main(["obs", "history", "--history-dir", str(history),
                     "prune", "--keep", "1"]) == 0
        assert "2 fingerprint(s) removed" in capsys.readouterr().out
        assert len(HistoryStore(str(history)).read()) == 1

    def test_parallel_history_carries_attribution(
            self, unsat_cnf, good_proof, tmp_path):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("parallel backend needs fork")
        history = tmp_path / "hist"
        assert main(["verify", str(unsat_cnf), str(good_proof),
                     "--procedure", "verification1", "--jobs", "2",
                     "--history-dir", str(history)]) == 0
        record = HistoryStore(str(history)).read()[-1]
        attribution = record["attribution"]
        assert attribution is not None
        assert attribution["workers"] >= 1
        assert 0.0 <= attribution["utilization"] <= 1.0
        assert attribution["shards"]

    def test_min_utilization_gate_exits_3(self, unsat_cnf, good_proof,
                                          tmp_path, capsys):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("parallel backend needs fork")
        history = tmp_path / "hist"
        assert main(["verify", str(unsat_cnf), str(good_proof),
                     "--procedure", "verification1", "--jobs", "2",
                     "--history-dir", str(history)]) == 0
        capsys.readouterr()
        code = main(["obs", "check-regression",
                     "--history-dir", str(history),
                     "--baseline", "-1", "--current", "-1",
                     "--min-utilization", "100"])
        assert code == EXIT_RESOURCE_LIMIT
        assert "utilization" in capsys.readouterr().out
