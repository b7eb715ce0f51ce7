"""Tests for the command-line interface."""

import pytest

from repro.cli import (
    EXIT_ERROR,
    EXIT_PARSE_ERROR,
    EXIT_RESOURCE_LIMIT,
    EXIT_SAT,
    EXIT_UNSAT,
    main,
)
from repro.core.dimacs import read_dimacs, write_dimacs
from repro.core.formula import CnfFormula
from repro.solver.dpll import dpll_solve


@pytest.fixture
def unsat_cnf(tmp_path):
    path = tmp_path / "unsat.cnf"
    write_dimacs(CnfFormula([[1, 2], [1, -2], [-1, 2], [-1, -2],
                             [3, 4]]), path)
    return path


@pytest.fixture
def sat_cnf(tmp_path):
    path = tmp_path / "sat.cnf"
    write_dimacs(CnfFormula([[1, 2], [-1, 2]]), path)
    return path


class TestSolve:
    def test_sat_exit_and_model(self, sat_cnf, capsys):
        code = main(["solve", str(sat_cnf)])
        assert code == EXIT_SAT
        out = capsys.readouterr().out
        assert "s SAT" in out
        assert out.splitlines()[-1].startswith("v ")

    def test_unsat_writes_proof(self, unsat_cnf, tmp_path, capsys):
        proof_path = tmp_path / "out.ccp"
        code = main(["solve", str(unsat_cnf), "--proof",
                     str(proof_path), "--stats"])
        assert code == EXIT_UNSAT
        assert proof_path.exists()
        out = capsys.readouterr().out
        assert "s UNSAT" in out
        assert "c conflicts=" in out

    def test_learning_option(self, unsat_cnf):
        assert main(["solve", str(unsat_cnf),
                     "--learning", "decision"]) == EXIT_UNSAT


class TestVerify:
    def test_roundtrip(self, unsat_cnf, tmp_path, capsys):
        proof_path = tmp_path / "out.ccp"
        main(["solve", str(unsat_cnf), "--proof", str(proof_path)])
        code = main(["verify", str(unsat_cnf), str(proof_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "s PROOF_IS_CORRECT" in out
        assert "c unsat core:" in out

    def test_v1_procedure(self, unsat_cnf, tmp_path, capsys):
        proof_path = tmp_path / "out.ccp"
        main(["solve", str(unsat_cnf), "--proof", str(proof_path)])
        code = main(["verify", str(unsat_cnf), str(proof_path),
                     "--procedure", "verification1"])
        assert code == 0

    def test_rejects_wrong_proof(self, unsat_cnf, sat_cnf, tmp_path,
                                 capsys):
        proof_path = tmp_path / "out.ccp"
        main(["solve", str(unsat_cnf), "--proof", str(proof_path)])
        code = main(["verify", str(sat_cnf), str(proof_path)])
        assert code == 1
        assert "questionable clause" in capsys.readouterr().out


class TestCore:
    def test_core_extraction(self, unsat_cnf, tmp_path, capsys):
        proof_path = tmp_path / "out.ccp"
        core_path = tmp_path / "core.cnf"
        main(["solve", str(unsat_cnf), "--proof", str(proof_path)])
        code = main(["core", str(unsat_cnf), str(proof_path),
                     "--output", str(core_path)])
        assert code == 0
        core = read_dimacs(core_path)
        assert dpll_solve(core).is_unsat
        assert core.num_clauses <= 4  # the padding clause is dropped

    def test_core_matches_verify(self, tmp_path, capsys):
        """``repro core`` extracts the core ``repro verify`` reports,
        on an instance whose rebuild and incremental cores differ."""
        from repro.benchgen.random_unsat import random_ksat
        from repro.proofs.trace_format import read_proof
        from repro.verify.verification import verify_proof

        cnf, proof_path = tmp_path / "r.cnf", tmp_path / "r.ccp"
        core_path = tmp_path / "core.cnf"
        write_dimacs(random_ksat(20, 92, seed=19), cnf)
        assert main(["solve", str(cnf), "--proof",
                     str(proof_path)]) == EXIT_UNSAT
        formula, proof = read_dimacs(cnf), read_proof(proof_path)
        sizes = {mode: verify_proof(formula, proof, mode=mode).core.size
                 for mode in ("rebuild", "incremental")}
        assert sizes["rebuild"] != sizes["incremental"]
        capsys.readouterr()
        assert main(["verify", str(cnf), str(proof_path)]) == 0
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("c unsat core:"))
        reported = int(line.split()[3].split("/")[0])
        assert main(["core", str(cnf), str(proof_path),
                     "--output", str(core_path)]) == 0
        assert read_dimacs(core_path).num_clauses == reported

    def test_extract_core_matches_cli(self, tmp_path, capsys):
        """The library's ``extract_core`` returns the core ``repro
        core`` prints: both default to incremental mode."""
        from repro.benchgen.random_unsat import random_ksat
        from repro.proofs.trace_format import read_proof
        from repro.verify.core_extraction import extract_core

        cnf, proof_path = tmp_path / "r.cnf", tmp_path / "r.ccp"
        write_dimacs(random_ksat(20, 92, seed=4), cnf)
        assert main(["solve", str(cnf), "--proof",
                     str(proof_path)]) == EXIT_UNSAT
        capsys.readouterr()
        assert main(["core", str(cnf), str(proof_path)]) == 0
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("c core:"))
        reported = int(line.split()[2].split("/")[0])
        core = extract_core(read_dimacs(cnf), read_proof(proof_path))
        assert core.size == reported

    def test_core_rejects_bad_proof(self, sat_cnf, unsat_cnf, tmp_path):
        proof_path = tmp_path / "out.ccp"
        main(["solve", str(unsat_cnf), "--proof", str(proof_path)])
        assert main(["core", str(sat_cnf), str(proof_path)]) == 1


class TestDrupCli:
    def test_solve_writes_drup_and_verify_drup(self, unsat_cnf, tmp_path,
                                               capsys):
        drup_path = tmp_path / "out.drup"
        code = main(["solve", str(unsat_cnf), "--drup", str(drup_path)])
        assert code == EXIT_UNSAT
        assert drup_path.exists()
        assert "DRUP trace written" in capsys.readouterr().out

        code = main(["verify-stream", str(unsat_cnf), str(drup_path)])
        assert code == 0
        assert "s PROOF_IS_CORRECT" in capsys.readouterr().out

    def test_verify_drup_rejects_wrong_formula(self, unsat_cnf, sat_cnf,
                                               tmp_path, capsys):
        drup_path = tmp_path / "out.drup"
        main(["solve", str(unsat_cnf), "--drup", str(drup_path)])
        code = main(["verify-stream", str(sat_cnf), str(drup_path)])
        assert code == 1
        assert "failed at event" in capsys.readouterr().out


@pytest.fixture
def good_proof(unsat_cnf, tmp_path):
    proof_path = tmp_path / "good.ccp"
    main(["solve", str(unsat_cnf), "--proof", str(proof_path)])
    return proof_path


class TestErrorHandling:
    """Operational failures exit with typed codes and a one-line
    ``c error:`` diagnostic on stderr — never a traceback."""

    def test_garbage_cnf_exits_65(self, tmp_path, good_proof, capsys):
        bad = tmp_path / "bad.cnf"
        bad.write_text("garbage !! not dimacs\n")
        code = main(["verify", str(bad), str(good_proof)])
        assert code == EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert err.startswith("c error:")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_truncated_proof_exits_65(self, unsat_cnf, good_proof,
                                      tmp_path, capsys):
        truncated = tmp_path / "trunc.ccp"
        truncated.write_bytes(good_proof.read_bytes()[:-2])
        code = main(["verify", str(unsat_cnf), str(truncated)])
        assert code == EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert err.startswith("c error:")
        assert "Traceback" not in err

    def test_binary_garbage_proof_exits_65(self, unsat_cnf, tmp_path,
                                           capsys):
        bad = tmp_path / "bad.ccp"
        bad.write_bytes(b"\x01\x02\x03 not a proof")
        code = main(["verify", str(unsat_cnf), str(bad)])
        assert code == EXIT_PARSE_ERROR
        assert capsys.readouterr().err.startswith("c error:")

    def test_usage_error_before_parse(self, tmp_path, good_proof,
                                      capsys):
        """A flag clash is a usage error (exit 2) caught before any
        file is read, so a malformed CNF does not mask it."""
        bad = tmp_path / "bad.cnf"
        bad.write_text("garbage !! not dimacs\n")
        code = main(["verify", str(bad), str(good_proof), "--jobs", "2"])
        assert code == EXIT_ERROR
        assert "c error: --jobs requires --procedure verification1" \
            in capsys.readouterr().err

    def test_missing_file_exits_2(self, good_proof, capsys):
        code = main(["verify", "/nonexistent/f.cnf", str(good_proof)])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err.startswith("c error:")

    def test_strict_flag_rejects_headerless(self, tmp_path, good_proof,
                                            capsys):
        headerless = tmp_path / "nohead.cnf"
        headerless.write_text("1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n3 4 0\n")
        assert main(["verify", str(headerless), str(good_proof)]) == 0
        capsys.readouterr()
        code = main(["verify", str(headerless), str(good_proof),
                     "--strict"])
        assert code == EXIT_PARSE_ERROR
        assert capsys.readouterr().err.startswith("c error:")

    def test_garbage_drup_exits_65(self, unsat_cnf, tmp_path, capsys):
        bad = tmp_path / "bad.drup"
        bad.write_text("1 2 without terminator\n")
        code = main(["verify-stream", str(unsat_cnf), str(bad)])
        assert code == EXIT_PARSE_ERROR
        assert capsys.readouterr().err.startswith("c error:")


class TestBudgetCli:
    def test_verify_budget_exits_3(self, unsat_cnf, good_proof, capsys):
        code = main(["verify", str(unsat_cnf), str(good_proof),
                     "--max-props", "1"])
        assert code == EXIT_RESOURCE_LIMIT
        out = capsys.readouterr().out
        assert "s RESOURCE_LIMIT_EXCEEDED" in out
        assert "c budget exhausted:" in out

    def test_verify_drup_timeout_exits_3(self, unsat_cnf, tmp_path,
                                         capsys):
        drup_path = tmp_path / "t.drup"
        main(["solve", str(unsat_cnf), "--drup", str(drup_path)])
        capsys.readouterr()
        code = main(["verify-stream", str(unsat_cnf), str(drup_path),
                     "--timeout", "0.000001"])
        assert code == EXIT_RESOURCE_LIMIT
        assert "s RESOURCE_LIMIT_EXCEEDED" in capsys.readouterr().out

    def test_jobs_deadline_before_any_shard_prints_zero_counters(
            self, unsat_cnf, good_proof, tmp_path, monkeypatch, capsys):
        """A ``--jobs`` run whose deadline has passed before any shard
        result arrives prints every ``c bcp:`` counter at 0, as a
        sequential run does, and its trace carries the same zeros."""
        from repro.verify.budget import BudgetMeter

        monkeypatch.setattr(BudgetMeter, "remaining_time",
                            lambda self: 0.0)
        trace = tmp_path / "trace.jsonl"
        code = main(["verify", str(unsat_cnf), str(good_proof),
                     "--procedure", "verification1", "--jobs", "2",
                     "--timeout", "60", "--trace-out", str(trace)])
        assert code == EXIT_RESOURCE_LIMIT
        out = capsys.readouterr().out.splitlines()
        assert "c bcp: assignments=0 watch_visits=0 clause_visits=0 " \
               "purged=0 detach_misses=0" in out
        assert "c checked=0 skipped=0" in " ".join(out)
        metrics = _run_summary(trace)["metrics"]
        for key in ("assignments", "watch_visits", "clause_visits",
                    "purged", "detach_misses"):
            assert metrics[f"repro_bcp_{key}_total"]["value"] == 0

    def test_generous_budget_still_verifies(self, unsat_cnf, good_proof):
        code = main(["verify", str(unsat_cnf), str(good_proof),
                     "--timeout", "3600", "--max-props", "1000000000"])
        assert code == 0


class TestSolveVariants:
    def test_preprocess_flag_lifts_proof(self, unsat_cnf, tmp_path,
                                         capsys):
        proof_path = tmp_path / "p.ccp"
        code = main(["solve", str(unsat_cnf), "--preprocess",
                     "--proof", str(proof_path)])
        assert code == EXIT_UNSAT
        out = capsys.readouterr().out
        assert "c preprocess:" in out
        # The lifted proof verifies against the ORIGINAL file.
        assert main(["verify", str(unsat_cnf), str(proof_path)]) == 0

    def test_minimize_flag(self, unsat_cnf, tmp_path):
        proof_path = tmp_path / "p.ccp"
        code = main(["solve", str(unsat_cnf), "--minimize",
                     "--proof", str(proof_path)])
        assert code == EXIT_UNSAT
        assert main(["verify", str(unsat_cnf), str(proof_path)]) == 0

    def test_preprocess_with_drup_skipped(self, unsat_cnf, tmp_path,
                                          capsys):
        drup_path = tmp_path / "p.drup"
        code = main(["solve", str(unsat_cnf), "--preprocess",
                     "--drup", str(drup_path)])
        assert code == EXIT_UNSAT
        assert "not supported together" in capsys.readouterr().out
        assert not drup_path.exists()

    def test_preprocess_sat_lifts_model(self, sat_cnf, capsys):
        code = main(["solve", str(sat_cnf), "--preprocess"])
        assert code == EXIT_SAT
        assert "v " in capsys.readouterr().out

    def test_preprocess_unsat_without_proof_file(self, unsat_cnf,
                                                 capsys):
        code = main(["solve", str(unsat_cnf), "--preprocess"])
        assert code == EXIT_UNSAT
        assert "s UNSAT" in capsys.readouterr().out


def _run_summary(trace_path):
    """The closing ``run_summary`` event of a ``--trace-out`` trace,
    after checking the whole trace is schema-valid."""
    from repro.obs import read_jsonl, validate_trace

    events = read_jsonl(trace_path)
    assert validate_trace(events) == []
    assert events[-1]["name"] == "run_summary"
    return events[-1]["attrs"]


class TestObservabilityCli:
    def test_metrics_and_trace_artifacts(self, unsat_cnf, good_proof,
                                         tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        code = main(["verify", str(unsat_cnf), str(good_proof),
                     "--trace-out", str(trace_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert f"c trace written to {trace_path}" in out
        summary = _run_summary(trace_path)
        assert summary["command"] == "verify"
        assert summary["interrupted"] is False
        assert summary["elapsed"] > 0
        assert summary["stats"]["checks"] > 0
        assert "repro_verify_checks_total" in summary["metrics"]
        # One read of this process's resident set, at the end of the
        # run: the peak is the kernel's high-water mark.
        mem = summary["mem"]
        assert set(mem) == {"rss_bytes", "peak_rss_bytes", "source"}
        assert mem["peak_rss_bytes"] >= mem["rss_bytes"] > 0

    def test_parallel_metrics_artifact(self, unsat_cnf, good_proof,
                                       tmp_path):
        from repro.verify.parallel import fork_available

        if not fork_available():
            pytest.skip("the pool forks its workers")
        trace_path = tmp_path / "trace.jsonl"
        code = main(["verify", str(unsat_cnf), str(good_proof),
                     "--procedure", "verification1", "--jobs", "2",
                     "--trace-out", str(trace_path)])
        assert code == 0
        metrics = _run_summary(trace_path)["metrics"]
        assert metrics["repro_verify_jobs"]["value"]["value"] == 2
        assert metrics["repro_parallel_shards_total"]["value"] > 0
        # worker per-check observations merged into the parent
        assert metrics["repro_check_seconds"]["value"]["count"] \
            == metrics["repro_verify_checks_total"]["value"]

    def test_stats_footer(self, unsat_cnf, good_proof, capsys):
        code = main(["verify", str(unsat_cnf), str(good_proof),
                     "--stats"])
        assert code == 0
        out = capsys.readouterr().out
        assert "c stats: total=" in out
        assert "c stats: checks=" in out
        assert "c stats: bcp assignments=" in out

    def test_progress_on_stderr(self, unsat_cnf, good_proof, capsys):
        code = main(["verify", str(unsat_cnf), str(good_proof),
                     "--progress"])
        assert code == 0
        err = capsys.readouterr().err
        assert "c progress: " in err
        assert err.splitlines()[-1].endswith("s elapsed")

    def test_verify_drup_artifacts(self, unsat_cnf, tmp_path, capsys):
        drup_path = tmp_path / "trace.drup"
        main(["solve", str(unsat_cnf), "--drup", str(drup_path)])
        capsys.readouterr()
        trace_path = tmp_path / "trace.jsonl"
        code = main(["verify-stream", str(unsat_cnf), str(drup_path),
                     "--trace-out", str(trace_path), "--stats"])
        assert code == 0
        out = capsys.readouterr().out
        assert "c stats: total=" in out
        summary = _run_summary(trace_path)
        assert summary["command"] == "verify-stream"
        assert "repro_drup_additions_total" in summary["metrics"]

    def test_artifacts_written_on_bad_proof(self, sat_cnf, unsat_cnf,
                                            good_proof, tmp_path,
                                            capsys):
        """A failing verification still leaves its trace behind —
        that is when you want the trace most."""
        trace_path = tmp_path / "trace.jsonl"
        code = main(["verify", str(sat_cnf), str(good_proof),
                     "--trace-out", str(trace_path)])
        assert code == 1
        summary = _run_summary(trace_path)
        assert summary["interrupted"] is False
        assert summary["stats"] is not None

    @pytest.mark.parametrize("cnf, expected", [("unsat_cnf", 0),
                                               ("sat_cnf", 1)])
    def test_failed_rss_read_keeps_verdict(self, request, good_proof,
                                           tmp_path, monkeypatch,
                                           capsys, cnf, expected):
        """With every RSS read failing, a traced run keeps its verdict
        and exit code, and its trace validates with null memory."""
        import repro.obs.mem as mem
        from repro.obs import build_timeline, read_jsonl

        monkeypatch.setattr(mem, "read_rss", lambda: None)
        trace_path = tmp_path / "trace.jsonl"
        code = main(["verify", str(request.getfixturevalue(cnf)),
                     str(good_proof), "--trace-out", str(trace_path)])
        assert code == expected
        assert _run_summary(trace_path)["mem"] == {
            "rss_bytes": None, "peak_rss_bytes": None, "source": None}
        assert build_timeline(read_jsonl(trace_path))["memory"] is None


class TestObsFrom:
    """Which runs get an instrumentation bundle: none without an obs
    flag, whatever ``--jobs`` says; ``--trace-out`` brings a tracer and
    a metrics registry."""

    def _obs(self, *flags):
        from repro.cli import _build_parser, _obs_from

        return _obs_from(_build_parser().parse_args(
            ["verify", "f.cnf", "f.ccp", *flags]))

    def test_default_run_builds_nothing(self):
        assert self._obs() is None

    def test_parallel_run_without_obs_flags_builds_nothing(self):
        assert self._obs("--procedure", "verification1",
                         "--jobs", "2") is None

    def test_trace_out_turns_on_the_registry(self, tmp_path):
        obs = self._obs("--procedure", "verification1", "--jobs", "2",
                        "--trace-out", str(tmp_path / "t.jsonl"))
        assert obs.tracer is not None
        assert obs.metrics is not None

    def test_progress_alone_builds_no_registry(self):
        obs = self._obs("--progress")
        assert obs.progress_stream is not None
        assert obs.metrics is None and obs.tracer is None

    @pytest.mark.parametrize("argv", [
        ["verify", "f.cnf", "f.ccp", "--metrics-out", "m.json"],
        ["verify", "f.cnf", "f.ccp", "--metrics-format", "json"],
        ["verify", "f.cnf", "f.ccp", "--mem-out", "m.json"],
        ["verify", "f.cnf", "f.ccp", "--analytics-out", "a.json"],
        ["obs", "timeline", "t.jsonl", "--out", "t.json"],
    ])
    def test_artifact_flags_beyond_the_trace_rejected(self, argv):
        from repro.cli import _build_parser

        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "f.cnf", "f.ccp", "--no-history"],
        ["verify", "f.cnf", "f.ccp", "--history-dir", "h"],
        ["verify-stream", "f.cnf", "f.drup", "--no-history"],
        ["obs", "check-regression", "--baseline", "b.json"],
        ["obs", "compare", "-2", "-1"],
        ["obs", "history"],
    ])
    def test_run_history_options_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "f.cnf", "f.ccp", "--live-dir", "d"],
        ["verify", "f.cnf", "f.ccp", "--profile", "p.prof"],
        ["verify-stream", "f.cnf", "f.drup", "--live-dir", "d"],
        ["obs", "top"],
        ["obs", "timeline", "t.jsonl", "--html", "t.html"],
    ])
    def test_operator_surfaces_rejected(self, argv, capsys):
        """The live view, ``--profile`` and the HTML timeline are gone:
        each is an argparse usage error."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "f.cnf", "f.ccp", "--mem-sample-period", "0.05"],
        ["verify", "f.cnf", "f.ccp", "--mem-profile"],
        ["verify-stream", "f.cnf", "f.drup", "--mem-profile"],
        ["verify-drup", "f.cnf", "f.drup"],
    ])
    def test_memory_flags_and_command_alias_rejected(self, argv,
                                                     capsys):
        """The RSS sampler, tracemalloc profiler and the second name
        of ``verify-stream`` are gone: each is an argparse usage
        error."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


def _run_cli_process(*args, code="from repro.cli import main; "
                                  "raise SystemExit(main())", cwd=None):
    """Run the CLI (or ``code``) in a fresh interpreter with this
    checkout's ``repro`` on the path, in ``cwd`` if given."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=120)


class TestProcessLevel:
    """Properties only a fresh interpreter can show: what importing the
    CLI pulls in, and what a finished run leaves on stderr at exit or
    in its working directory."""

    def test_cli_import_does_not_load_numpy(self):
        result = _run_cli_process(
            code="import sys, repro.cli; "
                 "print('numpy' in sys.modules)")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    @pytest.fixture
    def php4(self, tmp_path):
        from repro.benchgen.registry import pigeonhole

        cnf, proof = tmp_path / "php.cnf", tmp_path / "php.ccp"
        write_dimacs(pigeonhole(4), cnf)
        assert main(["solve", str(cnf), "--proof", str(proof)]) \
            == EXIT_UNSAT
        return str(cnf), str(proof)

    @staticmethod
    def _verify_loading(args, modules, command="verify"):
        """Run ``command`` (``verify`` unless given) on ``args`` in a
        fresh interpreter; its last stdout line lists which of
        ``modules`` the run loaded."""
        result = _run_cli_process(
            command, *args,
            code="import sys; from repro.cli import main; "
                 "code = main(sys.argv[1:]); "
                 f"print([m for m in {modules!r} if m in sys.modules]); "
                 "raise SystemExit(code)")
        return result, result.stdout.splitlines()[-1]

    def test_verify_loads_only_the_verify_path(self, php4):
        unused = ["repro.solver", "repro.preprocess", "repro.proofs.sizes",
                  "repro.proofs.resolution", "repro.obs",
                  "repro.verify.streaming", "repro.verify.parallel",
                  "pstats", "dataclasses", "inspect", "repro.bcp.counting",
                  "repro.verify.budget", "repro.proofs.log"]
        result, loaded = self._verify_loading(php4, unused)
        assert result.returncode == 0, result.stderr
        assert "s PROOF_IS_CORRECT" in result.stdout
        assert loaded == "[]"

    def test_budget_flag_loads_the_budget_module(self, php4):
        result, loaded = self._verify_loading(
            [*php4, "--max-props", "1"], ["repro.verify.budget"])
        assert result.returncode == EXIT_RESOURCE_LIMIT, result.stderr
        assert "c budget exhausted: " in result.stdout
        assert loaded == "['repro.verify.budget']"

    def test_counting_engine_loads_on_request(self, php4):
        result, loaded = self._verify_loading(
            [*php4, "--engine", "counting"], ["repro.bcp.counting"])
        assert result.returncode == 0, result.stderr
        assert "s PROOF_IS_CORRECT" in result.stdout
        assert " engine=counting " in result.stdout
        assert loaded == "['repro.bcp.counting']"

    def test_default_solve_loads_no_counting_engine(self, php4, tmp_path):
        result, loaded = self._verify_loading(
            [php4[0], "--proof", str(tmp_path / "again.ccp")],
            ["repro.bcp.counting"], command="solve")
        assert result.returncode == EXIT_UNSAT, result.stderr
        assert loaded == "[]"

    @pytest.fixture
    def php6(self, tmp_path):
        from repro.benchgen.registry import pigeonhole

        cnf, proof = tmp_path / "php6.cnf", tmp_path / "php6.ccp"
        write_dimacs(pigeonhole(6), cnf)
        assert main(["solve", str(cnf), "--proof", str(proof)]) \
            == EXIT_UNSAT
        return str(cnf), str(proof)

    def test_default_solve_loads_no_verify_module(self, php6, tmp_path):
        result = _run_cli_process(
            "solve", php6[0], "--proof", str(tmp_path / "again.ccp"),
            code="import sys; from repro.cli import main; "
                 "code = main(sys.argv[1:]); "
                 "print(sorted(m for m in sys.modules "
                 "if m == 'repro.verify' "
                 "or m.startswith('repro.verify.'))); "
                 "raise SystemExit(code)")
        assert result.returncode == EXIT_UNSAT, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"

    def test_parallel_verify_loads_no_pool_machinery(self, php6):
        from repro.verify.parallel import fork_available

        if not fork_available():
            pytest.skip("the pool forks its workers")
        result, loaded = self._verify_loading(
            [*php6, "--procedure", "verification1", "--jobs", "2"],
            ["concurrent.futures", "multiprocessing", "dataclasses",
             "repro.verify.budget"])
        assert result.returncode == 0, result.stderr
        assert "s PROOF_IS_CORRECT" in result.stdout
        assert " jobs=2" in result.stdout
        assert loaded == "[]"

    def test_default_verify_leaves_the_cwd_untouched(self, tmp_path,
                                                     monkeypatch):
        from repro.benchgen.registry import pigeonhole

        cnf, proof = tmp_path / "php.cnf", tmp_path / "php.ccp"
        write_dimacs(pigeonhole(4), cnf)
        assert main(["solve", str(cnf), "--proof", str(proof)]) \
            == EXIT_UNSAT
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.delenv("REPRO_HISTORY_DIR", raising=False)
        result = _run_cli_process("verify", str(cnf), str(proof),
                                  cwd=str(cwd))
        assert result.returncode == 0, result.stderr
        assert "s PROOF_IS_CORRECT" in result.stdout
        assert list(cwd.iterdir()) == []

    def test_engine_choices(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        assert "--engine {watched,counting}" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["verify", "f.cnf", "f.proof", "--engine", "arena"])
        assert exc.value.code == 2
        assert "invalid choice: 'arena'" in capsys.readouterr().err
        # The forward DRUP checker has one engine and one read size:
        # neither is an option.
        for flag, value in (("--engine", "watched"),
                            ("--chunk-bytes", "4096")):
            with pytest.raises(SystemExit) as exc:
                main(["verify-stream", "f.cnf", "f.drup", flag, value])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" \
                in capsys.readouterr().err

    def test_parallel_verify_exits_cleanly(self, tmp_path):
        from repro.benchgen.registry import pigeonhole
        from repro.verify.parallel import fork_available

        if not fork_available():
            pytest.skip("the pool forks its workers")
        cnf, proof = tmp_path / "php.cnf", tmp_path / "php.ccp"
        write_dimacs(pigeonhole(4), cnf)
        assert main(["solve", str(cnf), "--proof", str(proof)]) \
            == EXIT_UNSAT
        for _ in range(5):
            result = _run_cli_process(
                "verify", str(cnf), str(proof),
                "--procedure", "verification1", "--jobs", "2")
            assert result.returncode == 0, result.stderr
            assert "Exception ignored" not in result.stderr
