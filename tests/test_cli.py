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

        code = main(["verify-drup", str(unsat_cnf), str(drup_path)])
        assert code == 0
        assert "s PROOF_IS_CORRECT" in capsys.readouterr().out

    def test_verify_drup_rejects_wrong_formula(self, unsat_cnf, sat_cnf,
                                               tmp_path, capsys):
        drup_path = tmp_path / "out.drup"
        main(["solve", str(unsat_cnf), "--drup", str(drup_path)])
        code = main(["verify-drup", str(sat_cnf), str(drup_path)])
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
        code = main(["verify-drup", str(unsat_cnf), str(bad)])
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
        code = main(["verify-drup", str(unsat_cnf), str(drup_path),
                     "--timeout", "0.000001"])
        assert code == EXIT_RESOURCE_LIMIT
        assert "s RESOURCE_LIMIT_EXCEEDED" in capsys.readouterr().out

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
        assert summary["mem"]["num_samples"] >= 1

    def test_parallel_metrics_artifact(self, unsat_cnf, good_proof,
                                       tmp_path):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("parallel backend needs fork")
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
        code = main(["verify-drup", str(unsat_cnf), str(drup_path),
                     "--trace-out", str(trace_path), "--stats"])
        assert code == 0
        out = capsys.readouterr().out
        assert "c stats: total=" in out
        summary = _run_summary(trace_path)
        assert summary["command"] == "verify-drup"
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


class TestObsFrom:
    """Which runs get a metrics registry: the history-attribution
    tracer of ``--jobs N`` runs comes without one; ``--trace-out``
    turns one on."""

    def _obs(self, *flags):
        from repro.cli import _build_parser, _obs_from

        return _obs_from(_build_parser().parse_args(
            ["verify", "f.cnf", "f.ccp", *flags]))

    def test_default_run_builds_nothing(self):
        assert self._obs() is None

    def test_parallel_history_tracer_has_no_registry(self):
        obs = self._obs("--procedure", "verification1", "--jobs", "2")
        assert obs.tracer is not None
        assert obs.metrics is None

    def test_trace_out_turns_on_the_registry(self, tmp_path):
        obs = self._obs("--procedure", "verification1", "--jobs", "2",
                        "--trace-out", str(tmp_path / "t.jsonl"))
        assert obs.tracer is not None
        assert obs.metrics is not None

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


def _run_cli_process(*args, code="from repro.cli import main; "
                                  "raise SystemExit(main())"):
    """Run the CLI (or ``code``) in a fresh interpreter with this
    checkout's ``repro`` on the path."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


class TestProcessLevel:
    """Properties only a fresh interpreter can show: what importing the
    CLI pulls in, and what a finished run leaves on stderr at exit."""

    def test_cli_import_does_not_load_numpy(self):
        result = _run_cli_process(
            code="import sys, repro.cli; "
                 "print('numpy' in sys.modules)")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_engine_choices(self, capsys):
        for command, choices in (("verify", "{watched,counting,arena}"),
                                 ("verify-drup", "{watched,arena}"),
                                 ("verify-stream", "{watched,arena}")):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            assert f"--engine {choices}" in capsys.readouterr().out

    def test_parallel_verify_exits_cleanly(self, tmp_path):
        import multiprocessing

        from repro.benchgen.registry import pigeonhole

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("parallel backend needs fork")
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
