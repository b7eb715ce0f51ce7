"""Self-test of the end-to-end benchmark (not part of the tier-1 suite).

Run from the repository root with::

    PYTHONPATH=src python -m pytest benchmarks/e2e

It checks that inputs are a pure function of the seed and stay valid,
that the oracle catches planted wrong verdicts, that the span
arithmetic is right, that the traced child entry records nested spans
covering its wall time, and that ``BENCHMARK.json`` matches the
benchmark's own tables.
"""

from __future__ import annotations

import json
import os
import types

import pytest

from benchmarks.e2e import ROOT, inputs, oracle, runner, trace
from benchmarks.e2e.__main__ import RUN_SECONDS, _parser
from benchmarks.e2e.compare import verdict
from benchmarks.e2e.layers import TracedPass, lost_metrics, self_times
from benchmarks.e2e.metrics import END_TO_END, PER_LAYER
from benchmarks.e2e.workloads import (
    MANIFEST,
    WORKLOADS,
    Input,
    Step,
    Workload,
)
from repro.core.dimacs import read_dimacs
from repro.proofs.trace_format import read_proof
from repro.solver.cdcl import solve
from repro.verify.verification import verify_proof

SMALL = Workload("small", "", ("eq_mult4", "php6"), "verify")


def _files(directory: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(directory)):
        if name != MANIFEST:
            with open(os.path.join(directory, name), "rb") as handle:
                out[name] = handle.read()
    return out


def _generate(workload, seed, directory) -> list[Input]:
    os.makedirs(directory)
    return inputs.generate(workload, seed, str(directory))


@pytest.mark.parametrize("workload", [
    SMALL, Workload("small-sv", "", ("eq_mult4",), "solve-verify"),
    Workload("small-mutants", "", ("eq_mult4",), "mutants")])
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, workload):
    _generate(workload, 7, tmp_path / "a")
    _generate(workload, 7, tmp_path / "b")
    _generate(workload, 8, tmp_path / "c")
    a, b, c = (_files(tmp_path / name) for name in "abc")
    assert a == b
    assert a.keys() == c.keys()
    assert all(a[name] != c[name] for name in a)


def test_relabelled_inputs_stay_unsat_and_proofs_verify(tmp_path):
    for inp in _generate(SMALL, 3, tmp_path / "v"):
        formula = read_dimacs(inp.cnf)
        assert solve(formula).is_unsat
        report = verify_proof(formula, read_proof(inp.proof),
                              mode="incremental")
        assert report.ok, inp.name
        assert len(read_proof(inp.proof)) == inp.proof_len


def test_mutants_keep_their_guarantees(tmp_path):
    mutants = _generate(Workload("m", "", ("php6",), "mutants"), 3,
                        tmp_path / "m")
    assert any(m.steps[0].expect == {0} for m in mutants)  # the control
    for mutant in mutants:
        accepted = verify_proof(read_dimacs(mutant.cnf),
                                read_proof(mutant.proof),
                                mode="incremental").ok
        assert (0 if accepted else 1) in mutant.steps[0].expect, mutant.name


def _write(path, text):
    with open(path, "w", encoding="ascii") as handle:
        handle.write(text)
    return str(path)


@pytest.fixture
def tiny(tmp_path):
    """F = {(1 2), (-1 2), (1 -2), (-1 -2)}: clause (2) is RUP from F
    and (3) over a fresh variable is not."""
    cnf = _write(tmp_path / "f.cnf", "p cnf 2 4\n1 2 0\n-1 2 0\n"
                                     "1 -2 0\n-1 -2 0\n")
    good = _write(tmp_path / "good.ccp", "p ccproof final_pair\n"
                                         "2 0\n1 0\n-1 0\n")
    bad = _write(tmp_path / "bad.ccp", "p ccproof final_pair\n"
                                       "3 0\n1 0\n-1 0\n")
    return cnf, good, bad


REJECTED = ("s PROOF_IS_NOT_CORRECT\n"
            "c questionable clause at chronological index 0: (3,)\n")


def test_oracle_flags_planted_wrong_acceptance(tiny):
    cnf, _, bad = tiny
    step = Step(("verify", cnf, bad), frozenset({1}))
    problems = oracle.Oracle().check(("m", 0), step, bad, 0,
                                     "s PROOF_IS_CORRECT\n", "")
    assert any("exit 0" in problem for problem in problems)


def test_oracle_flags_planted_false_rejection(tiny):
    cnf, good, bad = tiny
    check = oracle.Oracle().check
    step = Step(("verify", cnf, good), frozenset({0, 1}))
    problems = check(("g", 0), step, good, 1, REJECTED, "")
    assert any("false rejection" in problem for problem in problems)
    step = Step(("verify", cnf, bad), frozenset({0, 1}))
    assert check(("b", 0), step, bad, 1, REJECTED, "") == []


def test_oracle_flags_changed_verdict_lines_and_tracebacks(tiny):
    cnf, good, _ = tiny
    judge = oracle.Oracle()
    step = Step(("verify", cnf, good), frozenset({0}))
    first = "s PROOF_IS_CORRECT\nc checked=3 skipped=0 time=0.01s\n"
    assert judge.check(("g", 0), step, good, 0, first, "") == []
    again = first.replace("0.01s", "0.02s")
    assert judge.check(("g", 0), step, good, 0, again, "") == []
    changed = first.replace("checked=3", "checked=2")
    assert judge.check(("g", 0), step, good, 0, changed, "")
    traceback = "Traceback (most recent call last):\n"
    assert judge.check(("g", 0), step, good, 0, first, traceback)
    ignored = "Exception ignored in: <x>\n" + traceback
    assert judge.check(("g", 0), step, good, 0, first, ignored) == []
    assert len(judge.warnings) == 1


def test_oracle_ignores_parallel_work_counters():
    lines = oracle.verdict_lines(
        "s PROOF_IS_CORRECT\nc checked=5 skipped=0 time=0.1s mode=x "
        "engine=watched jobs=2\nc bcp: assignments=7\n")
    assert not any(line.startswith("c bcp:") for line in lines)


def test_self_times_on_synthetic_spans():
    # main [1, 9] has children a [2, 4] and b [5, 8]; b has child c
    # [6, 7].  Self: main 8-2-3 = 3, a 2, b 3-1 = 2, c 1.
    spans = [
        {"name": "main", "start": 1.0, "end": 9.0, "parent": None,
         "counts": None},
        {"name": "a", "start": 2.0, "end": 4.0, "parent": 0,
         "counts": None},
        {"name": "b", "start": 5.0, "end": 8.0, "parent": 0,
         "counts": {"n": 4}},
        {"name": "c", "start": 6.0, "end": 7.0, "parent": 2,
         "counts": None},
    ]
    assert self_times(spans) == {"main": 3.0, "a": 2.0, "b": 2.0,
                                 "c": 1.0}
    traced = TracedPass()
    # Spawn at 0, first child timestamp 0.5, last 9.5, reap at 10:
    # boot is 1.0 and [0.5, 1] and [9, 9.5] are unattributed.
    traced.add(0.0, 10.0, {"t_start": 0.5, "t_end": 9.5, "missing": []},
               spans)
    assert traced.wall == 10.0
    assert traced.boot == 1.0
    assert traced.attributed() == pytest.approx(9.0)
    assert traced.counts["b.n"] == 4
    assert traced.counts["b.calls"] == 1


def test_traced_pass_nests_spans_and_covers_the_wall(tmp_path):
    work = tmp_path / "work"
    generated = _generate(SMALL, 5, tmp_path / "in")
    work.mkdir()
    run = runner.PassRunner(SMALL, generated, str(work),
                            runner.SpeedReference(str(work)))
    untraced = run.run_pass(0).scaled()[0]
    layers, missing = runner._traced_layers(run, 1, untraced)
    assert run.failed == 0, run.failures
    assert missing == []
    assert layers["trace.coverage_pct"] > 95.0
    assert layers["bcp.checks"] > 0
    assert layers["marking.calls"] > 0
    assert layers["bcp.check_s"] > 0 and layers["checker.build_s"] > 0
    assert 0 < layers["verify.marked_ratio"] <= 1


def test_targets_the_program_lacks_are_listed_as_missing():
    module = types.SimpleNamespace(f=lambda: 1)
    recorder = trace.Recorder()
    recorder.patch(module, "f", "a")
    recorder.patch(module, "gone", "b")
    recorder.patch(module, "Gone.method", "c")
    assert module.f() == 1 and len(recorder.spans) == 1
    assert recorder.missing == {"b", "c"}
    assert lost_metrics(["bcp.check"]) == {"bcp.check_s",
                                           "bcp.ns_per_watch_visit"}


def test_compare_verdicts():
    base = {"value": 10.0, "q1": 9.8, "q3": 10.2}
    assert verdict(base, {"value": 10.1, "q1": 9.9, "q3": 10.3},
                   0.1, "lower") == "within"
    assert verdict(base, {"value": 12.0, "q1": 11.8, "q3": 12.2},
                   0.1, "lower") == "worse"
    assert verdict(base, {"value": 10.8, "q1": 10.5, "q3": 11.5},
                   0.1, "lower") == "unresolved"
    assert verdict(base, {"value": 8.0, "q1": 7.9, "q3": 8.1},
                   0.1, "lower") == "better"


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_benchmark_json_command_parses_a_measured_run():
    spec = _spec()
    assert spec["command"][:3] == ["python3", "-m", "benchmarks.e2e"]
    args = _parser().parse_args(spec["command"][3:] + [
        "--workload", "reject-mutants", "--seed", "4",
        "--seconds", str(spec["run_seconds"]), "--trace", "1"])
    assert (args.command, args.workload, args.seed, args.seconds,
            args.trace) == ("run", ["reject-mutants"], 4, RUN_SECONDS, 1)


def test_benchmark_json_matches_the_tables():
    spec = _spec()
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["run_seconds"] == RUN_SECONDS
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER]
    setup = next(m for m in END_TO_END if m.name == "setup_s")
    assert setup.bound == max(m.bound for m in END_TO_END)
