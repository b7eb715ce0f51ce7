"""Process-level fault injection for the streaming verifier.

:mod:`repro.testing.mutate` attacks the *logical* content of proofs;
this module attacks the *operational* envelope: what happens when the
trace file is truncated mid-clause, when a byte rots, when the process
is SIGKILLed-adjacent (SIGINT/SIGTERM), when memory budgets trip, when
a parallel worker dies.  The contract under test is the CLI's typed
exit-code surface:

========  =====================================================
``0``     verdict reached, proof correct
``1``     verdict reached, proof incorrect
``2``     operational error (unusable checkpoint, bad flags)
``3``     resource limit: partial report + resume token
``65``    malformed input (truncation, corruption, bad deletion)
``130``   interrupted — with a resumable checkpoint on disk
========  =====================================================

Every scenario asserts the *absence of a traceback* on stderr: a fault
must surface as a one-line ``c error:`` diagnostic or a typed partial
report, never a stack dump.  Most scenarios drive the real CLI in a
subprocess so the assertion covers the whole stack (argument parsing,
signal handlers, artifact flushing); the worker-death scenario uses the
in-process pool hooks from :mod:`repro.verify.parallel`.

Run the sweep from the command line (CI does)::

    python -m repro.testing.faults [--only NAME ...] [--workdir DIR]

or programmatically via :func:`run_suite`.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import repro
from repro.benchgen.streaming import (
    deletion_chain_formula,
    write_deletion_chain_drup,
)
from repro.core.dimacs import write_dimacs

EXIT_OK = 0
EXIT_PROOF_BAD = 1
EXIT_ERROR = 2
EXIT_RESOURCE_LIMIT = 3
EXIT_PARSE_ERROR = 65
EXIT_INTERRUPT = 130

#: Chain length of the shared small instance (fast, still shifts
#: windows and writes checkpoints).
_SMALL_N = 2000
#: Chain lengths tried by the signal scenarios: big enough that the
#: child cannot finish before the signal lands; escalate if it does.
_SIGNAL_NS = (20000, 80000)


@dataclass
class FaultOutcome:
    """One scenario's verdict for the sweep report."""

    scenario: str
    passed: bool
    exit_code: int | None
    expected_exit: tuple[int, ...]
    detail: str = ""

    def line(self) -> str:
        status = "ok  " if self.passed else "FAIL"
        got = "-" if self.exit_code is None else str(self.exit_code)
        want = "/".join(str(c) for c in self.expected_exit) or "-"
        tail = f" — {self.detail}" if self.detail else ""
        return f"{status} {self.scenario:<28} exit={got} " \
               f"(want {want}){tail}"


def _cli_env(workdir: str) -> dict:
    """Environment for CLI subprocesses: the installed ``repro``
    package wins over whatever PYTHONPATH the parent carries, and run
    history lands under ``workdir`` rather than the caller's cwd."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env = dict(os.environ)
    previous = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root if not previous \
        else root + os.pathsep + previous
    env["REPRO_HISTORY_DIR"] = os.path.join(os.path.abspath(workdir),
                                            ".repro")
    return env


def _run_cli(workdir: str, argv: list[str], timeout: float = 300.0):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, env=_cli_env(workdir),
        timeout=timeout)


def _judge(name: str, proc, expected: tuple[int, ...], *,
           want_stdout: str | None = None,
           want_stderr: str | None = None,
           detail: str = "") -> FaultOutcome:
    problems = []
    if proc.returncode not in expected:
        problems.append(f"exit {proc.returncode} not in {expected}")
    if "Traceback" in proc.stderr or "Traceback" in proc.stdout:
        problems.append("traceback leaked")
    if want_stdout is not None and want_stdout not in proc.stdout:
        problems.append(f"stdout lacks {want_stdout!r}")
    if want_stderr is not None and want_stderr not in proc.stderr:
        problems.append(f"stderr lacks {want_stderr!r}")
    if problems:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
        return FaultOutcome(name, False, proc.returncode, expected,
                            "; ".join(problems) + " | " +
                            " / ".join(tail))
    return FaultOutcome(name, True, proc.returncode, expected, detail)


def _instance(workdir: str, n_vars: int = _SMALL_N, window: int = 8,
              tag: str = "chain") -> tuple[str, str]:
    cnf = os.path.join(workdir, f"{tag}.cnf")
    drup = os.path.join(workdir, f"{tag}.drup")
    if not os.path.exists(cnf):
        write_dimacs(deletion_chain_formula(n_vars), cnf)
        write_deletion_chain_drup(drup, n_vars, window=window)
    return cnf, drup


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def scenario_pristine(workdir: str) -> FaultOutcome:
    """Control: the untampered instance verifies with exit 0."""
    cnf, drup = _instance(workdir)
    proc = _run_cli(workdir, ["verify-stream", cnf, drup])
    return _judge("pristine", proc, (EXIT_OK,),
                  want_stdout="s PROOF_IS_CORRECT")


def scenario_truncate_mid_clause(workdir: str) -> FaultOutcome:
    """The trace ends mid-line, its final clause missing the
    terminating 0 — a crashed solver's torn write.  Exit 65."""
    cnf, drup = _instance(workdir)
    data = open(drup, "rb").read()
    cut = data.rindex(b" 0\n") + 1      # keep the trailing space
    torn = os.path.join(workdir, "torn.drup")
    with open(torn, "wb") as handle:
        handle.write(data[:cut])
    proc = _run_cli(workdir, ["verify-stream", cnf, torn])
    return _judge("truncate-mid-clause", proc, (EXIT_PARSE_ERROR,),
                  want_stderr="c error:")


def scenario_clean_truncation(workdir: str) -> FaultOutcome:
    """The trace loses whole tail lines (including the empty-clause
    addition) but stays well-formed: that is not a parse error, it is
    an incorrect proof — exit 1."""
    cnf, drup = _instance(workdir)
    data = open(drup, "rb").read()
    clipped = data[:data.rindex(b"0\n")]
    assert clipped.endswith(b"\n")
    short = os.path.join(workdir, "short.drup")
    with open(short, "wb") as handle:
        handle.write(clipped)
    proc = _run_cli(workdir, ["verify-stream", cnf, short])
    return _judge("clean-truncation", proc, (EXIT_PROOF_BAD,),
                  want_stdout="s PROOF_IS_NOT_CORRECT")


def scenario_corrupt_bytes(workdir: str) -> FaultOutcome:
    """A byte in the middle of the trace rots to ``0xff`` (not valid
    UTF-8 anywhere): typed parse error, exit 65."""
    cnf, drup = _instance(workdir)
    data = bytearray(open(drup, "rb").read())
    data[len(data) // 2] = 0xFF
    rotten = os.path.join(workdir, "rotten.drup")
    with open(rotten, "wb") as handle:
        handle.write(bytes(data))
    proc = _run_cli(workdir, ["verify-stream", cnf, rotten])
    return _judge("corrupt-bytes", proc, (EXIT_PARSE_ERROR,),
                  want_stderr="c error:")


def scenario_unknown_deletion(workdir: str) -> FaultOutcome:
    """A deletion names a clause that was never added.  Strict mode
    refuses the trace (exit 65); ``--lenient-deletions`` skips it with
    a warning and still reaches the verdict."""
    cnf, drup = _instance(workdir)
    bogus = os.path.join(workdir, "bogus-del.drup")
    with open(drup) as src, open(bogus, "w") as dst:
        dst.write("d 5 7 0\n")
        dst.write(src.read())
    strict = _run_cli(workdir, ["verify-stream", cnf, bogus])
    outcome = _judge("unknown-deletion", strict, (EXIT_PARSE_ERROR,),
                     want_stderr="c error:")
    if not outcome.passed:
        return outcome
    lenient = _run_cli(workdir, ["verify-stream", cnf, bogus,
                                 "--lenient-deletions"])
    outcome = _judge("unknown-deletion", lenient, (EXIT_OK,),
                     want_stdout="c warning:",
                     detail="strict 65, lenient 0 with warning")
    return outcome


def scenario_live_clause_budget(workdir: str) -> FaultOutcome:
    """A hard live-clause cap trips mid-run: exit 3, a schema-valid
    resume token on disk, and an uncapped resume finishes the job."""
    cnf, drup = _instance(workdir)
    token = os.path.join(workdir, "live-budget.json")
    proc = _run_cli(workdir, ["verify-stream", cnf, drup,
                              "--max-live-clauses", "3",
                              "--checkpoint", token])
    outcome = _judge("live-clause-budget", proc,
                     (EXIT_RESOURCE_LIMIT,),
                     want_stdout="s RESOURCE_LIMIT_EXCEEDED")
    if not outcome.passed:
        return outcome
    return _resume_and_expect_correct("live-clause-budget", workdir,
                                      cnf, drup, token)


def scenario_props_budget(workdir: str) -> FaultOutcome:
    """Same ladder one rung up: the propagation budget trips, the
    resume token carries the spent work, the resumed (uncapped) run
    reaches the verdict."""
    cnf, drup = _instance(workdir)
    token = os.path.join(workdir, "props-budget.json")
    proc = _run_cli(workdir, ["verify-stream", cnf, drup,
                              "--max-props", "2000",
                              "--checkpoint", token,
                              "--checkpoint-every", "200"])
    outcome = _judge("props-budget", proc, (EXIT_RESOURCE_LIMIT,),
                     want_stdout="s RESOURCE_LIMIT_EXCEEDED")
    if not outcome.passed:
        return outcome
    return _resume_and_expect_correct("props-budget", workdir, cnf,
                                      drup, token)


def _resume_and_expect_correct(name: str, workdir: str, cnf: str,
                               drup: str, token: str) -> FaultOutcome:
    if not os.path.exists(token):
        return FaultOutcome(name, False, None,
                            (EXIT_RESOURCE_LIMIT,),
                            "no resume token on disk")
    doc = json.loads(open(token).read())
    if doc.get("schema") != "repro.obs.checkpoint/v1":
        return FaultOutcome(name, False, None,
                            (EXIT_RESOURCE_LIMIT,),
                            f"bad token schema {doc.get('schema')!r}")
    proc = _run_cli(workdir, ["verify-stream", cnf, drup,
                              "--checkpoint", token, "--resume"])
    outcome = _judge(name, proc, (EXIT_OK,),
                     want_stdout="s PROOF_IS_CORRECT",
                     detail="exit 3 + valid token, resume reached "
                            "the verdict")
    if outcome.passed and os.path.exists(token):
        return FaultOutcome(name, False, proc.returncode, (EXIT_OK,),
                            "spent token not deleted after verdict")
    return outcome


def scenario_corrupt_checkpoint(workdir: str) -> FaultOutcome:
    """Garbage where the resume token should be: exit 2 with a
    one-line diagnostic, not a traceback — and a token recorded
    against a different formula is refused the same way."""
    cnf, drup = _instance(workdir)
    token = os.path.join(workdir, "garbage.json")
    with open(token, "w") as handle:
        handle.write('{"schema": "repro.obs.checkpoint/v1", "offse')
    proc = _run_cli(workdir, ["verify-stream", cnf, drup,
                              "--checkpoint", token, "--resume"])
    outcome = _judge("corrupt-checkpoint", proc, (EXIT_ERROR,),
                     want_stderr="c error:")
    if not outcome.passed:
        return outcome
    # Record a real token against a *different* instance, then try to
    # resume this one with it.
    other_cnf, other_drup = _instance(workdir, n_vars=300, window=2,
                                      tag="other")
    _run_cli(workdir, ["verify-stream", other_cnf, other_drup,
                       "--max-props", "200", "--checkpoint", token])
    if not os.path.exists(token):
        return FaultOutcome("corrupt-checkpoint", False, None,
                            (EXIT_ERROR,), "mismatch setup run left "
                            "no token")
    proc = _run_cli(workdir, ["verify-stream", cnf, drup,
                              "--checkpoint", token, "--resume"])
    return _judge("corrupt-checkpoint", proc, (EXIT_ERROR,),
                  want_stderr="c error:",
                  detail="garbage and digest-mismatch tokens both "
                         "refused with exit 2")


def _signal_scenario(name: str, signame: str,
                     workdir: str) -> FaultOutcome:
    """Interrupt a run mid-flight, expect exit 130 plus a resume token,
    and prove the resumed run reaches the uninterrupted verdict with
    the uninterrupted (cumulative) event counts."""
    signum = getattr(signal, signame)
    for n_vars in _SIGNAL_NS:
        cnf, drup = _instance(workdir, n_vars=n_vars, window=8,
                              tag=f"sig{n_vars}")
        token = os.path.join(workdir, f"{name}.json")
        try:
            os.unlink(token)
        except FileNotFoundError:
            pass
        child = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "verify-stream",
             cnf, drup, "--checkpoint", token,
             "--checkpoint-every", "500"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=_cli_env(workdir))
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline \
                and not os.path.exists(token) \
                and child.poll() is None:
            time.sleep(0.01)
        if child.poll() is not None:
            child.communicate()
            continue                 # finished early: bigger instance
        child.send_signal(signum)
        stdout, stderr = child.communicate(timeout=60)
        problems = []
        if child.returncode != EXIT_INTERRUPT:
            problems.append(f"exit {child.returncode} != 130")
        if "Traceback" in stderr:
            problems.append("traceback leaked")
        if not os.path.exists(token):
            problems.append("no resume token after interrupt")
        if problems:
            return FaultOutcome(name, False, child.returncode,
                                (EXIT_INTERRUPT,),
                                "; ".join(problems) + " | "
                                + " / ".join(stderr.strip()
                                             .splitlines()[-3:]))
        proc = _run_cli(workdir, ["verify-stream", cnf, drup,
                                  "--checkpoint", token, "--resume"])
        outcome = _judge(name, proc, (EXIT_OK,),
                         want_stdout="s PROOF_IS_CORRECT")
        if not outcome.passed:
            return outcome
        want = f"additions={n_vars} "
        if want not in proc.stdout:
            return FaultOutcome(
                name, False, proc.returncode, (EXIT_OK,),
                f"resumed counts drifted (wanted {want.strip()}): "
                + " / ".join(proc.stdout.splitlines()[:2]))
        return FaultOutcome(name, True, EXIT_INTERRUPT,
                            (EXIT_INTERRUPT,),
                            f"exit 130, resume reached the verdict "
                            f"with exact counts (n={n_vars})")
    return FaultOutcome(name, False, None, (EXIT_INTERRUPT,),
                        "child kept finishing before the signal "
                        f"landed (tried n={_SIGNAL_NS})")


def scenario_sigint(workdir: str) -> FaultOutcome:
    """^C lands mid-run: exit 130, resume token on disk, resumed run
    reaches the verdict with exact cumulative counts."""
    return _signal_scenario("sigint-resume", "SIGINT", workdir)


def scenario_sigterm(workdir: str) -> FaultOutcome:
    """A supervisor's SIGTERM gets the same treatment as ^C."""
    return _signal_scenario("sigterm-resume", "SIGTERM", workdir)


def scenario_worker_death(workdir: str) -> FaultOutcome:
    """A parallel verification1 worker dies mid-shard (as an OOM kill
    would look): the run must recover via retry and keep its verdict.
    In-process — the fault hook plants the death before the fork."""
    name = "worker-death"
    from repro.verify.parallel import (
        clear_faults,
        fork_available,
        install_fault,
        make_shards,
    )

    if not fork_available():
        return FaultOutcome(name, True, None, (),
                            "skipped: no fork start method")
    from repro.benchgen.php import pigeonhole
    from repro.proofs.conflict_clause import ConflictClauseProof
    from repro.solver.cdcl import solve
    from repro.verify.verification import verify_proof_v1

    formula = pigeonhole(5)
    result = solve(formula, reduce_base=20, reduce_growth=10)
    proof = ConflictClauseProof.from_log(result.log)
    try:
        # Key the fault by the bounds the run will actually execute.
        install_fault(make_shards(len(proof), 4)[0], deaths=1)
        report = verify_proof_v1(formula, proof, jobs=4,
                                 mode="incremental")
    except BaseException as exc:                   # noqa: BLE001
        clear_faults()
        return FaultOutcome(name, False, None, (),
                            f"raised {type(exc).__name__}: {exc}")
    clear_faults()
    if not report.ok or report.num_checked != len(proof):
        return FaultOutcome(name, False, None, (),
                            f"verdict drifted: ok={report.ok} "
                            f"checked={report.num_checked}")
    if report.worker_failures < 1:
        return FaultOutcome(name, False, None, (),
                            "fault never fired")
    return FaultOutcome(name, True, None, (),
                        f"{report.worker_failures} worker death(s) "
                        "survived, verdict intact")


SCENARIOS = {
    "pristine": scenario_pristine,
    "truncate-mid-clause": scenario_truncate_mid_clause,
    "clean-truncation": scenario_clean_truncation,
    "corrupt-bytes": scenario_corrupt_bytes,
    "unknown-deletion": scenario_unknown_deletion,
    "live-clause-budget": scenario_live_clause_budget,
    "props-budget": scenario_props_budget,
    "corrupt-checkpoint": scenario_corrupt_checkpoint,
    "sigint-resume": scenario_sigint,
    "sigterm-resume": scenario_sigterm,
    "worker-death": scenario_worker_death,
}


def run_suite(names: list[str] | None = None,
              workdir: str | None = None) -> list[FaultOutcome]:
    """Run the selected scenarios (all by default) and return their
    outcomes.  ``workdir`` holds the generated instances and tampered
    traces; a temporary directory is used (and kept out of the repo)
    when omitted."""
    chosen = list(SCENARIOS) if names is None else names
    unknown = [n for n in chosen if n not in SCENARIOS]
    if unknown:
        raise ValueError(f"unknown scenario(s): {unknown} "
                         f"(have {list(SCENARIOS)})")
    outcomes = []
    if workdir is not None:
        os.makedirs(workdir, exist_ok=True)
        for name in chosen:
            outcomes.append(SCENARIOS[name](workdir))
        return outcomes
    with tempfile.TemporaryDirectory(prefix="repro-faults-") as tmp:
        for name in chosen:
            outcomes.append(SCENARIOS[name](tmp))
    return outcomes


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.faults",
        description="fault-injection sweep over the streaming "
                    "verifier's typed exit-code surface")
    parser.add_argument("--only", action="append", metavar="NAME",
                        help="run only this scenario (repeatable)")
    parser.add_argument("--list", action="store_true",
                        help="list scenario names and exit")
    parser.add_argument("--workdir", default=None, metavar="DIR",
                        help="keep generated instances and tampered "
                             "traces here (default: a temp dir)")
    args = parser.parse_args(argv)
    if args.list:
        for name, fn in SCENARIOS.items():
            lines = (fn.__doc__ or "").strip().splitlines()
            print(f"{name:<24} {lines[0] if lines else ''}")
        return 0
    outcomes = run_suite(args.only, args.workdir)
    for outcome in outcomes:
        print(outcome.line())
    failed = [o for o in outcomes if not o.passed]
    print(f"{len(outcomes) - len(failed)}/{len(outcomes)} scenarios "
          "passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
