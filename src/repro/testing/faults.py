"""Process-level fault injection for ``repro verify`` on DRUP traces.

:mod:`repro.testing.mutate` attacks the *logical* content of proofs;
this module attacks the *operational* envelope: what happens when the
trace file is truncated mid-clause, when a byte rots, when the process
is SIGKILLed-adjacent (SIGINT/SIGTERM), when a budget trips, when a
parallel worker dies.  The contract under test is the CLI's typed
exit-code surface:

========  =====================================================
``0``     verdict reached, proof correct
``1``     verdict reached, proof incorrect
``2``     operational error (bad flags)
``3``     resource limit: partial report, no verdict
``65``    malformed input (truncation, corruption, bad deletion)
``130``   interrupted — with the requested trace flushed
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

import os
import signal
import subprocess
import sys
import tempfile
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

#: Chain length of the shared small instance.
_SMALL_N = 2000
#: Chain lengths tried by the signal scenarios: big enough that the
#: child cannot finish before the signal lands; escalate if it does.
#: Every prefix of the chain is unit-refutable, so each backward check
#: propagates the rest of the chain: the run grows with n squared.
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


def _cli_env() -> dict:
    """Environment for CLI subprocesses: the installed ``repro``
    package wins over whatever PYTHONPATH the parent carries."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env = dict(os.environ)
    previous = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root if not previous \
        else root + os.pathsep + previous
    return env


def _run_cli(argv: list[str], timeout: float = 300.0):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, env=_cli_env(),
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
    proc = _run_cli(["verify", cnf, drup])
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
    proc = _run_cli(["verify", cnf, torn])
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
    proc = _run_cli(["verify", cnf, short])
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
    proc = _run_cli(["verify", cnf, rotten])
    return _judge("corrupt-bytes", proc, (EXIT_PARSE_ERROR,),
                  want_stderr="c error:")


def scenario_unknown_deletion(workdir: str) -> FaultOutcome:
    """A deletion names a clause that is not live: the trace is
    refused when it is read (exit 65)."""
    cnf, drup = _instance(workdir)
    bogus = os.path.join(workdir, "bogus-del.drup")
    with open(drup) as src, open(bogus, "w") as dst:
        dst.write("d 5 7 0\n")
        dst.write(src.read())
    proc = _run_cli(["verify", cnf, bogus])
    return _judge("unknown-deletion", proc, (EXIT_PARSE_ERROR,),
                  want_stderr="c error: line 1: deletion of unknown")


def scenario_foreign_variable(workdir: str) -> FaultOutcome:
    """An addition names a variable above the formula's ``p cnf``
    header.  The variable is unconstrained, so the addition is not
    RUP: a verdict, exit 1, not a crash."""
    cnf = os.path.join(workdir, "foreign.cnf")
    drup = os.path.join(workdir, "foreign.drup")
    with open(cnf, "w") as handle:
        handle.write("p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n")
    with open(drup, "w") as handle:
        handle.write("9 0\n-9 1 0\n0\n")
    proc = _run_cli(["verify", cnf, drup])
    return _judge("foreign-variable", proc, (EXIT_PROOF_BAD,),
                  want_stdout="s PROOF_IS_NOT_CORRECT")


def scenario_rebuild_deletions(workdir: str) -> FaultOutcome:
    """``--mode rebuild`` keeps no root to attach deleted clauses to, so
    it refuses a trace with deletions: one ``c error:`` line, exit 2."""
    cnf, drup = _instance(workdir)
    proc = _run_cli(["verify", cnf, drup, "--mode", "rebuild"])
    return _judge("rebuild-deletions", proc, (EXIT_ERROR,),
                  want_stderr="c error: mode rebuild")


def scenario_props_budget(workdir: str) -> FaultOutcome:
    """The propagation budget trips mid-run: exit 3 with the partial
    report's outcome, no verdict."""
    cnf, drup = _instance(workdir)
    proc = _run_cli(["verify", cnf, drup, "--max-props", "2000"])
    return _judge("props-budget", proc, (EXIT_RESOURCE_LIMIT,),
                  want_stdout="s RESOURCE_LIMIT_EXCEEDED")


def _signal_scenario(name: str, signame: str,
                     workdir: str) -> FaultOutcome:
    """Interrupt a run mid-check: exit 130, no traceback, and the
    ``--trace-out`` trace on disk, closed by its ``run_summary``."""
    signum = getattr(signal, signame)
    for n_vars in _SIGNAL_NS:
        cnf, drup = _instance(workdir, n_vars=n_vars, window=8,
                              tag=f"sig{n_vars}")
        trace = os.path.join(workdir, f"{name}.jsonl")
        try:
            os.unlink(trace)
        except FileNotFoundError:
            pass
        child = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "verify", cnf, drup,
             "--progress", "--trace-out", trace],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=_cli_env())
        # The first heartbeat comes from the first check, well after
        # main() installed its signal handling.
        child.stderr.readline()
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
        if not os.path.exists(trace):
            problems.append("no trace after interrupt")
        elif '"run_summary"' not in open(trace).read().splitlines()[-1]:
            problems.append("trace not closed by its run_summary")
        if problems:
            return FaultOutcome(name, False, child.returncode,
                                (EXIT_INTERRUPT,),
                                "; ".join(problems) + " | "
                                + " / ".join(stderr.strip()
                                             .splitlines()[-3:]))
        return FaultOutcome(name, True, EXIT_INTERRUPT,
                            (EXIT_INTERRUPT,),
                            f"exit 130, trace flushed (n={n_vars})")
    return FaultOutcome(name, False, None, (EXIT_INTERRUPT,),
                        "child kept finishing before the signal "
                        f"landed (tried n={_SIGNAL_NS})")


def scenario_sigint(workdir: str) -> FaultOutcome:
    """^C lands mid-run: exit 130 with the trace flushed."""
    return _signal_scenario("sigint", "SIGINT", workdir)


def scenario_sigterm(workdir: str) -> FaultOutcome:
    """A supervisor's SIGTERM gets the same treatment as ^C."""
    return _signal_scenario("sigterm", "SIGTERM", workdir)


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
    "foreign-variable": scenario_foreign_variable,
    "rebuild-deletions": scenario_rebuild_deletions,
    "props-budget": scenario_props_budget,
    "sigint": scenario_sigint,
    "sigterm": scenario_sigterm,
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
        description="fault-injection sweep over repro verify's "
                    "typed exit-code surface")
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
