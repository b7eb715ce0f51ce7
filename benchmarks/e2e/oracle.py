"""Verdict oracle for every CLI invocation the benchmark makes.

It checks three things, and each miss counts the invocation as failed:

* the exit code is one the step expects (verify 0, solve 20, a mutant
  0 or 1, or exactly one of them when the mutation guarantees it), and
  nothing printed a traceback.  An exception Python reports as
  "ignored" at interpreter exit changes neither exit code nor verdict;
  it is kept as a warning instead.  (``--jobs`` runs print one now and
  then: CPython 3.11's ProcessPoolExecutor exit hook races the
  program's ``shutdown(wait=False)``.);
* every pass prints the same verdict lines (``s``, ``c checked=``,
  ``c bcp:``, ``c unsat core:``, ``c proof written``) as the first pass
  did for the same step, with time fields stripped (and without
  ``c bcp:`` for parallel runs, see :func:`verdict_lines`);
* every exit-1 rejection is confirmed independently: the named clause
  is falsified and unit propagation runs over the formula plus the
  proof clauses before it.  Finding no conflict confirms the rejection.

The files are parsed here, not by the program, so a parser bug in the
program cannot hide from the check.
"""

from __future__ import annotations

import re
from collections import deque

_TIME_FIELD = re.compile(r"\s*time=\S+")
_VERDICT_PREFIXES = ("s ", "c checked=", "c bcp:", "c unsat core:",
                     "c proof written")
_JOBS = re.compile(r"^c checked=.* jobs=(\d+)", re.M)
_CHECKED = re.compile(r"^c checked=(\d+) skipped=(\d+)", re.M)
_BCP = re.compile(r"^c bcp: (.*)$", re.M)
_FAILED_INDEX = re.compile(r"^c questionable clause at chronological "
                           r"index (\d+)", re.M)
_WORKER_FAILURES = re.compile(r"^c warning: (\d+) worker failure", re.M)


def verdict_lines(stdout: str) -> list[str]:
    """The lines every pass must repeat.  A parallel run's ``c bcp:``
    counters are left out: they depend on which worker happened to run
    which shard."""
    lines = [_TIME_FIELD.sub("", line) for line in stdout.splitlines()
             if line.startswith(_VERDICT_PREFIXES)]
    if any(int(jobs) > 1 for jobs in _JOBS.findall(stdout)):
        lines = [line for line in lines if not line.startswith("c bcp:")]
    return lines


def parse_checked(stdout: str) -> tuple[int, int] | None:
    match = _CHECKED.search(stdout)
    return (int(match[1]), int(match[2])) if match else None


def parse_bcp(stdout: str) -> dict[str, int]:
    match = _BCP.search(stdout)
    if not match:
        return {}
    pairs = (field.split("=", 1) for field in match[1].split())
    return {key: int(value) for key, value in pairs}


def parse_failed_index(stdout: str) -> int | None:
    match = _FAILED_INDEX.search(stdout)
    return int(match[1]) if match else None


def parse_worker_failures(stdout: str) -> int:
    match = _WORKER_FAILURES.search(stdout)
    return int(match[1]) if match else 0


def _read_clauses(path: str) -> list[list[int]]:
    """Zero-terminated clauses of a DIMACS or ccproof file (comment and
    header lines skipped)."""
    clauses, pending = [], []
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith(("c", "p")):
                continue
            for token in line.split():
                lit = int(token)
                if lit:
                    pending.append(lit)
                else:
                    clauses.append(pending)
                    pending = []
    return clauses


def propagation_conflicts(clauses: list[list[int]],
                          assumptions: list[int]) -> bool:
    """Does unit propagation over ``clauses`` under ``assumptions``
    reach a conflict?  A plain work-list fixpoint: a clause is examined
    again whenever one of its literals becomes false."""
    value: dict[int, bool] = {}
    for lit in assumptions:
        if value.setdefault(abs(lit), lit > 0) != (lit > 0):
            return True
    occurs: dict[int, list[int]] = {}
    for index, clause in enumerate(clauses):
        for lit in clause:
            occurs.setdefault(lit, []).append(index)
    todo = deque(range(len(clauses)))
    while todo:
        free = None
        num_free = 0
        for lit in clauses[todo.popleft()]:
            assigned = value.get(abs(lit))
            if assigned is None:
                num_free += 1
                free = lit
            elif assigned == (lit > 0):
                break
        else:
            if num_free == 0:
                return True
            if num_free == 1:
                value[abs(free)] = free > 0
                todo.extend(occurs.get(-free, ()))
    return False


def rejection_confirmed(cnf: str, proof: str, index: int) -> bool:
    """Is proof clause ``index`` really not derivable by unit
    propagation from the formula and the proof clauses before it?"""
    formula = _read_clauses(cnf)
    clauses = _read_clauses(proof)
    if not 0 <= index < len(clauses):
        return False
    return not propagation_conflicts(formula + clauses[:index],
                                     [-lit for lit in clauses[index]])


class Oracle:
    """Judges invocations; remembers the first pass's verdict lines."""

    def __init__(self):
        self.first: dict[tuple, list[str]] = {}
        self.confirmed: dict[tuple, bool] = {}
        self.warnings: list[str] = []

    def check(self, key: tuple, step, proof_path: str | None,
              exit_code: int, stdout: str, stderr: str) -> list[str]:
        """Problems with one invocation (empty when it is correct).

        ``key`` identifies the (input, step) across passes;
        ``proof_path`` is the proof a verify step read.
        """
        problems = []
        if exit_code not in step.expect:
            problems.append(f"exit {exit_code}, expected one of "
                            f"{sorted(step.expect)}")
        tracebacks = stderr.count("Traceback (most recent call last)")
        ignored = stderr.count("Exception ignored in")
        if tracebacks > ignored:
            problems.append("traceback on stderr")
        elif ignored:
            self.warnings.append(f"{' '.join(step.argv)}: exception "
                                 "ignored at interpreter exit")
        lines = verdict_lines(stdout)
        first = self.first.setdefault(key, lines)
        if lines != first:
            problems.append(f"verdict lines {lines} differ from the "
                            f"first pass's {first}")
        if step.command == "verify" and exit_code == 1:
            index = parse_failed_index(stdout)
            if index is None:
                problems.append("rejection names no clause")
            else:
                cache_key = (step.argv[1], proof_path, index)
                if cache_key not in self.confirmed:
                    self.confirmed[cache_key] = rejection_confirmed(
                        step.argv[1], proof_path, index)
                if not self.confirmed[cache_key]:
                    problems.append(f"false rejection: clause {index} is "
                                    "derivable by unit propagation")
        return problems
