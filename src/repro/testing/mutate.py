"""Adversarial proof mutation: fault injection for the checkers.

The entire value proposition of Goldberg & Novikov's procedures is that
an *independent* checker catches incorrect proofs — yet a checker that
is only ever fed its own solver's output is never actually exercised on
hostile input.  This module closes that gap the way DRAT-trim's fuzzing
harness does: take a *known-good* proof, apply small deterministic
corruptions, and assert that every checker configuration rejects the
corrupt proof (or raises :class:`ProofFormatError` while parsing it) —
never accepts it, and never dies with an exception outside the
``ReproError`` hierarchy.

Operators
---------
:class:`ProofMutator` implements eight seedable operators over
:class:`ConflictClauseProof` and :class:`DrupProof`:

========================  ====================================================
``drop_clause``           remove a proof clause (final-pair member, a random
                          mid clause, or the DRUP empty-clause addition)
``flip_literal_sign``     negate a literal (a final-pair unit, or a random
                          literal of a random mid clause)
``retarget_literal``      redirect literals to a fresh, unconstrained
                          variable (the final pair, or one mid literal)
``truncate_tail``         cut the proof's tail (the final pair, the last
                          clause, or the DRUP trace's closing events)
``duplicate_clause``      repeat a deduced clause — a *benign control*: the
                          duplicate is implied by its original, so every
                          checker must still accept
``reorder_pair``          move a clause across one it interacts with (swap
                          the last derivation into the final pair, or move a
                          random later clause earlier)
``inject_non_rup``        insert a clause over a fresh variable that no BCP
                          run can derive
``corrupt_deletion``      make a DRUP deletion target a clause that was
                          never added (or delete the same clause twice)
========================  ====================================================

Expectations
------------
Each mutation carries the strongest guarantee its construction supports:

``EXPECT_REJECT_ALL``
    Every checker must reject: verification1 in every configuration
    and verification2.  Structural corruptions are rejected by
    ``ProofFormatError`` at build time — the same signal a file parser
    gives — which counts; for a trace mutation that includes a deletion
    of a clause that is not live.

``EXPECT_REJECT_V1``
    verification1 must reject (it checks *every* clause), while
    verification2 may legitimately still accept: its marking pass skips
    redundant clauses by design (paper Section 4), so a corrupt clause
    outside the refutation's cone is invisible to it.  This is a
    semantic difference between the procedures, not a checker bug.

``EXPECT_ACCEPT``
    The benign control (duplication): the mutated proof is still
    correct and every checker must say so — guarding against a harness
    that "passes" by rejecting everything.

``EXPECT_ANY``
    Seeded random collateral with no verdict guarantee; the driver
    still asserts crash-freedom and that all verification1
    configurations agree with each other.

Whatever the class, verification2 may accept a proof that
verification1 rejects only when the clause verification1 fails on is
one it never marked, and it may not reject a proof that verification1
accepts.

The guaranteed-rejection constructions rely on the insertion point's
clause set not being refutable by BCP alone — otherwise *every* clause
is trivially RUP there and even a fresh-variable unit is derivable.
Rather than assume this (it fails for degenerate proofs whose last
derivation alone unit-refutes the formula), :class:`ProofMutator`
*probes* each insertion point with a BCP run and downgrades the
expectation to ``EXPECT_ANY`` when the guarantee cannot hold.

Differential driver
-------------------
:func:`run_differential` feeds every mutation to verification1 (both
modes × ``jobs`` 1 and 4) and verification2, and collects violations
of the expectations above into a :class:`DifferentialSummary`.  A trace
mutation is read with its deletions (:meth:`DrupProof.to_proof`) and
checked backward like any proof, in the incremental configurations
only: rebuild mode refuses deletions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.exceptions import ProofFormatError, ReproError
from repro.core.formula import CnfFormula
from repro.proofs.conflict_clause import (
    ENDING_EMPTY,
    ENDING_FINAL_PAIR,
    ConflictClauseProof,
)
from repro.proofs.drup import ADD, DELETE, DrupEvent, DrupProof
from repro.verify.checker import ProofChecker
from repro.verify.verification import verify_proof_v1, verify_proof_v2

EXPECT_REJECT_ALL = "reject_all"
EXPECT_REJECT_V1 = "reject_v1"
EXPECT_ACCEPT = "accept"
EXPECT_ANY = "any"

KIND_CC = "cc"
KIND_DRUP = "drup"

#: verification1 configurations the differential driver exercises:
#: both checker modes x sequential and 4-way parallel.
DEFAULT_V1_CONFIGS: tuple[tuple[str, int], ...] = tuple(
    (mode, jobs)
    for mode in ("rebuild", "incremental")
    for jobs in (1, 4))

#: A cheap subset for throughput benchmarking (one config per axis).
LIGHT_V1_CONFIGS: tuple[tuple[str, int], ...] = (("incremental", 1),)


@dataclass(frozen=True)
class ProofMutation:
    """One corrupted proof, with the strongest verdict guarantee its
    construction supports (see the module docstring)."""

    operator: str
    description: str
    kind: str
    expectation: str
    clauses: tuple[tuple[int, ...], ...] = ()
    ending: str = ENDING_FINAL_PAIR
    events: tuple[DrupEvent, ...] = ()

    def build(self):
        """Materialize the mutated proof object.

        Structurally corrupt mutations raise :class:`ProofFormatError`
        here — exactly where :func:`repro.proofs.trace_format.
        parse_proof` would raise for the equivalent file — which the
        differential driver counts as rejection by every checker.  A
        trace mutation builds its :class:`DrupProof`; the driver reads
        it against the formula, which is where a bad deletion raises.
        """
        if self.kind == KIND_CC:
            return ConflictClauseProof(list(self.clauses), self.ending)
        return DrupProof(list(self.events))


def _structural(clauses: list[tuple[int, ...]], ending: str,
                fallthrough: str) -> str:
    """REJECT_ALL when the clause list no longer builds (the parser
    itself rejects it); otherwise the operator's fallthrough class."""
    try:
        ConflictClauseProof(clauses, ending)
    except ProofFormatError:
        return EXPECT_REJECT_ALL
    return fallthrough


class ProofMutator:
    """Deterministic, seedable corruption of a known-good proof.

    ``formula`` is the CNF the proof refutes (needed to pick fresh
    variables), ``proof`` the conflict-clause proof to corrupt, and
    ``drup`` (optional) a DRUP trace of the same refutation for the
    trace-level operators.  Two mutators built with the same arguments
    and ``seed`` produce identical mutation lists.
    """

    def __init__(self, formula: CnfFormula, proof: ConflictClauseProof,
                 drup: DrupProof | None = None, seed: int = 0):
        if len(proof) == 0:
            raise ValueError("cannot mutate an empty proof")
        self.formula = formula
        self.proof = proof
        self.drup = drup
        self.seed = seed
        self.fresh_var = max(formula.num_vars, proof.max_var()) + 1
        if drup is not None:
            for event in drup.events:
                for lit in event.literals:
                    self.fresh_var = max(self.fresh_var, abs(lit) + 1)
        self._refutable_cache: dict[int, bool] = {}
        self._drup_refutable: bool | None = None

    # Number of trailing clauses that form the proof's ending (the
    # final conflicting pair, or the single empty clause).
    @property
    def _tail(self) -> int:
        return 2 if self.proof.ending == ENDING_FINAL_PAIR else 1

    def _rng(self, salt: str) -> random.Random:
        return random.Random(f"{self.seed}:{salt}")

    def _mid_index(self, salt: str) -> int | None:
        """A random index strictly before the proof's ending."""
        body = len(self.proof) - self._tail
        if body <= 0:
            return None
        return self._rng(salt).randrange(body)

    # -- insertion-point probes ------------------------------------------
    #
    # A non-RUP injection is only guaranteed to be rejected when the
    # clause set at the insertion point is not BCP-refutable on its own
    # (otherwise every check there conflicts trivially).  These probes
    # establish that precondition with a single BCP run each.

    def _prefix_refutable(self, k: int) -> bool:
        """Is ``F ∪ F*[:k]`` refutable by BCP alone?"""
        cached = self._refutable_cache.get(k)
        if cached is None:
            probe = ConflictClauseProof(
                list(self.proof.clauses[:k]) + [()], ENDING_EMPTY)
            checker = ProofChecker(self.formula, probe, mode="rebuild")
            cached = checker.check_clause(k).conflict
            self._refutable_cache[k] = cached
        return cached

    def _drup_tail_refutable(self, last_add: int) -> bool:
        """Is the trace's live clause set just before its final
        derivation refutable by BCP alone?  (Probed by checking an
        early empty-clause addition after the genuine trace prefix.)"""
        if self._drup_refutable is None:
            probe = DrupProof(list(self.drup.events[:last_add])
                              + [DrupEvent(ADD, ())]).to_proof(
                                  self.formula)
            checker = ProofChecker(self.formula, probe)
            self._drup_refutable = checker.check_clause(
                len(probe) - 1).conflict
        return self._drup_refutable

    def _cc(self, operator: str, description: str, expectation: str,
            clauses: list[tuple[int, ...]]) -> ProofMutation:
        return ProofMutation(
            operator=operator, description=description, kind=KIND_CC,
            expectation=expectation, clauses=tuple(clauses),
            ending=self.proof.ending)

    def _drup(self, operator: str, description: str, expectation: str,
              events: list[DrupEvent]) -> ProofMutation:
        return ProofMutation(
            operator=operator, description=description, kind=KIND_DRUP,
            expectation=expectation, events=tuple(events))

    def mutations(self) -> list[ProofMutation]:
        """Every operator's mutations, in a deterministic order."""
        out: list[ProofMutation] = []
        out += self.op_drop_clause()
        out += self.op_flip_literal_sign()
        out += self.op_retarget_literal()
        out += self.op_truncate_tail()
        out += self.op_duplicate_clause()
        out += self.op_reorder_pair()
        out += self.op_inject_non_rup()
        out += self.op_corrupt_deletion()
        return out

    # -- operators --------------------------------------------------------

    def op_drop_clause(self) -> list[ProofMutation]:
        """Remove a clause: the refutation's ending, or a random mid
        clause (whose necessity is unknown — collateral coverage)."""
        out = []
        clauses = list(self.proof.clauses)
        dropped = clauses[:-1]
        out.append(self._cc(
            "drop_clause", "drop the proof's final clause",
            _structural(dropped, self.proof.ending, EXPECT_ANY),
            dropped))
        mid = self._mid_index("drop")
        if mid is not None:
            dropped = clauses[:mid] + clauses[mid + 1:]
            out.append(self._cc(
                "drop_clause", f"drop mid proof clause {mid}",
                _structural(dropped, self.proof.ending, EXPECT_ANY),
                dropped))
        if self.drup is not None:
            events = list(self.drup.events)
            empties = [i for i, e in enumerate(events)
                       if e.kind == ADD and not e.literals]
            if len(empties) == 1:
                kept = events[:empties[0]] + events[empties[0] + 1:]
                out.append(self._drup(
                    "drop_clause", "drop the empty-clause addition",
                    EXPECT_REJECT_ALL, kept))
        return out

    def op_flip_literal_sign(self) -> list[ProofMutation]:
        """Negate a literal.  Flipping one unit of the final pair turns
        it into a non-conflicting pair — a structural reject; flipping a
        random mid literal is collateral."""
        out = []
        clauses = list(self.proof.clauses)
        if self.proof.ending == ENDING_FINAL_PAIR:
            flipped = list(clauses)
            lit = flipped[-2][0]
            flipped[-2] = (-lit,)
            out.append(self._cc(
                "flip_literal_sign",
                "flip the first unit of the final pair",
                _structural(flipped, self.proof.ending, EXPECT_ANY),
                flipped))
        mid = self._mid_index("flip")
        if mid is not None and clauses[mid]:
            rng = self._rng("flip-lit")
            pos = rng.randrange(len(clauses[mid]))
            clause = list(clauses[mid])
            clause[pos] = -clause[pos]
            flipped = list(clauses)
            flipped[mid] = tuple(clause)
            out.append(self._cc(
                "flip_literal_sign",
                f"flip literal {pos} of mid clause {mid}",
                _structural(flipped, self.proof.ending, EXPECT_ANY),
                flipped))
        return out

    def op_retarget_literal(self) -> list[ProofMutation]:
        """Point literals at a fresh, unconstrained variable.  A final
        pair over a fresh variable is structurally pristine but can
        never be derived: guaranteed rejection by every checker."""
        out = []
        clauses = list(self.proof.clauses)
        fresh = self.fresh_var
        if self.proof.ending == ENDING_FINAL_PAIR:
            retargeted = list(clauses)
            retargeted[-2] = (fresh,)
            retargeted[-1] = (-fresh,)
            # Guaranteed only when the prefix cannot refute itself by
            # BCP (else the fresh pair is trivially derivable there).
            expectation = (EXPECT_ANY
                           if self._prefix_refutable(len(clauses) - 2)
                           else EXPECT_REJECT_ALL)
            out.append(self._cc(
                "retarget_literal",
                f"retarget the final pair to fresh variable {fresh}",
                expectation, retargeted))
        mid = self._mid_index("retarget")
        if mid is not None and clauses[mid]:
            rng = self._rng("retarget-lit")
            pos = rng.randrange(len(clauses[mid]))
            clause = list(clauses[mid])
            clause[pos] = fresh if clause[pos] > 0 else -fresh
            retargeted = list(clauses)
            retargeted[mid] = tuple(clause)
            out.append(self._cc(
                "retarget_literal",
                f"retarget literal {pos} of mid clause {mid} to {fresh}",
                _structural(retargeted, self.proof.ending, EXPECT_ANY),
                retargeted))
        return out

    def op_truncate_tail(self) -> list[ProofMutation]:
        """Cut the proof's tail — the truncated-file failure mode."""
        out = []
        clauses = list(self.proof.clauses)
        if len(clauses) > self._tail:
            kept = clauses[:-self._tail]
            out.append(self._cc(
                "truncate_tail", "truncate the proof's ending clauses",
                _structural(kept, self.proof.ending, EXPECT_ANY), kept))
        if self.drup is not None:
            events = list(self.drup.events)
            last_add = max((i for i, e in enumerate(events)
                            if e.kind == ADD), default=None)
            if last_add is not None and not events[last_add].literals \
                    and not any(e.kind == ADD and not e.literals
                                for e in events[:last_add]):
                out.append(self._drup(
                    "truncate_tail",
                    "truncate the trace at its final derivation",
                    EXPECT_REJECT_ALL, events[:last_add]))
        return out

    def op_duplicate_clause(self) -> list[ProofMutation]:
        """Benign control: a duplicated clause is implied by its
        original, so every checker must still accept the proof."""
        out = []
        clauses = list(self.proof.clauses)
        mid = self._mid_index("duplicate")
        if mid is not None:
            duplicated = (clauses[:mid + 1] + [clauses[mid]]
                          + clauses[mid + 1:])
            out.append(self._cc(
                "duplicate_clause", f"duplicate mid proof clause {mid}",
                EXPECT_ACCEPT, duplicated))
        if self.drup is not None:
            events = list(self.drup.events)
            adds = [i for i, e in enumerate(events)
                    if e.kind == ADD and e.literals]
            if adds:
                rng = self._rng("duplicate-drup")
                pick = adds[rng.randrange(len(adds))]
                duplicated = (events[:pick + 1] + [events[pick]]
                              + events[pick + 1:])
                out.append(self._drup(
                    "duplicate_clause",
                    f"duplicate trace addition at event {pick}",
                    EXPECT_ACCEPT, duplicated))
        return out

    def op_reorder_pair(self) -> list[ProofMutation]:
        """Move a clause across one it interacts with: swapping the last
        derivation into the final pair breaks the ending; moving a later
        clause earlier may strand it before its antecedents."""
        out = []
        clauses = list(self.proof.clauses)
        if self.proof.ending == ENDING_FINAL_PAIR and len(clauses) >= 3:
            swapped = list(clauses)
            swapped[-3], swapped[-2] = swapped[-2], swapped[-3]
            out.append(self._cc(
                "reorder_pair",
                "swap the last derivation with the final pair's first "
                "unit",
                _structural(swapped, self.proof.ending, EXPECT_ANY),
                swapped))
        body = len(clauses) - self._tail
        if body >= 2:
            rng = self._rng("reorder")
            j = rng.randrange(1, body)
            i = rng.randrange(j)
            moved = list(clauses)
            clause = moved.pop(j)
            moved.insert(i, clause)
            out.append(self._cc(
                "reorder_pair", f"move mid clause {j} before clause {i}",
                _structural(moved, self.proof.ending, EXPECT_ANY),
                moved))
        return out

    def op_inject_non_rup(self) -> list[ProofMutation]:
        """Insert a clause over a fresh variable.  It is never RUP, so
        verification1 (which checks everything) must reject; placed
        *inside* the final pair it breaks the ending outright.
        verification2 may legitimately skip the pre-pair injection —
        the refutation itself is untouched."""
        out = []
        clauses = list(self.proof.clauses)
        fresh = self.fresh_var
        injected = list(clauses)
        injected.insert(0, (fresh,))
        expectation = (EXPECT_ANY if self._prefix_refutable(0)
                       else EXPECT_REJECT_V1)
        out.append(self._cc(
            "inject_non_rup",
            f"inject fresh-variable unit ({fresh}) before the proof",
            expectation, injected))
        injected = list(clauses)
        injected.insert(len(clauses) - self._tail, (fresh,))
        expectation = (EXPECT_ANY
                       if self._prefix_refutable(
                           len(clauses) - self._tail)
                       else EXPECT_REJECT_V1)
        out.append(self._cc(
            "inject_non_rup",
            f"inject fresh-variable unit ({fresh}) before the ending",
            expectation, injected))
        if self.proof.ending == ENDING_FINAL_PAIR:
            injected = list(clauses)
            injected.insert(len(clauses) - 1, (fresh,))
            out.append(self._cc(
                "inject_non_rup",
                f"inject fresh-variable unit ({fresh}) inside the final "
                "pair",
                _structural(injected, self.proof.ending, EXPECT_ANY),
                injected))
        if self.drup is not None:
            events = list(self.drup.events)
            injected_ev = list(events)
            injected_ev.insert(0, DrupEvent(ADD, (fresh,)))
            expectation = (EXPECT_ANY if self._prefix_refutable(0)
                           else EXPECT_REJECT_V1)
            out.append(self._drup(
                "inject_non_rup",
                f"inject fresh-variable addition ({fresh}) before the "
                "trace",
                expectation, injected_ev))
            adds = [i for i, e in enumerate(events)
                    if e.kind == ADD and e.literals]
            if adds:
                injected_ev = list(events)
                injected_ev.insert(adds[-1], DrupEvent(ADD, (fresh,)))
                expectation = (EXPECT_ANY
                               if self._drup_tail_refutable(adds[-1])
                               else EXPECT_REJECT_V1)
                out.append(self._drup(
                    "inject_non_rup",
                    f"inject fresh-variable addition ({fresh}) before "
                    "the final derivation",
                    expectation, injected_ev))
        return out

    def op_corrupt_deletion(self) -> list[ProofMutation]:
        """Corrupt the DRUP deletion stream: deleting a clause that is
        not live must be refused when the trace is read."""
        if self.drup is None:
            return []
        out = []
        events = list(self.drup.events)
        fresh = self.fresh_var
        deletes = [i for i, e in enumerate(events) if e.kind == DELETE]
        if deletes:
            corrupted = list(events)
            corrupted[deletes[0]] = DrupEvent(DELETE, (fresh,))
            out.append(self._drup(
                "corrupt_deletion",
                f"retarget deletion at event {deletes[0]} to a clause "
                "never added",
                EXPECT_REJECT_ALL, corrupted))
            # Deleting the same clause twice: corrupt only when exactly
            # one copy was ever active, else the second pop is legal.
            target = events[deletes[0]]
            key = tuple(sorted(set(target.literals)))
            copies = sum(
                1 for clause in self.formula
                if tuple(sorted(set(clause.literals))) == key)
            copies += sum(
                1 for e in events[:deletes[0]]
                if e.kind == ADD
                and tuple(sorted(set(e.literals))) == key)
            doubled = list(events)
            doubled.insert(deletes[0] + 1, target)
            out.append(self._drup(
                "corrupt_deletion",
                f"delete the clause at event {deletes[0]} twice",
                EXPECT_REJECT_ALL if copies == 1 else EXPECT_ANY,
                doubled))
        else:
            injected = list(events)
            injected.insert(0, DrupEvent(DELETE, (fresh,)))
            out.append(self._drup(
                "corrupt_deletion",
                "inject a deletion of a clause never added",
                EXPECT_REJECT_ALL, injected))
        return out


# -- differential driver ---------------------------------------------------

@dataclass
class MutationVerdict:
    """How the checker fleet handled one mutation."""

    mutation: ProofMutation
    rejected_at_parse: bool = False
    v1_outcomes: dict[tuple[str, int], bool] = field(
        default_factory=dict)
    v2_accepted: bool | None = None
    checker_runs: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class DifferentialSummary:
    """Aggregate of a :func:`run_differential` sweep."""

    verdicts: list[MutationVerdict] = field(default_factory=list)

    @property
    def num_mutations(self) -> int:
        return len(self.verdicts)

    @property
    def checker_runs(self) -> int:
        return sum(v.checker_runs for v in self.verdicts)

    @property
    def problems(self) -> list[str]:
        return [problem for v in self.verdicts for problem in v.problems]

    @property
    def ok(self) -> bool:
        return not self.problems

    def by_expectation(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for verdict in self.verdicts:
            expectation = verdict.mutation.expectation
            counts[expectation] = counts.get(expectation, 0) + 1
        return counts


def _tag(mutation: ProofMutation) -> str:
    return f"{mutation.operator}[{mutation.description}]"


def check_mutation(formula: CnfFormula, mutation: ProofMutation,
                   v1_configs=DEFAULT_V1_CONFIGS,
                   engine=None) -> MutationVerdict:
    """Feed one mutation to every checker and judge the outcomes.

    Any exception outside the ``ReproError`` hierarchy is a harness
    failure (checkers must degrade, not crash), recorded in
    ``problems`` rather than raised — with the exception's type, so a
    regression is still attributable.
    """
    verdict = MutationVerdict(mutation=mutation)
    tag = _tag(mutation)
    try:
        proof = mutation.build()
        if mutation.kind == KIND_DRUP:
            proof = proof.to_proof(formula)
            v1_configs = [(mode, jobs) for mode, jobs in v1_configs
                          if mode == "incremental"]
    except ProofFormatError:
        verdict.rejected_at_parse = True
        if mutation.expectation == EXPECT_ACCEPT:
            verdict.problems.append(
                f"{tag}: benign mutation rejected at parse")
        return verdict
    except ReproError as exc:
        verdict.problems.append(
            f"{tag}: build raised non-format ReproError {exc!r}")
        return verdict
    except Exception as exc:  # noqa: BLE001 - the property under test
        verdict.problems.append(
            f"{tag}: build crashed with {type(exc).__name__}: {exc}")
        return verdict
    _judge(formula, proof, verdict, tag, v1_configs, engine)
    return verdict


def _judge(formula: CnfFormula, proof: ConflictClauseProof,
           verdict: MutationVerdict, tag: str, v1_configs,
           engine=None) -> None:
    expectation = verdict.mutation.expectation
    failed: set[int | None] = set()
    for mode, jobs in v1_configs:
        try:
            report = verify_proof_v1(formula, proof, engine, mode=mode,
                                     jobs=jobs)
        except ReproError:
            # A typed refusal counts as rejection.
            verdict.v1_outcomes[(mode, jobs)] = False
            verdict.checker_runs += 1
            continue
        except Exception as exc:  # noqa: BLE001
            verdict.problems.append(
                f"{tag}: verification1({mode},jobs={jobs}) "
                f"crashed with {type(exc).__name__}: {exc}")
            continue
        verdict.v1_outcomes[(mode, jobs)] = report.ok
        verdict.checker_runs += 1
        if not report.ok:
            failed.add(report.failed_clause_index)
    marked: tuple[int, ...] = ()
    try:
        v2 = verify_proof_v2(formula, proof, engine)
        verdict.v2_accepted = v2.ok
        marked = v2.marked_proof_indices
        verdict.checker_runs += 1
    except ReproError:
        verdict.v2_accepted = False
        verdict.checker_runs += 1
    except Exception as exc:  # noqa: BLE001
        verdict.problems.append(
            f"{tag}: verification2 crashed with "
            f"{type(exc).__name__}: {exc}")

    accepted = set(verdict.v1_outcomes.values())
    if len(accepted) > 1:
        verdict.problems.append(
            f"{tag}: verification1 configurations disagree: "
            f"{verdict.v1_outcomes}")
        return
    v1_accepts = accepted.pop() if accepted else None
    if v1_accepts is False and verdict.v2_accepted:
        # verification2 skips only unmarked clauses (paper Section 4).
        for index in failed & set(marked):
            verdict.problems.append(
                f"{tag}: verification2 accepted past marked clause "
                f"{index}, which verification1 rejects")
    if v1_accepts and verdict.v2_accepted is False:
        verdict.problems.append(
            f"{tag}: verification2 rejected a proof verification1 "
            "accepts")
    if expectation in (EXPECT_REJECT_ALL, EXPECT_REJECT_V1) \
            and v1_accepts:
        verdict.problems.append(
            f"{tag}: verification1 accepted a corrupt proof")
    if expectation == EXPECT_REJECT_ALL and verdict.v2_accepted:
        verdict.problems.append(
            f"{tag}: verification2 accepted a corrupt proof")
    if expectation == EXPECT_ACCEPT:
        if v1_accepts is False:
            verdict.problems.append(
                f"{tag}: verification1 rejected a benign mutation")
        if verdict.v2_accepted is False:
            verdict.problems.append(
                f"{tag}: verification2 rejected a benign mutation")


def run_differential(formula: CnfFormula, proof: ConflictClauseProof,
                     drup: DrupProof | None = None, seed: int = 0,
                     v1_configs=DEFAULT_V1_CONFIGS,
                     engine=None,
                     ) -> DifferentialSummary:
    """Mutate a known-good proof and sweep every mutation through the
    checker fleet; the summary is ``ok`` iff no expectation was
    violated and no checker crashed outside ``ReproError``.

    ``engine`` selects the checkers' BCP engine (a
    :data:`repro.bcp.ENGINES` name or class; default watched) — the
    expectations are engine-independent, so sweeping the same mutations
    under each engine is the adversarial half of the engine-parity
    guarantee.
    """
    mutator = ProofMutator(formula, proof, drup=drup, seed=seed)
    summary = DifferentialSummary()
    for mutation in mutator.mutations():
        summary.verdicts.append(
            check_mutation(formula, mutation, v1_configs=v1_configs,
                           engine=engine))
    return summary
