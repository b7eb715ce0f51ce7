"""Input generation: ``python -m benchmarks.e2e.inputs WORKLOAD SEED DIR``.

Writes the files the CLI receives into ``DIR`` and lists the inputs, in
the seeded order a pass runs them, in ``DIR/inputs.json``.  The same
seed gives byte-identical files.

The seed relabels each registry formula: a variable permutation plus a
clause and literal shuffle.  Proofs are solved on the *canonical*
formula and renamed with it (mutants are made from the canonical proof
with a fixed mutator seed, then renamed), so a proof stays valid and a
mutant keeps its meaning.  Re-solving each relabelled formula instead
would make the inputs themselves seed-dependent in size: the solver's
search changes chaotically under renaming (its branching ties break by
variable index), and across ten seeds the solve-plus-verify time of a
pass spread by 8% IQR, above a third of the 20% bound on ``wall_s``.  A
renamed fixed proof moves the checker's work counters by well under 1%.

``solve-verify`` hands the formula to the solver, so renaming it would
bring that spread back.  Its seed shuffles only the literal order inside
each clause, which the DIMACS reader normalises, and the input order.
"""

from __future__ import annotations

import json
import os
import random
import sys

from repro.benchgen.registry import build_instance
from repro.core.exceptions import ProofFormatError
from repro.core.formula import CnfFormula
from repro.proofs.conflict_clause import ConflictClauseProof
from repro.solver.cdcl import SolverOptions, solve
from repro.testing.mutate import (
    EXPECT_ACCEPT,
    EXPECT_REJECT_ALL,
    KIND_CC,
    ProofMutator,
)

from .workloads import (
    EXIT_OK,
    EXIT_REJECT,
    EXIT_UNSAT,
    MANIFEST,
    WORKLOADS,
    Input,
    Step,
    Workload,
    verify_step,
)

# Mutation positions are drawn once, on the canonical proof: a seeded
# choice would move where (and whether) verification2 rejects, and with
# it each mutant's cost.
MUTATION_SEED = 0


def permutation(num_vars: int, rng: random.Random) -> list[int]:
    """``perm[v]`` is the new name of variable ``v`` (index 0 unused)."""
    names = list(range(1, num_vars + 1))
    rng.shuffle(names)
    return [0] + names


def rename(clause, perm: list[int], rng: random.Random) -> list[int]:
    """The clause with renamed variables, in shuffled literal order.
    Variables past the permutation (a mutant's fresh variable) keep
    their name."""
    lits = []
    for lit in clause:
        var = abs(lit)
        new = perm[var] if var < len(perm) else var
        lits.append(new if lit > 0 else -new)
    rng.shuffle(lits)
    return lits


def write_cnf(path: str, num_vars: int, clauses, comment: str) -> None:
    lines = [f"c {comment}", f"p cnf {num_vars} {len(clauses)}"]
    lines += [" ".join(map(str, clause)) + " 0" for clause in clauses]
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


def write_ccproof(path: str, proof: ConflictClauseProof, perm: list[int],
                  rng: random.Random) -> None:
    lines = [f"p ccproof {proof.ending}"]
    for clause in proof:
        lines.append(" ".join(map(str, rename(clause, perm, rng) + [0])))
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


def canonical_proof(formula: CnfFormula) -> ConflictClauseProof:
    """The proof ``repro solve`` writes for the canonical formula (the
    CLI's default solver options)."""
    result = solve(formula, SolverOptions(learning="adaptive",
                                          heuristic="berkmin"))
    if not result.is_unsat:
        raise RuntimeError("registry instance is not UNSAT")
    return ConflictClauseProof.from_log(result.log)


def _relabelled_cnf(instance: str, formula: CnfFormula, seed: int,
                    directory: str, rename_vars: bool = True):
    """Write the seeded relabelling of ``formula``; returns its path,
    the permutation and the generator, for renaming proofs to match."""
    rng = random.Random(f"{seed}:{instance}")
    if rename_vars:
        perm = permutation(formula.num_vars, rng)
    else:
        perm = list(range(formula.num_vars + 1))
    clauses = [rename(clause.literals, perm, rng) for clause in formula]
    if rename_vars:
        rng.shuffle(clauses)
    cnf = os.path.join(directory, f"{instance}.cnf")
    write_cnf(cnf, formula.num_vars, clauses,
              f"{instance} relabelled with seed {seed}")
    return cnf, perm, rng


def setup_verify(workload: Workload, seed: int,
                 directory: str) -> list[Input]:
    """Relabelled pre-solved proofs, verified with the workload's
    flags."""
    inputs = []
    for instance in workload.instances:
        formula = build_instance(instance)
        proof = canonical_proof(formula)
        cnf, perm, rng = _relabelled_cnf(instance, formula, seed,
                                         directory)
        ccp = os.path.join(directory, f"{instance}.ccp")
        write_ccproof(ccp, proof, perm, rng)
        inputs.append(Input(instance, cnf, ccp,
                            (verify_step(cnf, ccp, *workload.flags),),
                            proof_len=len(proof)))
    return inputs


def setup_solve_verify(workload: Workload, seed: int,
                       directory: str) -> list[Input]:
    """Formulas with shuffled literals; each pass solves them (writing
    the proof in the pass directory) and verifies the proof it wrote."""
    inputs = []
    for instance in workload.instances:
        cnf, _, _ = _relabelled_cnf(instance, build_instance(instance),
                                    seed, directory, rename_vars=False)
        ccp = f"{instance}.ccp"
        inputs.append(Input(instance, cnf, ccp, (
            Step(("solve", cnf, "--proof", ccp), frozenset({EXIT_UNSAT})),
            verify_step(cnf, ccp))))
    return inputs


def _mutant_expect(expectation: str) -> frozenset[int]:
    if expectation == EXPECT_ACCEPT:
        return frozenset({EXIT_OK})
    if expectation == EXPECT_REJECT_ALL:
        return frozenset({EXIT_REJECT})
    # Guarantees weaker than "every checker rejects": verification2 may
    # legitimately accept when the corrupt clause is outside its cone.
    return frozenset({EXIT_OK, EXIT_REJECT})


def setup_mutants(workload: Workload, seed: int,
                  directory: str) -> list[Input]:
    """Relabelled conflict-clause mutants of pre-solved proofs: every
    mutation that still parses, including the benign duplicate control
    that every checker must accept."""
    inputs = []
    for instance in workload.instances:
        formula = build_instance(instance)
        proof = canonical_proof(formula)
        cnf, perm, rng = _relabelled_cnf(instance, formula, seed,
                                         directory)
        mutator = ProofMutator(formula, proof, seed=MUTATION_SEED)
        for number, mutation in enumerate(mutator.mutations()):
            if mutation.kind != KIND_CC:
                continue
            try:
                mutant = mutation.build()
            except ProofFormatError:
                continue  # the parser itself rejects it: not a check
            name = f"{instance}~{number}-{mutation.operator}"
            ccp = os.path.join(directory, f"{name}.ccp")
            write_ccproof(ccp, mutant, perm, rng)
            inputs.append(Input(
                name, cnf, ccp,
                (verify_step(cnf, ccp,
                             expect=_mutant_expect(mutation.expectation)),),
                proof_len=len(mutant)))
    return inputs


SETUPS = {"verify": setup_verify, "solve-verify": setup_solve_verify,
          "mutants": setup_mutants}


def generate(workload: Workload, seed: int, directory: str) -> list[Input]:
    """The workload's inputs written into ``directory``, in the seeded
    order a pass runs them."""
    inputs = SETUPS[workload.setup](workload, seed, directory)
    random.Random(f"{seed}:order").shuffle(inputs)
    return inputs


def main(argv: list[str]) -> int:
    name, seed, directory = argv
    inputs = generate(WORKLOADS[name], int(seed), directory)
    with open(os.path.join(directory, MANIFEST), "w",
              encoding="utf-8") as handle:
        json.dump([inp.as_json() for inp in inputs], handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
