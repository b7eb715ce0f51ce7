#!/usr/bin/env python3
"""Bounded model checking with certified UNSAT results.

The scenario behind the paper's barrel/longmult/fifo/w instances: unroll
a transition system to a bound, assert the safety property fails, and
refute the formula.  The UNSAT proof *is* the bounded-correctness
certificate, and the unsat core tells you which part of the design the
proof actually used.

Run:  python examples/bounded_model_checking.py
"""

from repro import ConflictClauseProof, solve, verify_proof
from repro.bmc import (
    arbiter_system,
    fifo_pair_system,
    longmult_instance,
    unroll,
)


def check_system(system, bound: int) -> None:
    print(f"\n== {system.name}, bound {bound} ==")
    instance = unroll(system, bound)
    formula = instance.formula
    print(f"unrolled CNF: {formula.num_vars} vars, "
          f"{formula.num_clauses} clauses "
          f"({system.num_state_bits} state bits x {bound} frames)")
    result = solve(formula)
    print(f"solver: {result.status} in {result.stats.conflicts} conflicts")
    assert result.is_unsat, "property violated within the bound!"
    proof = ConflictClauseProof.from_log(result.log)
    report = verify_proof(formula, proof)
    print(f"certificate: {report.outcome}; tested "
          f"{report.tested_fraction:.0%} of F*, core covers "
          f"{report.core.fraction:.0%} of the unrolling")
    assert report.ok


def main() -> None:
    # A round-robin arbiter: grants stay mutually exclusive.
    check_system(arbiter_system(5), bound=8)

    # Two FIFO implementations stay in agreement on any input stream.
    check_system(fifo_pair_system(4), bound=6)

    # A sequential multiplier matches a combinational reference on one
    # output bit (the paper's longmult construction).
    print("\n== longmult (sequential vs Wallace multiplier, bit 5) ==")
    formula = longmult_instance(4, 5)
    result = solve(formula)
    print(f"solver: {result.status} in {result.stats.conflicts} conflicts")
    assert result.is_unsat
    report = verify_proof(formula,
                          ConflictClauseProof.from_log(result.log))
    print(f"certificate: {report.outcome}")
    assert report.ok


if __name__ == "__main__":
    main()
