#!/usr/bin/env python3
"""The proof toolkit: trimming, statistics, insight, reconstruction.

Everything that falls out of the paper's machinery beyond plain
verification:

* **trimming** (§4 corollary) — drop the conflict clauses the marking
  pass never touched;
* **statistics** (§5) — classify clauses as local vs global and see
  which proof format each clause prefers;
* **proof insight** — capture the proof dependency graph from the
  verifier's own conflict analysis, export it as JSONL + Graphviz
  DOT, and recompute the §5 shape quantities from that evidence
  alone (docs/proof_insight.md);
* **reconstruction** (§5) — make the implicit resolution graph explicit
  from a conflict clause proof alone, and check it.

Run:  python examples/proof_toolkit.py
"""

import os
import tempfile

from repro import (
    ConflictClauseProof,
    analyze_log,
    reconstruct_resolution_graph,
    solve,
    trim_proof,
    verify_proof,
)
from repro.benchgen import pigeonhole
from repro.obs import Obs
from repro.obs.insight import (
    analyze_proof_shape,
    depgraph_records,
    estimated_resolutions,
    is_local,
    write_depgraph_dot,
    write_depgraph_jsonl,
)


def main() -> None:
    formula = pigeonhole(5)
    result = solve(formula)
    assert result.is_unsat
    proof = ConflictClauseProof.from_log(result.log)
    print(f"php5 proof: {len(proof)} clauses, "
          f"{proof.literal_count()} literals")

    # -- trimming ------------------------------------------------------
    trim = trim_proof(formula, proof)
    print(f"trimmed: kept {len(trim.trimmed)} clauses "
          f"(-{trim.clauses_removed} clauses, "
          f"-{trim.literals_removed} literals); "
          f"re-verifies: {verify_proof(formula, trim.trimmed).ok}")

    # -- statistics ------------------------------------------------------
    stats = analyze_log(result.log)
    print(f"clause shapes: mean length {stats.mean_clause_length:.1f}, "
          f"mean resolutions {stats.mean_resolutions:.1f}; "
          f"{stats.global_clauses}/{stats.num_clauses} global; "
          f"conflict format wins for {stats.conflict_format_wins} "
          "clauses")

    # -- proof insight: provenance + shape from the verifier ---------------
    obs = Obs.enabled(depgraph=True)
    report = verify_proof(formula, proof, obs=obs)
    assert report.ok
    with tempfile.TemporaryDirectory() as tmp:
        jsonl = os.path.join(tmp, "php5.depgraph.jsonl")
        lines = write_depgraph_jsonl(
            jsonl, obs.depgraph, {"id": obs.run_id},
            num_input=formula.num_clauses, num_proof=len(proof),
            procedure=report.procedure, mode=report.mode)
        write_depgraph_dot(os.path.join(tmp, "php5.depgraph.dot"), lines)
    print(f"dependency graph: {obs.depgraph.num_checks} checked clauses, "
          f"{obs.depgraph.num_edges} antecedent edges "
          "(exported as JSONL + DOT)")

    shape = analyze_proof_shape(proof, report, obs.depgraph)
    print(f"shape from verifier evidence: {shape.local_clauses} local / "
          f"{shape.global_clauses} global; "
          f"~{shape.estimated_resolution_nodes} resolution nodes vs "
          f"{shape.proof_literals} proof literals "
          f"({shape.ratio_percent:.1f}%)")

    # The local/global call, spelled out for one clause: support with k
    # antecedents means ~max(k-1, 1) trivial-resolution steps, and a
    # clause is local when that stays within twice its own length.
    record = depgraph_records(obs.depgraph)[0]
    clause = proof[record["index"]]
    k = len(record["antecedents"])
    print(f"first checked clause {clause}: {k} antecedents -> "
          f"~{estimated_resolutions(k)} resolutions over "
          f"{len(clause)} literals; local: {is_local(k, len(clause))}")

    # -- resolution graph reconstruction ----------------------------------
    rebuilt = reconstruct_resolution_graph(formula, proof)
    check = rebuilt.graph.check()
    print(f"reconstructed resolution graph: {rebuilt.graph.node_count} "
          f"nodes, checks ok: {check.ok}, "
          f"{rebuilt.strengthened} clauses came out strengthened")


if __name__ == "__main__":
    main()
