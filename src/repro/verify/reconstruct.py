"""Reconstruct a resolution graph proof from a conflict clause proof.

Section 5 of the paper observes that during verification "each conflict
clause will be eventually assigned to an internal node of the resolution
graph" — i.e. a conflict clause proof plus its BCP checks *is* an
implicit resolution graph.  This module makes the graph explicit: while
checking each clause (forward), the conflict is resolved backwards along
the trail (input resolution over the clauses BCP actually used), which
yields a derivation of the clause — or of a strengthening of it;
derivations of redundant clauses are pruned from the final DAG.

Strengthened intermediate clauses are the classic complication of
RUP-to-resolution conversion: when a reason clause's derived version no
longer contains the propagated literal, it is already falsified outright
and the derivation *restarts* from it.  The result is always a valid
resolution DAG whose sink is the empty clause, checkable with
:meth:`repro.proofs.ResolutionGraphProof.check`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bcp.engine import PropagatorBase
from repro.bcp.watched import WatchedPropagator
from repro.core.exceptions import ReproError
from repro.core.formula import CnfFormula
from repro.core.literals import decode
from repro.proofs.conflict_clause import ENDING_FINAL_PAIR, \
    ConflictClauseProof
from repro.proofs.resolution import ResolutionGraphProof, ResolutionNode
from repro.verify.checker import ProofChecker


@dataclass
class ReconstructionResult:
    """A resolution graph rebuilt from a conflict clause proof."""

    graph: ResolutionGraphProof
    derived_clauses: dict[int, frozenset[int]]
    """Per chronological proof index: the clause actually derived (a
    subset of the proof clause — equal in the common case)."""

    strengthened: int
    """How many proof clauses were derived strictly stronger."""


def _derive_chain(engine: PropagatorBase, derived_of, confl_cid: int):
    """Input resolution of the conflict backwards along the trail.

    Returns ``(chain_cids, pivots, final_literal_set)``; the final set
    contains only negations of assumption literals.
    """
    resolvent = set(derived_of(confl_cid))
    chain = [confl_cid]
    pivots: list[int] = []
    trail = engine.trail
    reasons = engine.reasons
    for pos in range(len(trail) - 1, -1, -1):
        enc = trail[pos]
        lit_true = decode(enc)
        if -lit_true not in resolvent:
            continue
        reason_cid = reasons[enc >> 1]
        if reason_cid is None:
            continue  # assumption: its negation stays in the resolvent
        reason_set = derived_of(reason_cid)
        if lit_true not in reason_set:
            # The derived reason is already falsified below this point:
            # restart the derivation from it (strengthening).
            resolvent = set(reason_set)
            chain = [reason_cid]
            pivots = []
            continue
        resolvent = (resolvent - {-lit_true}) | (reason_set - {lit_true})
        chain.append(reason_cid)
        pivots.append(abs(lit_true))
    return chain, pivots, frozenset(resolvent)


def reconstruct_resolution_graph(
        formula: CnfFormula, proof: ConflictClauseProof,
        engine_cls: type[PropagatorBase] = WatchedPropagator,
) -> ReconstructionResult:
    """Rebuild an explicit, checkable resolution DAG from ``proof``.

    Checks every proof clause forward (recording its derivation chain)
    and prunes the chains of redundant clauses by reachability from the
    sink.  Raises :class:`ReproError` if the proof does not verify (no
    graph exists for an incorrect proof).
    """
    # Rebuild mode: a forward pass raises the ceiling, and each check
    # must be free of history.
    checker = ProofChecker(formula, proof, engine_cls, mode="rebuild")
    engine = checker.engine
    num_input = formula.num_clauses

    derived: dict[int, frozenset[int]] = {}

    def derived_of(cid: int) -> frozenset[int]:
        if cid in derived:
            return derived[cid]
        return frozenset(decode(enc) for enc in engine.clause_lits(cid))

    # One forward pass checking *every* clause: each derivation then
    # sees the (possibly strengthened) derived versions of all earlier
    # clauses, and a chain can never reference a clause without a chain.
    # (A backward marked-only pass would be cheaper, but watch-list
    # mutation makes later re-checks find different conflicts than the
    # marking pass did; redundant chains are pruned by reachability
    # below instead.)
    chains: dict[int, tuple[list[int], list[int], frozenset[int]]] = {}
    for index in range(len(proof)):
        cid = checker.cid_of_proof_clause(index)
        outcome = checker.check_clause(index)
        if not outcome.conflict:
            checker.reset()
            raise ReproError(
                f"proof clause {index} failed its BCP check; cannot "
                "reconstruct a resolution graph from an incorrect proof")
        if outcome.confl_cid is None:
            checker.reset()
            raise ReproError(
                f"proof clause {index} is a tautology; tautologies have "
                "no resolution derivation")
        chains[index] = _derive_chain(engine, derived_of,
                                      outcome.confl_cid)
        checker.reset()
        derived[cid] = chains[index][2]

    # Assemble the DAG in chronological order so references are earlier.
    sources = [clause.literals for clause in formula]
    nodes: list[ResolutionNode] = []
    node_of: dict[int, int] = {}

    def node_id(cid: int) -> int:
        if cid < num_input:
            return cid
        return node_of[cid]

    strengthened = 0
    empty_node: int | None = None
    for index in sorted(chains):
        chain, pivots, final_set = chains[index]
        current = node_id(chain[0])
        for ref, pivot in zip(chain[1:], pivots):
            nodes.append(ResolutionNode(current, node_id(ref), pivot))
            current = num_input + len(nodes) - 1
        cid = checker.cid_of_proof_clause(index)
        node_of[cid] = current
        if final_set != frozenset(proof[index]):
            strengthened += 1
        if not final_set and empty_node is None:
            empty_node = current

    if empty_node is not None:
        sink = empty_node
    elif proof.ending == ENDING_FINAL_PAIR:
        first = node_id(checker.cid_of_proof_clause(len(proof) - 2))
        second = node_id(checker.cid_of_proof_clause(len(proof) - 1))
        pivot = abs(proof[len(proof) - 1][0])
        nodes.append(ResolutionNode(first, second, pivot))
        sink = num_input + len(nodes) - 1
    else:
        sink = node_id(checker.cid_of_proof_clause(len(proof) - 1))

    nodes, sink = _prune_unreachable(num_input, nodes, sink)
    derived_by_index = {
        index: chains[index][2] for index in chains}
    graph = ResolutionGraphProof(sources, nodes, sink)
    return ReconstructionResult(graph=graph,
                                derived_clauses=derived_by_index,
                                strengthened=strengthened)


def _prune_unreachable(num_sources: int, nodes: list[ResolutionNode],
                       sink: int) -> tuple[list[ResolutionNode], int]:
    """Drop internal nodes not reachable from the sink (the derivations
    of redundant proof clauses), re-indexing the survivors."""
    needed: set[int] = set()
    stack = [sink]
    while stack:
        node_id = stack.pop()
        if node_id < num_sources or node_id in needed:
            continue
        needed.add(node_id)
        node = nodes[node_id - num_sources]
        stack.append(node.left)
        stack.append(node.right)

    mapping: dict[int, int] = {}
    surviving: list[ResolutionNode] = []
    for old_index, node in enumerate(nodes):
        old_id = num_sources + old_index
        if old_id not in needed:
            continue
        left = node.left if node.left < num_sources \
            else mapping[node.left]
        right = node.right if node.right < num_sources \
            else mapping[node.right]
        mapping[old_id] = num_sources + len(surviving)
        surviving.append(ResolutionNode(left, right, node.pivot))
    new_sink = sink if sink < num_sources else mapping[sink]
    return surviving, new_sink
