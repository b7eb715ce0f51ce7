"""Proof-shape analytics: the paper's Section-5 quantities per run.

Section 5 of the paper compares proof representations by *shape*:
conflict clause proofs are measured in literals, resolution-graph
proofs in nodes, and the local/global dichotomy decides which format a
clause prefers.  PR 2's :mod:`repro.proofs.stats` computes those
quantities from a *solver log* (which carries exact resolution
counts); this module computes them from the **verifier's own
evidence** — the dependency graph the provenance recorder captured —
so they are available for any proof, including proofs produced by
third-party solvers where no log exists.

The estimate: a checked clause whose conflict-analysis support has
``k`` antecedents is derivable by trivial resolution in ``k - 1``
steps (resolve the antecedents in reverse propagation order), so

* per-clause estimated resolutions ``r = max(k - 1, 1)`` (0 for a
  tautological clause, whose support is empty);
* estimated resolution-graph node count = sum of ``r`` over checked
  clauses;
* a clause is **local** when ``r <= 2 * max(literals, 1)`` — the same
  scale-free threshold :func:`repro.proofs.stats.analyze_log` uses —
  and **global** otherwise.

Everything here is a pure function of ``(proof, report, depgraph
records)``; nothing touches engines or clocks, so analytics are
deterministic whenever their inputs are.

:meth:`ProofShapeAnalytics.as_dict` rides the trace's ``run_summary``
event; :func:`analytics_footer` is the ``--stats`` view.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Depth-histogram and props-histogram upper bounds (the terminal +inf
# bucket is implicit, matching the metrics registry convention).
DEPTH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


@dataclass
class ProofShapeAnalytics:
    """Aggregate shape of one verified proof, per the paper's Section 5.

    ``checked``/``skipped``/``marked_fraction`` describe what the
    marking pass had to do; ``local_clauses``/``global_clauses`` split
    the checked clauses by estimated derivation effort;
    ``estimated_resolution_nodes`` vs ``proof_literals`` reproduces the
    Tables 2/3 comparison (``ratio_percent`` = 100 · literals / nodes);
    ``core_size``/``core_fraction`` come from verification2's marking
    (``None`` for verification1, which marks nothing);
    ``antecedent_chain_depths`` is a ``{depth: count}`` histogram of
    each checked clause's longest antecedent chain back to ``F``;
    ``check_props`` is a fixed-bucket histogram of per-check
    propagation cost (empty when the recorder saw no counters).
    """

    num_proof_clauses: int
    proof_literals: int
    checked: int
    skipped: int
    marked_fraction: float
    local_clauses: int
    global_clauses: int
    estimated_resolution_nodes: int
    max_antecedents: int
    mean_antecedents: float
    core_size: int | None = None
    core_fraction: float | None = None
    antecedent_chain_depths: dict[int, int] = field(default_factory=dict)
    max_chain_depth: int = 0
    check_props: dict = field(default_factory=dict)

    @property
    def ratio_percent(self) -> float:
        """Tables 2/3 last column: conflict / resolution size, in %."""
        if not self.estimated_resolution_nodes:
            return float("inf") if self.proof_literals else 0.0
        return 100.0 * self.proof_literals \
            / self.estimated_resolution_nodes

    def as_dict(self) -> dict:
        return {
            "num_proof_clauses": self.num_proof_clauses,
            "proof_literals": self.proof_literals,
            "checked": self.checked,
            "skipped": self.skipped,
            "marked_fraction": self.marked_fraction,
            "local_clauses": self.local_clauses,
            "global_clauses": self.global_clauses,
            "estimated_resolution_nodes":
                self.estimated_resolution_nodes,
            "ratio_percent": (None if self.estimated_resolution_nodes
                              == 0 and self.proof_literals
                              else round(self.ratio_percent, 2)),
            "max_antecedents": self.max_antecedents,
            "mean_antecedents": round(self.mean_antecedents, 3),
            "core_size": self.core_size,
            "core_fraction": self.core_fraction,
            "antecedent_chain_depths": {
                str(depth): count for depth, count
                in sorted(self.antecedent_chain_depths.items())},
            "max_chain_depth": self.max_chain_depth,
            "check_props": dict(self.check_props),
        }


def estimated_resolutions(num_antecedents: int) -> int:
    """Resolution steps to derive a clause from its conflict support."""
    if num_antecedents <= 0:
        return 0
    return max(num_antecedents - 1, 1)


def is_local(num_antecedents: int, num_literals: int) -> bool:
    """The paper's local/global split, on verifier evidence.

    Local clauses are "obtained by resolving a small number of
    clauses" relative to what storing them costs; the threshold is
    twice the clause's own length, matching
    :func:`repro.proofs.stats.analyze_log`.
    """
    return estimated_resolutions(num_antecedents) \
        <= 2 * max(num_literals, 1)


def analyze_proof_shape(proof, report, depgraph) -> ProofShapeAnalytics:
    """Compute the Section-5 analytics from a run's evidence.

    ``proof`` is the :class:`~repro.proofs.conflict_clause.
    ConflictClauseProof`, ``report`` the
    :class:`~repro.verify.report.VerificationReport`, ``depgraph`` a
    :class:`~repro.obs.insight.depgraph.DepGraphRecorder`, record
    list, or parsed artifact.  Pure function: no engine, no clock.
    """
    from repro.obs.insight.depgraph import depgraph_records
    from repro.obs.registry import DEFAULT_WORK_BUCKETS, Histogram

    records = depgraph_records(depgraph)
    # cid space: antecedents below num_input are clauses of F.  The
    # report does not carry num_input directly; recover it from the
    # cid of any record (cid = num_input + index).
    num_input = None
    for record in records:
        num_input = record["cid"] - record["index"]
        break

    local = global_count = 0
    est_nodes = 0
    max_ante = 0
    total_ante = 0
    depths: dict[int, int] = {}
    depth_by_index: dict[int, int] = {}
    props_hist = Histogram("check_props", buckets=DEFAULT_WORK_BUCKETS)
    for record in records:  # ascending index: antecedents precede
        antecedents = record["antecedents"]
        k = len(antecedents)
        total_ante += k
        max_ante = max(max_ante, k)
        est_nodes += estimated_resolutions(k)
        literals = len(proof[record["index"]])
        if is_local(k, literals):
            local += 1
        else:
            global_count += 1
        depth = 0
        for cid in antecedents:
            if num_input is not None and cid >= num_input:
                depth = max(depth,
                            depth_by_index.get(cid - num_input, 0))
        depth += 1
        depth_by_index[record["index"]] = depth
        depths[depth] = depths.get(depth, 0) + 1
        if record.get("props") is not None:
            props_hist.observe(record["props"])

    core = getattr(report, "core", None)
    return ProofShapeAnalytics(
        num_proof_clauses=len(proof),
        proof_literals=proof.literal_count(),
        checked=report.num_checked,
        skipped=report.num_skipped,
        marked_fraction=(report.num_checked / len(proof)
                         if len(proof) else 0.0),
        local_clauses=local,
        global_clauses=global_count,
        estimated_resolution_nodes=est_nodes,
        max_antecedents=max_ante,
        mean_antecedents=(total_ante / len(records) if records else 0.0),
        core_size=core.size if core is not None else None,
        core_fraction=(round(core.fraction, 6)
                       if core is not None else None),
        antecedent_chain_depths=depths,
        max_chain_depth=max(depths, default=0),
        check_props=(props_hist.snapshot() if props_hist.count else {}),
    )


def analytics_footer(analytics: ProofShapeAnalytics) -> list[str]:
    """Human ``c insight:`` lines for the CLI's ``--stats`` footer."""
    ratio = analytics.as_dict()["ratio_percent"]
    lines = [
        "c insight: local={} global={} est_resolution_nodes={} "
        "proof_literals={}{}".format(
            analytics.local_clauses, analytics.global_clauses,
            analytics.estimated_resolution_nodes,
            analytics.proof_literals,
            f" ratio={ratio}%" if ratio is not None else ""),
        f"c insight: checked={analytics.checked} "
        f"skipped={analytics.skipped} "
        f"marked={analytics.marked_fraction:.1%} "
        f"max_chain_depth={analytics.max_chain_depth}",
    ]
    if analytics.core_size is not None:
        lines.append(
            f"c insight: core={analytics.core_size} clauses "
            f"({analytics.core_fraction:.1%} of F)")
    return lines
