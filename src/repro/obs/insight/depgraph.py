"""Proof dependency graphs: per-check antecedent provenance.

Where the metrics layer (PR 3) answers "how much work did verification
do", the dependency graph answers "*why* did each clause verify": for
every checked proof clause the recorder stores the set of clauses —
input clauses of ``F`` and earlier proof clauses of ``F*`` — that the
verifier's conflict-analysis walk found responsible for the conflict.
This is exactly the information DRAT-trim's ``-d`` dependency output
exposes, reconstructed here from the paper's own marking machinery.

Clause ids share the checker's cid space: ``cid < num_input`` is the
``cid``-th clause of ``F``; ``cid >= num_input`` is proof clause
``cid - num_input``.

The recorder is deliberately dumb — an append-only list of per-check
records — so that pool workers can keep their own buffer and ship it
back inside the shard result, exactly like metric snapshots: the
parent merges buffers in completion order and the exported artifact is
sorted by check index, making the merge order-independent.  (Whether
the *contents* are scheduling-independent depends on the engine and
mode.  Attaching a recorder changes neither: the run keeps the engine
it would have used without one, watched by default.  The watched
engine permanently reorders its watch lists as checks run, and
``incremental`` mode carries a root trail between checks, so either
may report a different — equally valid — conflict depending on
scheduling, the same caveat the metrics layer documents for its
scheduling-dependent counters.  The counting engine's ``rebuild``
checks are history-free — one canonical conflict per clause regardless
of how the backward scan is sharded across workers — so an artifact is
identical across ``--jobs`` only under ``--engine counting --mode
rebuild``.  verification2's supports
depend on the marks of the checks before by design — marked clauses
join the engine's core tier, which both engines propagate first — so a
verification2 capture is reproducible for the same input but need not
match verification1's supports.)

Artifact (schema ``repro.obs.depgraph/v1``): JSONL, a header line
followed by one record per checked clause, ascending check index::

    {"type": "header", "schema": "repro.obs.depgraph/v1", "run": ...,
     "meta": {"num_input": N, "num_proof": M, "procedure": ...,
              "mode": ..., "jobs": ...}}
    {"type": "check", "index": 3, "cid": 8, "antecedents": [0, 2, 5],
     "confl": 2, "props": 17}

``antecedents`` excludes the checked clause itself; ``confl`` is the
clause BCP falsified (``null`` for a tautological proof clause, whose
check conflicts with an empty support); ``props`` is the propagation
work the check cost (``null`` when counters were unavailable).
"""

from __future__ import annotations

import json

DEPGRAPH_SCHEMA = "repro.obs.depgraph/v1"


class DepGraphRecorder:
    """Collects per-check antecedent records during verification.

    Attach one to an :class:`~repro.obs.context.Obs` (the ``depgraph``
    facility); the verification scan appends one record per passing
    check to ``checks`` (the format :meth:`record_check` builds) and
    the parallel parent folds worker buffers in with :meth:`merge`.
    ``checks`` is the raw record list, unsorted (sorting happens at
    export, keeping the merge order-free).
    """

    def __init__(self) -> None:
        self.checks: list[dict] = []

    def record_check(self, index: int, cid: int,
                     antecedents, confl: int | None = None,
                     props: int | None = None) -> None:
        self.checks.append({
            "type": "check", "index": index, "cid": cid,
            "antecedents": sorted(set(antecedents) - {cid}),
            "confl": confl, "props": props})

    def merge(self, records) -> None:
        """Fold another recorder's (or a shard's) record list in.

        Records are plain dicts, so the same buffers that cross the
        fork boundary inside shard results land here unchanged.
        """
        self.checks.extend(records)

    @property
    def num_checks(self) -> int:
        return len(self.checks)

    @property
    def num_edges(self) -> int:
        return sum(len(record["antecedents"]) for record in self.checks)

    def sorted_checks(self) -> list[dict]:
        return sorted(self.checks, key=lambda record: record["index"])


def depgraph_records(source) -> list[dict]:
    """Normalize a recorder / record list / parsed artifact to records."""
    if isinstance(source, DepGraphRecorder):
        return source.sorted_checks()
    records = [record for record in source
               if record.get("type") == "check"]
    return sorted(records, key=lambda record: record["index"])


def depgraph_header(run: dict, *, num_input: int, num_proof: int,
                    procedure: str, mode: str,
                    jobs: int = 1) -> dict:
    return {"type": "header", "schema": DEPGRAPH_SCHEMA,
            "run": dict(run),
            "meta": {"num_input": num_input, "num_proof": num_proof,
                     "procedure": procedure, "mode": mode,
                     "jobs": jobs}}


def write_depgraph_jsonl(path, source, run: dict, *, num_input: int,
                         num_proof: int, procedure: str, mode: str,
                         jobs: int = 1) -> list[dict]:
    """Write the dependency-graph artifact (header + sorted records).

    Returns the full line-record list (header first).  The write is
    atomic (``*.tmp`` + ``os.replace``) like every artifact writer.
    """
    from repro.obs.export import atomic_write_text

    lines = [depgraph_header(run, num_input=num_input,
                             num_proof=num_proof, procedure=procedure,
                             mode=mode, jobs=jobs)]
    lines.extend(depgraph_records(source))
    text = "\n".join(json.dumps(line, sort_keys=True)
                     for line in lines) + "\n"
    atomic_write_text(path, text)
    return lines


def read_depgraph_jsonl(path_or_file) -> list[dict]:
    """Parse a depgraph artifact back to its line records."""
    if hasattr(path_or_file, "read"):
        text = path_or_file.read()
    else:
        with open(path_or_file, "r", encoding="utf-8") as handle:
            text = handle.read()
    return [json.loads(line) for line in text.splitlines() if line]


def depgraph_deterministic_view(lines) -> dict:
    """The rerun-stable subset of a depgraph artifact.

    Strips the per-run header fields (run id, timings) and the
    ``props`` cost of each check (work is scheduling-dependent for
    incremental parallel runs) plus the ``jobs`` count itself; keeps
    the structural meta and the sorted antecedent records.  Two runs of
    the same (instance, procedure, mode) in ``rebuild`` mode
    produce identical views regardless of ``--jobs`` — the
    order-independent-merge guarantee the tests pin.
    """
    meta: dict = {}
    for line in lines:
        if line.get("type") == "header":
            meta = {key: value
                    for key, value in line.get("meta", {}).items()
                    if key != "jobs"}
            break
    records = [{key: value for key, value in record.items()
                if key != "props"}
               for record in depgraph_records(lines)]
    return {"schema": DEPGRAPH_SCHEMA, "meta": meta, "checks": records}


def depgraph_to_dot(lines, *, max_nodes: int = 2000) -> str:
    """Render the dependency graph in Graphviz DOT.

    Input clauses are boxes (``c<cid>``), proof clauses ellipses
    (``p<index>``); each edge points from an antecedent to the clause
    whose check it supported (derivation direction).  Graphs beyond
    ``max_nodes`` referenced clauses are truncated with a comment —
    DOT is for eyeballs, the JSONL artifact is the complete record.
    """
    records = depgraph_records(lines)
    num_input = None
    for line in lines:
        if line.get("type") == "header":
            num_input = line.get("meta", {}).get("num_input")
            break
    if num_input is None:
        raise ValueError("depgraph lines carry no header record "
                         "(write_depgraph_jsonl produces one)")

    def node(cid: int) -> str:
        if cid < num_input:
            return f"c{cid}"
        return f"p{cid - num_input}"

    referenced: set[int] = set()
    for record in records:
        referenced.add(record["cid"])
        referenced.update(record["antecedents"])
    truncated = len(referenced) > max_nodes
    if truncated:
        kept_records = []
        kept: set[int] = set()
        for record in records:
            new = {record["cid"], *record["antecedents"]} - kept
            if len(kept) + len(new) > max_nodes:
                break
            kept |= new
            kept_records.append(record)
        records = kept_records
        referenced = kept
    out = ["digraph depgraph {", "  rankdir=BT;"]
    if truncated:
        out.append(f"  // truncated to {len(referenced)} of the "
                   "referenced clauses; see the JSONL artifact for "
                   "the full graph")
    for cid in sorted(referenced):
        if cid < num_input:
            out.append(f'  {node(cid)} [shape=box, label="F[{cid}]"];')
        else:
            out.append(f'  {node(cid)} '
                       f'[shape=ellipse, label="F*[{cid - num_input}]"];')
    for record in records:
        for antecedent in record["antecedents"]:
            out.append(f"  {node(antecedent)} -> {node(record['cid'])};")
    out.append("}")
    return "\n".join(out) + "\n"


def write_depgraph_dot(path, lines, *, max_nodes: int = 2000) -> None:
    from repro.obs.export import atomic_write_text

    atomic_write_text(path, depgraph_to_dot(lines, max_nodes=max_nodes))
