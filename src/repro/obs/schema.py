"""Artifact schemas for the observability layer, plus validators.

Two artifact kinds leave a verification run, both JSONL:

* a **trace log** (``repro.obs.trace/v1``) — JSONL, one event per line
  (see :mod:`repro.obs.spans`).  It is the one telemetry artifact: the
  CLI closes every ``--trace-out`` trace with a ``run_summary`` event
  carrying the metrics registry snapshot, the report's stats, the
  memory summary, and the proof-shape analytics;
* a **dependency graph** (``repro.obs.depgraph/v1``) — JSONL, one
  antecedent record per checked proof clause (see
  :mod:`repro.obs.insight.depgraph`).

:data:`KNOWN_SCHEMAS` maps each schema id to its validator;
:func:`validate_any` dispatches on a document's declared schema and
rejects unknown ids with a clear message rather than a ``KeyError``.

The validators are hand-rolled structural checks (no jsonschema
dependency) returning a list of human-readable problems — empty means
valid.  CI runs them over freshly produced artifacts so the schema
cannot drift silently; tests run them over round-tripped files.

Determinism contract
--------------------
Benchmark trend tracking and the determinism tests need a *stable*
subset of a ``run_summary`` event: :func:`deterministic_view` keeps
only its metrics snapshot, minus

* every time-valued metric (``*_seconds*``),
* every measured-resource metric (``repro_mem_*``),

and, for parallel runs (``repro_verify_jobs > 1``), additionally every
scheduling-dependent metric: BCP work totals and per-check work
histograms vary with which worker (and hence which persistent root
trail) served each shard, as does the observed shard queue depth.
What survives is the same for every rerun of the same verification.
"""

from __future__ import annotations

from repro.obs.insight.depgraph import DEPGRAPH_SCHEMA
from repro.obs.spans import TRACE_SCHEMA

_EVENT_TYPES = ("header", "begin", "end", "event")

# Metric-name prefixes whose values depend on pool scheduling when the
# run used more than one worker process (see module docstring).
_SCHEDULING_DEPENDENT_PREFIXES = (
    "repro_bcp_",
    "repro_check_work",
    "repro_parallel_queue_depth",
)

# Measured-resource metrics (RSS readings): like the
# time-valued metrics, they are measurements of *this* execution, not
# properties of the configuration — never rerun-stable.
_MEASURED_RESOURCE_PREFIX = "repro_mem_"


def _validate_snapshot(where: str, metrics) -> list[str]:
    """Structural problems of a registry snapshot (empty: valid)."""
    if not isinstance(metrics, dict):
        return [f"{where} must be a metrics snapshot object"]
    problems: list[str] = []
    for name, entry in metrics.items():
        at = f"{where}[{name!r}]"
        if not isinstance(entry, dict):
            problems.append(f"{at} must be an object")
            continue
        kind = entry.get("kind")
        value = entry.get("value")
        if kind == "counter":
            if not isinstance(value, int) or value < 0:
                problems.append(
                    f"{at}: counter value must be a non-negative "
                    f"int, got {value!r}")
        elif kind == "gauge":
            if (not isinstance(value, dict)
                    or not isinstance(value.get("value"), (int, float))
                    or not isinstance(value.get("max"), (int, float))):
                problems.append(
                    f"{at}: gauge value must be "
                    "{'value': number, 'max': number}")
        elif kind == "histogram":
            problems.extend(_validate_histogram(at, value))
        else:
            problems.append(f"{at}: unknown kind {kind!r}")
    return problems


def _validate_run_summary(where: str, attrs: dict) -> list[str]:
    """Structural problems of a ``run_summary`` event's attrs."""
    problems = _validate_snapshot(f"{where}: metrics",
                                  attrs.get("metrics"))
    if not isinstance(attrs.get("command"), str):
        problems.append(f"{where}: command must be a string")
    if not isinstance(attrs.get("interrupted"), bool):
        problems.append(f"{where}: interrupted must be a bool")
    elapsed = attrs.get("elapsed")
    if elapsed is not None and not isinstance(elapsed, (int, float)):
        problems.append(f"{where}: elapsed must be null or a number")
    for key in ("stats", "mem", "analytics"):
        if not isinstance(attrs.get(key), (dict, type(None))):
            problems.append(f"{where}: {key} must be null or an object")
    return problems


def _validate_histogram(where: str, value) -> list[str]:
    if not isinstance(value, dict):
        return [f"{where}: histogram value must be an object"]
    problems = []
    buckets = value.get("buckets")
    counts = value.get("counts")
    if not isinstance(buckets, list) \
            or sorted(buckets) != buckets \
            or len(set(buckets)) != len(buckets):
        problems.append(f"{where}: buckets must be a strictly "
                        "increasing list")
    if not isinstance(counts, list) \
            or not all(isinstance(c, int) and c >= 0 for c in counts):
        problems.append(f"{where}: counts must be non-negative ints")
    elif isinstance(buckets, list) and len(counts) != len(buckets) + 1:
        problems.append(f"{where}: need len(buckets)+1 counts "
                        "(terminal +inf bucket)")
    count = value.get("count")
    if not isinstance(count, int) or count < 0:
        problems.append(f"{where}: count must be a non-negative int")
    elif isinstance(counts, list) and sum(
            c for c in counts if isinstance(c, int)) != count:
        problems.append(f"{where}: counts must sum to count")
    if not isinstance(value.get("sum"), (int, float)):
        problems.append(f"{where}: sum must be a number")
    return problems


def validate_trace(events) -> list[str]:
    """Structural problems of a trace event list (empty list: valid).

    Checks the header record, per-event required fields, monotone
    timestamps, one run id throughout, begin/end pairing with proper
    nesting, and the closing ``run_summary`` event's fields and
    metrics snapshot.
    """
    problems: list[str] = []
    if not events:
        return ["trace is empty (expected at least a header record)"]
    header = events[0]
    if header.get("type") != "header":
        problems.append("first record must be the header")
    elif header.get("schema") != TRACE_SCHEMA:
        problems.append(f"header schema must be {TRACE_SCHEMA!r}, "
                        f"got {header.get('schema')!r}")
    run_ids = {event.get("run") for event in events}
    if len(run_ids) != 1:
        problems.append(f"all events must share one run id, "
                        f"saw {sorted(map(str, run_ids))}")
    # Trace-context consistency: every event carrying a trace id must
    # agree (one process tree = one trace).  Traces written before the
    # field existed carry none at all — that stays valid.
    trace_ids = {event["trace"] for event in events
                 if event.get("trace")}
    if len(trace_ids) > 1:
        problems.append(f"all events must share one trace id, "
                        f"saw {sorted(trace_ids)}")
    last_ts = None
    open_spans: dict[int, str] = {}
    for position, event in enumerate(events):
        where = f"event #{position}"
        etype = event.get("type")
        if etype not in _EVENT_TYPES:
            problems.append(f"{where}: unknown type {etype!r}")
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"{where}: ts must be a number")
            continue
        if etype == "header":
            continue
        if last_ts is not None and ts < last_ts:
            problems.append(f"{where}: timestamps must be "
                            f"non-decreasing ({ts} < {last_ts})")
        last_ts = ts
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing name")
        attrs = event.get("attrs")
        if not isinstance(attrs, dict):
            problems.append(f"{where}: attrs must be an object")
        elif event.get("name") == "run_summary":
            if position != len(events) - 1:
                problems.append(f"{where}: run_summary must be the "
                                "last event")
            problems.extend(_validate_run_summary(where, attrs))
        span = event.get("span")
        if etype == "begin":
            if not isinstance(span, int):
                problems.append(f"{where}: begin needs an int span id")
            elif span in open_spans:
                problems.append(f"{where}: span {span} begun twice")
            else:
                open_spans[span] = event.get("name", "")
        elif etype == "end":
            if span not in open_spans:
                problems.append(f"{where}: end of unopened span {span}")
            else:
                open_spans.pop(span)
            if not isinstance(event.get("dur"), (int, float)):
                problems.append(f"{where}: end needs a numeric dur")
    for span, name in open_spans.items():
        problems.append(f"span {span} ({name!r}) never ended")
    return problems


def validate_depgraph(lines) -> list[str]:
    """Structural problems of a depgraph line list (empty: valid).

    Checks the header (schema id, structural meta), then every check
    record: int fields, sorted self-free antecedent lists, the cid
    arithmetic (``cid == num_input + index``), antecedents within the
    cid space and strictly below the checked clause (the graph is a
    DAG ordered by derivation), and at most one record per index.
    """
    problems: list[str] = []
    if not lines:
        return ["depgraph is empty (expected at least a header line)"]
    header = lines[0]
    if not isinstance(header, dict) or header.get("type") != "header":
        problems.append("first line must be the header record")
        header = {}
    elif header.get("schema") != DEPGRAPH_SCHEMA:
        problems.append(f"header schema must be {DEPGRAPH_SCHEMA!r}, "
                        f"got {header.get('schema')!r}")
    meta = header.get("meta") if isinstance(header.get("meta"), dict) \
        else {}
    if header and not isinstance(header.get("meta"), dict):
        problems.append("header must carry a 'meta' object")
    num_input = meta.get("num_input")
    num_proof = meta.get("num_proof")
    for key in ("num_input", "num_proof", "jobs"):
        if meta and not isinstance(meta.get(key), int):
            problems.append(f"meta.{key} must be an int, "
                            f"got {meta.get(key)!r}")
    for key in ("procedure", "mode"):
        if meta and not isinstance(meta.get(key), str):
            problems.append(f"meta.{key} must be a string")
    seen_indices: set[int] = set()
    for position, record in enumerate(lines[1:], start=1):
        where = f"line #{position}"
        if not isinstance(record, dict):
            problems.append(f"{where}: must be a JSON object")
            continue
        if record.get("type") != "check":
            problems.append(f"{where}: unknown type "
                            f"{record.get('type')!r}")
            continue
        index = record.get("index")
        cid = record.get("cid")
        antecedents = record.get("antecedents")
        if not isinstance(index, int) or index < 0:
            problems.append(f"{where}: index must be a non-negative int")
            continue
        if index in seen_indices:
            problems.append(f"{where}: duplicate record for index "
                            f"{index}")
        seen_indices.add(index)
        if isinstance(num_proof, int) and index >= num_proof:
            problems.append(f"{where}: index {index} out of range "
                            f"(num_proof={num_proof})")
        if not isinstance(cid, int):
            problems.append(f"{where}: cid must be an int")
        elif isinstance(num_input, int) and cid != num_input + index:
            problems.append(f"{where}: cid {cid} != num_input + index "
                            f"({num_input} + {index})")
        if not isinstance(antecedents, list) \
                or not all(isinstance(a, int) for a in antecedents):
            problems.append(f"{where}: antecedents must be a list of "
                            "ints")
            continue
        if sorted(set(antecedents)) != antecedents:
            problems.append(f"{where}: antecedents must be sorted and "
                            "duplicate-free")
        if isinstance(cid, int):
            above = [a for a in antecedents if a >= cid]
            if above:
                problems.append(
                    f"{where}: antecedents {above} not strictly below "
                    f"the checked clause (cid {cid}) — the graph must "
                    "be a derivation-ordered DAG")
        props = record.get("props")
        if props is not None and (not isinstance(props, int)
                                  or props < 0):
            problems.append(f"{where}: props must be null or a "
                            "non-negative int")
    return problems


# Schema id -> validator of the parsed line list.
KNOWN_SCHEMAS = {
    TRACE_SCHEMA: validate_trace,
    DEPGRAPH_SCHEMA: validate_depgraph,
}


def declared_schema(artifact) -> str | None:
    """The schema id an artifact declares (its header line)."""
    if isinstance(artifact, dict):
        return artifact.get("schema")
    if isinstance(artifact, list) and artifact \
            and isinstance(artifact[0], dict):
        return artifact[0].get("schema")
    return None


def validate_any(artifact) -> list[str]:
    """Validate by the artifact's declared schema id.

    Unknown (or missing) schema ids are a validation problem with a
    message naming the known ids — never a ``KeyError``.
    """
    schema = declared_schema(artifact)
    if schema not in KNOWN_SCHEMAS:
        known = ", ".join(sorted(KNOWN_SCHEMAS))
        return [f"unknown schema id {schema!r}; known schemas: {known}"]
    return KNOWN_SCHEMAS[schema](artifact)


def deterministic_view(summary: dict) -> dict:
    """The rerun-stable subset of a ``run_summary`` event (see module
    doc)."""
    metrics = summary["attrs"]["metrics"]
    jobs_entry = metrics.get("repro_verify_jobs")
    parallel = bool(jobs_entry
                    and jobs_entry["value"].get("value", 1) > 1)
    kept = {}
    for name, entry in metrics.items():
        if "seconds" in name:
            continue
        if name.startswith(_MEASURED_RESOURCE_PREFIX):
            continue
        if parallel and name.startswith(_SCHEDULING_DEPENDENT_PREFIXES):
            continue
        kept[name] = entry
    return {"metrics": kept}
