"""Schema validation as a command: ``python -m repro.obs.validate``.

CI (and anyone debugging an artifact) validates observability outputs
without writing throwaway Python::

    python -m repro.obs.validate trace.jsonl depgraph.jsonl ckpt.json

Each file is dispatched on the schema id the artifact itself declares
(the header line of a JSONL artifact); an unknown id is reported with
the list of known schemas (never a traceback).

Exit code 0 when every given artifact is schema-valid; 1 with one
``invalid:`` line per problem otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.schema import KNOWN_SCHEMAS, validate_any


def _load(path: str):
    """Parse an artifact: one JSON document (possibly pretty-printed
    over many lines), falling back to JSONL line records.  A JSONL
    artifact holding only its header line is still a line list."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        doc = json.loads(text)
    except ValueError:
        return [json.loads(line) for line in text.splitlines()
                if line.strip()]
    if isinstance(doc, dict) and doc.get("type") == "header":
        return [doc]
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Validate repro.obs artifacts "
                    f"({', '.join(sorted(KNOWN_SCHEMAS))}).")
    parser.add_argument("files", nargs="+", metavar="FILE",
                        help="artifacts validated against whatever "
                             "schema id they declare")
    args = parser.parse_args(argv)

    problems = 0
    for path in args.files:
        artifact = _load(path)
        found = validate_any(artifact)
        for problem in found:
            print(f"invalid: {path}: {problem}")
            problems += 1
        if not found:
            detail = (f" ({len(artifact)} records)"
                      if isinstance(artifact, list) else "")
            print(f"ok: {path}{detail}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
