"""Command line: ``python -m benchmarks.e2e run|compare``.

``run --seed N [--workload W ...] [--seconds S] [--trace 0|1]
[--out PATH]`` sets up and measures the workloads (all four by
default), writes the results document, prints every metric as
``name value unit`` and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  It exits 1 when
any invocation failed the oracle, 2 when the checkout has no program to
measure.

A measured run is ``BENCHMARK.json``'s ``command`` with
``--workload W --seed N --seconds S --trace 0|1`` appended, where S is
its ``run_seconds``; ``--seconds`` defaults to the same value.

``compare A.json B.json`` judges B against A (see compare.py).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import SRC

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, ".out")
RUN_SECONDS = 20


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="set up and measure workloads")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--workload", action="append",
                     help="repeatable; default: every workload")
    run.add_argument("--seconds", type=float, default=RUN_SECONDS,
                     help="measuring time per workload "
                          f"(default {RUN_SECONDS})")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: add the traced pass and report the "
                          "per-layer metrics")
    run.add_argument("--out", default=os.path.join(OUT_DIR, "results.json"),
                     help="results document (default .out/results.json "
                          "beside this file)")
    compare = sub.add_parser("compare", help="judge B against A")
    compare.add_argument("a")
    compare.add_argument("b")
    return parser


def _run(args: argparse.Namespace) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"error: no program to measure: {SRC}/repro/cli.py is "
              "missing", file=sys.stderr)
        return 2
    from .runner import report_metrics, run
    from .workloads import WORKLOADS

    names = list(dict.fromkeys(args.workload or WORKLOADS))
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        print(f"error: unknown workload(s) {', '.join(unknown)}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    doc = run(names, args.seed, args.seconds, bool(args.trace),
              os.path.join(OUT_DIR, "work"))
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
    attempted = failed = 0
    metrics = {}
    for name, result in doc["workloads"].items():
        attempted += result["attempted"]
        failed += result["failed"]
        for failure in result["failures"]:
            print(f"FAILED {name}: {failure}")
        for warning in result["warnings"]:
            print(f"WARNING {name}: {warning}")
        metrics[name] = report_metrics(result, bool(args.trace))
        shown = dict(metrics[name])
        if not args.trace:
            shown.update(result["end_to_end"])
        for metric, entry in shown.items():
            print(f"{name} {metric} {entry['value']!r} {entry['unit']}")
        print(f"{name} failed_ratio {result['failed_ratio']!r} ratio")
    if len(names) == 1:
        metrics = metrics[names[0]]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "compare":
        from .compare import main as compare_main

        return compare_main(args.a, args.b)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
