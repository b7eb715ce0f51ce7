"""Benchmark: adversarial mutation-harness throughput.

Measures how fast the differential driver (`repro.testing`) can sweep a
corrupted-proof batch through the checkers — the practical cost of
answering "who checks the checker?" on the paper's instances.  Reported
as checker runs per second over the full mutation roster of one
known-good proof (with its DRUP trace), using the light verification1
configuration so the number measures harness throughput rather than the
parallel backend's pool startup.

Runs in two forms:

* under pytest (``pytest benchmarks/ --benchmark-only``) as table rows
  alongside the other paper-table benchmarks;
* standalone (``python benchmarks/bench_mutations.py``), appending one
  JSON record per instance to ``BENCH_mutations.json`` (CI uploads it
  as the ``bench-mutations`` artifact).
"""

import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # standalone: make src/ + repo root importable
    for path in (REPO_ROOT / "src", REPO_ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))

import pytest

from repro.proofs.drup import DrupProof
from repro.testing import LIGHT_V1_CONFIGS, run_differential

from benchmarks.conftest import (
    TableCollector,
    register_collector,
    solved_instance,
)

MUTATION_INSTANCES = ("php6", "pipe_2")

_table = register_collector(TableCollector(
    "Mutation harness: differential sweep throughput",
    f"{'Name':<10} {'mutants':>8} {'runs':>6} {'time(s)':>8} "
    f"{'runs/s':>8} {'rejected':>9} {'accepted':>9}"))


def run_sweep(data, seed: int = 0):
    trace = DrupProof.from_log(data.log)
    return run_differential(data.formula, data.proof, drup=trace,
                            seed=seed, v1_configs=LIGHT_V1_CONFIGS)


def _sweep_stats(summary) -> dict[str, int]:
    counts = summary.by_expectation()
    rejected = (counts.get("reject_all", 0)
                + counts.get("reject_v1", 0))
    return {"rejected_classes": rejected,
            "accepted_classes": counts.get("accept", 0)}


@pytest.mark.parametrize("name", MUTATION_INSTANCES)
def test_mutation_throughput(benchmark, name):
    data = solved_instance(name)

    summary = benchmark.pedantic(run_sweep, args=(data,),
                                 rounds=1, iterations=1)

    assert summary.ok, summary.problems
    elapsed = benchmark.stats.stats.mean
    stats = _sweep_stats(summary)
    _table.add(
        f"{name:<10} {summary.num_mutations:>8} "
        f"{summary.checker_runs:>6} {elapsed:>8.3f} "
        f"{summary.checker_runs / elapsed:>8.1f} "
        f"{stats['rejected_classes']:>9} {stats['accepted_classes']:>9}")


# -- standalone entry point ---------------------------------------------------

def bench_records(instances, seed: int) -> list[dict]:
    """One record per instance, ready for JSON appending."""
    records = []
    for name in instances:
        data = solved_instance(name)
        start = time.perf_counter()
        summary = run_sweep(data, seed=seed)
        elapsed = time.perf_counter() - start
        assert summary.ok, f"{name}: {summary.problems}"
        records.append({
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                       time.gmtime()),
            "instance": name,
            "variant": "mutation_sweep",
            "seed": seed,
            "num_mutations": summary.num_mutations,
            "checker_runs": summary.checker_runs,
            "by_expectation": summary.by_expectation(),
            "ok": summary.ok,
            "elapsed": round(elapsed, 6),
            "checker_runs_per_sec": round(
                summary.checker_runs / elapsed, 2),
        })
        print(f"{name:<10} mutants={summary.num_mutations} "
              f"runs={summary.checker_runs} time={elapsed:.3f}s "
              f"({summary.checker_runs / elapsed:.1f} runs/s)")
    return records


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Benchmark the mutation harness's differential "
                    "sweep and append records to a JSON log.")
    parser.add_argument("--instances", nargs="+",
                        default=list(MUTATION_INSTANCES),
                        help="registry instance names "
                             f"(default: {' '.join(MUTATION_INSTANCES)})")
    parser.add_argument("--seed", type=int, default=0,
                        help="mutation seed (default 0)")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_mutations.json",
                        help="JSON file to append records to")
    args = parser.parse_args(argv)

    records = bench_records(args.instances, args.seed)
    existing = []
    if args.output.exists():
        existing = json.loads(args.output.read_text())
    existing.extend(records)
    args.output.write_text(json.dumps(existing, indent=2) + "\n")
    print(f"appended {len(records)} records to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
