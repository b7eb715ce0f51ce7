"""Traced child entry: ``python -m benchmarks.e2e.trace <repro args>``.

Runs ``repro.cli.main`` exactly as ``python -m repro`` would, with the
public functions at each layer boundary wrapped in spans.  A wrapper
returns what the function returns and lets its exceptions through.
Spans stay in memory and are written as JSONL to ``$E2E_SPANS`` once
``main`` returns: a header line with the entry's first and last
timestamps, then one line per span (name, start, end, parent index,
counts).  Timestamps come from ``time.perf_counter``, the system-wide
monotonic clock on Linux, so the parent can place them between its own
spawn and reap times.

Pool workers forked by the parallel backend are not traced: recording
is switched off in every forked child.
"""

import time

_T_START = time.perf_counter()

import functools  # noqa: E402
import importlib.machinery  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

# (span name, module, attribute path).  A target the program no longer
# has is listed under "missing" in the header, and the run warns that
# the metrics built on it read 0.
TARGETS = (
    ("core.read_dimacs", "repro.cli", "read_dimacs"),
    ("proofs.read_proof", "repro.cli", "read_proof"),
    ("proofs.write_proof", "repro.cli", "write_proof"),
    ("proofs.from_log", "repro.proofs.conflict_clause",
     "ConflictClauseProof.from_log"),
    ("proofs.sizes", "repro.cli", "compare_proof_sizes"),
    ("solver.solve", "repro.cli", "solve"),
    ("verify.driver", "repro.cli", "verify_proof"),
    ("checker.build", "repro.verify.checker", "ProofChecker.__init__"),
    ("bcp.check", "repro.verify.checker", "ProofChecker.check_clause"),
    ("marking", "repro.verify.verification", "collect_responsible"),
    ("obs.history", "repro.obs", "fingerprint"),
    ("obs.history", "repro.obs", "HistoryStore.append"),
    ("parallel.plan", "repro.verify.parallel", "planned_shards"),
    ("parallel.pool", "repro.verify.parallel", "run_sharded_v1"),
)


def _solver_counts(result) -> dict:
    stats = result.stats
    return {"conflicts": stats.conflicts,
            "propagations": stats.propagations}


COUNTS = {"solver.solve": _solver_counts}


class Recorder:
    """In-memory span buffer with a parent stack."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.enabled = True
        self.missing: set[str] = set()

    def disable(self) -> None:
        self.enabled = False

    def wrap(self, name: str, func):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        counts = COUNTS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            index = len(spans)
            span = [name, clock(), None, stack[-1] if stack else None,
                    None]
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if counts is not None:
                span[4] = counts(result)
            return result

        return traced

    def patch(self, module, path: str, name: str) -> None:
        """Replace ``module.<path>`` by a traced wrapper, keeping
        classmethods classmethods; records ``name`` as missing when the
        module has no such attribute."""
        *owners, attr = path.split(".")
        owner = module
        for part in owners:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            self.missing.add(name)
            return
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(name, raw.__func__)))
        else:
            setattr(owner, attr, self.wrap(name, raw))

    def write(self, path: str, t_end: float) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"t_start": _T_START, "t_end": t_end,
                                     "pid": os.getpid(),
                                     "missing": sorted(self.missing)})
                         + "\n")
            for name, start, end, parent, counts in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "counts": counts}) + "\n")


class PatchOnImport:
    """Meta-path finder that patches targets in modules the program
    imports lazily (the parallel backend), right after they load."""

    def __init__(self, recorder: Recorder, pending: dict):
        self.recorder = recorder
        self.pending = pending          # module name -> [(path, span)]

    def find_spec(self, fullname, path, target=None):
        targets = self.pending.pop(fullname, None)
        if targets is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        recorder = self.recorder

        def exec_and_patch(module):
            exec_module(module)
            for attr_path, name in targets:
                recorder.patch(module, attr_path, name)

        spec.loader.exec_module = exec_and_patch
        return spec


def install(recorder: Recorder) -> dict[str, list]:
    """Patch every target; returns the targets of modules not imported
    yet, which are patched when (and if) the program imports them."""
    pending: dict[str, list] = {}
    for name, module_name, attr_path in TARGETS:
        module = sys.modules.get(module_name)
        if module is None:
            pending.setdefault(module_name, []).append((attr_path, name))
        else:
            recorder.patch(module, attr_path, name)
    if pending:
        sys.meta_path.insert(0, PatchOnImport(recorder, pending))
    os.register_at_fork(after_in_child=recorder.disable)
    return pending


def main(argv: list[str]) -> int:
    out = os.environ["E2E_SPANS"]
    recorder = Recorder()
    start = time.perf_counter()
    import repro.cli
    recorder.spans.append(["cli.import", start, time.perf_counter(), None,
                           None])
    pending = install(recorder)
    try:
        return recorder.wrap("cli.main", repro.cli.main)(argv)
    finally:
        t_end = time.perf_counter()
        # A module the run never imported is only missing if it does
        # not exist (PatchOnImport removes the ones that were imported).
        sys.meta_path[:] = [finder for finder in sys.meta_path
                            if not isinstance(finder, PatchOnImport)]
        for module_name, targets in pending.items():
            if importlib.util.find_spec(module_name) is None:
                recorder.missing.update(name for _, name in targets)
        recorder.write(out, t_end)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
