"""Run workloads: set-up, timed passes, the traced pass, and results.

Load is a closed loop with one client: the benchmark starts one
``python -m repro`` child, waits for it, then starts the next, so at
most the child (and, under ``--jobs 2``, its two workers) is busy.
Each child is timed from spawn to reap, and ``os.wait4`` gives its
rusage, which on Linux includes the pool workers it reaped.

The speed of a shared virtual CPU drifts by tens of percent within
minutes, in CPU time as much as in wall time, so raw seconds from two
runs are not comparable.  A fixed pure-Python reference program, in its
own interpreter and independent of the program measured, therefore
runs before set-up and then after about every second of measured work;
each segment of work is scaled by the mean of the two reference runs
around it to seconds at the reference's nominal speed (see
:class:`Sample`).  Raw values, the segments and every reference run are
kept in the results beside the scaled values.
"""

from __future__ import annotations

import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

from . import ROOT, SRC
from .layers import TracedPass, layer_metrics, read_spans
from .metrics import END_TO_END, PER_LAYER
from .oracle import Oracle, parse_bcp
from .workloads import (
    MANIFEST,
    WORKLOADS,
    Input,
    Step,
    Workload,
    extra_step,
)

SETUP_REPEATS = 3
MIN_PASSES = 7
MAX_PASSES = 60
CHILD_TIMEOUT_S = 120.0
SEGMENT_S = 1.0

# An arithmetic loop, then random reads over a 32 MiB buffer.  The
# second half slows down when other tenants of the machine contend for
# its shared cache and memory, which slows the checker's pointer-heavy
# propagation while an arithmetic loop alone runs at full speed; with
# both halves, passes scaled by it spread less (README.md).
REFERENCE = (
    "def spin(n):\n    s = 0\n    for i in range(n):\n        s += i * i\n"
    "def walk(buf, n):\n    mask = len(buf) - 1\n    i = s = 0\n"
    "    for _ in range(n):\n        i = (i * 1103515245 + 12345) & mask\n"
    "        s += buf[i]\n"
    "spin(600_000)\nwalk(bytes(range(256)) * (1 << 17), 150_000)\n")
# The reference's wall-clock on an unloaded core of the machine the
# README baseline was taken on: scaled times read as seconds at that
# speed.
REFERENCE_NOMINAL_S = 0.15


@dataclass
class Child:
    """One reaped invocation."""

    spawn: float
    reap: float
    cpu_s: float
    maxrss_mb: float
    exit_code: int
    stdout: str
    stderr: str
    capture: str    # path prefix of its .out/.err (and traced .spans)

    @property
    def wall_s(self) -> float:
        return self.reap - self.spawn


def _child_env(history_dir: str, traced: bool) -> dict[str, str]:
    """The parent's environment without ``REPRO_*`` overrides, so every
    pass runs the same configuration; a fixed hash seed keeps any
    set-ordering identical across passes."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC + (os.pathsep + ROOT if traced else "")
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_HISTORY_DIR"] = history_dir
    return env


def spawn(argv: list[str], cwd: str, env: dict[str, str],
          capture: str) -> Child:
    """Run one child to completion; stdout/stderr go to files (no pipe
    can fill while the parent blocks in wait4).  A child past
    ``CHILD_TIMEOUT_S`` is killed and reported with exit code -9."""
    pid = []

    def kill(signum, frame):
        if pid:
            os.kill(pid[0], signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
    try:
        with open(capture + ".out", "wb") as out, \
                open(capture + ".err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                    stderr=err)
            pid.append(proc.pid)
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(capture + ".out", encoding="utf-8", errors="replace") as f:
        stdout = f.read()
    with open(capture + ".err", encoding="utf-8", errors="replace") as f:
        stderr = f.read()
    return Child(start, end, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr,
                 capture)


class SpeedReference:
    """The reference program, run between segments of measured work."""

    def __init__(self, cwd: str):
        self.cwd = cwd
        self.runs: list[Child] = []

    def run(self) -> int:
        """Run the reference once; returns the index of the run."""
        child = spawn([sys.executable, "-c", REFERENCE], self.cwd,
                      _child_env(self.cwd, traced=False),
                      os.path.join(self.cwd, f"reference-{len(self.runs)}"))
        if child.exit_code != 0:
            raise RuntimeError(f"reference program failed:\n{child.stderr}")
        self.runs.append(child)
        return len(self.runs) - 1

    def scale(self, after: int) -> tuple[float, float]:
        """Wall and CPU factors for the segment of work that ran between
        reference runs ``after - 1`` and ``after``: the nominal time over
        the mean of the two."""
        before = self.runs[after - 1]
        after_run = self.runs[after]
        return (2 * REFERENCE_NOMINAL_S / (before.wall_s + after_run.wall_s),
                2 * REFERENCE_NOMINAL_S / (before.cpu_s + after_run.cpu_s))

    def as_json(self) -> list[dict]:
        return [{"wall_s": r.wall_s, "cpu_s": r.cpu_s} for r in self.runs]


class Sample:
    """Raw totals of one unit of work (a set-up or a pass), cut into
    segments.

    Children are added as they are reaped.  Every ``SEGMENT_S`` of
    child wall-clock, and at :meth:`close`, the segment ends and the
    reference runs again.  :meth:`scaled` scales each segment by the two
    reference runs around it, so the scale follows the machine's speed
    within a run.
    """

    def __init__(self, reference: SpeedReference):
        self.reference = reference
        if not reference.runs:
            reference.run()
        self.rows: list[dict] = []
        self.wall_s = self.cpu_s = 0.0
        # (raw wall, raw cpu, index of the reference run after it)
        self.segments: list[tuple[float, float, int]] = []
        self._segment_wall = self._segment_cpu = 0.0

    def add(self, child: Child) -> None:
        self.wall_s += child.wall_s
        self.cpu_s += child.cpu_s
        self._segment_wall += child.wall_s
        self._segment_cpu += child.cpu_s
        if self._segment_wall >= SEGMENT_S:
            self._end_segment()

    def _end_segment(self) -> None:
        self.segments.append((self._segment_wall, self._segment_cpu,
                              self.reference.run()))
        self._segment_wall = self._segment_cpu = 0.0

    def close(self) -> "Sample":
        if self._segment_wall:
            self._end_segment()
        return self

    def scaled(self) -> tuple[float, float]:
        """Wall and CPU seconds at the reference's nominal speed."""
        wall = cpu = 0.0
        for seg_wall, seg_cpu, after in self.segments:
            wall_factor, cpu_factor = self.reference.scale(after)
            wall += seg_wall * wall_factor
            cpu += seg_cpu * cpu_factor
        return wall, cpu


class PassRunner:
    """Runs passes of one workload and judges every invocation."""

    def __init__(self, workload: Workload, inputs: list[Input],
                 work_dir: str, reference: SpeedReference):
        self.workload = workload
        self.inputs = inputs
        self.work_dir = work_dir
        self.reference = reference
        self.oracle = Oracle()
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def invoke(self, label: str, key: tuple, step: Step, cwd: str,
               traced: bool) -> Child:
        self.attempted += 1
        module = "benchmarks.e2e.trace" if traced else "repro"
        capture = os.path.join(cwd, f"child-{self.attempted}")
        env = _child_env(os.path.join(cwd, "history"), traced)
        if traced:
            env["E2E_SPANS"] = capture + ".spans"
        child = spawn([sys.executable, "-m", module, *step.argv], cwd, env,
                      capture)
        proof = (os.path.join(cwd, step.argv[2])
                 if step.command == "verify" else None)
        problems = self.oracle.check(key, step, proof, child.exit_code,
                                     child.stdout, child.stderr)
        if problems:
            self.failed += 1
            self.failures.append(f"{label} {' '.join(step.argv)}: "
                                 + "; ".join(problems))
        return child

    def run_pass(self, number: int, traced: bool = False,
                 collect=None) -> Sample:
        """One pass over every input in a fresh directory, which is the
        children's cwd and history store.  ``collect(inp, step, child)``
        sees each child before the directory is removed."""
        sample = Sample(self.reference)
        cwd = tempfile.mkdtemp(prefix=f"pass{number}-", dir=self.work_dir)
        try:
            for inp in self.inputs:
                for index, step in enumerate(inp.steps):
                    child = self.invoke(f"pass {number} {inp.name}",
                                        (inp.name, index), step, cwd,
                                        traced)
                    sample.add(child)
                    sample.rows.append({
                        "pass": number, "traced": traced,
                        "input": inp.name, "step": step.command,
                        "wall_s": child.wall_s, "cpu_s": child.cpu_s,
                        "maxrss_mb": child.maxrss_mb,
                        "exit": child.exit_code})
                    if collect is not None:
                        collect(inp, step, child)
        finally:
            shutil.rmtree(cwd, ignore_errors=True)
        return sample.close()

    def timed_passes(self, seconds: float) -> list[Sample]:
        """Untraced passes until the next one would end past
        ``seconds`` (at least ``MIN_PASSES``)."""
        passes = []
        start = time.perf_counter()
        while len(passes) < MAX_PASSES:
            passes.append(self.run_pass(len(passes)))
            elapsed = time.perf_counter() - start
            if len(passes) >= MIN_PASSES \
                    and elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
        return passes


def summarize(values: list[float]) -> dict:
    """Median, quartiles (``statistics.quantiles(n=4)``) and n."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": median, "median": median, "q1": q1, "q3": q3,
            "n": len(values)}


def _setup(workload: Workload, seed: int, work_dir: str, repeats: int,
           reference: SpeedReference) -> tuple[list[Input], list[Sample]]:
    """Generate the inputs ``repeats`` times, each by a child process
    into a fresh directory, timed from spawn to reap; keeps the last set
    and returns every set-up sample."""
    samples = []
    for repeat in range(repeats):
        directory = os.path.join(work_dir, f"inputs{repeat}")
        os.makedirs(directory)
        sample = Sample(reference)
        child = spawn([sys.executable, "-m", "benchmarks.e2e.inputs",
                       workload.name, str(seed), directory], directory,
                      _child_env(directory, traced=True),
                      os.path.join(directory, "setup"))
        if child.exit_code != 0:
            raise RuntimeError(f"{workload.name} set-up failed with exit "
                               f"{child.exit_code}:\n{child.stderr}")
        sample.add(child)
        samples.append(sample.close())
        if repeat + 1 < repeats:
            shutil.rmtree(directory)
    with open(os.path.join(directory, MANIFEST), encoding="utf-8") as f:
        return [Input.from_json(doc) for doc in json.load(f)], samples


def end_to_end(passes: list[Sample], setups: list[Sample],
               reference: SpeedReference) -> dict:
    """Every end-to-end metric (scaled to the reference speed) plus the
    raw values behind them."""
    peaks = [max(row["maxrss_mb"] for row in p.rows) for p in passes]
    scaled = [p.scaled() for p in passes]
    out = {"setup_s": summarize([s.scaled()[0] for s in setups]),
           "wall_s": summarize([wall for wall, _ in scaled]),
           "cpu_s": summarize([cpu for _, cpu in scaled]),
           "peak_rss_mb": summarize(peaks),
           "raw_setup_s": summarize([s.wall_s for s in setups]),
           "raw_wall_s": summarize([p.wall_s for p in passes]),
           "raw_cpu_s": summarize([p.cpu_s for p in passes]),
           "reference_s": summarize([r.wall_s for r in reference.runs])}
    # Peak RSS is the largest of any child in any pass, not a median.
    out["peak_rss_mb"]["value"] = max(peaks)
    for name, summary in out.items():
        summary["unit"] = "MB" if name == "peak_rss_mb" else "s"
    return out


def _traced_layers(runner: PassRunner, number: int,
                   untraced: float) -> tuple[dict, list[str]]:
    """The traced pass (pass ``number``) plus the extra invocations the
    ratio metrics need; returns every per-layer metric and the traced
    spans the program no longer has.  ``untraced`` is the median scaled
    wall of the timed passes."""
    traced = TracedPass()
    verify_outputs = []
    proof_len = {inp.name: inp.proof_len for inp in runner.inputs}

    def collect(inp, step, child):
        spans_path = child.capture + ".spans"
        if os.path.exists(spans_path):
            header, spans = read_spans(spans_path)
            traced.add(child.spawn, child.reap, header, spans)
        else:
            runner.failed += 1
            runner.failures.append(f"traced {inp.name}: no spans written")
        if step.command == "verify":
            verify_outputs.append((child.stdout, child.exit_code,
                                   proof_len[inp.name]))

    sample = runner.run_pass(number, traced=True, collect=collect)
    overhead = 100.0 * (sample.scaled()[0] - untraced) / untraced
    metrics = layer_metrics(traced, verify_outputs, overhead,
                            _extras(runner))
    return metrics, sorted(traced.missing)


def _extras(runner: PassRunner) -> dict:
    """Run the workload's extra invocations; returns their sums: solver
    span time with and without proof logging, ``--jobs 1`` watch
    visits, and default and ``--jobs 2`` wall-clock."""
    extras: dict[str, float] = defaultdict(float)
    cwd = tempfile.mkdtemp(prefix="extras-", dir=runner.work_dir)
    try:
        for inp in runner.inputs:
            for kind in runner.workload.extras:
                traced = kind.startswith("solve") or kind == "v1-jobs1"
                child = runner.invoke(f"extra {kind} {inp.name}",
                                      (inp.name, kind), extra_step(kind, inp),
                                      cwd, traced)
                if kind.startswith("solve"):
                    _, spans = read_spans(child.capture + ".spans")
                    extras[f"{kind}_s"] += sum(
                        s["end"] - s["start"] for s in spans
                        if s["name"] == "solver.solve")
                elif kind == "v1-jobs1":
                    extras["jobs1_watch_visits"] += parse_bcp(
                        child.stdout).get("watch_visits", 0)
                else:
                    extras[f"{kind}_wall"] += child.wall_s
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    return extras


def _git_head() -> str:
    """HEAD from the ``.git`` directory, or ``unknown`` outside a
    repository (no git process is started)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    """Where the numbers were taken.  numpy's version comes from its
    metadata: importing it would grow this process's RSS, which every
    child's ``ru_maxrss`` inherits."""
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"git_head": _git_head(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "platform": platform.platform(),
            "loadavg": os.getloadavg()}


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool, work_root: str) -> dict:
    """Set up, measure, and judge one workload; returns its results
    section (metrics, rows, failures)."""
    work_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root)
    try:
        reference = SpeedReference(work_dir)
        inputs, setups = _setup(workload, seed, work_dir,
                                1 if trace else SETUP_REPEATS, reference)
        runner = PassRunner(workload, inputs, work_dir, reference)
        passes = runner.timed_passes(seconds)
        result = {"inputs": [inp.name for inp in inputs],
                  "end_to_end": end_to_end(passes, setups, reference)}
        warnings = list(runner.oracle.warnings)
        if trace:
            result["per_layer"], missing = _traced_layers(
                runner, len(passes), result["end_to_end"]["wall_s"]["median"])
            result["per_layer_missing"] = missing
            warnings += [f"traced layer {span} not found in the program; "
                         "its metrics read 0" for span in missing]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result.update(
        rows=[row for p in passes for row in p.rows],
        segments={"setup": [s.segments for s in setups],
                  "passes": [p.segments for p in passes]},
        references=reference.as_json(),
        attempted=runner.attempted, failed=runner.failed,
        failures=runner.failures, warnings=warnings,
        failed_ratio=runner.failed / max(runner.attempted, 1))
    return result


def report_metrics(result: dict, trace: bool) -> dict:
    """The result line's ``metrics`` object: every end-to-end metric,
    or with ``trace`` every per-layer one."""
    if trace:
        return {m.name: {"value": result["per_layer"][m.name],
                         "unit": m.unit} for m in PER_LAYER}
    return {m.name: {"value": result["end_to_end"][m.name]["value"],
                     "unit": m.unit} for m in END_TO_END}


def run(workload_names: list[str], seed: int, seconds: float, trace: bool,
        work_root: str) -> dict:
    """Run the named workloads; returns the results document."""
    os.makedirs(work_root, exist_ok=True)
    doc = {"seed": seed, "seconds": seconds, "trace": trace,
           "reference": {"code": REFERENCE,
                         "nominal_s": REFERENCE_NOMINAL_S},
           "environment": environment(), "workloads": {}}
    for name in workload_names:
        doc["workloads"][name] = run_workload(WORKLOADS[name], seed,
                                              seconds, trace, work_root)
    doc["environment"]["loadavg_after"] = os.getloadavg()
    doc["metric_definitions"] = [asdict(m) for m in END_TO_END + PER_LAYER]
    return doc
