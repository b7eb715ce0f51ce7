"""Tests for the memory telemetry layer (``repro.obs.mem``).

Covers procfs parsing and the getrusage fallback (with its per-platform
unit), gauge max-merge associativity (the algebra the cross-worker
peak-RSS aggregation relies on), the memory fields of the trace's
``run_summary`` event, fault injection (a failed read must never touch
the verdict), and the timeline memory section.
"""

import pytest

import repro.obs.mem as mem
from repro.obs import (
    MetricsRegistry,
    Obs,
    Tracer,
    build_timeline,
    parse_proc_status,
    read_jsonl,
    read_rss,
    render_timeline_text,
    run_summary,
    validate_trace,
)

PROC_STATUS = """\
Name:\trepro
Umask:\t0022
VmPeak:\t  123456 kB
VmSize:\t  100000 kB
VmHWM:\t   51200 kB
VmRSS:\t   40960 kB
Threads:\t1
"""


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def fixed_rss(monkeypatch):
    """Pin :func:`read_rss` to one reading (None: a failed read)."""
    def pin(reading):
        monkeypatch.setattr(mem, "read_rss", lambda: reading)
    return pin


# -- RSS sources -----------------------------------------------------------

class TestReadRss:
    def test_parse_proc_status(self):
        parsed = parse_proc_status(PROC_STATUS)
        assert parsed == {"rss_bytes": 40960 * 1024,
                          "peak_rss_bytes": 51200 * 1024}

    def test_parse_tolerates_junk(self):
        assert parse_proc_status("") == {}
        assert parse_proc_status("VmRSS:\n") == {}
        assert parse_proc_status("VmRSS:\tnot-a-number kB\n") == {}
        # A file with only the peak still yields the peak.
        assert parse_proc_status("VmHWM:\t10 kB\n") == {
            "peak_rss_bytes": 10 * 1024}

    def test_proc_source(self, tmp_path):
        status = tmp_path / "status"
        status.write_text(PROC_STATUS)
        reading = read_rss(proc_status_path=str(status))
        assert reading == (40960 * 1024, 51200 * 1024, "proc")

    def test_getrusage_fallback(self, tmp_path):
        reading = read_rss(
            proc_status_path=str(tmp_path / "does-not-exist"))
        assert reading is not None
        rss, peak, source = reading
        assert source == "getrusage"
        assert rss == peak > 0

    @pytest.mark.parametrize("platform, scale", [("darwin", 1),
                                                 ("linux", 1024)])
    def test_getrusage_unit_follows_platform(self, tmp_path,
                                             monkeypatch, platform,
                                             scale):
        """``ru_maxrss`` is bytes on macOS and KiB on Linux: a 20 MB
        peak reads as 20 MB on both."""
        import resource
        import sys

        peak = 20 * 1024 * 1024 // scale

        class Usage:
            ru_maxrss = peak

        monkeypatch.setattr(sys, "platform", platform)
        monkeypatch.setattr(resource, "getrusage", lambda who: Usage)
        assert read_rss(proc_status_path=str(tmp_path / "missing")) \
            == (20 * 1024 * 1024, 20 * 1024 * 1024, "getrusage")

    def test_total_failure_returns_none(self, tmp_path, monkeypatch):
        import resource

        def boom(who):
            raise OSError("injected")
        monkeypatch.setattr(resource, "getrusage", boom)
        assert read_rss(
            proc_status_path=str(tmp_path / "missing")) is None


# -- gauge algebra ---------------------------------------------------------

class TestGaugeMaxMerge:
    """Cross-worker peak aggregation rests on max-merge being
    associative and commutative; pin it down."""

    def _registry_with(self, value):
        registry = MetricsRegistry()
        registry.gauge("repro_mem_worker_peak_rss_bytes").set(value)
        return registry

    def test_merge_orders_agree(self):
        values = (300, 100, 200)
        left = self._registry_with(values[0])
        left.merge(self._registry_with(values[1]).snapshot())
        left.merge(self._registry_with(values[2]).snapshot())

        right = self._registry_with(values[2])
        right.merge(self._registry_with(values[0]).snapshot())
        right.merge(self._registry_with(values[1]).snapshot())

        entry_l = left.snapshot()["repro_mem_worker_peak_rss_bytes"]
        entry_r = right.snapshot()["repro_mem_worker_peak_rss_bytes"]
        assert entry_l["value"]["max"] == entry_r["value"]["max"] == 300

    def test_max_survives_lower_set(self):
        registry = self._registry_with(500)
        registry.gauge("repro_mem_worker_peak_rss_bytes").set(50)
        entry = registry.snapshot()["repro_mem_worker_peak_rss_bytes"]
        assert entry["value"]["value"] == 50
        assert entry["value"]["max"] == 500


# -- a failed read ----------------------------------------------------------

class TestFailedRead:
    def test_failed_read_never_affects_verdict(self, fixed_rss):
        """Fault injection: an instrumented run whose RSS read fails
        verifies exactly as if memory telemetry were absent, and its
        run summary says so with nulls."""
        from repro.benchgen.php import pigeonhole
        from repro.proofs.conflict_clause import ConflictClauseProof
        from repro.solver.cdcl import solve
        from repro.verify.verification import verify_proof_v1

        formula = pigeonhole(4)
        result = solve(formula)
        assert result.is_unsat
        proof = ConflictClauseProof.from_log(result.log)

        fixed_rss(None)
        obs = Obs(metrics=MetricsRegistry())
        report = verify_proof_v1(formula, proof, obs=obs)
        assert report.ok
        assert run_summary(obs, "verify", report)["mem"] == {
            "rss_bytes": None, "peak_rss_bytes": None, "source": None}


# -- the run summary -------------------------------------------------------

class TestMemArtifact:
    """The memory fields of the trace's closing ``run_summary`` event:
    one :func:`read_rss` of the process, no sampled gauges."""

    def _trace(self, tmp_path):
        obs = Obs(metrics=MetricsRegistry(), tracer=Tracer())
        obs.event("run_summary", **run_summary(obs, "verify"))
        path = tmp_path / "trace.jsonl"
        obs.tracer.write_jsonl(str(path))
        return read_jsonl(str(path))

    def test_document_validates(self, tmp_path, fixed_rss):
        fixed_rss((1000, 2000, "proc"))
        events = self._trace(tmp_path)
        assert validate_trace(events) == []
        attrs = events[-1]["attrs"]
        assert attrs["mem"] == {"rss_bytes": 1000,
                                "peak_rss_bytes": 2000,
                                "source": "proc"}
        assert not any(name.startswith("repro_mem_")
                       for name in attrs["metrics"])

    def test_roundtrip_through_disk(self, tmp_path, fixed_rss):
        """A failed read survives the disk round trip as nulls, and
        the trace still validates."""
        fixed_rss(None)
        events = self._trace(tmp_path)
        assert validate_trace(events) == []
        assert events[-1]["attrs"]["mem"]["peak_rss_bytes"] is None

    def test_validator_rejects_garbage(self, tmp_path, fixed_rss):
        fixed_rss((1000, 2000, "proc"))
        events = self._trace(tmp_path)
        events[-1]["attrs"]["mem"] = [1, 2]
        assert any("mem must be null or an object" in p
                   for p in validate_trace(events))
        events[-1]["attrs"]["metrics"][
            "repro_mem_worker_peak_rss_bytes"] = {
            "kind": "gauge", "value": -1}
        assert any("gauge value" in p for p in validate_trace(events))


# -- timeline memory section -----------------------------------------------

def _summary_event(tracer, peak):
    tracer.event("run_summary", command="verify",
                 mem={"rss_bytes": peak, "peak_rss_bytes": peak,
                      "source": "proc"})


class TestTimelineMemory:
    def test_memory_section_built(self):
        """A sequential run's peak is its ``run_summary`` read, even
        though that event falls outside every span."""
        clock = FakeClock()
        tracer = Tracer(run_id="main", clock=clock, epoch=0.0)
        with tracer.span("verify"):
            clock.now = 1.0
        _summary_event(tracer, 150)
        doc = build_timeline(tracer.events)
        assert doc["memory"] == {"peak_rss_bytes": 150}
        assert "peak=150B" in render_timeline_text(doc)

    def test_no_samples_no_section(self):
        clock = FakeClock()
        tracer = Tracer(run_id="main", clock=clock, epoch=0.0)
        with tracer.span("verify"):
            clock.now = 1.0
        doc = build_timeline(tracer.events)
        assert doc["memory"] is None
        # And the renderer skips the memory line without complaint.
        assert "memory" not in render_timeline_text(doc)

    def test_shard_peaks_fold_into_run_peak(self):
        """The run-wide peak is the larger of the parent's read and
        every per-shard ``peak_rss`` end-attr from pool workers."""
        for parent_peak in (150, 20000):
            clock = FakeClock()
            tracer = Tracer(run_id="main", clock=clock, epoch=0.0)
            with tracer.span("verify"):
                with tracer.span("pool"):
                    worker = Tracer(run_id="w", clock=clock, epoch=0.0)
                    clock.now = 0.5
                    with worker.span("shard", lo=0, hi=4, pid=7):
                        clock.now = 1.0
                    worker.events[-1]["attrs"].update(
                        checks=4, wall=0.5, peak_rss=9000)
                    tracer.replay(worker.events)
                    clock.now = 1.5
                clock.now = 2.0
            _summary_event(tracer, parent_peak)
            doc = build_timeline(tracer.events)
            assert doc["memory"]["peak_rss_bytes"] \
                == max(parent_peak, 9000)
            text = render_timeline_text(doc)
            assert "memory" in text
            assert "rss=" in text
