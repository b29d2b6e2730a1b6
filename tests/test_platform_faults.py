"""Tests for the fault-injection subsystem (repro.platform.faults)."""

import numpy as np
import pytest

from repro.loadgen import RequestTrace, RetryPolicy, replay
from repro.platform import (
    CrashHook,
    FaaSCluster,
    FaultProfile,
    FaultyBackend,
    InvocationFault,
    MemoryExhaustedFault,
    NodeOutageFault,
    OutageWindow,
    PlatformTracer,
    WorkloadProfile,
    iter_trace_slabs,
    lifecycle_summary,
    summarize,
)


def make_trace(n=500, horizon=60.0, seed=0, wid="w"):
    ts = np.sort(np.random.default_rng(seed).uniform(0, horizon, n))
    return RequestTrace(ts, np.array([wid] * n), np.array([""] * n),
                        np.full(n, 10.0), np.array(["f"] * n))


def make_cluster(**kwargs):
    return FaaSCluster({"w": WorkloadProfile("w", 10.0, 128.0)},
                       n_nodes=2, **kwargs)


class _CountingBackend:
    def __init__(self):
        self.invocations = 0

    def invoke(self, timestamp_s, workload_id):
        self.invocations += 1

    def drain(self):
        return []


class TestFaultProfile:
    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError, match="probability"):
            FaultProfile(error_rate=1.5)
        with pytest.raises(ValueError, match="probability"):
            FaultProfile(crash_rate={"w": -0.1})
        with pytest.raises(ValueError, match="latency_spike_ms"):
            FaultProfile(latency_spike_ms=-1.0)

    def test_per_workload_rates_with_wildcard(self):
        p = FaultProfile(error_rate={"hot": 0.5, "*": 0.1})
        assert p.rate("error_rate", "hot") == 0.5
        assert p.rate("error_rate", "other") == 0.1
        p2 = FaultProfile(error_rate={"hot": 0.5})
        assert p2.rate("error_rate", "other") == 0.0

    def test_outage_validation(self):
        with pytest.raises(ValueError, match="start_s"):
            OutageWindow(5.0, 5.0)
        with pytest.raises(ValueError, match="failure_prob"):
            OutageWindow(0.0, 1.0, failure_prob=0.0)

    def test_json_round_trip(self, tmp_path):
        p = FaultProfile(error_rate={"w": 0.2}, crash_rate=0.01,
                         outages=[OutageWindow(10.0, 20.0, 0.5)], seed=9)
        path = tmp_path / "faults.json"
        p.to_json(path)
        q = FaultProfile.from_json(path)
        assert q == p

    def test_json_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            FaultProfile.from_json(path)
        path.write_text('{"bogus_field": 1}')
        with pytest.raises(ValueError, match="unknown fault profile"):
            FaultProfile.from_json(path)


class TestFaultyBackend:
    def test_injects_errors_at_roughly_the_configured_rate(self):
        inner = _CountingBackend()
        fb = FaultyBackend(inner, FaultProfile(error_rate=0.2, seed=1))
        failures = 0
        for i in range(2000):
            try:
                fb.invoke(float(i), "w")
            except InvocationFault:
                failures += 1
        assert failures == pytest.approx(400, rel=0.2)
        assert inner.invocations == 2000 - failures
        assert fb.injected["error"] == failures

    def test_deterministic_under_fixed_seed(self):
        def fault_sequence(seed):
            fb = FaultyBackend(_CountingBackend(),
                               FaultProfile(error_rate=0.1,
                                            crash_rate=0.05, seed=seed))
            out = []
            for i in range(500):
                try:
                    fb.invoke(float(i), "w")
                    out.append("ok")
                except Exception as exc:
                    out.append(type(exc).__name__)
            return out

        assert fault_sequence(3) == fault_sequence(3)
        assert fault_sequence(3) != fault_sequence(4)

    def test_outage_window_fails_requests_inside_it(self):
        fb = FaultyBackend(
            _CountingBackend(),
            FaultProfile(outages=[OutageWindow(10.0, 20.0)]),
        )
        fb.invoke(5.0, "w")
        with pytest.raises(NodeOutageFault):
            fb.invoke(15.0, "w")
        fb.invoke(25.0, "w")

    def test_memory_rejection_is_retryable(self):
        fb = FaultyBackend(_CountingBackend(),
                           FaultProfile(memory_rejection_rate=1.0))
        with pytest.raises(MemoryExhaustedFault) as exc_info:
            fb.invoke(0.0, "w")
        assert exc_info.value.retryable

    def test_latency_spikes_rewrite_simulator_records(self):
        trace = make_trace(n=200)
        profile = FaultProfile(latency_spike_rate=0.3,
                               latency_spike_ms=500.0, seed=2)

        def latencies(with_spikes):
            backend = make_cluster()
            if with_spikes:
                backend = FaultyBackend(backend, profile)
            return np.sort(replay(trace, backend).latencies_ms())

        base, spiked = latencies(False), latencies(True)
        assert spiked.size == base.size
        # spiked run strictly adds latency to a subset of requests
        assert spiked.sum() > base.sum() + 0.3 * 200 * 500.0 * 0.5
        assert spiked.max() >= base.max() + 499.0

    def test_spikes_skip_backends_without_records(self):
        fb = FaultyBackend(_CountingBackend(),
                           FaultProfile(latency_spike_rate=1.0))
        fb.invoke(0.0, "w")
        assert fb.drain() == []

    def test_tracer_sees_injected_faults(self):
        tracer = PlatformTracer()
        fb = FaultyBackend(_CountingBackend(),
                           FaultProfile(error_rate=1.0), tracer=tracer)
        with pytest.raises(InvocationFault):
            fb.invoke(0.0, "w")
        assert len(tracer.of_kind("fault_injected")) == 1

    def test_delegates_inner_attributes(self):
        cluster = make_cluster()
        fb = FaultyBackend(cluster, FaultProfile())
        assert fb.records is cluster.records
        assert fb.clock_s == 0.0

    def test_gauntlet_draws_identically_scalar_bulk_chunked(self):
        """The fault gauntlet consumes the same RNG stream no matter how
        requests are submitted, so injected counts, spike rewrites, and
        the simulator records are byte-identical across modes."""
        trace = make_trace(n=400, horizon=120.0, seed=3)
        profile = FaultProfile(latency_spike_rate=0.3,
                               latency_spike_ms=250.0, seed=11)

        def run(mode):
            fb = FaultyBackend(make_cluster(), profile)
            ts, wids = trace.timestamps_s, list(trace.workload_ids)
            if mode == "scalar":
                for t, w in zip(ts.tolist(), wids):
                    fb.invoke(t, w)
            elif mode == "bulk":
                fb.invoke_many(ts, wids)
            else:
                for slab_ts, slab_wids in iter_trace_slabs(
                    ts, wids, chunk_rows=7
                ):
                    fb.invoke_many(slab_ts, slab_wids)
            return (fb._rng.bit_generator.state, dict(fb.injected),
                    fb.drain())

        state_s, injected_s, records_s = run("scalar")
        for mode in ("bulk", "chunked"):
            state, injected, records = run(mode)
            assert state == state_s, mode
            assert injected == injected_s, mode
            assert records == records_s, mode
        assert injected_s["spike"] > 0

    def test_chunked_cannot_bypass_gauntlet(self):
        """A chunked replay must inject even though the inner cluster
        also defines invoke_many (no __getattr__ forwarding)."""
        fb = FaultyBackend(make_cluster(), FaultProfile(error_rate=1.0))
        with pytest.raises(InvocationFault):
            replay(make_trace(n=1), fb, chunk_rows=1)
        assert fb.injected["error"] == 1


class TestSimulatorCrashHook:
    def test_crashes_mark_records_not_ok_and_free_memory(self):
        trace = make_trace(n=2000, horizon=600.0)
        cluster = make_cluster(fault_hook=CrashHook(0.2, seed=5))
        result = replay(trace, cluster)
        ok = np.array([r.ok for r in result.records])
        assert result.n_requests == 2000
        assert 0.65 < ok.mean() < 0.9
        # crashed invocations end early (no full service time)
        crashed = [r for r in result.records if not r.ok]
        assert crashed
        assert all(r.service_ms <= 10.0 for r in crashed)
        # crashed sandboxes are destroyed: memory fully reclaimed
        cluster.drain()
        assert all(n.used_memory_mb == pytest.approx(0.0, abs=1e-9)
                   for n in cluster.nodes)

    def test_crashes_emit_lifecycle_events(self):
        tracer = PlatformTracer()
        trace = make_trace(n=500, horizon=120.0)
        cluster = make_cluster(fault_hook=CrashHook(0.3, seed=6),
                               tracer=tracer)
        replay(trace, cluster)
        summary = lifecycle_summary(tracer)
        assert summary["sandbox_crashed"] > 0
        # a crashed sandbox is never reused; creations cover crashes
        assert summary["sandbox_created"] >= summary["sandbox_crashed"]

    def test_hook_determinism(self):
        def run(seed):
            cluster = make_cluster(fault_hook=CrashHook(0.2, seed=seed))
            result = replay(make_trace(n=500), cluster)
            return [r.ok for r in result.records]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_summarize_reports_ok_fraction(self):
        cluster = make_cluster(fault_hook=CrashHook(0.5, seed=1))
        result = replay(make_trace(n=300), cluster)
        s = summarize(result.records)
        assert 0.0 < s["ok_fraction"] < 1.0


class TestFaultyBackendEndToEnd:
    def test_acceptance_five_percent_errors_three_retries(self):
        """The ISSUE's acceptance scenario: 5% errors + 3-attempt
        exponential backoff completes, counts sum to n, and reruns with
        the same seed are byte-identical."""
        trace = make_trace(n=3000, horizon=300.0)

        def run():
            backend = FaultyBackend(
                make_cluster(), FaultProfile(error_rate=0.05, seed=11)
            )
            return replay(trace, backend,
                          retry=RetryPolicy(max_attempts=3, seed=11))

        r1, r2 = run(), run()
        counts = r1.outcome_counts()
        assert sum(counts.values()) == trace.n_requests
        assert counts["retried"] > 0
        assert counts["ok"] + counts["retried"] == trace.n_requests
        assert r1.outcomes.tobytes() == r2.outcomes.tobytes()
        assert r1.attempts.tobytes() == r2.attempts.tobytes()
