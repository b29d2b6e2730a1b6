"""LRU eviction on the bulk keep-alive path against the object engine.

A memory-pressured slab commits in bulk: every node whose memory
calendar overflows is replayed as one unit with its pools coupled
through LRU eviction.  These cases compare records, the clock, and
per-node memory, busy and idle counts with ``ObjectFaaSCluster`` after
every submission step, and each asserts which path ran:

- evictions inside a slab, one-shot, in 1/7/64-row chunks, and split
  into small sub-slabs by ``invoke_many`` itself;
- an eviction that empties a pool's stack, followed by scalar traffic
  and then another slab, including an LRU tie the scalar step settles
  by the order in which the stacks were (re)created;
- an LRU tie between two pools, which the bulk path does not model, so
  the slab falls back;
- a request that queues, which falls back too.
"""

import numpy as np
import pytest

from repro.platform import (
    FaaSCluster,
    FixedKeepAlive,
    ObjectFaaSCluster,
    RandomScheduler,
    WorkloadProfile,
)
from repro.platform import simulator_vec
from repro.telemetry import registry as telemetry

from tests.test_scalar_path import _queued
from tests.test_simulator_equivalence import _observed_state


def _profiles():
    rng = np.random.default_rng(3)
    return {
        f"f{i}": WorkloadProfile(
            f"f{i}", runtime_ms=float(rng.uniform(40.0, 400.0)),
            memory_mb=float(rng.choice([128.0, 256.0, 384.0])),
        )
        for i in range(12)
    }


def _load(seed, n=600, horizon_s=60.0):
    """Skewed popularity over random real-valued arrivals: hot pools
    stay warm, cold ones must evict to fit, and no two sandboxes idle at
    the same instant."""
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.uniform(0.0, horizon_s, n))
    weights = 1.0 / np.arange(1, 13) ** 1.1
    codes = rng.choice(12, size=n, p=weights / weights.sum())
    return ts, [f"f{int(c)}" for c in codes]


def _kwargs(node_memory_mb=1536.0, n_nodes=3, ttl=30.0, seed=5):
    return lambda: dict(  # noqa: E731
        n_nodes=n_nodes, node_memory_mb=node_memory_mb,
        keepalive=FixedKeepAlive(ttl), scheduler=RandomScheduler(seed=seed),
    )


class _Outcomes:
    """Each ``_bulk_invoke`` verdict on one cluster, plus the bulk
    counters of the registry active while it ran."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.verdicts = []
        self.registry = telemetry.MetricsRegistry()
        attempt = cluster._bulk_invoke

        def spy(ts, wids):
            with telemetry.use(self.registry):
                self.verdicts.append(attempt(ts, wids))
            return self.verdicts[-1]

        cluster._bulk_invoke = spy

    def total(self, name):
        return self.registry.counter(name).value

    def fallbacks(self):
        """Fallen-back slabs by reason."""
        return {
            m.labels["reason"]: m.value for m in self.registry.counters()
            if m.name == "platform_bulk_fallbacks_total"
        }


def _run_steps(steps, make_kwargs, profiles):
    """Feed ``(kind, ts, wids)`` steps to both engines, comparing the
    observed state after each; returns the array engine's outcomes."""
    ref = ObjectFaaSCluster(profiles, **make_kwargs())
    vec = FaaSCluster(profiles, **make_kwargs())
    outcomes = _Outcomes(vec)
    for kind, step_ts, step_wids in steps:
        if kind == "slab":
            vec.invoke_many(step_ts, step_wids)
        for t, w in zip(step_ts.tolist(), step_wids):
            ref.invoke(t, w)
            if kind == "scalar":
                vec.invoke(t, w)
        assert _observed_state(vec) == _observed_state(ref), kind
    assert vec.drain() == ref.drain()
    assert vec.clock_s == ref.clock_s
    assert [(n.used_memory_mb, n.busy_count, n.idle_count)
            for n in vec.nodes] == [
        (n.used_memory_mb, n.busy_count, n.idle_count) for n in ref.nodes
    ]
    assert not _queued(ref.records, profiles)
    return outcomes


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "mode", ["one-shot", "chunked-1", "chunked-7", "chunked-64", "sub-slab"]
)
def test_evictions_within_a_slab_match_oracle(seed, mode, monkeypatch):
    ts, wids = _load(seed)
    if mode.startswith("chunked"):
        size = int(mode.split("-")[1])
        steps = [
            ("slab", ts[lo:lo + size], wids[lo:lo + size])
            for lo in range(0, ts.size, size)
        ]
    else:
        if mode == "sub-slab":
            monkeypatch.setattr(simulator_vec, "_BULK_SLAB_ROWS", 50)
        steps = [("slab", ts, wids)]
    outcomes = _run_steps(steps, _kwargs(), _profiles())
    # every (sub-)slab committed in bulk, and the bulk path evicted
    expected = -(-ts.size // 50) if mode == "sub-slab" else len(steps)
    assert outcomes.verdicts == [True] * expected
    assert outcomes.total("platform_bulk_rows_total") == ts.size
    assert outcomes.total("platform_bulk_evictions_total") >= 20


def test_eviction_emptying_a_stack_then_scalar_then_slab():
    ts, wids = _load(2)
    profiles = _profiles()
    make_kwargs = _kwargs()

    # the reference engine shows the first slab evicts the last idle
    # sandbox of some pool
    ref = ObjectFaaSCluster(profiles, **make_kwargs())
    emptied = []

    class Watch:
        def emit(self, time_s, kind, node, workload_id):
            if kind == "sandbox_evicted":
                nd = next(x for x in ref.nodes if x.node_id == node)
                emptied.append(workload_id not in nd.idle)

    ref.tracer = Watch()
    for t, w in zip(ts[:300].tolist(), wids[:300]):
        ref.invoke(t, w)
    assert any(emptied)

    steps = [
        ("slab", ts[:300], wids[:300]),
        ("scalar", ts[300:340], wids[300:340]),
        ("slab", ts[340:], wids[340:]),
    ]
    outcomes = _run_steps(steps, make_kwargs, profiles)
    # the first slab commits with its evictions; after scalar traffic
    # the heap holds events, so the second slab is scalar by design
    assert outcomes.verdicts == [True]
    assert outcomes.total("platform_bulk_evictions_total") >= 1


def test_stack_emptied_by_eviction_is_recreated_in_lru_order():
    """The carry's stack-creation keys must count evictions as pops.

    Slab 1 evicts ``a``'s only idle sandbox (its stack empties), then
    recreates the stack at t = 3.5, when one of ``c``'s two sandboxes
    also goes idle.  ``c``'s stack never empties, so in the reference
    engine's ``node.idle`` dict it stays ahead of ``a``.  The scalar
    request at t = 5 needs two evictions: ``c``'s older sandbox, then a
    tie at t = 3.5 that dict order settles for ``c``.  So the request at
    t = 6 finds ``a`` warm.
    """
    # 125 MiB: the default cold start is exactly 0.25 s, and every time
    # below is an exact binary float
    profiles = {
        w: WorkloadProfile(w, runtime_ms=250.0, memory_mb=125.0)
        for w in "abcd"
    }
    profiles["e"] = WorkloadProfile("e", runtime_ms=250.0, memory_mb=250.0)
    slab1 = [(0.0, "a"), (0.25, "b"), (1.0, "c"), (1.125, "c"),
             (2.0, "d"), (3.0, "a"), (3.25, "c"), (4.0, "d")]
    steps = [
        (kind, np.array([t for t, _ in rows]), [w for _, w in rows])
        for kind, rows in (
            ("slab", slab1), ("scalar", [(5.0, "e")]),
            ("slab", [(6.0, "a"), (6.5, "c")]),
        )
    ]
    make_kwargs = _kwargs(node_memory_mb=500.0, n_nodes=1, ttl=100.0)
    outcomes = _run_steps(steps, make_kwargs, profiles)
    # slab 1 evicted a's and b's only sandboxes in bulk
    assert outcomes.verdicts == [True]
    assert outcomes.total("platform_bulk_evictions_total") == 2
    ref = ObjectFaaSCluster(profiles, **make_kwargs())
    for _, step_ts, step_wids in steps:
        for t, w in zip(step_ts.tolist(), step_wids):
            ref.invoke(t, w)
    assert [r.cold for r in ref.drain()][-2:] == [False, True]


def _pair_then_big(offset):
    """Two 128 MiB sandboxes of two pools go idle ``offset`` seconds
    apart; a 384 MiB cold start at t = 5 must evict one of them, and the
    later arrivals evict in turn."""
    profiles = {
        "a": WorkloadProfile("a", runtime_ms=100.0, memory_mb=128.0),
        "b": WorkloadProfile("b", runtime_ms=100.0, memory_mb=128.0),
        "c": WorkloadProfile("c", runtime_ms=100.0, memory_mb=384.0),
    }
    ts = np.array([0.0, offset, 5.0, 6.0, 7.0])
    wids = ["a", "b", "c", "a", "b"]
    return profiles, ts, wids


@pytest.mark.parametrize("offset", [0.0, 0.001])
def test_cross_pool_lru_tie_falls_back(offset):
    profiles, ts, wids = _pair_then_big(offset)
    make_kwargs = _kwargs(node_memory_mb=512.0, n_nodes=1, ttl=60.0)
    outcomes = _run_steps([("slab", ts, wids)], make_kwargs, profiles)
    if offset == 0.0:
        # equal idle-since in two pools: the reference engine evicts by
        # dict-insertion order, which the bulk loop does not model
        assert outcomes.verdicts == [False]
    else:
        assert outcomes.verdicts == [True]
        assert outcomes.total("platform_bulk_evictions_total") == 3


def test_queueing_falls_back():
    profiles = {
        "big": WorkloadProfile("big", runtime_ms=2000.0, memory_mb=384.0),
        "small": WorkloadProfile("small", runtime_ms=50.0, memory_mb=64.0),
    }
    ts = np.array([0.0, 0.1, 0.5, 4.0, 4.5])
    wids = ["small", "big", "big", "small", "big"]
    make_kwargs = _kwargs(node_memory_mb=512.0, n_nodes=1, ttl=60.0)
    ref = ObjectFaaSCluster(profiles, **make_kwargs())
    vec = FaaSCluster(profiles, **make_kwargs())
    outcomes = _Outcomes(vec)
    vec.invoke_many(ts, wids)
    for t, w in zip(ts.tolist(), wids):
        ref.invoke(t, w)
    assert _observed_state(vec) == _observed_state(ref)
    records = ref.drain()
    assert vec.drain() == records
    assert vec.clock_s == ref.clock_s
    # the second big request waits for memory: the slab must fall back
    assert _queued(records, profiles)
    assert outcomes.verdicts == [False]
    assert outcomes.total("platform_bulk_rows_total") == 0
