"""Least-loaded placement on the bulk path against the object engine.

Under ``LeastLoadedScheduler`` on several nodes, the bulk path makes
the picks and the warm/cold decisions in one exact loop over the whole
cluster, then commits the slab vectorised.  These cases compare records,
the clock, and per-node memory, busy and idle counts with
``ObjectFaaSCluster`` after every submission step, and each asserts
which path ran:

- busy-count ties at several nodes, also carried across sub-slab edges;
- a completion exactly at an arrival, which frees its node before the
  pick;
- slab, scalar ``invoke`` and slab again, with and without a drain;
- memory overflow: LRU evictions modelled in the same loop, one-shot,
  in chunks and across sub-slab edges, where an eviction moves later
  picks; an expiry exactly at an arrival frees memory first; a
  cross-pool LRU tie and a request that queues fall back;
- a ``LeastLoadedScheduler`` subclass, which stays scalar.
"""

import numpy as np
import pytest

from repro.platform import (
    FaaSCluster,
    FixedKeepAlive,
    LeastLoadedScheduler,
    NoKeepAlive,
    ObjectFaaSCluster,
    WorkloadProfile,
)
from repro.platform import simulator_vec

from tests.test_bulk_eviction import _Outcomes, _run_steps
from tests.test_bulk_eviction import _load as _skewed_load
from tests.test_bulk_eviction import _profiles as _skewed_profiles
from tests.test_simulator_equivalence import _observed_state


def _kwargs(keepalive=lambda: FixedKeepAlive(2.0), n_nodes=4,
            node_memory_mb=16384.0, scheduler=LeastLoadedScheduler):
    return lambda: dict(  # noqa: E731
        n_nodes=n_nodes, node_memory_mb=node_memory_mb,
        keepalive=keepalive(), scheduler=scheduler(),
    )


def _grid_profiles(n=4):
    """125 MiB workloads: the default cold start is exactly 0.25 s, so
    with 250/500 ms runtimes every start and end lies on the 0.25 s
    grid the arrivals use."""
    return {
        f"g{i}": WorkloadProfile(
            f"g{i}", runtime_ms=250.0 * (1 + i % 2), memory_mb=125.0
        )
        for i in range(n)
    }


def _grid_load(seed, n=400, slots=80):
    """Arrivals in bursts on a 0.25 s grid: several requests share each
    instant, and completions land exactly on later arrivals."""
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.integers(0, slots, n)).astype(np.float64) * 0.25
    return ts, [f"g{int(i)}" for i in rng.integers(0, 4, n)]


def _tied_picks(ts, wids, make_kwargs, profiles):
    """How many nodes shared the minimum busy count at each reference
    pick."""
    ref = ObjectFaaSCluster(profiles, **make_kwargs())
    ties = []
    pick = ref.scheduler.pick

    def watch(nodes, workload_id):
        loads = [nd.busy_count for nd in nodes]
        ties.append(loads.count(min(loads)))
        return pick(nodes, workload_id)

    ref.scheduler.pick = watch
    for t, w in zip(ts.tolist(), wids):
        ref.invoke(t, w)
    return ties


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("mode", ["one-shot", "sub-slab", "chunked-3"])
def test_busy_count_ties_match_oracle(seed, mode, monkeypatch):
    ts, wids = _grid_load(seed)
    profiles = _grid_profiles()
    make_kwargs = _kwargs()
    ties = _tied_picks(ts, wids, make_kwargs, profiles)
    # ties at several nodes are common, not incidental
    assert sum(k >= 2 for k in ties) > 100
    assert sum(k >= 3 for k in ties) > 20
    if mode == "chunked-3":
        steps = [("slab", ts[lo:lo + 3], wids[lo:lo + 3])
                 for lo in range(0, ts.size, 3)]
    else:
        if mode == "sub-slab":
            # sub-slab edges fall inside bursts, so tied busy counts and
            # their pending completions cross them in the carry
            monkeypatch.setattr(simulator_vec, "_BULK_SLAB_ROWS", 5)
        steps = [("slab", ts, wids)]
    outcomes = _run_steps(steps, make_kwargs, profiles)
    expected = -(-ts.size // 5) if mode == "sub-slab" else len(steps)
    assert outcomes.verdicts == [True] * expected
    assert outcomes.total("platform_bulk_rows_total") == ts.size


def test_ties_match_oracle_with_zero_ttl_teardown():
    ts, wids = _grid_load(2)
    make_kwargs = _kwargs(keepalive=lambda: FixedKeepAlive(0.0))
    outcomes = _run_steps([("slab", ts, wids)], make_kwargs,
                          _grid_profiles())
    assert outcomes.verdicts == [True]
    assert outcomes.total("platform_bulk_rows_total") == ts.size


def test_completion_at_an_arrival_frees_its_node_before_the_pick():
    profiles = {
        "long": WorkloadProfile("long", runtime_ms=10_000.0,
                                memory_mb=125.0),
        "a": WorkloadProfile("a", runtime_ms=250.0, memory_mb=125.0),
    }
    # node 0 runs "long"; "a" starts cold on node 1 at 0.25 and ends at
    # exactly 0.75, when the next "a" arrives
    ts = np.array([0.0, 0.25, 0.75])
    wids = ["long", "a", "a"]
    make_kwargs = _kwargs(n_nodes=2)
    _run_steps([("slab", ts, wids)], make_kwargs, profiles)
    vec = FaaSCluster(profiles, **make_kwargs())
    outcomes = _Outcomes(vec)
    vec.invoke_many(ts, wids)
    assert outcomes.verdicts == [True]
    # the completion fired first: node 1 was idle again, and warm
    last = vec.records[-1]
    assert (last.node, last.cold, last.start_s) == (1, False, 0.75)


def test_slab_then_scalar_then_slab_matches_oracle():
    ts, wids = _grid_load(3)
    steps = [
        ("slab", ts[:150], wids[:150]),
        ("scalar", ts[150:200], wids[150:200]),
        ("slab", ts[200:], wids[200:]),
    ]
    outcomes = _run_steps(steps, _kwargs(), _grid_profiles())
    # the scalar rows materialise the carry, so the heap holds events
    # and the second slab is scalar by design
    assert outcomes.verdicts == [True]
    assert outcomes.total("platform_bulk_rows_total") == 150


def test_slab_scalar_drain_slab_returns_to_bulk():
    ts, wids = _grid_load(4)
    late = ts[200:] + 100.0
    profiles = _grid_profiles()
    make_kwargs = _kwargs(keepalive=NoKeepAlive)
    ref = ObjectFaaSCluster(profiles, **make_kwargs())
    vec = FaaSCluster(profiles, **make_kwargs())
    outcomes = _Outcomes(vec)
    vec.invoke_many(ts[:150], wids[:150])
    for t, w in zip(ts[:200].tolist(), wids[:200]):
        ref.invoke(t, w)
    for t, w in zip(ts[150:200].tolist(), wids[150:200]):
        vec.invoke(t, w)
    assert _observed_state(vec) == _observed_state(ref)
    assert vec.drain() == ref.drain()
    # drained with zero TTL: nothing is left, so the next slab is bulk
    vec.invoke_many(late, wids[200:])
    for t, w in zip(late.tolist(), wids[200:]):
        ref.invoke(t, w)
    assert _observed_state(vec) == _observed_state(ref)
    assert vec.drain() == ref.drain()
    assert vec.clock_s == ref.clock_s
    assert outcomes.verdicts == [True, True]
    assert outcomes.total("platform_bulk_rows_total") == 150 + late.size


def test_memory_overflow_evicts_in_bulk_across_sub_slabs(monkeypatch):
    """Two 1 GiB nodes: the first 100 rows use two workloads and fit;
    from row 100 on, ten more workloads must evict idle sandboxes."""
    profiles = {
        f"f{i}": WorkloadProfile(f"f{i}", runtime_ms=100.0, memory_mb=256.0)
        for i in range(12)
    }
    ts = np.repeat(np.arange(100, dtype=np.float64) * 0.5, 2)
    wids = [f"f{i % 2}" for i in range(100)] + [
        f"f{2 + i % 10}" for i in range(100)
    ]
    monkeypatch.setattr(simulator_vec, "_BULK_SLAB_ROWS", 50)
    make_kwargs = _kwargs(keepalive=lambda: FixedKeepAlive(100.0),
                          n_nodes=2, node_memory_mb=1024.0)
    outcomes = _run_steps([("slab", ts, wids)], make_kwargs, profiles)
    # both nodes serve traffic; the memory ran short and nothing queued,
    # so the reference engine evicted, and so did the cluster unit
    assert {r.node for r in outcomes.cluster.records} == {0, 1}
    assert outcomes.verdicts == [True] * 4
    assert outcomes.total("platform_bulk_rows_total") == ts.size
    assert outcomes.total("platform_bulk_evictions_total") > 0
    assert outcomes.fallbacks() == {}


def _pressured(node_memory_mb):
    return _kwargs(keepalive=lambda: FixedKeepAlive(30.0), n_nodes=3,
                   node_memory_mb=node_memory_mb)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("mode", ["one-shot", "chunked-7", "sub-slab"])
def test_evictions_match_oracle(seed, mode, monkeypatch):
    ts, wids = _skewed_load(seed)
    if mode == "chunked-7":
        steps = [("slab", ts[lo:lo + 7], wids[lo:lo + 7])
                 for lo in range(0, ts.size, 7)]
    else:
        if mode == "sub-slab":
            # idle sandboxes and the memory they hold cross the edges
            monkeypatch.setattr(simulator_vec, "_BULK_SLAB_ROWS", 50)
        steps = [("slab", ts, wids)]
    outcomes = _run_steps(steps, _pressured(1024.0), _skewed_profiles())
    expected = -(-ts.size // 50) if mode == "sub-slab" else len(steps)
    assert outcomes.verdicts == [True] * expected
    assert outcomes.total("platform_bulk_rows_total") == ts.size
    assert outcomes.total("platform_bulk_evictions_total") >= 100
    assert outcomes.fallbacks() == {}


def test_evictions_move_later_picks():
    """The same load on unbounded nodes is placed differently: an
    eviction makes a later start cold, which moves its completion and
    so the busy counts later picks read."""
    ts, wids = _skewed_load(0)
    profiles = _skewed_profiles()
    placed = []
    for memory in (1024.0, 1e9):
        ref = ObjectFaaSCluster(profiles, **_pressured(memory)())
        for t, w in zip(ts.tolist(), wids):
            ref.invoke(t, w)
        placed.append([r.node for r in ref.drain()])
    assert sum(a != b for a, b in zip(*placed)) > 100
    outcomes = _run_steps([("slab", ts, wids)], _pressured(1024.0),
                          profiles)
    assert outcomes.verdicts == [True]


def test_expiry_at_an_arrival_frees_memory_before_the_admission():
    """Node 1's idle "a" expires at exactly 2.5, when "b" needs all of
    node 1's memory: the expiry fires first, so nothing is evicted."""
    profiles = {
        "x": WorkloadProfile("x", runtime_ms=100_000.0, memory_mb=125.0),
        "a": WorkloadProfile("a", runtime_ms=250.0, memory_mb=125.0),
        "b": WorkloadProfile("b", runtime_ms=100.0, memory_mb=250.0),
    }
    ts = np.array([0.0, 0.0, 2.5])
    make_kwargs = _kwargs(keepalive=lambda: FixedKeepAlive(2.0),
                          n_nodes=2, node_memory_mb=250.0)
    outcomes = _run_steps([("slab", ts, ["x", "a", "b"])], make_kwargs,
                          profiles)
    assert [(r.node, r.cold) for r in outcomes.cluster.records] == [
        (0, True), (1, True), (1, True)]
    assert outcomes.verdicts == [True]
    assert outcomes.total("platform_bulk_evictions_total") == 0


def _tied_idle_then_big(offset):
    """Node 0 runs two long "x"; "a" and "b" both idle on node 1 at
    0.75 (+ ``offset`` for "b"); then "c" must evict one of them."""
    profiles = {
        "x": WorkloadProfile("x", runtime_ms=100_000.0, memory_mb=125.0),
        "a": WorkloadProfile("a", runtime_ms=500.0, memory_mb=125.0),
        "b": WorkloadProfile("b", runtime_ms=250.0 + offset * 1e3,
                             memory_mb=125.0),
        "c": WorkloadProfile("c", runtime_ms=100.0, memory_mb=384.0),
    }
    ts = np.array([0.0, 0.0, 0.0, 0.25, 5.0])
    wids = ["x", "a", "x", "b", "c"]
    return profiles, ts, wids


@pytest.mark.parametrize("offset", [0.0, 0.125])
def test_cross_pool_lru_tie_falls_back(offset):
    profiles, ts, wids = _tied_idle_then_big(offset)
    make_kwargs = _kwargs(keepalive=lambda: FixedKeepAlive(60.0),
                          n_nodes=2, node_memory_mb=512.0)
    outcomes = _run_steps([("slab", ts, wids)], make_kwargs, profiles)
    assert [r.node for r in outcomes.cluster.records] == [0, 1, 0, 1, 1]
    if offset == 0.0:
        # equal idle-since in two pools: the reference engine evicts by
        # dict-insertion order, which the loop does not model
        assert outcomes.verdicts == [False]
        assert outcomes.fallbacks() == {"lru_tie": 1}
    else:
        assert outcomes.verdicts == [True]
        assert outcomes.total("platform_bulk_evictions_total") == 1


def test_queueing_falls_back():
    profiles = {
        "big": WorkloadProfile("big", runtime_ms=2000.0, memory_mb=384.0),
    }
    ts = np.array([0.0, 0.1, 0.5])
    make_kwargs = _kwargs(keepalive=lambda: FixedKeepAlive(60.0),
                          n_nodes=2, node_memory_mb=512.0)
    ref = ObjectFaaSCluster(profiles, **make_kwargs())
    vec = FaaSCluster(profiles, **make_kwargs())
    outcomes = _Outcomes(vec)
    vec.invoke_many(ts, ["big"] * 3)
    for t in ts.tolist():
        ref.invoke(t, "big")
    assert _observed_state(vec) == _observed_state(ref)
    records = ref.drain()
    assert vec.drain() == records
    assert vec.clock_s == ref.clock_s
    # the third request waits on node 0 for memory nothing idle holds
    assert [r.start_s > r.arrival_s + 1.0 for r in records] == [
        False, False, True]
    assert outcomes.verdicts == [False]
    assert outcomes.fallbacks() == {"queueing": 1}


def test_least_loaded_subclass_stays_scalar():
    class Tweaked(LeastLoadedScheduler):
        pass

    ts, wids = _grid_load(5)
    make_kwargs = _kwargs(scheduler=Tweaked)
    outcomes = _run_steps([("slab", ts, wids)], make_kwargs,
                          _grid_profiles())
    # a subclass may override pick: never even tried in bulk
    assert outcomes.verdicts == []
    assert outcomes.total("platform_bulk_rows_total") == 0
