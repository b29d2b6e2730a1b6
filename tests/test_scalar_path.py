"""The array engine's scalar admission path against its oracle.

Every row that the bulk path does not commit goes through
``FaaSCluster.invoke``.  These cases pin the pieces that make that path
cheap without changing what it computes:

- pre-drawn scheduler picks (one ``pick_many`` per slab) leave
  ``RandomScheduler``'s RNG exactly where per-row ``pick`` calls would,
  also after a failed bulk attempt and when a slab raises midway;
- the record store's row buffer keeps row order, the vocabulary order
  and the identity of the ``records`` list;
- deep warm pools and LRU evictions replay byte-identically through
  ``invoke``, the bulk commit, a slab that queues and falls back, and
  mixed submission;
- ``LeastLoadedScheduler`` keeps ``np.argmin``'s lowest-index tie rule.
"""

import numpy as np
import pytest

from repro.platform import (
    FaaSCluster,
    FixedKeepAlive,
    HistogramKeepAlive,
    LeastLoadedScheduler,
    NoKeepAlive,
    ObjectFaaSCluster,
    PlatformTracer,
    RandomScheduler,
    RecordColumns,
    WorkloadProfile,
)
from repro.platform.simcore import Node, default_cold_start_s
from repro.platform.simulator_vec import _FLUSH_ROWS, _RecordStore

from tests.test_simulator_equivalence import (
    make_load,
    make_profiles,
    submit,
)


def _bulk_outcomes(cluster):
    """Record each bulk attempt's verdict on ``cluster``."""
    outcomes = []
    attempt = cluster._bulk_invoke

    def spy(ts, wids):
        outcomes.append(attempt(ts, wids))
        return outcomes[-1]

    cluster._bulk_invoke = spy
    return outcomes


def _count_picks(scheduler):
    """Count ``pick`` calls on one scheduler instance."""
    calls = []
    pick = scheduler.pick

    def counted(nodes, workload_id):
        calls.append(workload_id)
        return pick(nodes, workload_id)

    scheduler.pick = counted
    return calls


def _sequential_state(seed, n_nodes, n_draws):
    rng = np.random.default_rng(seed)
    for _ in range(n_draws):
        rng.integers(0, n_nodes)
    return rng.bit_generator.state


# ---------------------------------------------------------------------------
# deep pools and forced LRU evictions
# ---------------------------------------------------------------------------
def _deep_pool_load(seed, bursts=6, per_burst=60):
    """Bursts two seconds apart, each 0.3 s long: a burst grows deep
    pools that idle together afterwards; the popular set shifts
    halfway, so the second half's cold starts must evict them."""
    rng = np.random.default_rng(seed)
    ts = np.sort(np.concatenate([
        2.0 * b + rng.uniform(0.0, 0.3, per_burst) for b in range(bursts)
    ]))
    first = rng.integers(0, 3, ts.size)
    second = rng.integers(3, 6, ts.size)
    codes = np.where(ts < bursts, first, second)  # halfway: t = bursts
    return ts, [f"w{int(c)}" for c in codes]


def _deep_pool_profiles():
    return {
        f"w{i}": WorkloadProfile(
            f"w{i}", runtime_ms=400.0 + 60.0 * i,
            memory_mb=64.0 * (1 + i % 3),
        )
        for i in range(6)
    }


DEEP_SCHEDULERS = {
    "random": lambda: RandomScheduler(seed=11),
    "least-loaded": LeastLoadedScheduler,
}


def _deep_kwargs(sched, node_memory_mb=4096.0):
    return lambda: dict(  # noqa: E731
        n_nodes=2,
        node_memory_mb=node_memory_mb,
        keepalive=FixedKeepAlive(60.0),
        scheduler=DEEP_SCHEDULERS[sched](),
    )


def _queued(records, profiles):
    """Records whose start was delayed beyond their own cold start, i.e.
    requests that waited in a node's backlog."""
    return [
        r for r in records
        if r.start_s != r.arrival_s + (
            default_cold_start_s(profiles[r.workload_id]) if r.cold else 0.0
        )
    ]


def test_deep_pool_load_is_deep_and_evicts():
    ts, wids = _deep_pool_load(0)
    tracer = PlatformTracer()
    cluster = FaaSCluster(_deep_pool_profiles(), tracer=tracer,
                          **_deep_kwargs("random")())
    depth = 0
    for t, w in zip(ts.tolist(), wids):
        cluster.invoke(t, w)
        depth = max(depth, max(
            (len(s) for nd in cluster.nodes for s in nd.idle.values()),
            default=0,
        ))
    cluster.drain()
    assert depth >= 10, "pools must hold many warm sandboxes at once"
    assert len(tracer.of_kind("sandbox_evicted")) >= 50
    assert len(tracer.of_kind("sandbox_reused")) >= 150


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("sched", sorted(DEEP_SCHEDULERS))
@pytest.mark.parametrize("mode", ["scalar", "bulk", "mixed", "chunked-128"])
def test_deep_pools_and_evictions_match_oracle(seed, sched, mode):
    ts, wids = _deep_pool_load(seed)
    profiles = _deep_pool_profiles()
    # 4 GiB nodes evict and queue; 5 GiB nodes evict and never queue
    for node_memory_mb, queues in ((4096.0, True), (5120.0, False)):
        make_kwargs = _deep_kwargs(sched, node_memory_mb)
        ref = ObjectFaaSCluster(profiles, **make_kwargs())
        submit(ref, ts, wids, "scalar")
        ref_records = ref.drain()
        vec = FaaSCluster(profiles, **make_kwargs())
        outcomes = _bulk_outcomes(vec)
        submit(vec, ts, wids, mode)
        vec_records = vec.drain()
        assert vec_records == ref_records
        assert vec.clock_s == ref.clock_s
        assert [(n.used_memory_mb, n.busy_count, n.idle_count)
                for n in vec.nodes] == [
            (n.used_memory_mb, n.busy_count, n.idle_count)
            for n in ref.nodes
        ]
        assert bool(_queued(ref_records, profiles)) is queues
        if sched == "random":
            assert (vec.scheduler._rng.bit_generator.state
                    == ref.scheduler._rng.bit_generator.state)
            if mode in ("bulk", "mixed"):
                # the slab is bulk-eligible: it commits with its LRU
                # evictions, and falls back only where a request queues
                assert outcomes and outcomes[0] is not queues


def test_events_due_exactly_at_an_arrival_fire_first():
    # cold start 0.15 + 0.0008 * 125 = 0.25 s and 250 ms of service:
    # the first request ends at exactly 0.5, when the second arrives;
    # that one ends at 0.75, and its sandbox expires at exactly 1.75,
    # when the third arrives
    profiles = {"w0": WorkloadProfile("w0", runtime_ms=250.0,
                                      memory_mb=125.0)}
    ts = np.array([0.0, 0.5, 1.75, 2.75])
    wids = ["w0"] * 4
    kwargs = lambda: dict(  # noqa: E731
        n_nodes=1, node_memory_mb=512.0, keepalive=FixedKeepAlive(1.0),
        scheduler=LeastLoadedScheduler(),
    )
    vec = FaaSCluster(profiles, **kwargs())
    ref = ObjectFaaSCluster(profiles, **kwargs())
    for t, w in zip(ts.tolist(), wids):
        vec.invoke(t, w)
        ref.invoke(t, w)
    records = vec.drain()
    assert records == ref.drain()
    # due events fire before the arrival: the completion makes the
    # second request warm, the expiry makes the third cold
    assert [r.cold for r in records] == [True, False, True, False]


# ---------------------------------------------------------------------------
# pre-drawn picks
# ---------------------------------------------------------------------------
def _tight_random_kwargs(seed=4):
    return dict(
        n_nodes=3,
        node_memory_mb=768.0,
        keepalive=FixedKeepAlive(30.0),
        scheduler=RandomScheduler(seed=seed),
    )


def test_fallback_slab_does_not_pick_per_row():
    # requests queue on the tight nodes, so the bulk attempt falls back
    ts, wids = make_load(0, n=400, horizon_s=4.0)
    cluster = FaaSCluster(make_profiles(), **_tight_random_kwargs())
    outcomes = _bulk_outcomes(cluster)
    calls = _count_picks(cluster.scheduler)
    cluster.invoke_many(ts, wids)
    assert outcomes == [False]
    assert calls == [], "the scalar replay must use pre-drawn picks"
    assert cluster.scheduler._rng.bit_generator.state == (
        _sequential_state(4, 3, len(wids))
    )
    ref = ObjectFaaSCluster(make_profiles(), **_tight_random_kwargs())
    for t, w in zip(ts.tolist(), wids):
        ref.invoke(t, w)
    records = ref.drain()
    assert _queued(records, make_profiles())
    assert cluster.drain() == records


def test_ineligible_slab_draws_once_per_row_up_front():
    ts, wids = make_load(1, n=300)
    kwargs = lambda: dict(  # noqa: E731
        n_nodes=3, node_memory_mb=8192.0,
        keepalive=HistogramKeepAlive(default_ttl_s=1.0),
        scheduler=RandomScheduler(seed=2),
    )
    cluster = FaaSCluster(make_profiles(), **kwargs())
    outcomes = _bulk_outcomes(cluster)
    calls = _count_picks(cluster.scheduler)
    cluster.invoke_many(ts[:150], wids[:150])
    cluster.invoke_many(ts[150:], wids[150:])
    assert outcomes == [] and calls == []
    assert cluster.scheduler._rng.bit_generator.state == (
        _sequential_state(2, 3, 300)
    )
    # a direct invoke outside any slab picks row by row again
    cluster.invoke(float(ts[-1]), "w0")
    assert calls == ["w0"]
    ref = ObjectFaaSCluster(make_profiles(), **kwargs())
    for t, w in zip(ts.tolist() + [float(ts[-1])], wids + ["w0"]):
        ref.invoke(t, w)
    assert cluster.drain() == ref.drain()


@pytest.mark.parametrize("bad", ["unknown", "unsorted"])
def test_invalid_slab_leaves_the_rng_at_the_error_row(bad):
    ts, wids = make_load(2, n=60)
    wids = list(wids)
    if bad == "unknown":
        wids[37] = "not-a-workload"
        error = KeyError
    else:
        ts = ts.copy()
        ts[37] = ts[36] - 1.0
        error = ValueError
    kwargs = lambda: dict(  # noqa: E731
        n_nodes=2, node_memory_mb=8192.0,
        keepalive=HistogramKeepAlive(default_ttl_s=1.0),
        scheduler=RandomScheduler(seed=5),
    )
    vec = FaaSCluster(make_profiles(), **kwargs())
    ref = ObjectFaaSCluster(make_profiles(), **kwargs())
    with pytest.raises(error):
        vec.invoke_many(ts, wids)
    with pytest.raises(error):
        for t, w in zip(ts.tolist(), wids):
            ref.invoke(t, w)
    # rows 0-36 picked, row 37 raised before picking
    assert (vec.scheduler._rng.bit_generator.state
            == ref.scheduler._rng.bit_generator.state)
    assert vec.drain() == ref.drain()


class _Boom(Exception):
    pass


@pytest.mark.parametrize("after_fallback", [False, True])
def test_exception_mid_slab_leaves_the_rng_at_the_consumed_picks(
    after_fallback,
):
    ts, wids = make_load(3, n=200, horizon_s=2.0)
    if after_fallback:
        # bulk-eligible, but requests queue: the loop runs after a rewind
        kwargs = _tight_random_kwargs(seed=6)
        ref = ObjectFaaSCluster(make_profiles(), **_tight_random_kwargs(6))
        for t, w in zip(ts[:120].tolist(), wids[:120]):
            ref.invoke(t, w)
        assert _queued(ref.records, make_profiles())
    else:
        kwargs = dict(n_nodes=3, node_memory_mb=8192.0,
                      keepalive=HistogramKeepAlive(default_ttl_s=1.0),
                      scheduler=RandomScheduler(seed=6))
    cluster = FaaSCluster(make_profiles(), **kwargs)
    outcomes = _bulk_outcomes(cluster)
    try_start = cluster._try_start
    fail_at = float(ts[120])

    def failing(node, arrival_s, workload_id):
        if arrival_s == fail_at:
            raise _Boom
        return try_start(node, arrival_s, workload_id)

    cluster._try_start = failing
    with pytest.raises(_Boom):
        cluster.invoke_many(ts, wids)
    assert outcomes == ([False] if after_fallback else [])
    # row 120 picked its node before failing: 121 draws were consumed
    assert cluster.scheduler._rng.bit_generator.state == (
        _sequential_state(6, 3, 121)
    )
    assert cluster._picks is None
    del cluster._try_start
    calls = _count_picks(cluster.scheduler)
    cluster.invoke(float(ts[-1]), "w1")
    assert calls == ["w1"]


# ---------------------------------------------------------------------------
# buffered record rows
# ---------------------------------------------------------------------------
def _row(i):
    return (i % 3, i % 2, float(i), i + 0.5, i + 1.25, i % 2 == 0,
            i % 5 != 0, i % 4)


def test_record_store_buffer_keeps_append_order():
    store = _RecordStore()
    for w in ("b", "a", "c"):
        store.code_for(w)
    expected = []
    for i in range(5):
        store.append(*_row(i))
        expected.append(_row(i))
    ext = [_row(i) for i in range(5, 8)]
    store.extend(
        np.array([r[0] for r in ext], np.int32),
        np.array([r[1] for r in ext], np.int64),
        np.array([r[2] for r in ext]), np.array([r[3] for r in ext]),
        np.array([r[4] for r in ext]),
        cold=np.array([r[5] for r in ext]), ok=True,
        preempt=np.array([r[7] for r in ext], np.int32),
    )
    expected += [r[:6] + (True,) + r[7:] for r in ext]
    for i in range(8, 8 + _FLUSH_ROWS + 3):
        store.append(*_row(i))
        expected.append(_row(i))
    assert len(store.rows) == 3  # one automatic flush happened
    cols = store.columns()
    assert store.rows == [] and store.n == len(expected)
    got = list(zip(
        cols.workload_codes.tolist(), cols.node.tolist(),
        cols.arrival_s.tolist(), cols.start_s.tolist(),
        cols.end_s.tolist(), cols.cold.tolist(), cols.ok.tolist(),
        cols.preemptions.tolist(),
    ))
    assert got == expected
    assert cols.vocabulary == ("b", "a", "c")


def test_scalar_rows_interleave_with_bulk_queueing_and_reads():
    # one 512 MiB node: the bulk slab is sparse enough to commit, the
    # scalar bursts queue and are started from the backlog
    profiles = make_profiles()
    kwargs = lambda: dict(  # noqa: E731
        n_nodes=1, node_memory_mb=512.0, keepalive=NoKeepAlive(),
        scheduler=RandomScheduler(seed=1),
    )
    rng = np.random.default_rng(8)
    sparse = np.arange(20, dtype=np.float64) * 2.0
    sparse_w = [f"w{i % 2}" for i in range(20)]
    burst = np.sort(rng.uniform(50.0, 60.0, _FLUSH_ROWS + 300))
    burst_w = [f"w{int(i)}" for i in rng.integers(2, 6, burst.size)]
    late = np.sort(rng.uniform(5000.0, 5010.0, 40))
    late_w = [f"w{int(i)}" for i in rng.integers(0, 6, late.size)]

    vec = FaaSCluster(profiles, **kwargs())
    outcomes = _bulk_outcomes(vec)
    ref = ObjectFaaSCluster(profiles, **kwargs())
    vec.invoke_many(sparse, sparse_w)
    assert outcomes == [True]
    for t, w in zip(sparse.tolist(), sparse_w):
        ref.invoke(t, w)
    first = vec.records
    assert len(first) == 20
    reads = {}
    for i, (t, w) in enumerate(zip(burst.tolist(), burst_w)):
        vec.invoke(t, w)
        ref.invoke(t, w)
        if i in (3, _FLUSH_ROWS - 1, _FLUSH_ROWS + 1):
            reads[i] = list(vec.records)
            assert vec.records is first
            assert reads[i] == ref.records, i
    assert any(n.pending for n in vec.nodes)
    vec.drain()
    ref.drain()
    vec.invoke_many(late, late_w)
    for t, w in zip(late.tolist(), late_w):
        ref.invoke(t, w)
    records = vec.drain()
    assert records is first
    assert records == ref.drain()
    assert any(r.start_s > r.arrival_s + 0.5 for r in records)
    cols = vec.record_columns()
    assert cols.to_records() == records
    # bulk and scalar rows register their words as they arrive, so the
    # vocabulary is the records' first-appearance order
    assert cols.vocabulary == tuple(dict.fromkeys(
        r.workload_id for r in records
    ))


def test_scalar_first_vocabulary_is_first_appearance_order():
    ts, wids = make_load(6, n=80)
    cluster = FaaSCluster(make_profiles(), n_nodes=2,
                          keepalive=HistogramKeepAlive())
    cluster.invoke_many(ts, wids)
    cols = cluster.drain_columns()
    assert cols.vocabulary == tuple(dict.fromkeys(wids))
    assert cols.workload_ids() == wids


@pytest.mark.parametrize("sched", ["random", "least-loaded"])
@pytest.mark.parametrize("ttl", [0.0, 5.0])
def test_bulk_and_scalar_vocabularies_agree(sched, ttl):
    # four of the six profiles arrive, not in profile order
    ts, wids = make_load(9, n=120, n_workloads=4)
    wids = [f"w{5 - int(w[1:])}" for w in wids]
    assert set(wids) != set(make_profiles())
    assert list(dict.fromkeys(wids)) != sorted(set(wids))
    kwargs = lambda: dict(  # noqa: E731
        n_nodes=3, keepalive=FixedKeepAlive(ttl),
        scheduler=(RandomScheduler(seed=2) if sched == "random"
                   else LeastLoadedScheduler()),
    )
    bulk = FaaSCluster(make_profiles(), **kwargs())
    outcomes = _bulk_outcomes(bulk)
    submit(bulk, ts, wids, "chunked-50")
    scalar = FaaSCluster(make_profiles(), **kwargs())
    submit(scalar, ts, wids, "scalar")
    assert outcomes == [True] * 3
    got, want = bulk.drain_columns(), scalar.drain_columns()
    assert got.vocabulary == want.vocabulary == tuple(dict.fromkeys(wids))
    assert got.workload_codes.tobytes() == want.workload_codes.tobytes()
    back = RecordColumns.from_records(got.to_records())
    assert back.vocabulary == got.vocabulary


# ---------------------------------------------------------------------------
# least-loaded ties
# ---------------------------------------------------------------------------
def test_least_loaded_pick_matches_argmin_ties():
    rng = np.random.default_rng(0)
    sched = LeastLoadedScheduler()
    for _ in range(2000):
        n = int(rng.integers(1, 12))
        busy = rng.integers(0, 4, n).tolist()
        nodes = []
        for i, b in enumerate(busy):
            node = Node(i, 1024.0)
            node.busy_count = b
            nodes.append(node)
        got = sched.pick(nodes, "w")
        assert type(got) is int
        assert got == int(np.argmin(busy))
