"""Columnar replay output: which drain path a replay takes, and that the
columns it carries equal the record lists they replace."""

import numpy as np
import pytest

from repro.cli import main
from repro.loadgen import RequestTrace, RetryPolicy, replay
from repro.loadgen.service import ServiceConfig, run_service
from repro.platform import (
    FaaSCluster,
    FaultProfile,
    FaultyBackend,
    InvocationRecord,
    RecordColumns,
    WorkloadProfile,
    summarize,
)


def make_trace(n=400, horizon=60.0, seed=0, words=("a", "b", "c")):
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.uniform(0, horizon, n))
    wids = np.array([words[i] for i in rng.integers(0, len(words), n)])
    return RequestTrace(ts, wids, np.array([""] * n), np.full(n, 10.0),
                        np.array(["f"] * n))


def make_cluster():
    profiles = {w: WorkloadProfile(w, 10.0 * (i + 1), 128.0)
                for i, w in enumerate("abcd")}
    return FaaSCluster(profiles, n_nodes=2)


def cluster_factory():
    return make_cluster()


class _ListOnly:
    """Forwards invoke/drain only: its type defines no drain_columns, so
    a replay through it drains the plain record list."""

    def __init__(self, inner):
        self.inner = inner

    def invoke(self, timestamp_s, workload_id):
        self.inner.invoke(timestamp_s, workload_id)

    def drain(self):
        return self.inner.drain()


def _list_factory():
    return _ListOnly(make_cluster())


class TestReplayDrainPath:
    def test_plain_cluster_replay_carries_columns(self):
        trace = make_trace()
        cluster = make_cluster()
        result = replay(trace, cluster)
        assert isinstance(result.columns, RecordColumns)
        assert len(result.columns) == trace.n_requests
        # latencies and cold flags read the columns directly
        np.testing.assert_array_equal(result.latencies_ms(),
                                      result.columns.latency_ms)
        assert result.cold_start_fraction() == float(
            result.columns.cold.mean())
        # no InvocationRecord was built on the way to the summary
        summary = summarize(result.columns)
        assert cluster._records_list == []
        assert "records" not in result.__dict__
        assert summary["n_invocations"] == trace.n_requests

    def test_records_materialise_on_demand_and_are_cached(self):
        trace = make_trace()
        result = replay(trace, make_cluster())
        records = result.records
        assert records is result.records
        assert records == result.columns.to_records()
        assert all(isinstance(r, InvocationRecord) for r in records)

    def test_faulty_backend_keeps_drain_and_its_spikes(self):
        trace = make_trace(n=200)
        profile = FaultProfile(latency_spike_rate=0.3,
                               latency_spike_ms=500.0, seed=2)
        inner = make_cluster()
        result = replay(trace, FaultyBackend(inner, profile))
        # drain() ran: the inner cluster materialised its record list
        assert len(inner._records_list) == trace.n_requests
        assert isinstance(result._output, list)
        spiked = result.latencies_ms()
        raw = inner.record_columns().latency_ms
        extra = spiked - raw
        assert np.all(extra >= 0)
        assert np.count_nonzero(np.isclose(extra, 500.0)) > 0.15 * 200
        # the columns view of a list result is the spiked records too
        np.testing.assert_array_equal(result.columns.latency_ms, spiked)

    def test_resilient_path_columns_equal_old_record_list(self, tmp_path):
        trace = make_trace()
        policy = RetryPolicy(max_attempts=2, seed=0)
        result = replay(trace, make_cluster(), retry=policy,
                        checkpoint_path=tmp_path / "a.npz",
                        checkpoint_every=100)
        old = replay(trace, _ListOnly(make_cluster()), retry=policy,
                     checkpoint_path=tmp_path / "b.npz",
                     checkpoint_every=100)
        assert isinstance(result._output, RecordColumns)
        assert isinstance(old._output, list)
        assert result.columns.to_records() == old.records
        assert summarize(result.columns) == summarize(old.records)
        assert result.outcomes.tobytes() == old.outcomes.tobytes()

    def test_chunked_replay_carries_columns(self):
        trace = make_trace()
        whole = replay(trace, make_cluster())
        chunked = replay(trace, make_cluster(), chunk_rows=37)
        assert chunked.columns.to_records() == whole.records

    def test_result_takes_exactly_one_output(self):
        from repro.loadgen import ReplayResult

        with pytest.raises(TypeError, match="exactly one"):
            ReplayResult(n_requests=0, wall_clock_s=0.0)
        cols = RecordColumns.from_records([])
        with pytest.raises(TypeError, match="exactly one"):
            ReplayResult(n_requests=0, wall_clock_s=0.0, records=[],
                         columns=cols)


class TestRecordColumns:
    def _columns(self, words, seed):
        cluster = make_cluster()
        trace = make_trace(n=150, seed=seed, words=words)
        replay(trace, cluster)
        return cluster.record_columns()

    def test_concat_remaps_first_appearance_vocabularies(self):
        parts = [self._columns(("c", "a"), 1), self._columns(("b", "d"), 2),
                 self._columns(("d", "a", "c"), 3)]
        assert parts[0].vocabulary != parts[2].vocabulary
        merged = RecordColumns.concat(parts)
        expected = [r for p in parts for r in p.to_records()]
        assert merged.to_records() == expected
        first_seen = list(dict.fromkeys(r.workload_id for r in expected))
        assert list(merged.vocabulary) == first_seen
        assert summarize(merged) == summarize(expected)

    def test_concat_of_nothing_is_empty(self):
        empty = RecordColumns.concat([])
        assert len(empty) == 0
        assert empty.to_records() == []

    def test_from_records_round_trips(self):
        cols = self._columns(("b", "a", "c"), 4)
        records = cols.to_records()
        back = RecordColumns.from_records(records)
        assert back.vocabulary == cols.vocabulary
        assert back.to_records() == records
        for name in ("workload_codes", "node", "arrival_s", "start_s",
                     "end_s", "cold", "ok", "preemptions"):
            got, want = getattr(back, name), getattr(cols, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_summarize_accepts_columns_or_records(self):
        cols = self._columns(("a", "b"), 5)
        records = cols.to_records()
        assert summarize(cols) == summarize(records)
        with pytest.raises(ValueError, match="no records"):
            summarize(RecordColumns.from_records([]))


class TestServiceColumns:
    def test_shards_reconcile_into_columns(self, tmp_path):
        trace = make_trace(n=300)
        config = ServiceConfig(workers=0, max_shards=4)
        result = run_service(trace, cluster_factory, config=config,
                             service_dir=tmp_path / "cols")
        listed = run_service(trace, _list_factory, config=config,
                             service_dir=tmp_path / "list")
        assert isinstance(result._output, RecordColumns)
        assert isinstance(listed._output, list)
        assert result.columns.to_records() == listed.records
        assert (result.coverage.ledger_sha256
                == listed.coverage.ledger_sha256)
        replayed = result.as_replay_result()
        assert replayed.columns is result.columns

    def test_no_collected_records_reconcile_to_an_empty_list(self, tmp_path):
        config = ServiceConfig(workers=0, collect_records=False)
        result = run_service(make_trace(n=50), cluster_factory,
                             config=config, service_dir=tmp_path)
        assert result.records == []
        assert len(result.columns) == 0


@pytest.fixture(scope="module")
def huawei_spec(tmp_path_factory):
    spec = tmp_path_factory.mktemp("spec") / "spec.json"
    assert main(["shrinkray", "--trace", "huawei", "--max-rps", "3",
                 "--duration", "10", "--seed", "1", "--no-cache",
                 "--out", str(spec)]) == 0
    return spec


class TestCliOutputPinned:
    """Summaries printed when the CLI still built one InvocationRecord
    per request; the columnar path must print them unchanged."""

    def test_service_two_workers(self, huawei_spec, tmp_path, capsys):
        rc = main(["replay", "--spec", str(huawei_spec), "--seed", "1",
                   "--service", "--workers", "2",
                   "--service-dir", str(tmp_path / "svc")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "service replay: 1577 requests over 8 shards" in out
        assert "complete (ledger 017e1da86ac21542)" in out
        assert "request outcomes    : ok=1577" in out
        assert "latency p50/p90/p99 : 4.1 / 182.4 / 408.8 ms" in out

    def test_bulk_replay(self, huawei_spec, capsys):
        rc = main(["replay", "--spec", str(huawei_spec), "--seed", "1",
                   "--scheduler", "random"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "replayed 1577 invocations on 8 nodes" in out
        assert "cold-start fraction : 0.0913" in out
        assert "latency p50/p90/p99 : 4.1 / 23.2 / 389.1 ms" in out
        assert "mean queueing       : 19.72 ms" in out
        assert "node imbalance      : 1.07x" in out

    def test_resilient_replay_with_faults(self, huawei_spec, tmp_path,
                                          capsys):
        rc = main(["replay", "--spec", str(huawei_spec), "--seed", "1",
                   "--retry", "2", "--error-rate", "0.1",
                   "--checkpoint", str(tmp_path / "ck.npz")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "replayed 1555 invocations on 8 nodes" in out
        assert "latency p50/p90/p99 : 4.1 / 16.9 / 339.9 ms" in out
        assert "mean queueing       : 7.02 ms" in out
        assert "request outcomes    : ok=1428, retried=127, error=22" in out
