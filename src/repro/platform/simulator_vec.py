"""Array-native discrete-event FaaS cluster simulator.

This is the production engine behind :class:`FaaSCluster` (the name
``repro.platform.simulator`` re-exports).  It keeps the reference object
engine's *semantics* -- byte-identical records, traces, metrics, and
policy interactions, pinned by ``tests/test_simulator_equivalence.py``
-- while moving every cost that scales with invocation count onto
struct-of-arrays storage:

- **Records** live in growable NumPy columns (workload code, node,
  arrival/start/end, cold, ok).  ``InvocationRecord`` objects are
  materialised lazily and only on demand; :meth:`record_columns` /
  :meth:`drain_columns` expose the columns directly so metrics can be
  NumPy reductions (:func:`repro.platform.metrics.summarize`)
  with no per-record Python at all.
- **Batched admission**: :meth:`invoke_many` takes a whole
  timestamp-ordered slab of requests.  When the configuration provably
  cannot diverge from the scalar path (see :meth:`_bulk_eligible`), the
  cold-start, warm-reuse, expiry, completion, eviction, and memory
  transitions of the entire slab are applied with per-pool (or, under
  memory pressure, per-node) replay plus one lexsort + cumsum per node
  instead of one event-heap cycle per request.  The
  envelope covers constant keep-alive TTLs (``NoKeepAlive`` and
  ``FixedKeepAlive``), lognormal service-time jitter (one pre-drawn
  array per slab, stream-equal to the scalar draws, rewound on
  fallback), batch-capable schedulers, and the default
  :class:`~repro.platform.schedulers.LeastLoadedScheduler`, whose picks
  one exact loop over the whole cluster makes together with the
  warm/cold decisions (:meth:`FaaSCluster._replay_cluster`); whatever
  the slab leaves
  outstanding -- running invocations *and* warm idle sandboxes --
  becomes a :class:`_BulkTail` carry that survives slab boundaries
  (one :meth:`invoke_many` per slab streams a trace memory-bounded), is
  finalised vectorised at drain, or is materialised into ordinary heap
  events if scalar traffic follows.
- **Everything else** -- queued backlogs, the other stateful
  schedulers, autoscaling, fault hooks, tracing -- runs the exact
  control flow of
  the reference engine, on the same :class:`~repro.platform.simcore.Node`
  objects, so the cluster-size-bounded control plane stays a faithful
  oracle target and external policies observe identical state.

Determinism contract: for any input and configuration, this engine and
:class:`repro.platform.simulator.ObjectFaaSCluster` produce bit-equal
record fields, clocks, drops, memory samples, and trace event streams.
The bulk path preserves this down to IEEE float accumulation order
(``used_memory_mb`` is folded with ``cumsum`` in the reference engine's
exact event order) and RNG stream position (batched scheduler draws are
stream-equal to sequential ones; a speculative batch that must fall back
is rewound via the scheduler's ``snapshot``/``restore`` protocol).
See docs/SIMULATOR.md for how to add a policy without breaking this.
"""

from __future__ import annotations

import heapq
import math
import operator
from collections import deque
from dataclasses import dataclass, field
from collections.abc import Callable, Iterator, Sequence
from typing import Any, Protocol, cast

import numpy as np
import numpy.typing as npt

from repro.platform.cpu import (
    CpuModel,
    FairShareCpu,
    FifoCpu,
    ShortestFirstCpu,
)
from repro.platform.keepalive import FixedKeepAlive, NoKeepAlive
from repro.platform.metrics import InvocationRecord
from repro.platform.schedulers import (
    HashAffinityScheduler,
    LeastLoadedScheduler,
    LocalityAwareScheduler,
    PowerOfTwoScheduler,
    RandomScheduler,
)
from repro.platform.simcore import (
    Node,
    WorkloadProfile,
    _Sandbox,
    default_cold_start_s,
)
from repro.telemetry import registry as _telemetry

__all__ = [
    "FaaSCluster",
    "Node",
    "RecordColumns",
    "WorkloadProfile",
    "default_cold_start_s",
    "iter_trace_slabs",
]


# ----------------------------------------------------------------------
# policy protocols (what the engine requires of its pluggable parts)
# ----------------------------------------------------------------------
class Scheduler(Protocol):
    """Cluster scheduler: node index for one arriving request."""

    def pick(self, nodes: Sequence[Node], workload_id: str) -> int: ...


class BatchScheduler(Scheduler, Protocol):
    """Scheduler supporting speculative batched picks (bulk path).

    ``pick_many`` must return one node index per workload id and
    consume exactly the randomness the same number of sequential
    ``pick`` calls would; ``snapshot``/``restore`` let the engine
    rewind a speculative batch that has to fall back to the scalar
    path.  A scheduler whose batched picks are only valid while node
    load stays below a bound (hash affinity's spill threshold) exposes
    the bound as a ``bulk_busy_threshold`` attribute; the engine then
    verifies the picked node's busy count at every arrival against it
    and falls back on any violation.
    """

    def pick_many(
        self, nodes: Sequence[Node], workload_ids: Sequence[str]
    ) -> npt.NDArray[np.int64]: ...

    def snapshot(self) -> Any: ...

    def restore(self, state: Any) -> None: ...


class KeepAlivePolicy(Protocol):
    def ttl_s(self, workload_id: str) -> float: ...

    def observe_idle_gap(self, workload_id: str, gap_s: float) -> None: ...


class Autoscaler(Protocol):
    def decide(self, now_s: float, nodes: Sequence[Node]) -> int: ...


class Tracer(Protocol):
    def emit(
        self, time_s: float, kind: str, node: int, workload_id: str
    ) -> None: ...


class FaultHook(Protocol):
    def crash_fraction(
        self, now_s: float, node_id: int, workload_id: str
    ) -> float | None: ...


#: Schedulers whose single-node pick is a pure ``return 0`` -- no RNG
#: consumed, no mutable state -- so the bulk path may bypass them.
_PURE_SINGLE_NODE_SCHEDULERS = (
    LeastLoadedScheduler,
    PowerOfTwoScheduler,
    LocalityAwareScheduler,
    HashAffinityScheduler,
)

#: Empty-heap sentinel for the CPU replay's cached heap minimum.
_INF = float("inf")


# ----------------------------------------------------------------------
# columnar record storage
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RecordColumns:
    """Struct-of-arrays view of a run's invocation records.

    The columnar equivalent of ``list[InvocationRecord]``: row ``i`` of
    every array is record ``i``, in the same order the reference engine
    appends records.  ``workload_codes`` indexes into ``vocabulary``
    (first-appearance order).  Arrays are defensive copies -- safe to
    keep after the cluster keeps running.
    """

    workload_codes: npt.NDArray[np.int32]
    vocabulary: tuple[str, ...]
    node: npt.NDArray[np.int32]
    arrival_s: npt.NDArray[np.float64]
    start_s: npt.NDArray[np.float64]
    end_s: npt.NDArray[np.float64]
    cold: npt.NDArray[np.bool_]
    ok: npt.NDArray[np.bool_]
    preemptions: npt.NDArray[np.int32]

    def __len__(self) -> int:
        return int(self.arrival_s.size)

    @property
    def latency_ms(self) -> npt.NDArray[np.float64]:
        return (self.end_s - self.arrival_s) * 1e3

    @property
    def queueing_ms(self) -> npt.NDArray[np.float64]:
        return (self.start_s - self.arrival_s) * 1e3

    @property
    def service_ms(self) -> npt.NDArray[np.float64]:
        return (self.end_s - self.start_s) * 1e3

    def workload_ids(self) -> list[str]:
        words = self.vocabulary
        return [words[c] for c in self.workload_codes.tolist()]

    def to_records(self) -> list[InvocationRecord]:
        """Materialise fresh ``InvocationRecord`` objects (one per row)."""
        return _materialize(
            self.vocabulary, self.workload_codes, self.node, self.arrival_s,
            self.start_s, self.end_s, self.cold, self.ok, self.preemptions,
        )

    @classmethod
    def from_records(cls, records: Sequence[InvocationRecord]
                     ) -> RecordColumns:
        """Columns of a record list (the inverse of :meth:`to_records`),
        for backends that only return ``InvocationRecord`` objects."""
        vocab: dict[str, int] = {}
        codes = [vocab.setdefault(r.workload_id, len(vocab))
                 for r in records]
        return cls(
            workload_codes=np.array(codes, np.int32),
            vocabulary=tuple(vocab),
            node=np.array([r.node for r in records], np.int32),
            arrival_s=np.array([r.arrival_s for r in records], np.float64),
            start_s=np.array([r.start_s for r in records], np.float64),
            end_s=np.array([r.end_s for r in records], np.float64),
            cold=np.array([r.cold for r in records], np.bool_),
            ok=np.array([r.ok for r in records], np.bool_),
            preemptions=np.array([r.preemptions for r in records], np.int32),
        )

    @classmethod
    def concat(cls, parts: Sequence[RecordColumns]) -> RecordColumns:
        """Rows of ``parts`` one after another, as one set of columns.

        Each part codes workloads against its own first-appearance
        vocabulary; the result's vocabulary is the first-appearance
        union in part order, and every part's codes are remapped into
        it, so ``concat(parts).to_records()`` equals the concatenated
        ``part.to_records()`` lists.
        """
        if not parts:
            return cls.from_records([])
        vocab: dict[str, int] = {}
        codes: list[npt.NDArray[np.int32]] = []
        for part in parts:
            remap = np.array(
                [vocab.setdefault(w, len(vocab)) for w in part.vocabulary],
                np.int32,
            )
            codes.append(remap[part.workload_codes])
        return cls(
            workload_codes=np.concatenate(codes),
            vocabulary=tuple(vocab),
            node=np.concatenate([p.node for p in parts]),
            arrival_s=np.concatenate([p.arrival_s for p in parts]),
            start_s=np.concatenate([p.start_s for p in parts]),
            end_s=np.concatenate([p.end_s for p in parts]),
            cold=np.concatenate([p.cold for p in parts]),
            ok=np.concatenate([p.ok for p in parts]),
            preemptions=np.concatenate([p.preemptions for p in parts]),
        )


def _materialize(
    words: Sequence[str],
    code: npt.NDArray[np.int32],
    node: npt.NDArray[np.int32],
    arrival: npt.NDArray[np.float64],
    start: npt.NDArray[np.float64],
    end: npt.NDArray[np.float64],
    cold: npt.NDArray[np.bool_],
    ok: npt.NDArray[np.bool_],
    preempt: npt.NDArray[np.int32],
) -> list[InvocationRecord]:
    """``InvocationRecord`` objects for aligned record columns: one
    batched ``tolist()`` per column, then plain Python values per row."""
    return [
        InvocationRecord(words[c], nd, a, s, e, co, o, p)
        for c, nd, a, s, e, co, o, p in zip(
            code.tolist(), node.tolist(), arrival.tolist(), start.tolist(),
            end.tolist(), cold.tolist(), ok.tolist(), preempt.tolist(),
        )
    ]


#: Scalar record rows buffered as tuples before one columnar flush.
_FLUSH_ROWS = 4096
#: One buffered row, field for field the store's columns.
_ROW_DTYPE = np.dtype([
    ("code", np.int32), ("node", np.int32), ("arrival", np.float64),
    ("start", np.float64), ("end", np.float64), ("cold", np.bool_),
    ("ok", np.bool_), ("preempt", np.int32),
])


class _RecordStore:
    """Growable struct-of-arrays record buffer with a string vocabulary.

    Scalar :meth:`append` only pushes a tuple onto ``rows``; the rows
    are flushed into the columns every ``_FLUSH_ROWS`` rows and before
    anything reads or bulk-extends the store (:attr:`n`,
    :meth:`columns`, :meth:`extend`), so row order is append order.
    Workload codes are assigned at append time, which keeps the
    vocabulary in first-appearance order across the two paths.
    """

    __slots__ = (
        "_n", "code", "node", "arrival", "start", "end", "cold", "ok",
        "preempt", "vocab", "words", "rows",
    )

    def __init__(self) -> None:
        cap = 1024
        self._n = 0
        self.rows: list[tuple[int, int, float, float, float, bool, bool,
                              int]] = []
        self.code = np.empty(cap, np.int32)
        self.node = np.empty(cap, np.int32)
        self.arrival = np.empty(cap, np.float64)
        self.start = np.empty(cap, np.float64)
        self.end = np.empty(cap, np.float64)
        self.cold = np.empty(cap, np.bool_)
        self.ok = np.empty(cap, np.bool_)
        self.preempt = np.empty(cap, np.int32)
        self.vocab: dict[str, int] = {}
        self.words: list[str] = []

    def code_for(self, workload_id: str) -> int:
        code = self.vocab.get(workload_id)
        if code is None:
            code = len(self.words)
            self.vocab[workload_id] = code
            self.words.append(workload_id)
        return code

    @property
    def n(self) -> int:
        """Rows stored so far (flushes the scalar row buffer)."""
        if self.rows:
            self.flush()
        return self._n

    def _reserve(self, need: int) -> None:
        cap = self.code.size
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        for name in _ROW_DTYPE.names or ():
            old = getattr(self, name)
            grown = np.empty(cap, old.dtype)
            grown[: self._n] = old[: self._n]
            setattr(self, name, grown)

    def append(
        self,
        code: int,
        node_id: int,
        arrival_s: float,
        start_s: float,
        end_s: float,
        cold: bool,
        ok: bool,
        preempt: int = 0,
    ) -> None:
        rows = self.rows
        rows.append(
            (code, node_id, arrival_s, start_s, end_s, cold, ok, preempt)
        )
        if len(rows) >= _FLUSH_ROWS:
            self.flush()

    def flush(self) -> None:
        """Move the buffered scalar rows into the columns."""
        rows = self.rows
        if not rows:
            return
        n0 = self._n
        n1 = n0 + len(rows)
        self._reserve(n1)
        block = np.fromiter(rows, _ROW_DTYPE, count=n1 - n0)
        for name in _ROW_DTYPE.names or ():
            getattr(self, name)[n0:n1] = block[name]
        self._n = n1
        rows.clear()

    def extend(
        self,
        codes: npt.NDArray[np.int32],
        node_ids: npt.NDArray[np.int64],
        arrival_s: npt.NDArray[np.float64],
        start_s: npt.NDArray[np.float64],
        end_s: npt.NDArray[np.float64],
        *,
        cold: bool | npt.NDArray[np.bool_],
        ok: bool,
        preempt: npt.NDArray[np.int32] | None = None,
    ) -> None:
        n0 = self.n  # flushes buffered scalar rows first
        n1 = n0 + int(codes.size)
        self._reserve(n1)
        self.code[n0:n1] = codes
        self.node[n0:n1] = node_ids
        self.arrival[n0:n1] = arrival_s
        self.start[n0:n1] = start_s
        self.end[n0:n1] = end_s
        self.cold[n0:n1] = cold
        self.ok[n0:n1] = ok
        self.preempt[n0:n1] = 0 if preempt is None else preempt
        self._n = n1

    def columns(self) -> RecordColumns:
        n = self.n
        return RecordColumns(
            workload_codes=self.code[:n].copy(),
            vocabulary=tuple(self.words),
            node=self.node[:n].copy(),
            arrival_s=self.arrival[:n].copy(),
            start_s=self.start[:n].copy(),
            end_s=self.end[:n].copy(),
            cold=self.cold[:n].copy(),
            ok=self.ok[:n].copy(),
            preemptions=self.preempt[:n].copy(),
        )


#: Carried rows that seed a keep-alive replay.  Busy: completion time,
#: end-event heap sequence, pool.  Idle: idled-at, append order, expiry
#: time, pool.
_BusySeed = tuple[
    npt.NDArray[np.float64], npt.NDArray[np.int64], npt.NDArray[np.int64],
]
_IdleSeed = tuple[
    npt.NDArray[np.float64], npt.NDArray[np.int64],
    npt.NDArray[np.float64], npt.NDArray[np.int64],
]
#: What turns a keep-alive replay unit into a whole node: the workload
#: code of every new, carried busy and carried idle row, the memory per
#: workload, then each unit's capacity and slab-start used memory.
_NodeUnits = tuple[
    npt.NDArray[np.int64], npt.NDArray[np.int64], npt.NDArray[np.int64],
    list[float], list[float], list[float],
]
#: The cluster-unit loop's decisions for a keep-alive slab: the reuse
#: source per row, the pools that held idle sandboxes, the evicted
#: sources and the rows that evicted them.
_ClusterReuse = tuple[
    npt.NDArray[np.int64], int, npt.NDArray[np.int64], npt.NDArray[np.int64],
]

#: Longest slab the bulk path commits in one piece; ``invoke_many``
#: splits longer ones into consecutive sub-slabs of this many rows.
_BULK_SLAB_ROWS = 65_536


#: Rows the cluster-unit loop converts to Python lists at a time, which
#: keeps its working set small on a full-size sub-slab.
_LOOP_ROWS = 4096


#: Shared empty columns for carries with no idle component (zero TTL).
_F0 = np.empty(0, np.float64)
_I0 = np.empty(0, np.int64)


class _Fallback(Exception):
    """A slab the bulk path does not model: the caller rewinds and hands
    it to the scalar loop.  ``reason`` labels
    ``platform_bulk_fallbacks_total``."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _count_fallback(reason: str) -> bool:
    """Count one slab handed to the scalar loop (under an active
    registry only); returns the False verdict of a fallen-back slab."""
    reg = _telemetry.active()
    if reg is not None:
        reg.counter(
            "platform_bulk_fallbacks_total",
            "slabs the bulk path handed to the scalar loop, by reason",
            labels={"reason": reason},
        ).inc()
    return False


def _event_order(
    t: npt.NDArray[np.float64],
    phase: npt.NDArray[np.uint8],
    tie: npt.NDArray[np.int64],
) -> npt.NDArray[np.int64]:
    """Exact argsort by ``(t, phase, tie)``.

    Equivalent to ``np.lexsort((tie, phase, t))`` but built to exploit
    the bulk path's event streams: each stream is emitted almost sorted
    by time, so one adaptive stable sort on ``t`` does nearly all the
    work and the remaining ``(phase, tie)`` discipline only matters
    inside runs of exactly equal timestamps, which are resolved with a
    lexsort confined to those rows.
    """
    so = np.argsort(t, kind="stable")
    ts_ = t[so]
    eq = ts_[1:] == ts_[:-1]
    if bool(eq.any()):
        in_run = np.zeros(t.size, np.bool_)
        in_run[:-1] = eq
        in_run[1:] |= eq
        rows = np.nonzero(in_run)[0]
        sub = so[rows]
        # lexsort keeps distinct-time runs in place (t is the major
        # key) and orders each run by (phase, tie)
        so[rows] = sub[np.lexsort((tie[sub], phase[sub], t[sub]))]
    return so


def _group_stable(
    labels: npt.NDArray[np.int64],
) -> npt.NDArray[np.int64]:
    """Stable argsort of small non-negative integer labels.

    Groups events by pool/node while preserving their existing order,
    via one value sort of ``label << shift | position`` -- far cheaper
    than a comparison argsort when the payload order is already
    meaningful.  Falls back to a stable argsort if the packed key
    cannot hold both fields exactly.
    """
    n = int(labels.size)
    if n == 0:
        return np.empty(0, np.int64)
    shift = max(n - 1, 1).bit_length()
    lmax = int(labels[labels.argmax()]) if n else 0
    if lmax.bit_length() + shift > 62:
        return np.argsort(labels, kind="stable")
    if lmax.bit_length() + shift <= 31:
        packed32 = np.sort(
            (labels.astype(np.int32) << shift)
            | np.arange(n, dtype=np.int32)
        )
        return (packed32 & ((1 << shift) - 1)).astype(np.int64)
    packed = np.sort((labels << shift) | np.arange(n, dtype=np.int64))
    return packed & ((1 << shift) - 1)


@dataclass
class _BulkTail:
    """Vectorised carry a bulk slab leaves behind past its last arrival.

    The carry survives slab boundaries (the next
    :meth:`FaaSCluster.invoke_many` folds it into that slab's event
    calendar, so results are invariant to how a stream is sliced) and
    supports both exits: drain applies the precomputed
    ``final_used``/``drain_clock`` directly, while scalar traffic
    materialises it into ordinary heap events and node state so
    interleaving stays byte-identical to the reference engine.

    Still-running invocations: row ``j`` holds the completion time, the
    end-event heap sequence number the reference engine would have
    assigned (exact tie-breaking on materialisation), node, memory, and
    workload code.  Warm idle sandboxes (``ttl > 0`` only; empty
    columns otherwise): rows sorted by (pool, idled-at, append
    sequence) -- pool meaning a ``(node, workload)`` idle stack -- with
    each row's queued expiry time/sequence and its pool's stack
    *creation key*, i.e. when the reference engine's ``node.idle`` dict
    key was (re)inserted, which ``lru_idle`` tie-breaks on.
    ``final_used`` is the per-node ``used_memory_mb`` after every
    outstanding completion and expiry fires, folded in the reference
    engine's exact IEEE accumulation order.
    """

    ttl: float
    words: list[str]
    final_used: npt.NDArray[np.float64]
    drain_clock: float
    ends: npt.NDArray[np.float64]
    seqs: npt.NDArray[np.int64]
    node_idx: npt.NDArray[np.int64]
    mem_mb: npt.NDArray[np.float64]
    codes: npt.NDArray[np.int64]
    idle_from: npt.NDArray[np.float64] = field(default_factory=lambda: _F0)
    idle_xa: npt.NDArray[np.float64] = field(default_factory=lambda: _F0)
    idle_seq: npt.NDArray[np.int64] = field(default_factory=lambda: _I0)
    idle_order: npt.NDArray[np.int64] = field(default_factory=lambda: _I0)
    idle_node: npt.NDArray[np.int64] = field(default_factory=lambda: _I0)
    idle_mem: npt.NDArray[np.float64] = field(default_factory=lambda: _F0)
    idle_codes: npt.NDArray[np.int64] = field(default_factory=lambda: _I0)
    idle_key_time: npt.NDArray[np.float64] = field(
        default_factory=lambda: _F0
    )
    idle_key_tie: npt.NDArray[np.int64] = field(default_factory=lambda: _I0)
    #: Per-node ``cpu_weight`` after all outstanding completions fire
    #: (CPU-model runs only; empty otherwise).  Like ``final_used``, it
    #: is folded in the reference engine's exact IEEE order.
    final_weight: npt.NDArray[np.float64] = field(
        default_factory=lambda: _F0
    )


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class FaaSCluster:
    """Array-native simulated cluster satisfying the replayer's Backend
    protocol, plus the batched extensions (:meth:`invoke_many`,
    :meth:`drain_columns`, :meth:`record_columns`).

    Semantics, parameters, and error behaviour are those of the
    reference :class:`repro.platform.simulator.ObjectFaaSCluster`; see
    its docstring for the realism knobs.  The differential equivalence
    suite pins byte-identity between the two.
    """

    def __init__(
        self,
        profiles: dict[str, WorkloadProfile],
        *,
        n_nodes: int = 4,
        node_memory_mb: float = 8192.0,
        scheduler: Scheduler | None = None,
        keepalive: KeepAlivePolicy | None = None,
        cold_start_model: Callable[
            [WorkloadProfile], float
        ] = default_cold_start_s,
        service_time_cv: float = 0.0,
        cpu: CpuModel | None = None,
        track_memory: bool = False,
        queue_timeout_s: float | None = None,
        autoscaler: Autoscaler | None = None,
        tracer: Tracer | None = None,
        fault_hook: FaultHook | None = None,
        seed: int = 0,
    ) -> None:
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        if node_memory_mb <= 0:
            raise ValueError("node_memory_mb must be positive")
        if not profiles:
            raise ValueError("cluster needs at least one workload profile")
        if service_time_cv < 0:
            raise ValueError("service_time_cv must be non-negative")
        if queue_timeout_s is not None and queue_timeout_s <= 0:
            raise ValueError("queue_timeout_s must be positive")
        biggest = max(p.memory_mb for p in profiles.values())
        if biggest > node_memory_mb:
            raise ValueError(
                f"largest workload ({biggest} MiB) exceeds node memory "
                f"({node_memory_mb} MiB); no placement can ever succeed"
            )
        self.profiles = dict(profiles)
        self.nodes: list[Node] = [
            Node(i, node_memory_mb) for i in range(n_nodes)
        ]
        self.scheduler: Scheduler = scheduler or LeastLoadedScheduler()
        self.keepalive: KeepAlivePolicy = keepalive or FixedKeepAlive(600.0)
        self.cold_start_model = cold_start_model
        self.queue_timeout_s = queue_timeout_s
        self.autoscaler = autoscaler
        self.tracer = tracer
        self.fault_hook = fault_hook
        #: (arrival_s, workload_id) of requests dropped on queue timeout.
        self.dropped: list[tuple[float, str]] = []
        self._node_memory_mb = node_memory_mb
        self._next_node_id = n_nodes
        self.service_time_cv = service_time_cv
        self.cpu = cpu
        self.track_memory = track_memory
        self.memory_samples: list[tuple[float, int, float]] = []
        self._rng = np.random.default_rng(seed)
        self._lognorm: tuple[float, float] | None
        if service_time_cv > 0:
            sigma = float(np.sqrt(np.log1p(service_time_cv**2)))
            self._lognorm = (sigma, -0.5 * sigma * sigma)
        else:
            self._lognorm = None
        self._store = _RecordStore()
        self._records_list: list[InvocationRecord] = []
        self._clock = 0.0
        self._heap: list[tuple[float, int, str, tuple[Any, ...]]] = []
        self._seq_n = 0
        self._sandbox_n = 0
        self._tail: _BulkTail | None = None
        #: Node indices drawn ahead for the slab :meth:`_invoke_loop` is
        #: running (one per row, consumed by :meth:`invoke`); None
        #: outside such a slab, so a direct ``invoke`` calls ``pick``.
        self._picks: Iterator[int] | None = None

    # ------------------------------------------------------------------
    # Backend protocol
    # ------------------------------------------------------------------
    def invoke(self, timestamp_s: float, workload_id: str) -> None:
        if workload_id not in self.profiles:
            raise KeyError(f"no profile for workload {workload_id!r}")
        if timestamp_s < self._clock:
            raise ValueError(
                f"request at t={timestamp_s} is in the simulator's past "
                f"(clock={self._clock}); submit in timestamp order"
            )
        if self._tail is not None:
            self._materialize_tail()
        heap = self._heap
        if heap and heap[0][0] <= timestamp_s:
            self._advance(timestamp_s)
        elif timestamp_s > self._clock:
            self._clock = timestamp_s
        if self.autoscaler is not None:
            self._apply_autoscaling(timestamp_s)
        picks = self._picks
        node = self.nodes[
            next(picks) if picks is not None
            else self.scheduler.pick(self.nodes, workload_id)
        ]
        if not self._try_start(node, timestamp_s, workload_id):
            if self.tracer is not None:
                self._trace("request_queued", node.node_id, workload_id)
            node.pending.append((timestamp_s, workload_id))

    def invoke_many(
        self,
        timestamps_s: npt.ArrayLike,
        workload_ids: Sequence[str],
    ) -> None:
        """Submit a timestamp-ordered batch of requests.

        Semantically identical to calling :meth:`invoke` per element;
        when the configuration is provably safe the whole slab is
        applied vectorised, otherwise this falls back to the scalar
        loop (including for invalid input, so errors surface exactly
        where the per-element loop would raise them, with the same
        partial state).
        """
        ts = np.asarray(timestamps_s, dtype=np.float64)
        if ts.ndim != 1:
            raise ValueError("timestamps_s must be one-dimensional")
        n = int(ts.size)
        if n != len(workload_ids):
            raise ValueError(
                f"got {n} timestamps but {len(workload_ids)} workload ids"
            )
        if n == 0:
            return
        # Long slabs commit as consecutive sub-slabs through the bulk
        # carry (results are invariant to slicing), which bounds the
        # bulk path's working set; the first sub-slab that does not
        # commit hands the whole remainder to the scalar loop.
        lo = 0
        while lo < n and self._bulk_eligible():
            hi = min(lo + _BULK_SLAB_ROWS, n)
            if not self._bulk_invoke(ts[lo:hi], workload_ids[lo:hi]):
                break
            lo = hi
        if lo < n:
            self._invoke_loop(ts[lo:], workload_ids[lo:])

    def drain(self) -> list[InvocationRecord]:
        self._drain_events()
        self._drain_telemetry()
        return self.records

    def drain_columns(self) -> RecordColumns:
        """Array-native :meth:`drain`: finish all outstanding work and
        return the records as columns, materialising no record objects."""
        self._drain_events()
        self._drain_telemetry()
        return self._store.columns()

    # ------------------------------------------------------------------
    # record access
    # ------------------------------------------------------------------
    @property
    def records(self) -> list[InvocationRecord]:
        """The run's records so far, as one stable list object.

        Rows are materialised from the columns lazily; repeated access
        returns the *same* list (decorators rely on the identity), with
        any new rows appended.
        """
        store = self._store
        out = self._records_list
        k, n = len(out), store.n
        if k < n:
            out.extend(_materialize(
                store.words, store.code[k:n], store.node[k:n],
                store.arrival[k:n], store.start[k:n], store.end[k:n],
                store.cold[k:n], store.ok[k:n], store.preempt[k:n],
            ))
        return out

    def record_columns(self) -> RecordColumns:
        """Columnar snapshot of the records appended so far."""
        return self._store.columns()

    @property
    def clock_s(self) -> float:
        return self._clock

    # ------------------------------------------------------------------
    # bulk fast path
    # ------------------------------------------------------------------
    def _bulk_ttl(self) -> float | None:
        """The keep-alive TTL if it is provably workload-independent,
        else None.  Exact types only: a subclass may override behaviour
        the bulk path cannot see."""
        ka = self.keepalive
        if type(ka) is NoKeepAlive:
            return 0.0
        if type(ka) is FixedKeepAlive:
            return float(ka.constant_ttl_s)
        return None

    def _bulk_eligible(self) -> bool:
        """Whether a batch can be applied vectorised without any chance
        of diverging from the scalar path.

        Per-feature capability checks (docs/SIMULATOR.md tabulates the
        full envelope): the keep-alive TTL must be a constant
        (``NoKeepAlive`` / ``FixedKeepAlive``; a histogram policy learns
        from reuse order mid-slab), no policy callback may observe
        intermediate state (autoscaler / tracer / fault hook), cold
        starts are pure per-profile values, no memory sampling, and no
        *scalar* events are in flight -- an outstanding bulk carry with
        the same TTL is fine, it is part of the vectorised state.
        Service-time jitter is allowed: the slab pre-draws one lognormal
        array stream-equal to the scalar per-request draws and rewinds
        the RNG on fallback.  A :class:`~repro.platform.cpu.CpuModel` is
        allowed with zero TTL only: the teardown commit replays each
        node's run queue sequentially (the dilation feedback loop has no
        closed form), but warm reuse under contention couples pools
        through busy counts, which the keep-alive commit's independent
        pool replay cannot see.

        Schedulers: a single node with a pure single-node pick, a
        batch-capable scheduler (speculative ``pick_many`` plus
        ``snapshot``/``restore``), or the exact type
        :class:`LeastLoadedScheduler` on several nodes with no CPU
        model.  Its picks depend on busy counts, which depend only on
        completion times, so :meth:`_replay_cluster` makes them in one
        exact loop together with the warm/cold decisions; a CPU model
        would make completion times depend on the run queue too.
        """
        ttl = self._bulk_ttl()
        if ttl is None:
            return False
        if (
            self.autoscaler is not None
            or self.tracer is not None
            or self.fault_hook is not None
        ):
            return False
        if self.track_memory:
            return False
        if self.cpu is not None and ttl > 0:
            return False
        if self.cold_start_model is not default_cold_start_s:
            return False
        if self._heap:
            return False
        tail = self._tail
        if tail is not None and tail.ttl != ttl:
            return False
        for node in self.nodes:
            if node.pending or node.idle:
                return False
            if tail is None and node.busy_count:
                return False
        sched_t = type(self.scheduler)
        if (
            len(self.nodes) == 1
            and sched_t in _PURE_SINGLE_NODE_SCHEDULERS
        ):
            return True
        if sched_t is LeastLoadedScheduler:
            return self.cpu is None
        return (
            getattr(sched_t, "pick_many", None) is not None
            and getattr(sched_t, "snapshot", None) is not None
            and getattr(sched_t, "restore", None) is not None
        )

    def _bulk_invoke(
        self,
        ts: npt.NDArray[np.float64],
        workload_ids: Sequence[str],
    ) -> bool:
        """Apply one eligible slab vectorised; False = caller must fall
        back to the scalar loop (no state was mutated and every
        speculatively consumed RNG stream was rewound)."""
        n = int(ts.size)
        ttl = self._bulk_ttl()
        if ttl is None:  # pragma: no cover - guarded by _bulk_eligible
            return False
        old = self._tail
        words = list(self.profiles)
        if old is not None and old.words != words:
            return _count_fallback("input")
        index = {w: i for i, w in enumerate(words)}
        try:
            codes = np.fromiter(
                map(index.__getitem__, workload_ids), np.int64, count=n
            )
        except KeyError:  # unknown workload: let the loop raise
            return _count_fallback("input")
        if float(ts[0]) < self._clock:
            return _count_fallback("input")
        if n > 1 and bool(np.any(np.diff(ts) < 0)):
            return _count_fallback("input")

        profs = [self.profiles[w] for w in words]
        mem = np.array([p.memory_mb for p in profs], np.float64)
        svc = np.array([p.runtime_ms for p in profs], np.float64) / 1e3
        coldcost = np.array(
            [self.cold_start_model(p) for p in profs], np.float64
        )
        cstart = ts + coldcost[codes]

        sched = self.scheduler
        # placement: a pure single-node pick, least-loaded picks made by
        # the cluster-unit loop below, or speculative batched picks
        pure = (
            len(self.nodes) == 1
            and type(sched) in _PURE_SINGLE_NODE_SCHEDULERS
        )
        cluster = not pure and type(sched) is LeastLoadedScheduler
        speculative = not (pure or cluster)
        saved: Any = None
        busy_cap: int | None = None
        if speculative:
            bsched = cast(BatchScheduler, sched)
            saved = bsched.snapshot()
            node_idx = np.asarray(
                bsched.pick_many(self.nodes, workload_ids), dtype=np.int64
            )
            cap = getattr(sched, "bulk_busy_threshold", None)
            busy_cap = int(cap) if cap is not None else None
        else:
            node_idx = np.zeros(n, dtype=np.int64)

        # One sized draw consumes the jitter stream exactly like n
        # scalar draws (pinned by the property suite); saving the
        # bit-generator state first makes fallback a perfect rewind.
        svc_req = svc[codes]
        rng_state: Any = None
        if self._lognorm is not None:
            sigma, mu = self._lognorm
            rng_state = self._rng.bit_generator.state
            svc_req = svc_req * self._rng.lognormal(mu, sigma, n)

        reuse: _ClusterReuse | None = None
        evictions = 0
        try:
            if cluster:
                node_idx, reuse = self._replay_cluster(
                    ts, codes, svc_req, cstart, ttl, mem.tolist(), old,
                )
            if ttl > 0:
                evictions = self._bulk_commit_keepalive(
                    ts, codes, node_idx, mem, cstart, svc_req, ttl,
                    busy_cap, words, old, reuse,
                )
            else:
                self._bulk_commit_teardown(
                    ts, codes, node_idx, mem, cstart, svc_req,
                    busy_cap, words, old,
                )
        except _Fallback as why:
            if speculative:
                cast(BatchScheduler, sched).restore(saved)
            if rng_state is not None:
                self._rng.bit_generator.state = rng_state
            return _count_fallback(why.reason)
        reg = _telemetry.active()
        if reg is not None:
            reg.counter("platform_bulk_rows_total",
                        "rows committed by the bulk path").inc(n)
            reg.counter("platform_bulk_evictions_total",
                        "LRU evictions modelled by the bulk path"
                        ).inc(evictions)
        return True

    def _store_codes(
        self, codes: npt.NDArray[np.int64], words: list[str]
    ) -> npt.NDArray[np.int32]:
        """The record store's workload code for every slab row.  Only
        the words that arrive are registered, in first-arrival order, so
        the vocabulary stays in first-appearance order across the two
        paths."""
        n = int(codes.size)
        first = np.full(len(words), n, np.int64)
        np.minimum.at(first, codes, np.arange(n, dtype=np.int64))
        present = np.flatnonzero(first < n)
        present = present[np.argsort(first[present])]
        code_for = self._store.code_for
        remap = np.zeros(len(words), np.int32)
        remap[present] = np.fromiter(
            (code_for(words[c]) for c in present.tolist()),
            np.int32, count=present.size,
        )
        return remap[codes]

    def _node_ids(self) -> npt.NDArray[np.int64]:
        return np.fromiter(
            (nd.node_id for nd in self.nodes), np.int64,
            count=len(self.nodes),
        )

    def _bulk_commit_teardown(
        self,
        ts: npt.NDArray[np.float64],
        codes: npt.NDArray[np.int64],
        node_idx: npt.NDArray[np.int64],
        mem: npt.NDArray[np.float64],
        start: npt.NDArray[np.float64],
        svc_req: npt.NDArray[np.float64],
        busy_cap: int | None,
        words: list[str],
        old: _BulkTail | None,
    ) -> None:
        """Zero-TTL slab: every start is cold, memory frees at
        completion, no expiry events exist -- so the whole slab is one
        event calendar per node (+mem at arrival, -mem at completion,
        completions carried from earlier chunks included), cumsum-folded
        in the reference engine's exact order.  Under a CPU model the
        completion times first come out of a sequential per-node
        run-queue replay (dilation feeds back into later dilations);
        everything downstream of the ends stays vectorised.  Raises
        :class:`_Fallback` if an admission would queue or a hash pick
        would spill."""
        n = int(ts.size)
        n_nodes = len(self.nodes)
        last_t = float(ts[-1])
        seq0 = self._seq_n
        req_mem = mem[codes]
        if old is not None:
            c_end, c_seq = old.ends, old.seqs
            c_node, c_mem, c_codes = old.node_idx, old.mem_mb, old.codes
        else:
            c_end, c_mem = _F0, _F0
            c_seq, c_node, c_codes = _I0, _I0, _I0
        preempt: npt.NDArray[np.int32] | None = None
        new_weight: npt.NDArray[np.float64] | None = None
        final_weight: npt.NDArray[np.float64] | None = None
        if self.cpu is not None:
            end, preempt, new_weight, final_weight = (
                self._cpu_teardown_replay(
                    ts, codes, node_idx, svc_req, start, last_t, seq0,
                    c_end, c_seq, c_node, c_codes, words,
                )
            )
        else:
            end = start + svc_req

        # Sorting by (node, time, completion-before-arrival, heap seq)
        # reproduces the reference engine's event order exactly: events
        # with ``when <= t`` pop before the arrival at ``t``, ties break
        # on push sequence.  Carried completions keep their absolute
        # sequence numbers (all below seq0), new events use seq0+i as an
        # order-preserving proxy.
        sub = np.arange(n, dtype=np.int64)
        new_seq = seq0 + sub
        ev_time = np.concatenate((ts, end, c_end))
        ev_phase = np.concatenate(
            (np.ones(n, np.uint8), np.zeros(n + c_end.size, np.uint8))
        )
        ev_tie = np.concatenate((new_seq, new_seq, c_seq))
        ev_node = np.concatenate((node_idx, node_idx, c_node))
        ev_delta = np.concatenate((req_mem, -req_mem, -c_mem))
        order = np.lexsort((ev_tie, ev_phase, ev_time, ev_node))
        s_time = ev_time[order]
        s_alloc = ev_phase[order] == 1
        s_delta = ev_delta[order]
        counts = np.bincount(ev_node, minlength=n_nodes)
        bounds = np.zeros(n_nodes + 1, np.int64)
        np.cumsum(counts, out=bounds[1:])
        new_used = np.empty(n_nodes, np.float64)
        final_used = np.empty(n_nodes, np.float64)
        busy_after = np.zeros(n_nodes, np.int64)
        for b, node in enumerate(self.nodes):
            lo, hi = int(bounds[b]), int(bounds[b + 1])
            # cumsum folds the deltas sequentially, so the running
            # usage is bitwise the reference engine's +=/-= chain
            block = np.empty(hi - lo + 1, np.float64)
            block[0] = node.used_memory_mb
            block[1:] = s_delta[lo:hi]
            usage = np.cumsum(block)
            alloc_here = s_alloc[lo:hi]
            admitted = usage[1:][alloc_here]
            if bool(np.any(admitted > node.memory_capacity_mb)):
                # at least one admission would queue: scalar path owns
                # the backlog semantics
                raise _Fallback("teardown")
            if busy_cap is not None:
                busy = np.empty(hi - lo + 1, np.int64)
                busy[0] = node.busy_count
                busy[1:] = np.where(alloc_here, 1, -1)
                trail = np.cumsum(busy)
                if bool(
                    np.any(trail[1:][alloc_here] - 1 >= busy_cap)
                ):
                    # a pick saw a full node: the scalar scheduler would
                    # have spilled, so the speculative batch is invalid
                    raise _Fallback("spill")
            cut = int(np.searchsorted(s_time[lo:hi], last_t, side="right"))
            new_used[b] = usage[cut]
            final_used[b] = usage[-1]
            busy_after[b] = (hi - lo) - cut

        # -- commit ----------------------------------------------------
        self._seq_n += n
        self._sandbox_n += n
        self._clock = last_t
        self._store.extend(
            self._store_codes(codes, words), self._node_ids()[node_idx],
            ts, start, end, cold=True, ok=True, preempt=preempt,
        )
        for b, node in enumerate(self.nodes):
            node.busy_count = int(busy_after[b])
            node.used_memory_mb = float(new_used[b])
            if new_weight is not None:
                node.cpu_weight = float(new_weight[b])
        out_new = end > last_t
        out_old = c_end > last_t
        t_ends = np.concatenate((end[out_new], c_end[out_old]))
        if t_ends.size:
            self._tail = _BulkTail(
                ttl=0.0,
                words=words,
                final_used=final_used,
                drain_clock=float(t_ends.max()),
                ends=t_ends,
                seqs=np.concatenate((new_seq[out_new], c_seq[out_old])),
                node_idx=np.concatenate(
                    (node_idx[out_new], c_node[out_old])
                ),
                mem_mb=np.concatenate(
                    (req_mem[out_new], c_mem[out_old])
                ),
                codes=np.concatenate((codes[out_new], c_codes[out_old])),
                final_weight=(
                    final_weight if final_weight is not None else _F0
                ),
            )
        else:
            # no carry survives: every completion fired in-slab, so the
            # committed new_weight already equals the final fold
            self._tail = None

    def _cpu_teardown_replay(
        self,
        ts: npt.NDArray[np.float64],
        codes: npt.NDArray[np.int64],
        node_idx: npt.NDArray[np.int64],
        svc_req: npt.NDArray[np.float64],
        start: npt.NDArray[np.float64],
        last_t: float,
        seq0: int,
        c_end: npt.NDArray[np.float64],
        c_seq: npt.NDArray[np.int64],
        c_node: npt.NDArray[np.int64],
        c_codes: npt.NDArray[np.int64],
        words: list[str],
    ) -> tuple[
        npt.NDArray[np.float64],
        npt.NDArray[np.int32],
        npt.NDArray[np.float64],
        npt.NDArray[np.float64],
    ]:
        """Sequential per-node run-queue replay for a zero-TTL slab
        under a CPU model.

        Completion times feed back into later dilations (each end
        changes the busy count the next arrival sees), so no closed
        form exists; instead each node replays its own arrivals against
        a ``(end, seq, weight)`` heap -- the exact per-node subsequence
        of the reference engine's global event order, so busy counts,
        weight folds, and tie-breaking are bit-identical.  Nodes only
        couple through memory, which the caller still checks
        vectorised.  Returns ``(end, preemptions, post-slab weight,
        final weight)``; the weight folds replicate the scalar
        ``+=``/``-=`` chains in IEEE order.

        The built-in policies are inlined (dispatched on exact type, so
        a subclass overriding ``contend`` still takes the generic call)
        -- each inlined expression keeps the operand order of its
        :mod:`repro.platform.cpu` counterpart, which is what makes the
        floats bit-identical; unknown policies pay one ``contend`` call
        per arrival.
        """
        cpu = self.cpu
        assert cpu is not None
        policy = cpu.policy
        contend = policy.contend
        cores = cpu.cores
        quantum = cpu.quantum_s
        n = int(ts.size)
        n_nodes = len(self.nodes)
        new_weight = np.empty(n_nodes, np.float64)
        final_weight = np.empty(n_nodes, np.float64)
        order = _group_stable(node_idx)
        counts = np.bincount(node_idx, minlength=n_nodes)
        bounds = np.zeros(n_nodes + 1, np.int64)
        np.cumsum(counts, out=bounds[1:])
        bounds_l = bounds.tolist()
        # gather once so each node's inner loop walks flat lists in
        # lockstep instead of double-indirecting through the permutation
        ts_g = ts[order].tolist()
        svc_g = svc_req[order].tolist()
        start_g = start[order].tolist()
        end_g = [0.0] * n
        pre_g = [0] * n
        heappush, heappop = heapq.heappush, heapq.heappop
        ceil = math.ceil
        kind = type(policy)
        q_over_c = quantum / cores
        if kind is FifoCpu or kind is ShortestFirstCpu:
            # both weigh every workload at exactly 1.0, so the scalar
            # ``+=``/``-=`` chains only ever step an integer-valued
            # float by 1.0 -- exact IEEE ops whose result is the net
            # count, reproducible without touching a float per event.
            # Batch pops only decrement that count, so the pop order
            # among tied ends is unobservable and the heap shrinks to
            # bare end floats -- no ``(end, seq)`` tie-break needed.
            carried2: list[list[float]] = [[] for _ in range(n_nodes)]
            for ce, cb in zip(c_end.tolist(), c_node.tolist()):
                carried2[cb].append(ce)
            is_fifo = kind is FifoCpu
            # ceil(service / quantum) vectorised up front: np.ceil on
            # the same float64 quotient returns the same integer value
            # math.ceil would, so the per-event formula keeps its bits
            sl_g = np.ceil(
                svc_req[order] / quantum
            ).astype(np.int64).tolist()
            for b, node in enumerate(self.nodes):
                heap2 = carried2[b]
                nc0 = len(heap2)
                heapq.heapify(heap2)
                lo, hi = bounds_l[b], bounds_l[b + 1]
                rows2 = zip(ts_g[lo:hi], svc_g[lo:hi], start_g[lo:hi],
                            sl_g[lo:hi], range(lo, hi))
                depth = nc0
                # cache the heap minimum in a local float so the hot
                # exit test is one compare, not a subscript
                nxt = heap2[0] if heap2 else _INF
                if is_fifo:
                    for t, s, st, sl, i in rows2:
                        while nxt <= t:
                            heappop(heap2)
                            depth -= 1
                            nxt = heap2[0] if heap2 else _INF
                        excess = depth + 1 - cores
                        if excess <= 0:
                            e = st + s
                        else:
                            e = st + (s + (sl * excess) * q_over_c)
                            pre_g[i] = sl - 1
                        end_g[i] = e
                        depth += 1
                        heappush(heap2, e)
                        nxt = heap2[0]
                else:
                    for t, s, st, sl, i in rows2:
                        while nxt <= t:
                            heappop(heap2)
                            depth -= 1
                            nxt = heap2[0] if heap2 else _INF
                        concurrent = depth + 1
                        if concurrent <= cores or s <= quantum:
                            e = st + s
                        else:
                            e = st + s * (concurrent / cores)
                            pre_g[i] = sl - 1
                        end_g[i] = e
                        depth += 1
                        heappush(heap2, e)
                        nxt = heap2[0]
                while heap2 and heap2[0] <= last_t:
                    heappop(heap2)
                w0 = node.cpu_weight
                new_weight[b] = w0 + (len(heap2) - nc0)
                final_weight[b] = w0 - nc0
        else:
            wt = [policy.weight(w) for w in words]
            w_g = np.asarray(wt, np.float64)[codes[order]].tolist()
            seq_g = (seq0 + order).tolist()
            carried: list[list[tuple[float, int, float]]] = [
                [] for _ in range(n_nodes)
            ]
            for ce, cq, cb, cc in zip(
                c_end.tolist(), c_seq.tolist(), c_node.tolist(),
                c_codes.tolist(),
            ):
                carried[cb].append((ce, cq, wt[cc]))
            for b, node in enumerate(self.nodes):
                heap = carried[b]
                heapq.heapify(heap)
                wtot = node.cpu_weight
                lo, hi = bounds_l[b], bounds_l[b + 1]
                rows = zip(ts_g[lo:hi], w_g[lo:hi], svc_g[lo:hi],
                           start_g[lo:hi], seq_g[lo:hi], range(lo, hi))
                if kind is FairShareCpu:
                    for t, w, s, st, q, i in rows:
                        while heap and heap[0][0] <= t:
                            wtot -= heappop(heap)[2]
                        if len(heap) + 1 <= cores:
                            e = st + s
                        else:
                            share = cores * w / (wtot + w)
                            if share >= 1.0:
                                e = st + s
                            else:
                                d = s / share
                                e = st + d
                                pre_g[i] = ceil(d / quantum) - 1
                        end_g[i] = e
                        wtot += w
                        heappush(heap, (e, q, w))
                else:
                    for t, w, s, st, q, i in rows:
                        while heap and heap[0][0] <= t:
                            wtot -= heappop(heap)[2]
                        dilated, pre = contend(
                            s,
                            cores=cores,
                            quantum_s=quantum,
                            concurrent=len(heap) + 1,
                            weight=w,
                            total_weight=wtot + w,
                        )
                        e = st + dilated
                        end_g[i] = e
                        pre_g[i] = pre
                        wtot += w
                        heappush(heap, (e, q, w))
                while heap and heap[0][0] <= last_t:
                    wtot -= heappop(heap)[2]
                new_weight[b] = wtot
                while heap:
                    wtot -= heappop(heap)[2]
                final_weight[b] = wtot
        end = np.empty(n, np.float64)
        preempt = np.empty(n, np.int32)
        end[order] = end_g
        preempt[order] = pre_g
        return end, preempt, new_weight, final_weight

    def _bulk_commit_keepalive(
        self,
        ts: npt.NDArray[np.float64],
        codes: npt.NDArray[np.int64],
        node_idx: npt.NDArray[np.int64],
        mem: npt.NDArray[np.float64],
        cstart: npt.NDArray[np.float64],
        svc_req: npt.NDArray[np.float64],
        ttl: float,
        busy_cap: int | None,
        words: list[str],
        old: _BulkTail | None,
        reuse: _ClusterReuse | None,
    ) -> int:
        """Fixed positive-TTL slab: the number of LRU evictions it
        modelled; raises :class:`_Fallback` if the slab must fall back
        to the scalar loop.

        Warm-versus-cold is first decided by replaying each ``(node,
        workload)`` idle pool in isolation -- placement is fixed up
        front, so pools only couple through their node's memory.  The
        per-node memory calendar then shows where that holds: a node
        whose calendar never exceeds its capacity evicts nothing, so its
        pool replays are exact.  Every node whose calendar overflows is
        replayed once more as one unit, its pools coupled through LRU
        eviction (:meth:`_replay_exact`), and the calendar is rebuilt
        with those evictions in it.  Sequence numbers, the memory
        trajectory, and the carry are reconstructed in the reference
        engine's exact event order: every arrival pushes an end event
        and every in-slab completion pushes an expiry event, so heap
        sequence numbers interleave and are assigned by a merged sort
        rather than arithmetic.

        Under least-loaded placement, ``reuse`` carries the cluster-unit
        loop's reuse sources, pool count and evictions, which replace
        the pool replay; that loop already modelled every node's memory,
        so no node unit is replayed.
        """
        n = int(ts.size)
        n_nodes = len(self.nodes)
        n_words = len(words)
        last_t = float(ts[-1])
        seq0 = self._seq_n
        req_mem = mem[codes]
        gid = node_idx * n_words + codes

        if old is not None:
            ob_end, ob_seq = old.ends, old.seqs
            ob_node, ob_mem, ob_code = old.node_idx, old.mem_mb, old.codes
            oi_from, oi_xa = old.idle_from, old.idle_xa
            oi_seq, oi_order = old.idle_seq, old.idle_order
            oi_node, oi_mem = old.idle_node, old.idle_mem
            oi_code = old.idle_codes
            oi_key_t, oi_key_q = old.idle_key_time, old.idle_key_tie
        else:
            ob_end, ob_mem = _F0, _F0
            ob_seq, ob_node, ob_code = _I0, _I0, _I0
            oi_from, oi_xa, oi_mem, oi_key_t = _F0, _F0, _F0, _F0
            oi_seq, oi_order, oi_node, oi_code, oi_key_q = (
                _I0, _I0, _I0, _I0, _I0
            )
        nb = int(ob_end.size)
        nc = int(oi_from.size)

        # ---- pool decision replay (pure: no engine state touched) ----
        # Sources are numbered: new invocation k -> k, carried busy row
        # r -> n + r, carried idle row r -> n + nb + r.
        b_gid = ob_node * n_words + ob_code
        i_gid = oi_node * n_words + oi_code
        busy = (ob_end, ob_seq, b_gid)
        idle = (oi_from, oi_order, oi_xa, i_gid)
        # evicted source, evicting row: none until nodes are coupled,
        # unless the cluster-unit loop modelled memory
        if reuse is None:
            reuse_src_arr, n_pools = self._pool_reuses(
                ts, gid, svc_req, cstart, ttl, seq0, busy, idle,
            )
            ev_src, ev_row = _I0, _I0
        else:
            reuse_src_arr, n_pools, ev_src, ev_row = reuse
        sub = np.arange(n, dtype=np.int64)
        for coupled in (False, True):
            cold_arr = reuse_src_arr < 0
            reused_arr = np.zeros(n + nb + nc, np.bool_)
            reused_arr[reuse_src_arr[~cold_arr]] = True
            start_vec = np.where(cold_arr, cstart, ts)
            end_new = start_vec + svc_req

            # completions this slab can observe: new + carried busy
            if nb:
                comp_end = np.concatenate((end_new, ob_end))
                comp_tie = np.concatenate((seq0 + sub, ob_seq))
                comp_node = np.concatenate((node_idx, ob_node))
                comp_gid = np.concatenate((gid, b_gid))
                comp_mem = np.concatenate((req_mem, ob_mem))
                comp_code = np.concatenate((codes, ob_code))
                comp_src = np.concatenate(
                    (sub, n + np.arange(nb, dtype=np.int64))
                )
            else:
                comp_end, comp_tie = end_new, seq0 + sub
                comp_node, comp_gid = node_idx, gid
                comp_mem, comp_code, comp_src = req_mem, codes, sub
            processed = comp_end <= last_t
            proc_idx = np.nonzero(processed)[0]
            np_proc = int(proc_idx.size)

            # Heap sequence numbers: every arrival pushes its end event
            # and every in-slab-processed completion pushes an expiry
            # event, in merged (time, completion-before-arrival, push
            # order) order.  An eviction cancels an expiry, it never
            # renumbers one.
            proc_end = comp_end[proc_idx]
            m_time = np.concatenate((ts, proc_end))
            m_phase = np.concatenate(
                (np.ones(n, np.uint8), np.zeros(np_proc, np.uint8))
            )
            m_tie = np.concatenate((seq0 + sub, comp_tie[proc_idx]))
            mo = _event_order(m_time, m_phase, m_tie)
            seq_assign = np.empty(n + np_proc, np.int64)
            seq_assign[mo] = seq0 + np.arange(n + np_proc, dtype=np.int64)
            end_seq_new = seq_assign[:n]
            exp_seq_proc = seq_assign[n:]
            comp_end_seq = (
                np.concatenate((end_seq_new, ob_seq)) if nb else end_seq_new
            )

            # idle-pool lifecycle entries: processed completions + carry
            if nc:
                p_from = np.concatenate((proc_end, oi_from))
                p_xa = np.concatenate((proc_end + ttl, oi_xa))
                p_exp = np.concatenate((exp_seq_proc, oi_seq))
                p_node = np.concatenate((comp_node[proc_idx], oi_node))
                p_gid = np.concatenate((comp_gid[proc_idx], i_gid))
                p_mem = np.concatenate((comp_mem[proc_idx], oi_mem))
                p_code = np.concatenate((comp_code[proc_idx], oi_code))
                p_order = np.concatenate(
                    (comp_end_seq[proc_idx], oi_order)
                )
                p_src = np.concatenate(
                    (
                        comp_src[proc_idx],
                        n + nb + np.arange(nc, dtype=np.int64),
                    )
                )
                p_key_t = np.concatenate(
                    (np.zeros(np_proc, np.float64), oi_key_t)
                )
                p_key_q = np.concatenate(
                    (np.full(np_proc, -1, np.int64), oi_key_q)
                )
            else:
                p_from, p_xa = proc_end, proc_end + ttl
                p_exp = exp_seq_proc
                p_node = comp_node[proc_idx]
                p_gid = comp_gid[proc_idx]
                p_mem = comp_mem[proc_idx]
                p_code = comp_code[proc_idx]
                p_order = comp_end_seq[proc_idx]
                p_src = comp_src[proc_idx]
                p_key_t = np.zeros(np_proc, np.float64)
                p_key_q = np.full(np_proc, -1, np.int64)
            # an evicted entry is neither reused, fired, nor kept
            p_gone = reused_arr[p_src]
            ev_prow = _I0
            if ev_src.size:
                prow_of = np.empty(n + nb + nc, np.int64)
                prow_of[p_src] = np.arange(p_src.size, dtype=np.int64)
                ev_prow = prow_of[ev_src]
                p_gone[ev_prow] = True
            p_fired = ~p_gone & (p_xa <= last_t)
            p_keep = ~p_gone & (p_xa > last_t)

            # memory calendar: +mem at each cold arrival, -mem at each
            # in-slab expiry and at each eviction, in the reference heap
            # order per node; an arrival's evictions (in the order it
            # made them) precede its own +mem
            a_idx = np.nonzero(cold_arr)[0]
            f_idx = np.nonzero(p_fired)[0]
            n_ev = int(ev_row.size)
            if n_ev:
                first = np.searchsorted(ev_row, ev_row, side="left")
                ev_j = np.arange(n_ev, dtype=np.int64) - first
                width = int(ev_j.max()) + 2
            else:
                ev_j, width = _I0, 1
            ev_time = np.concatenate((ts[a_idx], p_xa[f_idx], ts[ev_row]))
            ev_phase = np.concatenate((
                np.ones(a_idx.size, np.uint8),
                np.zeros(f_idx.size, np.uint8),
                np.ones(n_ev, np.uint8),
            ))
            ev_tie = np.concatenate((
                a_idx * width + (width - 1), p_exp[f_idx],
                ev_row * width + ev_j,
            ))
            ev_node = np.concatenate(
                (node_idx[a_idx], p_node[f_idx], node_idx[ev_row])
            )
            ev_delta = np.concatenate(
                (req_mem[a_idx], -p_mem[f_idx], -p_mem[ev_prow])
            )
            eo = _event_order(ev_time, ev_phase, ev_tie)
            order = eo[_group_stable(ev_node[eo])]
            s_alloc = order < a_idx.size
            s_delta = ev_delta[order]
            counts = np.bincount(ev_node, minlength=n_nodes)
            bounds = np.zeros(n_nodes + 1, np.int64)
            np.cumsum(counts, out=bounds[1:])
            new_used = np.empty(n_nodes, np.float64)
            over: list[int] = []
            for b, node in enumerate(self.nodes):
                lo, hi = int(bounds[b]), int(bounds[b + 1])
                block = np.empty(hi - lo + 1, np.float64)
                block[0] = node.used_memory_mb
                block[1:] = s_delta[lo:hi]
                usage = np.cumsum(block)
                admitted = usage[1:][s_alloc[lo:hi]]
                if bool(np.any(admitted > node.memory_capacity_mb)):
                    over.append(b)
                new_used[b] = usage[-1]
            if not over:
                break
            if reuse is not None:  # pragma: no cover - the loop is exact
                raise _Fallback("cluster_memory")
            if coupled:  # pragma: no cover - the node replay is exact
                raise _Fallback("queueing")
            # the scalar engine evicts (or queues) on these nodes: replay
            # each as one unit, its pools coupled through its memory
            rows, src_of, ev_src, ev_row = self._replay_nodes(
                over, ts, codes, node_idx, mem, svc_req, cstart, ttl,
                seq0, busy, idle, (ob_node, oi_node), (ob_code, oi_code),
            )
            reuse_src_arr[rows] = src_of

        if busy_cap is not None and not self._bulk_busy_ok(
            ts, node_idx, comp_end[proc_idx], comp_tie[proc_idx],
            comp_node[proc_idx], seq0, busy_cap,
        ):
            raise _Fallback("spill")

        still = np.nonzero(~processed)[0]
        busy_after = np.bincount(comp_node[still], minlength=n_nodes)

        # drain residue: remaining idle expiries fire first (all at most
        # last_t + ttl), then each outstanding completion's eventual
        # expiry, ordered exactly as the reference drain would fire them
        kA = np.nonzero(p_keep)[0]
        kA = kA[np.lexsort((p_exp[kA], p_xa[kA]))]
        kB = still[np.lexsort((comp_end_seq[still], comp_end[still]))]
        d_node = np.concatenate((p_node[kA], comp_node[kB]))
        d_mem = np.concatenate((p_mem[kA], comp_mem[kB]))
        final_used = new_used.copy()
        drain_clock = last_t
        if d_node.size:
            pos = np.arange(d_node.size, dtype=np.int64)
            do = np.lexsort((pos, d_node))
            s_node2 = d_node[do]
            s_mem2 = d_mem[do]
            counts2 = np.bincount(s_node2, minlength=n_nodes)
            bounds2 = np.zeros(n_nodes + 1, np.int64)
            np.cumsum(counts2, out=bounds2[1:])
            for b in range(n_nodes):
                lo, hi = int(bounds2[b]), int(bounds2[b + 1])
                block = np.empty(hi - lo + 1, np.float64)
                block[0] = new_used[b]
                block[1:] = -s_mem2[lo:hi]
                final_used[b] = float(np.cumsum(block)[-1])
            drain_clock = float(
                comp_end[kB[-1]] + ttl if kB.size else p_xa[kA[-1]]
            )

        key_time, key_tie = self._pool_creation_keys(
            ts, gid, p_from, p_xa, p_exp, p_order, p_gid, p_src, p_key_t,
            p_key_q, p_fired, p_keep, reuse_src_arr, ev_prow, ev_row,
            seq0, n, nb, n_pools, len(self.nodes) * n_words,
        )

        # -- commit ----------------------------------------------------
        self._seq_n += n + np_proc
        self._sandbox_n += int(a_idx.size)
        self._clock = last_t
        self._store.extend(
            self._store_codes(codes, words), self._node_ids()[node_idx],
            ts, start_vec, end_new, cold=cold_arr, ok=True,
        )
        for b, node in enumerate(self.nodes):
            node.busy_count = int(busy_after[b])
            node.used_memory_mb = float(new_used[b])
        if still.size or kA.size:
            keep_idx = np.nonzero(p_keep)[0]
            keep_idx = keep_idx[np.lexsort(
                (p_order[keep_idx], p_from[keep_idx], p_gid[keep_idx])
            )]
            self._tail = _BulkTail(
                ttl=ttl,
                words=words,
                final_used=final_used,
                drain_clock=drain_clock,
                ends=comp_end[still],
                seqs=comp_end_seq[still],
                node_idx=comp_node[still],
                mem_mb=comp_mem[still],
                codes=comp_code[still],
                idle_from=p_from[keep_idx],
                idle_xa=p_xa[keep_idx],
                idle_seq=p_exp[keep_idx],
                idle_order=p_order[keep_idx],
                idle_node=p_node[keep_idx],
                idle_mem=p_mem[keep_idx],
                idle_codes=p_code[keep_idx],
                idle_key_time=key_time[keep_idx],
                idle_key_tie=key_tie[keep_idx],
            )
        else:
            self._tail = None
        return n_ev

    def _pool_reuses(
        self,
        ts: npt.NDArray[np.float64],
        gid: npt.NDArray[np.int64],
        svc_req: npt.NDArray[np.float64],
        cstart: npt.NDArray[np.float64],
        ttl: float,
        seq0: int,
        busy: _BusySeed,
        idle: _IdleSeed,
    ) -> tuple[npt.NDArray[np.int64], int]:
        """Each row's warm-reuse source in a fixed positive-TTL slab (-1
        for a cold start), plus the slab's pool count, with every pool
        replayed as if its node's memory were unbounded.  ``gid`` names
        each row's ``(node, workload)`` pool; ``busy`` holds the carried
        busy rows (end, heap tie, pool) and ``idle`` the carried idle
        rows (idled-at, append order, expiry, pool)."""
        # Pools couple only through memory (checked afterwards), so each
        # pool replays independently.  The common case -- a pool that
        # never holds more than two live sandboxes at once -- fits a
        # two-slot recursion (a slot is warm-reusable iff ``e <= t <
        # e + ttl``, LIFO picks the later-idled slot, cold starts land
        # in a non-busy slot), which runs here as a lockstep scan
        # vectorised *across* pools, one rank at a time.  A pool that
        # sees an arrival while both slots are busy, starts with more
        # than two carried rows, or is still active once too few pools
        # remain to amortise a vector step is *complex*: its scan
        # decisions are void and the exact heap-and-deque loop replays
        # it from its first arrival.
        n = int(ts.size)
        ob_end, ob_seq, b_gid = busy
        oi_from, oi_order, oi_xa, i_gid = idle
        nb, nc = int(ob_end.size), int(oi_from.size)

        order = _group_stable(gid)
        g_sorted = gid[order]
        head = np.empty(n, np.bool_)
        head[0] = True
        np.not_equal(g_sorted[1:], g_sorted[:-1], out=head[1:])
        pool_start = np.nonzero(head)[0]
        pool_gids = g_sorted[pool_start]
        pool_len = np.diff(np.append(pool_start, n))
        n_pools = int(pool_gids.size)

        # slot state: completion/idle-from time, heap tie, source row
        e1 = np.full(n_pools, -np.inf, np.float64)
        q1 = np.zeros(n_pools, np.int64)
        s1 = np.full(n_pools, -1, np.int64)
        e2 = np.full(n_pools, -np.inf, np.float64)
        q2 = np.zeros(n_pools, np.int64)
        s2 = np.full(n_pools, -1, np.int64)
        carried_ct = np.zeros(n_pools, np.int64)
        cr_pos_parts: list[npt.NDArray[np.int64]] = []
        cr_e_parts: list[npt.NDArray[np.float64]] = []
        cr_q_parts: list[npt.NDArray[np.int64]] = []
        cr_s_parts: list[npt.NDArray[np.int64]] = []
        if nb:
            bpos = np.minimum(
                np.searchsorted(pool_gids, b_gid), n_pools - 1
            )
            b_in = pool_gids[bpos] == b_gid
            np.add.at(carried_ct, bpos[b_in], 1)
            cr_pos_parts.append(bpos[b_in])
            cr_e_parts.append(ob_end[b_in])
            cr_q_parts.append(ob_seq[b_in])
            cr_s_parts.append(n + np.nonzero(b_in)[0])
        if nc:
            ipos = np.minimum(
                np.searchsorted(pool_gids, i_gid), n_pools - 1
            )
            i_in = pool_gids[ipos] == i_gid
            np.add.at(carried_ct, ipos[i_in], 1)
            # the stored expiry is bitwise ``from + ttl`` (ttl-compat is
            # an eligibility condition), so carrying ``from`` suffices
            cr_pos_parts.append(ipos[i_in])
            cr_e_parts.append(oi_from[i_in])
            cr_q_parts.append(oi_order[i_in])
            cr_s_parts.append(n + nb + np.nonzero(i_in)[0])
        if cr_pos_parts:
            cr_pos = np.concatenate(cr_pos_parts)
            cr_e = np.concatenate(cr_e_parts)
            cr_q = np.concatenate(cr_q_parts)
            cr_s = np.concatenate(cr_s_parts)
            co = np.argsort(cr_pos, kind="stable")
            ps = cr_pos[co]
            first = np.empty(ps.size, np.bool_)
            if ps.size:
                first[0] = True
                np.not_equal(ps[1:], ps[:-1], out=first[1:])
            occ = np.arange(ps.size, dtype=np.int64)
            occ -= np.maximum.accumulate(np.where(first, occ, 0))
            fill1 = co[occ == 0]
            e1[cr_pos[fill1]] = cr_e[fill1]
            q1[cr_pos[fill1]] = cr_q[fill1]
            s1[cr_pos[fill1]] = cr_s[fill1]
            fill2 = co[occ == 1]
            e2[cr_pos[fill2]] = cr_e[fill2]
            q2[cr_pos[fill2]] = cr_q[fill2]
            s2[cr_pos[fill2]] = cr_s[fill2]

        # longest pools first, so the active set at rank r is a prefix
        po = np.argsort(-pool_len, kind="stable")
        d_start = pool_start[po]
        d_len = pool_len[po]
        e1, q1, s1 = e1[po], q1[po], s1[po]
        e2, q2, s2 = e2[po], q2[po], s2[po]
        complex_d = (carried_ct > 2)[po]
        max_len = int(d_len[0]) if n_pools else 0
        ranks = np.arange(max_len, dtype=np.int64)
        active_at = np.searchsorted(-d_len, -(ranks + 1), side="right")
        # warm decisions per rank (consumer row, source row), scattered
        # once after the scan
        warm_k_parts: list[npt.NDArray[np.int64]] = []
        warm_src_parts: list[npt.NDArray[np.int64]] = []
        for r in range(max_len):
            m = int(active_at[r])
            if m < 32:  # too few pools left to amortise a vector step
                complex_d[:m] = True
                break
            k_idx = order[d_start[:m] + r]
            t = ts[k_idx]
            a1, a2 = e1[:m], e2[:m]
            b1 = t < a1
            b2 = t < a2
            l1 = ~b1 & (t < a1 + ttl)
            l2 = ~b2 & (t < a2 + ttl)
            warm = l1 | l2
            # LIFO: reuse the later-idled live slot (tie on heap seq)
            gt2 = (a2 > a1) | ((a2 == a1) & (q2[:m] > q1[:m]))
            pick2 = l2 & (~l1 | gt2)
            pick1 = warm & ~pick2
            # cold starts land in a non-busy (empty or expired) slot
            place1 = ~warm & ~b1
            place2 = ~warm & b1 & ~b2
            overflow = ~(warm | place1 | place2)
            if bool(overflow.any()):
                complex_d[:m] |= overflow
            endv = np.where(warm, t, cstart[k_idx]) + svc_req[k_idx]
            w = np.nonzero(warm)[0]
            if w.size:
                warm_k_parts.append(k_idx[w])
                warm_src_parts.append(  # pre-update sources
                    np.where(pick2[w], s2[w], s1[w])
                )
            upd1 = pick1 | place1
            upd2 = pick2 | place2
            qv = seq0 + k_idx
            np.copyto(a1, endv, where=upd1)
            np.copyto(q1[:m], qv, where=upd1)
            np.copyto(s1[:m], k_idx, where=upd1)
            np.copyto(a2, endv, where=upd2)
            np.copyto(q2[:m], qv, where=upd2)
            np.copyto(s2[:m], k_idx, where=upd2)

        reuse_src = np.full(n, -1, np.int64)
        if warm_k_parts:
            reuse_src[np.concatenate(warm_k_parts)] = np.concatenate(
                warm_src_parts
            )
        cx = np.nonzero(complex_d)[0]
        if cx.size:
            # the complex pools' rows, pool by pool, in arrival order;
            # the exact decision for every one of them overwrites the
            # scan's void one
            cx_len = d_len[cx]
            offs = np.cumsum(cx_len) - cx_len
            cx_rows = order[
                np.repeat(d_start[cx] - offs, cx_len)
                + np.arange(int(offs[-1] + cx_len[-1]), dtype=np.int64)
            ]
            reuse_src[cx_rows] = self._replay_exact(
                cx_rows, cx_len, g_sorted[d_start[cx]], (b_gid, i_gid),
                ts, svc_req, cstart, ttl, seq0, busy, idle, None,
            )[0]
        return reuse_src, n_pools

    def _replay_cluster(
        self,
        ts: npt.NDArray[np.float64],
        codes: npt.NDArray[np.int64],
        svc_req: npt.NDArray[np.float64],
        cstart: npt.NDArray[np.float64],
        ttl: float,
        mem: list[float],
        old: _BulkTail | None,
    ) -> tuple[npt.NDArray[np.int64], _ClusterReuse]:
        """Least-loaded picks and warm-reuse sources for a slab, in one
        exact loop over the whole cluster: the node per row, and the
        ``reuse`` argument of :meth:`_bulk_commit_keepalive` -- the
        reuse source per row (-1 for a cold start), the pools that held
        idle sandboxes, and the evictions as (evicted source, evicting
        row) in admission order.

        A pick reads busy counts, which change only at admissions and
        completions.  With a constant TTL and no CPU model, a completion
        time depends only on the pick and the warm/cold decision, so one
        loop makes both.  Before each arrival the due completions
        (``end <= t``) leave the busy heap in ``(end, seq)`` order, each
        onto its ``(node, workload)`` pool stack; the pick is
        :meth:`LeastLoadedScheduler.pick`'s lowest-index minimum; a
        stack top that expires after ``t`` is reused LIFO, otherwise the
        stack has expired whole and the start is cold.  Sources are
        numbered as in :meth:`_pool_reuses`; the loop is seeded from the
        carry and from each node's busy count.

        With a positive TTL the loop also keeps each node's used memory
        (``mem`` per workload) and, as a node unit of
        :meth:`_replay_exact` does, a FIFO of the node's idle entries
        that shares the stacks' entry tuples.  Memory changes only at a
        cold start and at the expiries and evictions before it, so a
        cold start first fires its node's due expiries, oldest first,
        and then evicts the LRU idle sandboxes while short: the same
        float steps in the same order as the reference engine.  An
        eviction moves a later completion and so possibly a later pick
        on any node, which this loop sees and a node unit with fixed
        placement cannot.  Memory short with nothing idle, or an LRU
        victim whose expiry equals a live entry of another pool (at
        least every idle-since tie; the reference engine breaks those by
        dict-insertion order), raises :class:`_Fallback`.  With zero TTL
        the teardown commit checks memory itself.
        """
        n = int(ts.size)
        n_words = len(mem)
        seq0 = self._seq_n
        nodes = self.nodes
        busy = [nd.busy_count for nd in nodes]
        used = [nd.used_memory_mb for nd in nodes]
        cap = [nd.memory_capacity_mb for nd in nodes]
        # heap entries: end, end-event sequence (seq0 + row is an
        # order-preserving proxy), source, node, pool
        heap: list[tuple[float, int, int, int, int]] = []
        # idle entries (expiry, source, pool), in a pool stack (most
        # recently idled last) and in its node's FIFO (push order); a
        # reused entry stays in the FIFO, flagged in ``reused``
        stacks: dict[int, deque[tuple[float, int, int]]] = {}
        fifos = [deque[tuple[float, int, int]]() for _ in nodes]
        nb = nc = 0
        if old is not None:
            nb, nc = int(old.ends.size), int(old.idle_from.size)
            heap = list(zip(
                old.ends.tolist(), old.seqs.tolist(), range(n, n + nb),
                old.node_idx.tolist(),
                (old.node_idx * n_words + old.codes).tolist(),
            ))
            heapq.heapify(heap)
            # per node by (idled-at, append order): every node's FIFO
            # order, and every stack's push order
            sel = np.lexsort((old.idle_order, old.idle_from, old.idle_node))
            for b, entry in zip(old.idle_node[sel].tolist(), zip(
                old.idle_xa[sel].tolist(), (n + nb + sel).tolist(),
                (old.idle_node * n_words + old.idle_codes)[sel].tolist(),
            )):
                stacks.setdefault(entry[2], deque()).append(entry)
                fifos[b].append(entry)
        keep = ttl > 0
        reused = bytearray(n + nb + nc)
        ev_src: list[int] = []
        ev_row: list[int] = []
        heappush, heappop = heapq.heappush, heapq.heappop
        node_idx = np.empty(n, np.int64)
        reuse_src = np.empty(n, np.int64)
        for lo in range(0, n, _LOOP_ROWS):
            hi = min(lo + _LOOP_ROWS, n)
            picks: list[int] = []
            srcs: list[int] = []
            for k, t, c, sv, cs in zip(
                range(lo, hi), ts[lo:hi].tolist(), codes[lo:hi].tolist(),
                svc_req[lo:hi].tolist(), cstart[lo:hi].tolist(),
            ):
                while heap and heap[0][0] <= t:
                    e, _, src, b, p = heappop(heap)
                    busy[b] -= 1
                    if keep:
                        entry = (e + ttl, src, p)
                        st = stacks.get(p)
                        if st is None:
                            stacks[p] = st = deque()
                        st.append(entry)
                        fifos[b].append(entry)
                b = busy.index(min(busy))
                p = b * n_words + c
                st = stacks.get(p)
                if st and st[-1][0] > t:
                    src = st.pop()[1]
                    reused[src] = 1
                    e = t + sv
                else:
                    src = -1
                    e = cs + sv
                    if keep:
                        # due expiries, which also empty this pool's
                        # stack: below an expired top, all has expired
                        fifo = fifos[b]
                        base = b * n_words
                        u = used[b]
                        while fifo and fifo[0][0] <= t:
                            _, s, q = fifo.popleft()
                            if not reused[s]:
                                stacks[q].popleft()
                                u -= mem[q - base]
                        m = mem[c]
                        while u + m > cap[b]:
                            while fifo and reused[fifo[0][1]]:
                                fifo.popleft()
                            if not fifo:  # nothing to evict: it queues
                                raise _Fallback("queueing")
                            xa, victim, q = fifo.popleft()
                            for entry in fifo:
                                if entry[0] != xa:
                                    break
                                if entry[2] != q and not reused[entry[1]]:
                                    raise _Fallback("lru_tie")
                            stacks[q].popleft()
                            u -= mem[q - base]
                            ev_src.append(victim)
                            ev_row.append(k)
                        used[b] = u + m
                busy[b] += 1
                heappush(heap, (e, seq0 + k, k, b, p))
                picks.append(b)
                srcs.append(src)
            node_idx[lo:hi] = picks
            reuse_src[lo:hi] = srcs
        return node_idx, (
            reuse_src, len(stacks),
            np.array(ev_src, np.int64), np.array(ev_row, np.int64),
        )

    def _bulk_busy_ok(
        self,
        ts: npt.NDArray[np.float64],
        node_idx: npt.NDArray[np.int64],
        proc_end: npt.NDArray[np.float64],
        proc_tie: npt.NDArray[np.int64],
        proc_node: npt.NDArray[np.int64],
        seq0: int,
        busy_cap: int,
    ) -> bool:
        """Validate speculative load-bounded picks: the picked node's
        busy count, at the moment each request was placed, must stay
        below ``busy_cap`` (else the scalar scheduler would have made a
        different choice)."""
        n = int(ts.size)
        n_nodes = len(self.nodes)
        sub = np.arange(n, dtype=np.int64)
        b_time = np.concatenate((ts, proc_end))
        b_phase = np.concatenate(
            (np.ones(n, np.uint8), np.zeros(proc_end.size, np.uint8))
        )
        b_tie = np.concatenate((seq0 + sub, proc_tie))
        b_node = np.concatenate((node_idx, proc_node))
        order = np.lexsort((b_tie, b_phase, b_time, b_node))
        s_start = b_phase[order] == 1
        counts = np.bincount(b_node, minlength=n_nodes)
        bounds = np.zeros(n_nodes + 1, np.int64)
        np.cumsum(counts, out=bounds[1:])
        for b, node in enumerate(self.nodes):
            lo, hi = int(bounds[b]), int(bounds[b + 1])
            starts = s_start[lo:hi]
            busy = np.empty(hi - lo + 1, np.int64)
            busy[0] = node.busy_count
            busy[1:] = np.where(starts, 1, -1)
            trail = np.cumsum(busy)
            if bool(np.any(trail[1:][starts] - 1 >= busy_cap)):
                return False
        return True

    def _pool_creation_keys(
        self,
        ts: npt.NDArray[np.float64],
        gid: npt.NDArray[np.int64],
        p_from: npt.NDArray[np.float64],
        p_xa: npt.NDArray[np.float64],
        p_exp: npt.NDArray[np.int64],
        p_order: npt.NDArray[np.int64],
        p_gid: npt.NDArray[np.int64],
        p_src: npt.NDArray[np.int64],
        p_key_t: npt.NDArray[np.float64],
        p_key_q: npt.NDArray[np.int64],
        p_fired: npt.NDArray[np.bool_],
        p_keep: npt.NDArray[np.bool_],
        reuse_src_arr: npt.NDArray[np.int64],
        ev_prow: npt.NDArray[np.int64],
        ev_row: npt.NDArray[np.int64],
        seq0: int,
        n: int,
        nb: int,
        n_pools: int,
        n_gids: int,
    ) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.int64]]:
        """Stack-creation keys for pools that carry idle sandboxes out.

        The reference engine's ``node.idle`` dict orders keys by
        insertion, and ``lru_idle`` tie-breaks on that order, so the
        carry must remember when each surviving stack last went
        empty-to-non-empty.  Each pool's appends (completions idling),
        reuses and evictions (pops), and expiries replay as one global
        event list --
        lexsorted by pool, then segmented-cumsum'd to find each pool's
        latest 0->1 occupancy transition; if a surviving stack never
        emptied this slab, the key carried from the previous chunk
        persists.
        """
        key_time = np.zeros(p_from.size, np.float64)
        key_tie = np.zeros(p_from.size, np.int64)
        if not bool(p_keep.any()):
            return key_time, key_tie
        keep_gids = np.unique(p_gid[p_keep])
        np_rows = int(p_gid.size)
        # pop events come straight from the consumer arrivals: a warm
        # reuse always pops from its own pool, so the consumer's gid is
        # the popped slot's gid and the consumer index is the tie
        if int(keep_gids.size) == n_pools:
            # every slab pool survives: no membership filter needed
            rows = np.arange(np_rows, dtype=np.int64)
            a_g, a_t, a_tie = p_gid, p_from, p_order
            k_cons = np.nonzero(reuse_src_arr >= 0)[0]
            rf = np.nonzero(p_fired)[0]
            v = np.arange(ev_row.size, dtype=np.int64)
        else:
            keep_mask = np.zeros(n_gids, np.bool_)
            keep_mask[keep_gids] = True
            pm = keep_mask[p_gid]
            rows = np.nonzero(pm)[0]
            a_g, a_t = p_gid[rows], p_from[rows]
            a_tie = p_order[rows]
            k_cons = np.nonzero(
                (reuse_src_arr >= 0) & keep_mask[gid]
            )[0]
            rf = np.nonzero(pm & p_fired)[0]
            v = np.nonzero(pm[ev_prow])[0]
        # an eviction pops the victim's pool at the evicting arrival
        v_row, v_g = ev_row[v], p_gid[ev_prow[v]]
        na, nr, nf = rows.size, k_cons.size + v.size, rf.size
        ne = na + nr + nf
        ev_g = np.concatenate((a_g, gid[k_cons], v_g, p_gid[rf]))
        ev_t = np.concatenate((a_t, ts[k_cons], ts[v_row], p_xa[rf]))
        ev_ph = np.zeros(ne, np.uint8)
        ev_ph[na:na + nr] = 1  # arrival pops sort after same-time appends
        ev_tie = np.concatenate(
            (a_tie, seq0 + k_cons, seq0 + v_row, p_exp[rf])
        )
        eo = _event_order(ev_t, ev_ph, ev_tie)
        so = eo[_group_stable(ev_g[eo])]
        g_s = ev_g[so]
        head = np.empty(ne, np.bool_)
        head[0] = True
        np.not_equal(g_s[1:], g_s[:-1], out=head[1:])
        seg = np.nonzero(head)[0]
        seg_len = np.diff(np.append(seg, ne))
        seg_id = np.repeat(
            np.arange(seg.size, dtype=np.int64), seg_len
        )
        d_s = np.where(so < na, np.int64(1), np.int64(-1))
        run = np.cumsum(d_s)
        base = np.zeros(seg.size, np.int64)
        base[1:] = run[seg[1:] - 1]
        # latest append that found its stack empty, per pool: every
        # segment opens with a create, so the last create at or before
        # the segment's final event is the one that named the stack
        ci = np.nonzero((d_s == 1) & (run - base[seg_id] == 1))[0]
        ends = np.empty(seg.size, np.int64)
        ends[:-1] = seg[1:]
        ends[-1] = ne
        latest = ci[np.searchsorted(ci, ends) - 1]
        so_latest = so[latest]
        r0 = rows[so_latest]
        carried = p_src[r0] >= n + nb
        # carried == stack never emptied since the previous chunk: the
        # dict key predates this slab
        kt = np.where(carried, p_key_t[r0], ev_t[so_latest])
        kq = np.where(carried, p_key_q[r0], ev_tie[so_latest])
        # only surviving rows' keys are ever read, and the grouped
        # event list is ascending in gid, so a binary search maps each
        # kept row straight to its pool's segment
        krows = np.nonzero(p_keep)[0]
        kseg = np.searchsorted(g_s[seg], p_gid[krows])
        key_time[krows] = kt[kseg]
        key_tie[krows] = kq[kseg]
        return key_time, key_tie

    def _replay_nodes(
        self,
        over: list[int],
        ts: npt.NDArray[np.float64],
        codes: npt.NDArray[np.int64],
        node_idx: npt.NDArray[np.int64],
        mem: npt.NDArray[np.float64],
        svc_req: npt.NDArray[np.float64],
        cstart: npt.NDArray[np.float64],
        ttl: float,
        seq0: int,
        busy: _BusySeed,
        idle: _IdleSeed,
        seed_nodes: tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]],
        seed_codes: tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]],
    ) -> tuple[
        npt.NDArray[np.int64],
        npt.NDArray[np.int64],
        npt.NDArray[np.int64],
        npt.NDArray[np.int64],
    ]:
        """Exact replay of the nodes ``over`` (ascending), each as one
        unit under its capacity and slab-start memory: ``(rows, their
        reuse sources, evicted sources, evicting rows)`` with the
        evictions in admission order.  Raises :class:`_Fallback` if a
        node would queue or meet an LRU tie across pools."""
        units = np.array(over, np.int64)
        in_unit = np.zeros(len(self.nodes), np.bool_)
        in_unit[units] = True
        rows = np.nonzero(in_unit[node_idx])[0]
        rows = rows[_group_stable(node_idx[rows])]
        unit_len = np.bincount(node_idx[rows], minlength=len(self.nodes))
        nodes = [self.nodes[b] for b in over]
        src_of, ev_src, ev_row = self._replay_exact(
            rows, unit_len[units], units, seed_nodes, ts, svc_req, cstart,
            ttl, seq0, busy, idle,
            (codes, *seed_codes, mem.tolist(),
             [nd.memory_capacity_mb for nd in nodes],
             [nd.used_memory_mb for nd in nodes]),
        )
        eo = np.argsort(ev_row, kind="stable")
        return rows, src_of, ev_src[eo], ev_row[eo]

    def _replay_exact(
        self,
        rows: npt.NDArray[np.int64],
        unit_len: npt.NDArray[np.int64],
        unit_key: npt.NDArray[np.int64],
        seed_keys: tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]],
        ts: npt.NDArray[np.float64],
        svc_req: npt.NDArray[np.float64],
        cstart: npt.NDArray[np.float64],
        ttl: float,
        seq0: int,
        busy: _BusySeed,
        idle: _IdleSeed,
        nodes: _NodeUnits | None,
    ) -> tuple[
        npt.NDArray[np.int64],
        npt.NDArray[np.int64],
        npt.NDArray[np.int64],
    ]:
        """The keep-alive path's one exact loop, unit by unit.

        A unit is one pool with unbounded memory (``nodes`` None: the
        complex pools the lockstep scan could not carry), or one whole
        node under its capacity and slab-start used memory (``nodes``
        gives the workload code of every new, carried busy and carried
        idle row, the memory per workload, then capacity and used memory
        per unit).  ``rows`` holds each unit's arrivals in arrival
        order, unit after unit (``unit_len`` rows each); a unit replays
        from its first arrival, seeded only from the carried ``busy``
        and ``idle`` rows whose ``seed_keys`` entry equals its
        ``unit_key``.  Returns each row's warm-reuse source (-1 for a
        cold start) and the evictions as (evicted source, evicting row);
        raises :class:`_Fallback` if a node unit reaches a state this
        loop does not model.

        A unit holds a busy heap keyed ``(end, seq)`` and a LIFO idle
        stack per pool.  A pool unit expires lazily: idle entries are
        pushed in completion order and share one TTL, so if the top of
        the stack has expired, all of it has.  A node unit also keeps
        one FIFO of its idle entries with lazy deletion (a reused entry
        stays in it, flagged): idle-since and expiry are both monotone
        in push order, so the FIFO's first live entry is at once the
        next to expire and the LRU victim, and it always sits at the
        bottom of its own pool's stack.  Due completions, then due
        expiries, fire before each arrival; a cold start evicts ``while
        used + mem > capacity``, folding ``used`` in the reference
        engine's float order.  Memory short with nothing idle (the
        request would queue), or a victim whose idle-since equals a
        live entry of another pool (the reference engine breaks that
        tie by dict-insertion order), falls back.
        """
        b_end, b_seq, _ = busy
        i_from, i_order, i_xa, _ = idle
        b_key, i_key = seed_keys
        n, nb = int(ts.size), int(b_end.size)
        if nodes is None:
            # every unit is one pool: its only stack is slot 0
            n_slots = 1
            row_slot, b_slot, i_slot = (
                np.zeros(a.size, np.int64) for a in (ts, b_end, i_from)
            )
        else:
            row_slot, b_slot, i_slot, slot_mem = nodes[:4]
            n_slots = len(slot_mem)
        busy_u: dict[int, list[tuple[float, int, int, int]]] = {}
        sel = np.nonzero(np.isin(b_key, unit_key))[0]
        for u, e, q, src, p in zip(
            b_key[sel].tolist(), b_end[sel].tolist(), b_seq[sel].tolist(),
            (n + sel).tolist(), b_slot[sel].tolist(),
        ):
            busy_u.setdefault(u, []).append((e, q, src, p))
        # a unit's idle entries in push order: idled-at, append sequence
        idle_u: dict[int, list[tuple[float, int, float, int]]] = {}
        sel = np.nonzero(np.isin(i_key, unit_key))[0]
        sel = sel[np.lexsort((i_order[sel], i_from[sel], i_key[sel]))]
        for u, xa, src, f, p in zip(
            i_key[sel].tolist(), i_xa[sel].tolist(),
            (n + nb + sel).tolist(), i_from[sel].tolist(),
            i_slot[sel].tolist(),
        ):
            idle_u.setdefault(u, []).append((xa, src, f, p))
        heappush, heappop = heapq.heappush, heapq.heappop
        bounded = nodes is not None
        reused = bytearray(n + nb + int(i_from.size))
        src_of = np.full(rows.size, -1, np.int64)
        ev_src: list[int] = []
        ev_row: list[int] = []
        t_rows, sv_rows, cs_rows = ts[rows], svc_req[rows], cstart[rows]
        p_rows = row_slot[rows]
        lo = 0
        for ui, (u, ln) in enumerate(
            zip(unit_key.tolist(), unit_len.tolist())
        ):
            hi = lo + ln
            cap, used = (
                (nodes[4][ui], nodes[5][ui]) if nodes is not None
                else (_INF, 0.0)
            )
            bh = busy_u.get(u, [])
            heapq.heapify(bh)
            # stack entries are (expiry, source); FIFO entries add the
            # idled-at time and the pool
            stacks = [deque[tuple[float, int]]() for _ in range(n_slots)]
            fifo: deque[tuple[float, int, float, int]] = deque()
            for entry in idle_u.get(u, ()):
                stacks[entry[3]].append(entry[:2])
                if bounded:
                    fifo.append(entry)
            popleft = fifo.popleft
            # one unit's rows at a time keeps the Python copies small
            srcs: list[int] = []
            for k, t, sv, cs, p in zip(
                rows[lo:hi].tolist(), t_rows[lo:hi].tolist(),
                sv_rows[lo:hi].tolist(), cs_rows[lo:hi].tolist(),
                p_rows[lo:hi].tolist(),
            ):
                # completions join their pool's stack in heap order
                while bh and bh[0][0] <= t:
                    e, _, src, p2 = heappop(bh)
                    stacks[p2].append((e + ttl, src))
                    if bounded:
                        fifo.append((e + ttl, src, e, p2))
                # expiries strictly precede this arrival's processing
                if bounded:
                    while fifo and fifo[0][0] <= t:
                        entry = popleft()
                        if not reused[entry[1]]:
                            stacks[entry[3]].popleft()
                            used -= slot_mem[entry[3]]
                st = stacks[p]
                if st and st[-1][0] > t:
                    src = st.pop()[1]  # LIFO: most recently idled
                    if bounded:
                        reused[src] = 1
                    e = t + sv
                else:
                    st.clear()  # a pool unit's stack expired whole
                    src = -1
                    m = slot_mem[p] if bounded else 0.0
                    while used + m > cap:
                        while fifo and reused[fifo[0][1]]:
                            popleft()
                        if not fifo:  # nothing to evict: it queues
                            raise _Fallback("queueing")
                        _, victim, f, vp = popleft()
                        for entry in fifo:
                            if entry[2] != f:
                                break
                            if entry[3] != vp and not reused[entry[1]]:
                                raise _Fallback("lru_tie")
                        stacks[vp].popleft()
                        used -= slot_mem[vp]
                        ev_src.append(victim)
                        ev_row.append(k)
                    used += m
                    e = cs + sv
                srcs.append(src)
                heappush(bh, (e, seq0 + k, k, p))
            src_of[lo:hi] = srcs
            lo = hi
        return (
            src_of,
            np.array(ev_src, np.int64),
            np.array(ev_row, np.int64),
        )

    def _invoke_loop(
        self,
        ts: npt.NDArray[np.float64],
        workload_ids: Sequence[str],
    ) -> None:
        """Submit a slab row by row through :meth:`invoke`.

        Under an exact-type :class:`RandomScheduler` (and no autoscaler,
        which could resize the cluster between picks) every row picks
        exactly once from a private RNG, so the slab's node indices are
        drawn up front with one ``pick_many`` -- stream-equal to the
        sequential ``pick`` calls.  If a row raises (invalid input, or a
        policy hook), the scheduler is rewound to the draws the rows
        before it consumed, so the RNG ends where per-row picks leave it.
        """
        invoke = self.invoke
        sched = self.scheduler
        picks: Iterator[int] | None = None
        if type(sched) is RandomScheduler and self.autoscaler is None:
            state = sched.snapshot()
            self._picks = picks = iter(
                sched.pick_many(self.nodes, workload_ids).tolist()
            )
        try:
            for t, w in zip(ts.tolist(), workload_ids):
                invoke(t, w)
        except BaseException:
            if picks is not None:
                # leave the RNG where the rows picked so far left it
                used = len(workload_ids) - operator.length_hint(picks)
                rsched = cast(RandomScheduler, sched)
                rsched.restore(state)
                rsched.pick_many(self.nodes, workload_ids[:used])
            raise
        finally:
            self._picks = None

    def _materialize_tail(self) -> None:
        """Turn a bulk carry into ordinary heap events and node state so
        scalar traffic can interleave with it exactly."""
        tail = self._tail
        if tail is None:
            return
        self._tail = None
        heap = self._heap
        words = tail.words
        for j in range(int(tail.ends.size)):
            sandbox = _Sandbox(
                sandbox_id=j,
                workload_id=words[int(tail.codes[j])],
                memory_mb=float(tail.mem_mb[j]),
            )
            node = self.nodes[int(tail.node_idx[j])]
            heapq.heappush(
                heap,
                (
                    float(tail.ends[j]),
                    int(tail.seqs[j]),
                    "end",
                    (node, sandbox),
                ),
            )
        if not tail.idle_from.size:
            return
        # Warm idle sandboxes: rebuild each node's per-workload stacks
        # in the reference engine's dict-key creation order (lru_idle
        # tie-breaks on it), each stack in append order, and requeue the
        # pending expiries under their original sequence numbers.  The
        # generation handshake (sandbox at 1, event carrying 1) makes
        # any later reuse or eviction stale the queued expiry, exactly
        # like the scalar bookkeeping.
        mo = np.lexsort((
            tail.idle_order, tail.idle_from,
            tail.idle_key_tie, tail.idle_key_time, tail.idle_node,
        ))
        for j in mo.tolist():
            node = self.nodes[int(tail.idle_node[j])]
            wid = words[int(tail.idle_codes[j])]
            sandbox = _Sandbox(
                sandbox_id=-1 - j,
                workload_id=wid,
                memory_mb=float(tail.idle_mem[j]),
                idle_since=float(tail.idle_from[j]),
                expire_generation=1,
            )
            node.push_idle(sandbox)
            heapq.heappush(
                heap,
                (
                    float(tail.idle_xa[j]),
                    int(tail.idle_seq[j]),
                    "expire",
                    (node, sandbox, 1),
                ),
            )

    def _finalize_tail(self) -> None:
        """Drain-time shortcut: apply everything the carry still owes in
        one pass (busy to zero, the precomputed exactly-ordered memory
        residue, clock to the last completion or expiry)."""
        tail = self._tail
        if tail is None:
            return
        self._tail = None
        self._clock = max(self._clock, tail.drain_clock)
        for b, node in enumerate(self.nodes):
            node.busy_count = 0
            node.used_memory_mb = float(tail.final_used[b])
            if tail.final_weight.size:
                node.cpu_weight = float(tail.final_weight[b])

    # ------------------------------------------------------------------
    # drain internals
    # ------------------------------------------------------------------
    def _drain_events(self) -> None:
        if self._tail is not None:
            self._finalize_tail()
        while self._heap:
            self._advance(self._heap[0][0])
        stuck = sum(len(n.pending) for n in self.nodes)
        if stuck:
            if self.queue_timeout_s is not None:
                # every still-queued request has outlived its deadline by
                # now (all service events have fired)
                for node in self.nodes:
                    for arrival_s, wid in node.pending:
                        self.dropped.append((arrival_s, wid))
                        self._trace("request_dropped", node.node_id, wid)
                    node.pending.clear()
            else:
                raise RuntimeError(
                    f"{stuck} requests remain queued after drain; the "
                    "cluster deadlocked on memory (raise node_memory_mb "
                    "or n_nodes, or set queue_timeout_s)"
                )

    def _drain_telemetry(self) -> None:
        reg = _telemetry.active()
        if reg is not None:
            # gauges are idempotent, so repeated drains stay correct
            reg.gauge("platform_nodes",
                      "cluster size at drain time").set(len(self.nodes))
            reg.gauge("platform_completed_invocations",
                      "invocation records held by the cluster"
                      ).set(self._store.n)
            reg.gauge("platform_dropped_requests",
                      "requests dropped on queue timeout so far"
                      ).set(len(self.dropped))

    # ------------------------------------------------------------------
    # elasticity
    # ------------------------------------------------------------------
    def _apply_autoscaling(self, now_s: float) -> None:
        scaler = self.autoscaler
        if scaler is None:
            return
        desired = scaler.decide(now_s, self.nodes)
        while desired > len(self.nodes):
            self.nodes.append(
                Node(self._next_node_id, self._node_memory_mb)
            )
            self._next_node_id += 1
        while desired < len(self.nodes) and len(self.nodes) > 1:
            victim = min(self.nodes, key=lambda n: n.busy_count)
            if victim.busy_count > 0:
                break  # nothing retirable right now; try next evaluation
            # reclaim idle sandboxes and hand any backlog to a survivor
            for stack in list(victim.idle.values()):
                for sandbox in list(stack):
                    sandbox.expire_generation += 1
                    victim.remove_idle(sandbox)
                    self._trace("sandbox_evicted", victim.node_id,
                                sandbox.workload_id)
            self.nodes.remove(victim)
            if victim.pending:
                self.nodes[0].pending.extend(victim.pending)

    # ------------------------------------------------------------------
    # scalar event machinery (exact reference-engine control flow)
    # ------------------------------------------------------------------
    def _trace(self, kind: str, node_id: int, workload_id: str) -> None:
        if self.tracer is not None:
            self.tracer.emit(self._clock, kind, node_id, workload_id)

    # The per-row chain below is the array engine's one scalar
    # admission path, so it is kept cheap: the heap push is inlined,
    # stale expiries are dropped without a call, and ``_trace`` /
    # ``_serve_pending`` are only called when a tracer is set or the
    # node has a backlog.  The control flow is the reference engine's.

    def _advance(self, until: float) -> None:
        heap = self._heap
        heappop = heapq.heappop
        while heap and heap[0][0] <= until:
            when, _, kind, payload = heappop(heap)
            self._clock = when
            if kind == "end":
                self._on_completion(when, *payload)
            elif kind == "crash":
                self._on_crash(when, *payload)
            else:  # "expire"
                node, sandbox, generation = payload
                # stale if the sandbox was reused or evicted since
                if sandbox.expire_generation == generation:
                    self._on_expiry(node, sandbox)
        if until > self._clock:
            self._clock = until

    def _try_start(self, node: Node, arrival_s: float,
                   workload_id: str) -> bool:
        """Start an invocation now if a sandbox can be had; else False."""
        now = self._clock
        profile = self.profiles[workload_id]
        tracer = self.tracer
        sandbox = node.pop_idle(workload_id)
        if sandbox is not None:
            self.keepalive.observe_idle_gap(
                workload_id, now - sandbox.idle_since
            )
            sandbox.expire_generation += 1  # cancels the queued expiry
            if tracer is not None:
                tracer.emit(now, "sandbox_reused", node.node_id,
                            workload_id)
            start = now
            cold = False
        else:
            # Make room, evicting the least recently used idle sandboxes.
            mem = profile.memory_mb
            while node.used_memory_mb + mem > node.memory_capacity_mb:
                victim = node.lru_idle()
                if victim is None:
                    return False
                victim.expire_generation += 1
                node.remove_idle(victim)
                if tracer is not None:
                    tracer.emit(now, "sandbox_evicted", node.node_id,
                                victim.workload_id)
            node.used_memory_mb += mem
            if self.track_memory:
                self.memory_samples.append(
                    (now, node.node_id, node.used_memory_mb)
                )
            sandbox = _Sandbox(
                sandbox_id=self._sandbox_n,
                workload_id=workload_id,
                memory_mb=mem,
            )
            self._sandbox_n += 1
            if tracer is not None:
                tracer.emit(now, "sandbox_created", node.node_id,
                            workload_id)
            start = now + self.cold_start_model(profile)
            cold = True

        service_s = profile.runtime_ms / 1e3
        if self._lognorm is not None:
            sigma, mu = self._lognorm
            service_s *= float(self._rng.lognormal(mu, sigma))
        preemptions = 0
        if self.cpu is not None:
            # run-queue-aware dilation, fixed at admission time
            w = self.cpu.policy.weight(workload_id)
            dilated, preemptions = self.cpu.policy.contend(
                service_s,
                cores=self.cpu.cores,
                quantum_s=self.cpu.quantum_s,
                concurrent=node.busy_count + 1,
                weight=w,
                total_weight=node.cpu_weight + w,
            )
            if dilated > service_s:
                self._trace("invocation_contended", node.node_id,
                            workload_id)
            service_s = dilated
            node.cpu_weight += w
        end = start + service_s
        ok = True
        if self.fault_hook is not None:
            frac = self.fault_hook.crash_fraction(
                now, node.node_id, workload_id
            )
            if frac is not None:
                end = start + service_s * min(max(frac, 0.0), 1.0)
                ok = False
        node.busy_count += 1
        store = self._store
        store.append(
            store.code_for(workload_id),
            node.node_id, arrival_s, start, end, cold, ok, preemptions,
        )
        # Events carry the Node object itself: under autoscaling the
        # nodes list mutates, so positional ids are not stable handles.
        heapq.heappush(
            self._heap,
            (end, self._seq_n, "end" if ok else "crash", (node, sandbox)),
        )
        self._seq_n += 1
        return True

    def _on_completion(self, now: float, node: Node,
                       sandbox: _Sandbox) -> None:
        node.busy_count -= 1
        if self.cpu is not None:
            node.cpu_weight -= self.cpu.policy.weight(sandbox.workload_id)
        sandbox.idle_since = now
        sandbox.expire_generation += 1
        node.push_idle(sandbox)
        ttl = self.keepalive.ttl_s(sandbox.workload_id)
        if ttl <= 0:
            node.remove_idle(sandbox)
        else:
            heapq.heappush(
                self._heap,
                (now + ttl, self._seq_n, "expire",
                 (node, sandbox, sandbox.expire_generation)),
            )
            self._seq_n += 1
        if node.pending:
            self._serve_pending(node)

    def _on_crash(self, now: float, node: Node,
                  sandbox: _Sandbox) -> None:
        """The sandbox died mid-invocation: destroy it outright."""
        del now
        node.busy_count -= 1
        if self.cpu is not None:
            node.cpu_weight -= self.cpu.policy.weight(sandbox.workload_id)
        sandbox.expire_generation += 1
        node.used_memory_mb -= sandbox.memory_mb
        self._trace("sandbox_crashed", node.node_id, sandbox.workload_id)
        if self.track_memory:
            self.memory_samples.append(
                (self._clock, node.node_id, node.used_memory_mb)
            )
        if node.pending:
            self._serve_pending(node)

    def _on_expiry(self, node: Node, sandbox: _Sandbox) -> None:
        node.remove_idle(sandbox)
        if self.tracer is not None:
            self._trace("sandbox_expired", node.node_id,
                        sandbox.workload_id)
        if self.track_memory:
            self.memory_samples.append(
                (self._clock, node.node_id, node.used_memory_mb)
            )
        if node.pending:
            self._serve_pending(node)

    def _serve_pending(self, node: Node) -> None:
        while node.pending:
            arrival_s, workload_id = node.pending[0]
            if (
                self.queue_timeout_s is not None
                and self._clock - arrival_s > self.queue_timeout_s
            ):
                self.dropped.append(node.pending.pop(0))
                self._trace("request_dropped", node.node_id, workload_id)
                continue
            if not self._try_start(node, arrival_s, workload_id):
                return
            node.pending.pop(0)


# ----------------------------------------------------------------------
# streaming helpers
# ----------------------------------------------------------------------
def iter_trace_slabs(
    timestamps_s: npt.ArrayLike,
    workload_ids: Sequence[str],
    *,
    chunk_rows: int = 65_536,
) -> Iterator[tuple[npt.NDArray[np.float64], Sequence[str]]]:
    """Slice one materialised trace into bounded slabs, each submitted
    with one :meth:`FaaSCluster.invoke_many`.

    Timestamp slabs are zero-copy views; workload-id slabs are list
    slices.  Mostly useful for tests and for replaying traces that are
    already in memory -- a generator reading a trace file directly (one
    slab per read) feeds ``invoke_many`` the same way without ever
    materialising the whole trace.
    """
    if chunk_rows <= 0:
        raise ValueError("chunk_rows must be positive")
    ts = np.asarray(timestamps_s, dtype=np.float64)
    if ts.ndim != 1:
        raise ValueError("timestamps_s must be one-dimensional")
    n = int(ts.size)
    if n != len(workload_ids):
        raise ValueError(
            f"got {n} timestamps but {len(workload_ids)} workload ids"
        )
    wids = (
        workload_ids
        if isinstance(workload_ids, list)
        else list(workload_ids)
    )
    for lo in range(0, n, chunk_rows):
        hi = min(lo + chunk_rows, n)
        yield ts[lo:hi], wids[lo:hi]
