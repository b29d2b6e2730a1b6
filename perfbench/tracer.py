"""Layer spans recorded from outside the program.

A :class:`Tracer` keeps spans and counters in memory.  :func:`install`
wraps the public entry points of each ``repro`` layer -- module
functions, class methods and one property -- so a normal ``repro.cli``
run records where its time went.  Only attributes are replaced: no
scheduler, policy or cluster is subclassed, because the simulator's bulk
path checks exact types and a subclass would change which path runs.

Two kinds of wrapper exist:

- a *span* (start, end, parent) for calls made a handful of times per
  run, kept one by one so self time can be derived;
- a *hot* counter for per-request calls (``FaaSCluster.invoke``,
  scheduler ``pick``), which only adds to a call count and, where asked,
  a total time, so that tracing 300k calls stays cheap.

Worker processes of the load service are forked from the traced
process, so they inherit the wrappers; each worker writes its own spans
to ``worker_dir`` when it ends, and :meth:`Tracer.dump` merges them.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

Span = tuple[int, "int | None", str, float, float, int]
"""(id, parent id, name, start, end, pid) -- times from ``perf_counter``."""


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self, worker_dir: Path | None = None) -> None:
        self.worker_dir = worker_dir
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._next_id = 0

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def call_in_span(self, name: str, fn: Callable[..., Any],
                     *args: Any, **kwargs: Any) -> Any:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end, self.pid))

    def enter_worker(self) -> None:
        """Forget the state copied from the parent at fork.  Cleared in
        place: the hot wrappers hold a reference to ``counts``."""
        self.pid = os.getpid()
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def write_worker(self) -> None:
        if self.worker_dir is None:
            return
        path = self.worker_dir / f"worker-{self.pid}.json"
        path.write_text(json.dumps({"spans": self.spans,
                                    "counts": self.counts}))

    def dump(self, path: Path) -> None:
        """Write this process's spans and counters, merged with those
        every worker process wrote, as one JSON document."""
        spans = list(self.spans)
        counts = dict(self.counts)
        workers = 0
        if self.worker_dir is not None:
            for wpath in sorted(self.worker_dir.glob("worker-*.json")):
                data = json.loads(wpath.read_text())
                spans.extend(tuple(s) for s in data["spans"])
                for name, value in data["counts"].items():
                    counts[name] = counts.get(name, 0) + value
                workers += 1
        path.write_text(json.dumps({"spans": spans, "counts": counts,
                                    "pid": self.pid,
                                    "worker_files": workers}))


def self_time(spans: list[Span], name: str) -> float:
    """Sum over spans called ``name`` of their duration minus the part
    of it that their child spans (same process) cover."""
    children: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for _sid, parent, _n, start, end, pid in spans:
        if parent is not None:
            children.setdefault((pid, parent), []).append((start, end))
    total = 0.0
    for sid, _parent, span_name, start, end, pid in spans:
        if span_name != name:
            continue
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get((pid, sid), [])):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        total += (end - start) - covered
    return total


def span_total(spans: list[Span], name: str) -> float:
    return sum(end - start for _i, _p, n, start, end, _pid in spans
               if n == name)


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------


def _span(tracer: Tracer, name: str, fn: Callable[..., Any],
          after: Callable[[Any, tuple, dict], None] | None = None,
          ) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        result = tracer.call_in_span(name, fn, *args, **kwargs)
        if after is not None:
            after(result, args, kwargs)
        return result
    return wrapper


def _hot(tracer: Tracer, name: str, fn: Callable[..., Any],
         timed: bool) -> Callable[..., Any]:
    counts = tracer.counts
    clock = time.perf_counter
    time_name = name + "_s"

    if not timed:
        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    @functools.wraps(fn)
    def timed_call(*args: Any, **kwargs: Any) -> Any:
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            counts[name] = counts.get(name, 0) + 1
            counts[time_name] = counts.get(time_name, 0) + clock() - start
    return timed_call


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the ``repro`` layers in place.

    Package attributes are replaced as well as the defining module's,
    because ``repro.cli`` imports from the packages at call time.
    """
    import repro.core.shrinkray as shrinkray_mod
    import repro.loadgen as loadgen
    import repro.loadgen.service as service
    import repro.platform as platform
    import repro.platform.schedulers as schedulers
    import repro.traces as traces
    import repro.workloads as workloads
    from repro.core import ExperimentSpec, ShrinkRay
    from repro.platform.simulator_vec import FaaSCluster

    add = tracer.add

    def patch(owner: Any, attr: str, name: str,
              after: Callable[[Any, tuple, dict], None] | None = None,
              ) -> None:
        setattr(owner, attr, _span(tracer, name, getattr(owner, attr),
                                   after))

    # trace substrate
    def trace_sizes(trace: Any, _a: tuple, _k: dict) -> None:
        add("traces.functions", trace.n_functions)
        add("traces.invocations", trace.total_invocations)

    for fn in ("synthetic_azure_trace", "synthetic_huawei_trace",
               "synthetic_huawei_public_trace"):
        patch(traces, fn, "traces.synth", trace_sizes)
    patch(workloads, "build_default_pool", "workloads.pool")

    # shrink-ray stages
    def spec_sizes(spec: Any, _a: tuple, _k: dict) -> None:
        add("core.spec_functions", spec.n_functions)
        add("core.spec_requests", spec.total_requests)

    patch(ShrinkRay, "run", "core.shrinkray", spec_sizes)
    patch(shrinkray_mod, "aggregate_functions", "core.aggregate")
    patch(shrinkray_mod, "thumbnail_scale", "core.scale")
    patch(shrinkray_mod, "scale_request_rate", "core.scale")
    patch(shrinkray_mod, "map_functions", "core.mapping",
          lambda m, _a, _k: add("core.mapping_fallbacks", m.n_fallbacks))
    patch(ExperimentSpec, "save", "core.spec_save")
    load = ExperimentSpec.__dict__["load"].__func__
    ExperimentSpec.load = classmethod(_span(tracer, "core.spec_load", load))

    # load generator and replay
    patch(loadgen, "generate_request_trace", "loadgen.generate",
          lambda t, _a, _k: add("loadgen.generate_requests", t.n_requests))
    patch(loadgen, "replay", "loadgen.replay")

    # simulator
    patch(platform, "profiles_from_spec", "platform.build")
    patch(FaaSCluster, "__init__", "platform.build")
    patch(FaaSCluster, "invoke_many", "platform.sim.submit")

    def bulk_rows(ok: bool, args: tuple, _k: dict) -> None:
        if ok:
            add("platform.sim.bulk_rows", len(args[1]))

    patch(FaaSCluster, "_bulk_invoke", "platform.sim.bulk", bulk_rows)
    patch(FaaSCluster, "drain", "platform.sim.drain")
    FaaSCluster.records = property(
        _span(tracer, "platform.sim.records", FaaSCluster.records.fget))
    FaaSCluster.invoke = _hot(tracer, "platform.sim.scalar_rows",
                              FaaSCluster.invoke, timed=True)
    patch(platform, "summarize", "platform.metrics.summarize")

    # schedulers: class attributes, so exact types stay unchanged
    for cls_name in schedulers.__all__:
        cls = getattr(schedulers, cls_name)
        cls.pick = _hot(tracer, "platform.schedulers.pick_calls", cls.pick,
                        timed=False)
        if hasattr(cls, "pick_many"):
            patch(cls, "pick_many", "platform.schedulers.pick_many",
                  lambda _r, a, _k: add("platform.sim.bulk_drawn_rows",
                                        len(a[2])))
            cls.restore = _hot(tracer, "platform.sim.rewinds", cls.restore,
                               timed=False)

    # load service: the workers are forked and inherit these wrappers
    def service_counts(result: Any, _a: tuple, _k: dict) -> None:
        cov = result.coverage
        add("loadgen.service.shards", cov.n_shards)
        add("loadgen.service.restarts", cov.restarts)
        add("loadgen.service.heartbeat_misses", cov.heartbeat_misses)

    patch(service, "run_service", "loadgen.service.run", service_counts)
    patch(service, "_run_shard", "loadgen.service.shard")
    worker_main = service._worker_main

    @functools.wraps(worker_main)
    def traced_worker_main(*args: Any, **kwargs: Any) -> Any:
        tracer.enter_worker()
        try:
            return worker_main(*args, **kwargs)
        finally:
            tracer.write_worker()

    service._worker_main = traced_worker_main
