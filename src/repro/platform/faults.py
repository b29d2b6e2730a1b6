"""Deterministic, seed-driven fault injection for any replay backend.

Serverless resilience research (retry policies, circuit breaking, load
shedding) needs a platform that *fails* in controlled, reproducible ways.
This module provides that without touching the backends themselves:

- :class:`FaultProfile` declares *what* goes wrong and how often --
  invocation errors, latency spikes, sandbox crashes, transient node
  outages, and memory-exhaustion rejections, each with a global or
  per-workload rate;
- :class:`FaultyBackend` decorates any object satisfying the replayer's
  ``Backend`` protocol (the discrete-event simulator, the live executor,
  or a client for a real deployment) and injects those faults at the
  ``invoke`` boundary;
- :class:`CrashHook` plugs *into* :class:`~repro.platform.simulator.
  FaaSCluster` (its ``fault_hook`` parameter) to model sandbox crashes
  mid-execution, where the decorator cannot reach.

All randomness flows through one ``numpy.random.Generator`` seeded from
the profile, so two runs with the same seed produce byte-identical fault
sequences -- the property the resilience acceptance tests rely on.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "CrashHook",
    "FaultError",
    "FaultProfile",
    "FaultyBackend",
    "InvocationFault",
    "MemoryExhaustedFault",
    "NodeOutageFault",
    "OutageWindow",
    "SandboxCrashFault",
]


class FaultError(RuntimeError):
    """Base class of every injected fault.

    ``retryable`` tells the replay engine whether re-submitting the
    request may succeed; transient faults default to True.
    """

    retryable: bool = True


class InvocationFault(FaultError):
    """The invocation itself failed (function error / 5xx)."""


class SandboxCrashFault(FaultError):
    """The sandbox died partway through executing the request."""


class NodeOutageFault(FaultError):
    """The request landed on a node inside a transient outage window."""


class MemoryExhaustedFault(FaultError):
    """The platform rejected the request for lack of memory."""


@dataclass(frozen=True)
class OutageWindow:
    """A transient outage: requests in ``[start_s, end_s)`` fail.

    ``failure_prob`` models partial outages (e.g. one node of four down
    behind a random scheduler): each affected request fails with this
    probability instead of deterministically.
    """

    start_s: float
    end_s: float
    failure_prob: float = 1.0

    def __post_init__(self) -> None:
        if not 0 <= self.start_s < self.end_s:
            raise ValueError("need 0 <= start_s < end_s")
        if not 0 < self.failure_prob <= 1:
            raise ValueError("failure_prob must be in (0, 1]")


#: FaultProfile rate fields, in draw order (fixed so seeds are portable).
_RATE_FIELDS = ("memory_rejection_rate", "error_rate", "crash_rate",
                "latency_spike_rate")

Rate = float | dict[str, float]


@dataclass
class FaultProfile:
    """What goes wrong, how often, and to whom.

    Every ``*_rate`` is either one probability applied to all workloads
    or a ``{workload_id: probability}`` dict; missing workloads fall back
    to the dict's ``"*"`` entry (default 0 -- unlisted workloads are
    healthy).

    Attributes
    ----------
    error_rate:
        Probability an invocation fails outright (:class:`InvocationFault`).
    crash_rate:
        Probability the sandbox dies mid-request
        (:class:`SandboxCrashFault` at the decorator boundary; partial
        execution inside the simulator via :meth:`simulator_hook`).
    memory_rejection_rate:
        Probability the platform rejects the request for lack of memory.
    latency_spike_rate / latency_spike_ms:
        Probability an otherwise-successful invocation is slowed, and the
        extra latency added to its record.
    outages:
        Transient windows during which requests fail
        (:class:`OutageWindow`).
    seed:
        Root seed for every random draw this profile makes.
    """

    error_rate: Rate = 0.0
    crash_rate: Rate = 0.0
    memory_rejection_rate: Rate = 0.0
    latency_spike_rate: Rate = 0.0
    latency_spike_ms: float = 250.0
    outages: list[OutageWindow] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            spec = getattr(self, name)
            vals = spec.values() if isinstance(spec, dict) else (spec,)
            for v in vals:
                if not 0 <= v <= 1:
                    raise ValueError(
                        f"{name} must be a probability in [0, 1], got {v}"
                    )
        if self.latency_spike_ms < 0:
            raise ValueError("latency_spike_ms must be non-negative")
        self.outages = [
            ow if isinstance(ow, OutageWindow) else OutageWindow(**ow)
            for ow in self.outages
        ]

    def rate(self, name: str, workload_id: str) -> float:
        """The effective probability of fault ``name`` for one workload."""
        spec = getattr(self, name)
        if isinstance(spec, dict):
            return spec.get(workload_id, spec.get("*", 0.0))
        return spec

    def simulator_hook(self) -> CrashHook:
        """A :class:`CrashHook` for ``FaaSCluster(fault_hook=...)``.

        Uses a seed stream distinct from :class:`FaultyBackend`'s so the
        two layers can coexist without correlated draws.
        """
        return CrashHook(self.crash_rate, seed=self.seed,
                         _profile=self)

    # ------------------------------------------------------------------
    # persistence (the CLI's --fault-profile format)
    # ------------------------------------------------------------------
    def to_json(self, path: Path | str) -> None:
        """Write the profile as JSON (outages become plain dicts)."""
        data = dataclasses.asdict(self)
        Path(path).write_text(json.dumps(data, indent=2) + "\n")

    @classmethod
    def from_json(cls, path: Path | str) -> FaultProfile:
        """Read a profile written by :meth:`to_json` (or by hand)."""
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(f"{path}: expected a JSON object")
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(
                f"{path}: unknown fault profile fields {sorted(unknown)}"
            )
        try:
            return cls(**data)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from exc


class FaultyBackend:
    """Backend decorator injecting a :class:`FaultProfile`'s faults.

    Wraps any replayer backend: fault draws happen at the ``invoke``
    boundary, so the inner backend needs no modification.  Latency
    spikes are applied at ``drain`` time by rewriting the matching
    records' ``end_s`` (skipped for backends whose records do not carry
    the :class:`~repro.platform.metrics.InvocationRecord` fields).

    With ``tracer`` set, every injected fault emits a ``fault_injected``
    :class:`~repro.platform.tracing.PlatformEvent` (node -1: faults are
    injected before placement).
    """

    def __init__(self, inner, profile: FaultProfile, *, tracer=None):
        self.inner = inner
        self.profile = profile
        self.tracer = tracer
        self._rng = np.random.default_rng(profile.seed)
        #: (arrival_s, workload_id) -> extra latency to add at drain.
        self._spikes: dict[tuple[float, str], float] = {}
        #: how many of each fault kind were injected, for reporting.
        self.injected: dict[str, int] = {
            "outage": 0, "memory": 0, "error": 0, "crash": 0, "spike": 0,
        }

    # ------------------------------------------------------------------
    # Backend protocol
    # ------------------------------------------------------------------
    def invoke(self, timestamp_s: float, workload_id: str) -> None:
        prof = self.profile
        rng = self._rng
        for window in prof.outages:
            if window.start_s <= timestamp_s < window.end_s:
                if (window.failure_prob >= 1.0
                        or rng.random() < window.failure_prob):
                    self._record("outage", workload_id)
                    raise NodeOutageFault(
                        f"node outage window "
                        f"[{window.start_s}, {window.end_s}) at "
                        f"t={timestamp_s:.3f}"
                    )
        # one draw per rate field, in fixed order, so the stream layout
        # does not depend on which faults are enabled
        draws = rng.random(len(_RATE_FIELDS))
        if draws[0] < prof.rate("memory_rejection_rate", workload_id):
            self._record("memory", workload_id)
            raise MemoryExhaustedFault(
                f"memory-exhaustion rejection for {workload_id!r}"
            )
        if draws[1] < prof.rate("error_rate", workload_id):
            self._record("error", workload_id)
            raise InvocationFault(f"injected error for {workload_id!r}")
        if draws[2] < prof.rate("crash_rate", workload_id):
            self._record("crash", workload_id)
            raise SandboxCrashFault(
                f"injected sandbox crash for {workload_id!r}"
            )
        if draws[3] < prof.rate("latency_spike_rate", workload_id):
            self._record("spike", workload_id)
            self._spikes[(timestamp_s, workload_id)] = (
                prof.latency_spike_ms / 1e3
            )
        self.inner.invoke(timestamp_s, workload_id)

    def invoke_many(self, timestamps_s, workload_ids) -> None:
        """Batched submission: still one fault gauntlet per request.

        Defined explicitly -- not left to ``__getattr__`` forwarding --
        so the replay engine's batched dispatch cannot silently hand the
        slab straight to the inner backend and skip fault injection.
        The per-request draw order matches :meth:`invoke` exactly, so
        batched and scalar submission produce identical fault sequences.
        """
        invoke = self.invoke
        for ts, wid in zip(
            np.asarray(timestamps_s, dtype=np.float64).tolist(),
            workload_ids,
        ):
            invoke(ts, wid)

    def drain(self) -> list:
        records = self.inner.drain()
        if not self._spikes:
            return records
        out = []
        for rec in records:
            key = (getattr(rec, "arrival_s", None),
                   getattr(rec, "workload_id", None))
            extra = self._spikes.get(key)
            if extra is not None and hasattr(rec, "end_s"):
                rec = dataclasses.replace(rec, end_s=rec.end_s + extra)
                del self._spikes[key]
            out.append(rec)
        return out

    # ------------------------------------------------------------------
    @property
    def n_injected(self) -> int:
        return sum(self.injected.values())

    def _record(self, kind: str, workload_id: str) -> None:
        self.injected[kind] += 1
        if self.tracer is not None:
            self.tracer.emit(0.0, "fault_injected", -1, workload_id)

    def __getattr__(self, name):
        # expose the inner backend's extras (records, dropped, clock_s...)
        return getattr(self.inner, name)


class CrashHook:
    """Sandbox-crash model for the simulator's ``fault_hook`` parameter.

    Consulted once per invocation start; returns the fraction of the
    service time after which the sandbox dies, or None for a healthy
    run.  The simulator then ends the invocation early with ``ok=False``
    and destroys the sandbox (memory freed, no keep-alive).
    """

    def __init__(self, crash_rate: Rate = 0.0, *, seed: int = 0,
                 _profile: FaultProfile | None = None):
        self._profile = _profile or FaultProfile(crash_rate=crash_rate)
        # distinct stream from FaultyBackend's (seed, 1) spawn key
        self._rng = np.random.default_rng([seed, 1])

    def crash_fraction(self, now_s: float, node_id: int,
                       workload_id: str) -> float | None:
        del now_s, node_id
        draw, frac = self._rng.random(2)
        if draw < self._profile.rate("crash_rate", workload_id):
            return float(frac)
        return None
