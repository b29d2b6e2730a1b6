"""End-to-end and per-layer benchmark of the ``repro`` CLI on FaaSRail load.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload huawei-bulk --seed 0 --seconds 20 \
        --trace 0

Each workload (``perfbench/protocol.json``) is two CLI steps, each in a
fresh process with no content cache: ``repro shrinkray`` builds the
spec (set-up, repeated ``SETUP_REPEATS`` times), then ``repro replay``
replays it, repeated until ``--seconds`` have passed since set-up began
(at least ``MIN_REPLAYS`` times).  Every step's output is checked before
any number is reported; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics (medians over the repeats,
times in seconds of the reference host, see :class:`HostSpeed`).
``--trace 1`` additionally runs each step once more under
``traced_cli.py`` and reports the per-layer metrics instead.

``--record-reference`` stores this seed's replay summary in
``perfbench/references.json``; later runs on that seed must match it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from tracer import self_time, span_total

HERE = Path(__file__).resolve().parent
PROTOCOL = HERE / "protocol.json"
REFERENCES = HERE / "references.json"

SETUP_REPEATS = 3
MIN_REPLAYS = 3
STEP_TIMEOUT_S = 150.0
PROBE_LOOP = 10_000
PROBE_ARRAY = 500_000
PROBE_PERIOD_S = 0.02
#: Probe chunk times on the reference host (2 cores, unloaded); step
#: times are reported in seconds of that host.
PROBE_INTERP_S = 0.0012
PROBE_STREAM_S = 0.0006


class CheckFailed(Exception):
    """An output check failed: the run reports ``correct: false``."""


@dataclass
class Step:
    """One finished CLI process."""

    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    stdout: str
    #: host speed while the step ran, relative to the reference host
    speed: float = 1.0

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.speed

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s * self.speed


def run_step(cmd: list[str], env: dict[str, str], log: Path) -> Step:
    """Run ``cmd`` to completion and measure it.

    ``os.wait4`` gives the rusage of this child alone, including the
    worker processes it reaped, so CPU time covers the whole step and
    ``ru_maxrss`` is the peak of its largest process.
    """
    with open(log, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                env=env)
        watchdog = threading.Timer(STEP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    text = log.read_text()
    if proc.returncode != 0:
        tail = "\n".join(text.splitlines()[-15:])
        raise CheckFailed(f"{' '.join(cmd[1:4])} exited with "
                          f"{proc.returncode}:\n{tail}")
    return Step(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                peak_rss_mib=usage.ru_maxrss / 1024.0, stdout=text)


# ----------------------------------------------------------------------
# output parsing and checks
# ----------------------------------------------------------------------

_REPLAY_PATTERNS = {
    "invocations": r"^replayed (\d+) invocations",
    "cold_fraction": r"cold-start fraction : (\S+)",
    "latency_ms": r"latency p50/p90/p99 : (\S+) / (\S+) / (\S+) ms",
    "queueing_ms_mean": r"mean queueing\s+: (\S+) ms",
    "node_imbalance": r"node imbalance\s+: (\S+)x",
}
_SERVICE_PATTERNS = {
    "scheduled": r"^service replay: (\d+) requests",
    "coverage": r"coverage\s+: (\S+) \(ledger (\w+)\)",
    "outcomes": r"request outcomes\s+: (.+)$",
    "latency_ms": r"latency p50/p90/p99 : (\S+) / (\S+) / (\S+) ms",
}


def parse_summary(stdout: str, service: bool) -> dict[str, Any]:
    """The simulated summary a replay printed, values kept as printed so
    comparisons are exact."""
    patterns = _SERVICE_PATTERNS if service else _REPLAY_PATTERNS
    summary: dict[str, Any] = {}
    for key, pattern in patterns.items():
        match = re.search(pattern, stdout, re.MULTILINE)
        if match is None:
            raise CheckFailed(f"replay output has no {key!r} line")
        groups = match.groups()
        summary[key] = groups[0] if len(groups) == 1 else list(groups)
    if not service:  # printed only when some invocation failed
        ok = re.search(r"ok fraction\s+: (\S+)", stdout)
        summary["ok_fraction"] = ok.group(1) if ok else "1"
    return summary


def count_ok(summary: dict[str, Any], service: bool) -> int:
    """Requests that completed with an ok invocation."""
    if service:
        outcomes = dict(part.split("=")
                        for part in summary["outcomes"].split(", "))
        return int(outcomes.get("ok", 0))
    invocations = int(summary["invocations"])
    return round(invocations * float(summary["ok_fraction"]))


def check_replay(summary: dict[str, Any], service: bool,
                 generated: int, expected: dict[str, Any] | None) -> int:
    """Check one replay's output; returns its number of failed requests.

    Every generated request must have exactly one record (one ledger
    slot for the service), and the summary must equal ``expected`` --
    the stored reference for this workload and seed, or else the first
    replay of the run.
    """
    if service:
        if int(summary["scheduled"]) != generated:
            raise CheckFailed(f"service scheduled {summary['scheduled']} "
                              f"of {generated} generated requests")
        if summary["coverage"][0] != "complete":
            raise CheckFailed(f"service coverage {summary['coverage'][0]}")
    elif int(summary["invocations"]) != generated:
        raise CheckFailed(f"{summary['invocations']} records for "
                          f"{generated} generated requests")
    if expected is not None and summary != expected:
        diff = {k: (summary.get(k), expected.get(k))
                for k in set(summary) | set(expected)
                if summary.get(k) != expected.get(k)}
        raise CheckFailed(f"summary differs (got, expected): {diff}")
    return generated - count_ok(summary, service)


def interpreter_chunk() -> float:
    """Wall time of a small fixed piece of interpreter work."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(PROBE_LOOP):
        counts[i % 97] = counts.get(i % 97, 0) + i
    rows = [(i, str(i)) for i in range(PROBE_LOOP // 4)]
    del rows
    return time.perf_counter() - start


def streaming_chunk(x: np.ndarray, out: np.ndarray) -> float:
    """Wall time of a small fixed piece of memory-bound NumPy work."""
    start = time.perf_counter()
    for _ in range(2):
        np.add(x, 1.0, out=out)
    return time.perf_counter() - start


class HostSpeed:
    """Samples how fast the host runs while a step is in flight.

    Hosts shared with other tenants change speed by up to 1.6x for
    seconds to minutes at a time, and interpreter-bound and memory-bound
    code slow down by different amounts.  A thread of this process
    (otherwise idle, waiting for the step) alternates the two probe
    chunks every ``PROBE_PERIOD_S``; :attr:`factor` is the geometric
    mean of their mean speeds relative to the reference host.  No
    program change can touch the chunks, so multiplying a step's time by
    the factor removes the host's drift and leaves the program's cost.
    """

    def __init__(self) -> None:
        self._x = np.ones(PROBE_ARRAY)
        self._out = np.empty_like(self._x)
        self._interp: list[float] = []
        self._stream: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            if len(self._interp) <= len(self._stream):
                self._interp.append(interpreter_chunk())
            else:
                self._stream.append(streaming_chunk(self._x, self._out))

    def __enter__(self) -> HostSpeed:
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def factor(self) -> float:
        if not self._stream:
            return 1.0
        interp = statistics.fmean(PROBE_INTERP_S / t for t in self._interp)
        stream = statistics.fmean(PROBE_STREAM_S / t for t in self._stream)
        return (interp * stream) ** 0.5


def count_generated(root: Path, spec_path: Path, seed: int) -> int:
    """Requests ``repro replay`` generates from this spec and seed,
    counted in this process from the checkout's own sources."""
    sys.path.insert(0, str(root / "src"))
    try:
        from repro.core import ExperimentSpec
        from repro.loadgen import generate_request_trace

        spec = ExperimentSpec.load(spec_path)
        return int(generate_request_trace(spec, seed=seed).n_requests)
    finally:
        sys.path.remove(str(root / "src"))


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------


@dataclass
class Run:
    root: Path
    work: Path
    workload: str
    seed: int
    seconds: float
    setup_args: list[str]
    replay_args: list[str]
    env: dict[str, str]
    setups: list[Step] = field(default_factory=list)
    replays: list[Step] = field(default_factory=list)
    generated: int = 0
    attempted: int = 0
    failed: int = 0
    summary: dict[str, Any] | None = None
    _n: int = 0

    def _next(self, stem: str) -> Path:
        self._n += 1
        return self.work / f"{stem}-{self._n}"

    def setup_cmd(self, out: Path) -> list[str]:
        return ["shrinkray", *self.setup_args, "--seed", str(self.seed),
                "--no-cache", "--out", str(out)]

    def replay_cmd(self, spec: Path, replay_args: list[str]) -> list[str]:
        cmd = ["replay", "--spec", str(spec), "--seed", str(self.seed),
               *replay_args]
        if "--service" in replay_args:
            cmd += ["--service-dir", str(self._next("service"))]
        return cmd

    def _step(self, cmd: list[str]) -> Step:
        with HostSpeed() as host:
            step = run_step(cmd, self.env, self._next("log"))
        step.speed = host.factor
        return step

    def cli(self, args: list[str]) -> Step:
        return self._step([sys.executable, "-m", "repro.cli", *args])

    def traced(self, args: list[str]) -> tuple[Step, dict[str, Any]]:
        spans = self._next("spans")
        step = self._step([sys.executable, str(HERE / "traced_cli.py"),
                           str(spans), "--", *args])
        return step, json.loads(spans.read_text())

    def measure(self, reference: dict[str, Any] | None) -> Path:
        """Set-up repeats, then replays until the window closes."""
        start = time.perf_counter()
        specs = []
        for _ in range(SETUP_REPEATS):
            spec = self._next("spec")
            self.setups.append(self.cli(self.setup_cmd(spec)))
            specs.append(spec.read_bytes())
        if any(s != specs[0] for s in specs):
            raise CheckFailed("set-up repeats wrote different specs")
        spec = self.work / "spec.json"
        spec.write_bytes(specs[0])
        self.generated = count_generated(self.root, spec, self.seed)
        self.summary = reference
        while (len(self.replays) < MIN_REPLAYS
               or time.perf_counter() - start < self.seconds):
            self.replays.append(self.replay(spec, self.replay_args)[0])
        return spec

    def replay(self, spec: Path, replay_args: list[str], traced: bool = False,
               ) -> tuple[Step, dict[str, Any] | None, dict[str, Any]]:
        """One checked replay: (step, spans if traced, summary).  Replays
        with this workload's own flags must all print ``self.summary``."""
        args = self.replay_cmd(spec, replay_args)
        step, spans = self.traced(args) if traced else (self.cli(args), None)
        service = "--service" in replay_args
        own = replay_args == self.replay_args
        summary = parse_summary(step.stdout, service)
        self.failed += check_replay(summary, service, self.generated,
                                    self.summary if own else None)
        self.attempted += self.generated
        if own and self.summary is None:
            self.summary = summary
        return step, spans, summary

    def end_to_end(self) -> dict[str, float]:
        for label, steps in (("setup", self.setups),
                             ("replay", self.replays)):
            print(f"{label}: wall_s "
                  + " ".join(f"{s.wall_s:.3f}" for s in steps)
                  + " | host speed "
                  + " ".join(f"{s.speed:.3f}" for s in steps),
                  file=sys.stderr)
        med = statistics.median
        return {
            "setup_s": med(s.ref_wall_s for s in self.setups),
            "setup_peak_rss_mib": med(s.peak_rss_mib for s in self.setups),
            "replay_throughput": med(self.generated / s.ref_wall_s
                                     for s in self.replays),
            "replay_cpu_us_per_req": med(1e6 * s.ref_cpu_s / self.generated
                                         for s in self.replays),
            "replay_peak_rss_mib": med(s.peak_rss_mib
                                       for s in self.replays),
            "ok_frac": (self.attempted - self.failed) / self.attempted,
        }


def layer_metrics(setup: dict[str, Any], replay: dict[str, Any],
                  trace_overhead_s: float) -> dict[str, float]:
    """Per-layer metrics from the traced set-up and replay steps."""
    spans = [tuple(s) for s in setup["spans"] + replay["spans"]]
    counts: dict[str, float] = dict(setup["counts"])
    for name, value in replay["counts"].items():
        counts[name] = counts.get(name, 0) + value

    def total(name: str) -> float:
        return span_total(spans, name)

    drawn = counts.get("platform.sim.bulk_drawn_rows", 0)
    bulk = counts.get("platform.sim.bulk_rows", 0)
    metrics = {
        "traces.synth_s": total("traces.synth"),
        "workloads.pool_s": total("workloads.pool"),
        "core.shrinkray_s": total("core.shrinkray"),
        "core.aggregate_s": total("core.aggregate"),
        "core.scale_s": total("core.scale"),
        "core.mapping_s": total("core.mapping"),
        "core.spec_save_s": total("core.spec_save"),
        "core.spec_load_s": total("core.spec_load"),
        "loadgen.generate_s": total("loadgen.generate"),
        "platform.build_s": total("platform.build"),
        "loadgen.replay_s": total("loadgen.replay"),
        "loadgen.replay_self_s": self_time(spans, "loadgen.replay"),
        "platform.sim.submit_s": total("platform.sim.submit"),
        "platform.sim.scalar_s": counts.get("platform.sim.scalar_rows_s", 0),
        "platform.sim.drain_s": total("platform.sim.drain"),
        "platform.sim.records_s": total("platform.sim.records"),
        "platform.metrics.summarize_s": total("platform.metrics.summarize"),
        "loadgen.service.run_s": total("loadgen.service.run"),
        "loadgen.service.worker_sim_s": total("loadgen.service.shard"),
        "platform.sim.bulk_useful_ratio": bulk / drawn if drawn else 0.0,
        "bench.trace_overhead_s": trace_overhead_s,
    }
    for name in ("traces.functions", "traces.invocations",
                 "core.mapping_fallbacks", "core.spec_functions",
                 "core.spec_requests", "loadgen.generate_requests",
                 "platform.sim.scalar_rows",
                 "platform.schedulers.pick_calls", "platform.sim.bulk_rows",
                 "platform.sim.bulk_drawn_rows", "platform.sim.rewinds",
                 "loadgen.service.shards", "loadgen.service.restarts",
                 "loadgen.service.heartbeat_misses"):
        metrics[name] = counts.get(name, 0)
    return metrics


def traced_pass(run: Run, spec: Path, protocol: dict[str, Any],
                checks: dict[str, Any]) -> dict[str, float]:
    """One traced set-up and replay; their outputs must equal the
    untraced ones, and the workload must keep the property it was
    chosen for."""
    traced_spec = run.work / "traced-spec.json"
    _, setup_trace = run.traced(run.setup_cmd(traced_spec))
    if traced_spec.read_bytes() != spec.read_bytes():
        raise CheckFailed("traced set-up wrote a different spec")
    step, replay_trace, _ = run.replay(spec, run.replay_args, traced=True)
    if "--service" in run.replay_args and not replay_trace["worker_files"]:
        print("note: no worker spans were written (workers not forked); "
              "loadgen.service.worker_sim_s and the worker-side platform "
              "metrics cannot be measured from outside", file=sys.stderr)
    untraced = statistics.median(s.ref_wall_s for s in run.replays)
    metrics = layer_metrics(setup_trace, replay_trace,
                            step.ref_wall_s - untraced)

    if "scalar_rows" in checks:
        got = metrics["platform.sim.scalar_rows"]
        if got != checks["scalar_rows"]:
            raise CheckFailed(f"{got:g} scalar invoke calls, expected "
                              f"{checks['scalar_rows']}")
    if "colder_than" in checks:
        other = protocol["workloads"][checks["colder_than"]]
        if other["setup"] != run.setup_args:
            raise CheckFailed("colder_than needs the same set-up")
        mine = run.summary
        _, _, theirs = run.replay(spec, other["replay"])
        if float(mine["cold_fraction"]) <= float(theirs["cold_fraction"]):
            raise CheckFailed(
                f"cold fraction {mine['cold_fraction']} is not above "
                f"{checks['colder_than']}'s {theirs['cold_fraction']}")
    return metrics


def child_env(root: Path, work: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DIR", None)
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(work)
    return env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"error: {root} is not a repro source checkout "
              "(no src/repro/cli.py)", file=sys.stderr)
        return 2
    protocol = json.loads(PROTOCOL.read_text())
    if args.workload not in protocol["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = protocol["workloads"][args.workload]
    references = json.loads(REFERENCES.read_text())
    reference = (None if args.record_reference else
                 references.get(args.workload, {}).get(str(args.seed)))

    work = root / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(root / "src" / "repro"), str(HERE)],
                   check=True, stdout=subprocess.DEVNULL)
    run = Run(root=root, work=work, workload=args.workload, seed=args.seed,
              seconds=args.seconds, setup_args=wl["setup"],
              replay_args=wl["replay"], env=child_env(root, work))
    try:
        spec = run.measure(reference)
        if args.trace:
            values = traced_pass(run, spec, protocol,
                                 wl.get("traced_checks", {}))
            units = {m["name"]: m["unit"] for m in protocol["per_layer"]}
        else:
            values = run.end_to_end()
            units = {"setup_s": "s", "setup_peak_rss_mib": "MiB",
                     "replay_throughput": "req/s",
                     "replay_cpu_us_per_req": "us",
                     "replay_peak_rss_mib": "MiB", "ok_frac": "ratio"}
        correct = True
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct, values, units = False, {}, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    if correct and args.record_reference:
        references.setdefault(args.workload, {})[str(args.seed)] = run.summary
        REFERENCES.write_text(json.dumps(references, indent=1,
                                         sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
