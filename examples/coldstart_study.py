#!/usr/bin/env python3
"""Cold-start study: keep-alive policies under representative load.

The kind of research experiment FaaSRail exists to serve (paper section
2.2, "Cold-starts"): compare keep-alive policies on the simulated cluster
under (a) FaaSRail's representative load and (b) the plain-Poisson
baseline.  The punchline is methodological: the baseline's uniform
popularity makes every function look alike, badly overestimating the
cold-start rate an adaptive policy sees in production-shaped load.

Run:  python examples/coldstart_study.py
"""

from repro.baselines import plain_poisson_trace
from repro.core import shrink
from repro.loadgen import generate_request_trace, replay
from repro.platform import (
    FaaSCluster,
    FixedKeepAlive,
    HistogramKeepAlive,
    NoKeepAlive,
    WorkloadProfile,
    profiles_from_spec,
    summarize,
)
from repro.traces import synthetic_azure_trace
from repro.workloads import build_default_pool, vanilla_functionbench

POLICIES = {
    "no-keepalive": NoKeepAlive,
    "fixed-10min": lambda: FixedKeepAlive(600.0),
    "fixed-60s": lambda: FixedKeepAlive(60.0),
    "histogram-p90": lambda: HistogramKeepAlive(percentile=90.0),
}


def run_policy(trace, profiles, policy_factory):
    backend = FaaSCluster(
        profiles, n_nodes=8, node_memory_mb=16_384.0,
        keepalive=policy_factory(),
    )
    result = replay(trace, backend)
    return summarize(result.columns)


def main() -> None:
    print("building load: FaaSRail (2000 fns -> 20min @ 8rps) "
          "vs plain Poisson ...")
    azure = synthetic_azure_trace(n_functions=2000, seed=11)
    pool = build_default_pool()
    spec = shrink(azure, pool, max_rps=8.0, duration_minutes=20, seed=11)
    faasrail_load = generate_request_trace(spec, seed=11)
    faasrail_profiles = profiles_from_spec(spec)

    poisson_load = plain_poisson_trace(8.0, 20, seed=11)
    vanilla = vanilla_functionbench()
    poisson_profiles = {
        w.workload_id: WorkloadProfile(w.workload_id, w.runtime_ms,
                                       w.memory_mb)
        for w in vanilla
    }

    header = (f"{'policy':<16} {'load':<10} {'cold%':>7} {'p50 ms':>9} "
              f"{'p99 ms':>10} {'queue ms':>9}")
    print("\n" + header)
    print("-" * len(header))
    for name, factory in POLICIES.items():
        for label, load, profiles in (
            ("faasrail", faasrail_load, faasrail_profiles),
            ("poisson", poisson_load, poisson_profiles),
        ):
            s = run_policy(load, profiles, factory)
            lat = s["latency_ms"]
            print(f"{name:<16} {label:<10} "
                  f"{100 * s['cold_fraction']:>6.2f}% "
                  f"{lat['p50']:>9.1f} {lat['p99']:>10.1f} "
                  f"{s['queueing_ms_mean']:>9.2f}")

    print(
        "\nreading: the Poisson baseline drives only 10 workloads, so any\n"
        "keep-alive at all keeps everything warm -- it wildly\n"
        "underestimates cold starts.  FaaSRail load carries thousands of\n"
        "Functions with a long idle tail: the hot head stays warm, the\n"
        "tail pays cold starts, and policies genuinely separate -- the\n"
        "trade-off keep-alive research actually navigates."
    )


if __name__ == "__main__":
    main()
