#!/usr/bin/env python3
"""Memory-pressure study: keep-alive TTL vs memory held vs cold starts.

The cold-start / memory-waste trade-off from the paper's motivation
("providers keep [functions] cached even when idling, effectively wasting
memory"), measured on the simulator with memory tracking enabled: longer
TTLs buy warm starts at the price of idle sandbox memory, and undersized
nodes force evictions that claw the cold starts back.

Run:  python examples/memory_pressure_study.py
"""

from repro.core import shrink
from repro.loadgen import generate_request_trace, replay
from repro.platform import (
    FaaSCluster,
    FixedKeepAlive,
    memory_utilization,
    profiles_from_spec,
    summarize,
)
from repro.traces import synthetic_azure_trace
from repro.workloads import build_default_pool

TTLS_S = (0.0, 30.0, 120.0, 600.0, 3600.0)
NODE_MEMORY_MB = (4_096.0, 16_384.0)


def main() -> None:
    print("generating FaaSRail load (1500 fns -> 15 min @ 6 rps) ...")
    azure = synthetic_azure_trace(n_functions=1500, seed=47)
    pool = build_default_pool()
    spec = shrink(azure, pool, max_rps=6.0, duration_minutes=15, seed=47)
    load = generate_request_trace(spec, seed=47)
    profiles = profiles_from_spec(spec)
    print(f"   {load.n_requests:,} requests, {len(profiles)} workloads\n")

    header = (f"{'node mem':>9} {'ttl':>7} {'cold%':>7} {'p99 ms':>10} "
              f"{'mem util':>9} {'peak MiB':>9}")
    print(header)
    print("-" * len(header))
    for node_mb in NODE_MEMORY_MB:
        for ttl in TTLS_S:
            backend = FaaSCluster(
                profiles, n_nodes=4, node_memory_mb=node_mb,
                keepalive=FixedKeepAlive(ttl), track_memory=True,
            )
            result = replay(load, backend)
            s = summarize(result.columns)
            util = memory_utilization(backend.memory_samples, node_mb)
            print(f"{node_mb:>8.0f}M {ttl:>6.0f}s "
                  f"{100 * s['cold_fraction']:>6.2f}% "
                  f"{s['latency_ms']['p99']:>10.1f} "
                  f"{util['mean']:>8.1%} {util['peak_mb']:>9.0f}")
        print()

    print(
        "reading: each TTL step trades idle memory for warm starts; on the\n"
        "small nodes the gain saturates early because LRU eviction undoes\n"
        "the caching -- the provider-side dilemma the trace papers (and\n"
        "FaaSRail's representative popularity skew) make visible."
    )


if __name__ == "__main__":
    main()
