"""Performance of the offline pipeline with the content cache.

Pins the two ISSUE-2 acceptance numbers: a warm-cache shrink-ray re-run
must be at least 5x faster than the cold run it memoised, and parallel
generation at ``jobs=1`` must stay at the established sequential
throughput floor (the fan-out path may never tax the sequential case).
"""

import time

from repro.cache import ContentCache
from repro.core import ShrinkRay
from repro.loadgen import generate_request_trace


def _timed(fn, repeats=3):
    """Best-of-N wall time plus the last result."""
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _timed_cold(fn, root, repeats=3):
    """Best-of-N wall time of ``fn(cache)``, each run on a fresh
    :class:`ContentCache` directory under ``root`` so every repeat is a
    genuine miss; returns the time, the last cache, and its result."""
    best, cache, result = float("inf"), None, None
    for i in range(repeats):
        cache = ContentCache(root / f"cold-{i}")
        t0 = time.perf_counter()
        result = fn(cache)
        best = min(best, time.perf_counter() - t0)
        assert cache.misses >= 1 and cache.hits == 0
    return best, cache, result


def test_perf_shrinkray_warm_cache_speedup(ctx, tmp_path, benchmark):
    azure, pool = ctx.azure, ctx.pool
    ray = ShrinkRay()

    def run(cache):
        return ray.run(azure, pool, max_rps=10.0, duration_minutes=60,
                       seed=7, cache=cache)

    cold, cache, cold_spec = _timed_cold(run, tmp_path)

    # every timed iteration is a cache hit
    warm_spec = benchmark(lambda: run(cache))
    warm = benchmark.stats["mean"]
    assert cache.hits >= 1

    assert warm_spec.to_dict() == cold_spec.to_dict()
    speedup = cold / warm
    benchmark.extra_info["cold_s"] = cold
    benchmark.extra_info["warm_cache_speedup"] = speedup
    assert speedup >= 5.0, (
        f"warm cache re-run only {speedup:.1f}x faster than cold"
    )


def test_perf_generate_warm_cache_speedup(ctx, tmp_path):
    spec = ctx.spec
    cold, cache, cold_trace = _timed_cold(
        lambda c: generate_request_trace(spec, seed=9, cache=c), tmp_path
    )

    warm, warm_trace = _timed(
        lambda: generate_request_trace(spec, seed=9, cache=cache)
    )
    assert cache.hits >= 1
    assert warm_trace.timestamps_s.tobytes() == cold_trace.timestamps_s.tobytes()
    # A warm generate is bounded by deserialising the request arrays, so
    # the win is smaller than shrink-ray's 5x -- but it must stay a win.
    assert cold / warm >= 1.5, (
        f"warm generate only {cold / warm:.1f}x faster than cold"
    )


def test_perf_generate_jobs1_meets_sequential_floor(ctx, benchmark):
    """jobs=1 routes through the sharded path; it must still clear the
    same 100K req/s bar the plain sequential generator is held to."""
    spec = ctx.spec

    def gen():
        return generate_request_trace(spec, seed=1, jobs=1)

    trace = benchmark(gen)
    rate = trace.n_requests / benchmark.stats["mean"]
    benchmark.extra_info["requests_per_cpu_second_jobs1"] = rate
    assert rate > 100_000
