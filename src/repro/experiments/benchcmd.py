"""``repro bench``: kernel microbenchmarks without external tooling.

``benchmarks/bench_kernel.py`` runs the same workloads under
pytest-benchmark for local investigation; this module re-implements them
with nothing but :func:`time.perf_counter` so the CLI (and CI's bench
artifact job) does not depend on a benchmarking plugin being installed.

Each workload runs ``--rounds`` times after ``--warmup`` discarded
rounds; we report min/median/mean.  **min** is the comparison number —
it is the least noise-contaminated statistic on a shared machine.

Usage::

    repro bench                      # table on stdout
    repro bench --json BENCH.json    # machine-readable results as well
    repro bench --only event_throughput,timer_churn
    repro bench --scale              # workload-engine lane -> BENCH_scale.json

The ``--scale`` lane benchmarks the streaming workload engine instead of
the kernel: generation throughput (jobs/sec) of a lazy campaign folded
into bounded statistics, plus the peak-memory evidence for the O(1)
claim (tracemalloc peak of the streamed pass and the process ru_maxrss).

.. simlint: the bench workloads *deliberately* allocate raw timeouts in
   tight loops — timeout churn is the pattern being measured (and the
   timer_churn bench compares it against the Timer replacement).
"""  # simlint: disable-file=raw-timeout-loop -- timeout churn IS the measured workload

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from typing import Callable, Dict, List

from ..sim import AnyOf, Environment, Store, Timer


# -- workloads (mirror benchmarks/bench_kernel.py kernel benches) ---------

def _event_throughput() -> None:
    """Pure timeout churn: 20k events scheduled + processed."""
    env = Environment()

    def ticker():
        for _ in range(20_000):
            yield env.timeout(0.001)

    env.process(ticker())
    env.run()


def _process_chains() -> None:
    """Process spawn/wait chains (the broker's dominant pattern)."""
    env = Environment()

    def leaf():
        yield env.timeout(0.01)
        return 1

    def parent():
        total = 0
        for _ in range(2_000):
            total += yield env.process(leaf())
        return total

    env.process(parent())
    env.run()


def _store_pingpong() -> None:
    """Producer/consumer handoff through a Store."""
    env = Environment()
    a_to_b, b_to_a = Store(env), Store(env)

    def side_a():
        for i in range(5_000):
            yield a_to_b.put(i)
            yield b_to_a.get()

    def side_b():
        for _ in range(5_000):
            item = yield a_to_b.get()
            yield b_to_a.put(item)

    env.process(side_a())
    env.process(side_b())
    env.run()


def _fanin_anyof() -> None:
    """Wide AnyOf fan-in: the lazy-detach Condition path."""
    env = Environment()

    def waiter():
        for _ in range(50):
            events = [env.timeout(i + 1, value=i) for i in range(500)]
            yield AnyOf(env, events)

    env.process(waiter())
    env.run()


def _timer_churn() -> None:
    """Arm/cancel storms on one re-armable Timer (buffer-flush pattern)."""
    env = Environment()

    def churner():
        t = Timer(env)
        for i in range(20_000):
            t.arm(5.0)
            if i % 100 == 99:
                yield env.timeout(6.0)
            else:
                yield env.timeout(0.001)
                t.cancel()

    env.process(churner())
    env.run()


def _zero_delay_lanes() -> None:
    """Zero-delay succeed chains: pure deque-lane traffic, no heap."""
    env = Environment()

    def chain():
        for _ in range(20_000):
            ev = env.event()
            ev.succeed()
            yield ev

    env.process(chain())
    env.run()


WORKLOADS: Dict[str, Callable[[], None]] = {
    "event_throughput": _event_throughput,
    "process_chains": _process_chains,
    "store_pingpong": _store_pingpong,
    "fanin_anyof": _fanin_anyof,
    "timer_churn": _timer_churn,
    "zero_delay_lanes": _zero_delay_lanes,
}


def time_workload(fn: Callable[[], None], rounds: int,
                  warmup: int) -> Dict[str, float]:
    for _ in range(warmup):
        fn()
    samples: List[float] = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return {
        "min_s": min(samples),
        "median_s": statistics.median(samples),
        "mean_s": statistics.fmean(samples),
        "rounds": rounds,
    }


def _scale_bench(jobs: int, rounds: int, json_path: str) -> int:
    """The ``--scale`` lane: throughput + peak memory of a streamed fold."""
    import resource
    import tracemalloc

    from ..sim import RandomStreams
    from ..workloads.scale import ScaleConfig, iter_campaign, \
        summarize_campaign

    config = ScaleConfig(jobs=jobs)

    def one_pass() -> int:
        return summarize_campaign(
            iter_campaign(RandomStreams(2006), config)).jobs

    one_pass()  # warmup (stream-name caches, import costs)
    samples: List[float] = []
    for _ in range(rounds):
        start = time.perf_counter()
        folded = one_pass()
        samples.append(time.perf_counter() - start)
        assert folded == jobs
    best = min(samples)

    # Memory pass, measured separately so the timing stays untraced:
    # tracemalloc peak is the streamed pass's Python-heap high-water mark
    # (the O(1) evidence); ru_maxrss is the whole-process ceiling.
    tracemalloc.start()
    tracemalloc.reset_peak()
    one_pass()
    _, traced_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    results = {
        "jobs": jobs,
        "rounds": rounds,
        "min_s": best,
        "median_s": statistics.median(samples),
        "jobs_per_sec": jobs / best,
        "traced_peak_bytes": traced_peak,
        "ru_maxrss_kb": maxrss_kb,
    }
    print(f"scale: {jobs:,} jobs in {best:.3f}s "
          f"({results['jobs_per_sec']:,.0f} jobs/s), "
          f"streamed-pass peak {traced_peak / 1e6:.1f} MB traced, "
          f"process ru_maxrss {maxrss_kb / 1024:.0f} MB")
    payload = {
        "schema": "repro-bench-scale/3",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "results": results,
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {json_path}", file=sys.stderr)
    return 0


def bench_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Kernel microbenchmarks (perf_counter; no plugins). "
                    "Compare on `min_s`.")
    parser.add_argument("--rounds", type=int, default=10,
                        help="timed rounds per workload (default 10)")
    parser.add_argument("--warmup", type=int, default=2,
                        help="discarded warmup rounds (default 2)")
    parser.add_argument("--only", metavar="NAMES",
                        help="comma-separated workload subset "
                             f"(from: {', '.join(WORKLOADS)})")
    parser.add_argument("--json", metavar="PATH",
                        help="also write results as JSON")
    parser.add_argument("--scale", action="store_true",
                        help="run the workload-engine lane instead "
                             "(writes BENCH_scale.json)")
    parser.add_argument("--scale-jobs", type=int, default=200_000,
                        metavar="N",
                        help="campaign size for --scale (default 200,000)")
    args = parser.parse_args(argv)

    if args.scale:
        return _scale_bench(args.scale_jobs, max(args.rounds // 2, 1),
                            args.json or "BENCH_scale.json")

    names = list(WORKLOADS)
    if args.only:
        names = [n.strip() for n in args.only.split(",") if n.strip()]
        unknown = [n for n in names if n not in WORKLOADS]
        if unknown:
            parser.error(f"unknown workload(s): {unknown}; "
                         f"choose from {list(WORKLOADS)}")

    results: Dict[str, Dict[str, float]] = {}
    width = max(len(n) for n in names)
    print(f"{'workload':<{width}}  {'min':>9}  {'median':>9}  {'mean':>9}")
    for name in names:
        stats = time_workload(WORKLOADS[name], args.rounds, args.warmup)
        results[name] = stats
        print(f"{name:<{width}}  {stats['min_s'] * 1e3:>7.2f}ms  "
              f"{stats['median_s'] * 1e3:>7.2f}ms  "
              f"{stats['mean_s'] * 1e3:>7.2f}ms", flush=True)

    if args.json:
        payload = {
            "schema": "repro-bench/1",
            "python": platform.python_version(),
            "platform": platform.platform(),
            "rounds": args.rounds,
            "warmup": args.warmup,
            "results": results,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(bench_main(sys.argv[1:]))
