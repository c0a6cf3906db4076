"""``repro trace`` — traced Table-I runs with a per-phase latency breakdown.

Reuses the Table I harness (world construction + pinned jobs) but installs
a :class:`repro.obs.Tracer` on the environment, so every middleware stage
the broker traverses (matchmaking, GRAM submission, glide-in bootstrap,
agent dispatch, VM acquisition, streaming, output retrieval) is attributed
against sim-time.  Output is the per-phase breakdown table plus counters;
``--json``/``--csv`` dump the raw trace for notebooks and CI artifacts.

Usage::

    repro trace                                # all methods
    repro trace --method virtual-machine --jobs 10
    repro trace --scenario wan --json trace.json
    repro trace --telemetry --profile
    repro trace export --chrome out.json

Exit codes follow the ``repro lint`` contract: 0 — run clean; 1 — the
traced run recorded *fatal* signals (error-status spans, failed jobs, a
reliable sender giving up); 2 — usage error.  Non-fatal lifecycle noise
(resubmission timeouts, fast-mode drops, retries that eventually
succeeded) does not fail the command.
"""

from __future__ import annotations

import argparse
import json
from typing import Generator, List, Optional

from ..metrics import (
    counters_table,
    job_breakdown_table,
    phase_breakdown_table,
    write_trace_csv,
)
from ..obs import Tracer
from ..scenario import Scenario
from ..workloads import cpu_bound_app, immediate_output_app
from .table1 import _pinned_job

#: Broker-mediated Table I methods (glogin bypasses the broker entirely,
#: so there is nothing for the lifecycle tracer to attribute).
TRACE_METHODS = ("idle", "virtual-machine", "job+agent")


def run_traced_method(method: str, scenario: str = "campus", jobs: int = 5,
                      seed: int = 1, n_sites: int = 20,
                      telemetry: bool = False,
                      profile: bool = False) -> Tracer:
    """Run ``jobs`` submissions of one Table I method under a tracer.

    ``telemetry=True`` additionally installs a sim-time metrics registry
    (reachable afterwards as ``tracer.env.telemetry``); ``profile=True``
    attaches the kernel wall-clock profiler (``tracer.env.profiler``).
    The returned object stays a plain :class:`Tracer` either way.
    """
    if method not in TRACE_METHODS:
        raise ValueError(f"method must be one of {TRACE_METHODS}, "
                         f"got {method!r}")
    # Same world-seed formula as the Table I cells: (seed, canonical
    # method offset) — here shifted by +1 so traces never share RNG
    # streams with the un-traced Table I measurements.
    offset = TRACE_METHODS.index(method) + 1
    if profile:
        from ..obs import profile_scope

        with profile_scope():
            handle = Scenario(sites=n_sites, scenario=scenario,
                              seed=seed * 1000 + offset, trace=True,
                              telemetry=telemetry).build()
    else:
        handle = Scenario(sites=n_sites, scenario=scenario,
                          seed=seed * 1000 + offset, trace=True,
                          telemetry=telemetry).build()
    tb = handle.testbed
    env = handle.env
    target = handle.target
    assert handle.tracer is not None
    tracer = handle.tracer
    broker = handle.broker

    def driver() -> Generator:
        if method == "virtual-machine":
            # Seed one glide-in agent so the shared path finds a free VM.
            seed_job = _pinned_job(target, "background", False, False)
            seeded = broker.submit(seed_job, lambda r: cpu_bound_app(1e7),
                                   daemon=True)  # background by design
            yield seeded.started
        pace = env.timer(name=f"trace/{method}/pace")
        for i in range(jobs):
            if method == "idle":
                job = _pinned_job(target, f"user{i % 5}", True, False)
            elif method == "virtual-machine":
                job = _pinned_job(target, f"user{i % 5}", True, True)
            else:  # job+agent
                job = _pinned_job(target, f"user{i % 5}", False, False)
            submitted = broker.submit(
                job, lambda r: immediate_output_app(run_for=0.5),
                attach_console=True)
            yield submitted.finished
            yield pace.arm(5.0)
            if method == "job+agent":
                while broker.agents.live_agents():
                    yield pace.arm(1.0)
                tb.publish_all_now()
        return None

    proc = env.process(driver(), name=f"trace/{method}")
    env.run(until=proc)
    return tracer


def _tracer_fatal(tracer: Tracer) -> bool:
    """True when a traced run recorded genuinely fatal signals.

    Deliberately narrower than ``PhaseStats.errors`` (which also counts
    expected lifecycle noise: ``queued-timeout`` resubmissions, fast-mode
    ``dropped`` chunks, reliable ``retry`` attempts).
    """
    if tracer.counters.get("jobs_failed", 0) > 0:
        return True
    if tracer.counters.get("sender_fatal", 0) > 0:
        return True
    return any(span.status == "error" for span in tracer.spans)


def trace_export_main(argv: Optional[List[str]] = None) -> int:
    """``repro trace export --chrome out.json`` — Perfetto/Chrome export."""
    parser = argparse.ArgumentParser(
        prog="repro trace export",
        description="Run a traced method and export the merged spans + "
                    "telemetry counter tracks as Chrome trace_event JSON "
                    "(loadable in ui.perfetto.dev).")
    parser.add_argument("--chrome", metavar="PATH", required=True,
                        help="output path for the trace_event JSON")
    parser.add_argument("--method", choices=TRACE_METHODS, default="idle")
    parser.add_argument("--scenario", choices=("campus", "wan"),
                        default="campus")
    parser.add_argument("--jobs", type=int, default=5)
    parser.add_argument("--sites", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--no-telemetry", action="store_true",
                        help="export spans only (skip counter tracks)")
    args = parser.parse_args(argv)

    from ..obs import export_chrome_trace

    tracer = run_traced_method(args.method, scenario=args.scenario,
                               jobs=args.jobs, seed=args.seed,
                               n_sites=args.sites,
                               telemetry=not args.no_telemetry)
    registry = tracer.env.telemetry
    n = export_chrome_trace(args.chrome, tracer=tracer, telemetry=registry)
    print(f"wrote {n} trace events to {args.chrome} "
          f"(open in ui.perfetto.dev)")
    return 1 if _tracer_fatal(tracer) else 0


def trace_main(argv: Optional[List[str]] = None) -> int:
    if argv and argv[0] == "export":
        return trace_export_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Traced Table I run: per-phase latency breakdown of "
                    "the job lifecycle (see repro.obs).")
    parser.add_argument("--method", choices=TRACE_METHODS + ("all",),
                        default="all", help="submission method to trace")
    parser.add_argument("--scenario", choices=("campus", "wan"),
                        default="campus")
    parser.add_argument("--jobs", type=int, default=5,
                        help="submissions per method (default 5)")
    parser.add_argument("--sites", type=int, default=20,
                        help="grid size (default 20, as in §6.1)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--per-job", action="store_true",
                        help="also print the per-job phase totals")
    parser.add_argument("--telemetry", action="store_true",
                        help="install the sim-time metrics registry and "
                             "print its summary tables")
    parser.add_argument("--profile", action="store_true",
                        help="attach the kernel wall-clock profiler and "
                             "print its per-site attribution")
    parser.add_argument("--json", metavar="PATH",
                        help="dump the full trace(s) as JSON")
    parser.add_argument("--csv", metavar="PATH",
                        help="dump retained spans as CSV (one file per "
                             "method, method name inserted when tracing "
                             "several)")
    args = parser.parse_args(argv)

    methods = list(TRACE_METHODS) if args.method == "all" else [args.method]
    payload = {"scenario": args.scenario, "jobs": args.jobs,
               "sites": args.sites, "seed": args.seed, "methods": {}}
    fatal = False
    for method in methods:
        tracer = run_traced_method(method, scenario=args.scenario,
                                   jobs=args.jobs, seed=args.seed,
                                   n_sites=args.sites,
                                   telemetry=args.telemetry,
                                   profile=args.profile)
        fatal = fatal or _tracer_fatal(tracer)
        title = (f"Per-phase latency breakdown — {method}, {args.scenario} "
                 f"({args.jobs} jobs)")
        print(phase_breakdown_table(tracer, title=title).render())
        print()
        print(counters_table(tracer, title=f"Counters — {method}").render())
        print()
        if args.per_job:
            print(job_breakdown_table(tracer).render())
            print()
        if args.telemetry and tracer.env.telemetry is not None:
            from ..metrics import telemetry_gauges_table, telemetry_overview

            snapshot = tracer.env.telemetry.snapshot()
            print(telemetry_gauges_table(
                snapshot, title=f"Telemetry gauges — {method}").render())
            print()
            print(telemetry_overview(snapshot))
            print()
        if args.profile and tracer.env.profiler is not None:
            prof = tracer.env.profiler
            print(f"Kernel wall-clock profile — {method} "
                  f"({prof.callbacks} callbacks, {prof.run_wall:.3f}s wall)")
            for stats in prof.rows()[:15]:
                print(f"  {stats.site:<40} n={stats.count:<8} "
                      f"total={stats.total:.4f}s mean={stats.mean:.2e}s")
            print()
        payload["methods"][method] = tracer.to_dict()
        if args.csv:
            path = args.csv
            if len(methods) > 1:
                stem, dot, ext = path.rpartition(".")
                path = f"{stem}.{method}.{ext}" if dot else f"{path}.{method}"
            n = write_trace_csv(tracer, path)
            print(f"wrote {n} spans to {path}")
    if args.json:
        if len(methods) == 1:
            # Single-method runs keep the flat tracer snapshot layout.
            tracer_dict = payload["methods"][methods[0]]
            tracer_dict["run"] = {k: v for k, v in payload.items()
                                  if k != "methods"}
            tracer_dict["run"]["method"] = methods[0]
            body = tracer_dict
        else:
            body = payload
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(body, fh, indent=2, default=str)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 1 if fatal else 0


__all__ = ["TRACE_METHODS", "run_traced_method", "trace_export_main",
           "trace_main"]
