"""One benchmark pass in a fresh process; prints one JSON line.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED TRACE [SPANS_PATH]``

A pass runs every experiment of the workload once, then renders each
result as the CLI would.  ``run.py`` starts one worker per pass: the
job-id counter in ``repro.jdl.job`` is process-global and feeds RNG
stream names, so only the first pass in a process reproduces the
committed per-cell digests.

The line reports ``ready`` (``time.monotonic()`` when set-up ended: the
interpreter, ``import repro``, config and chaos-schedule load, and in a
traced pass the wrapper install), the wall seconds of the timed section,
the seconds of each reference run (``reference.py``) made just before
it, between its cells and just after it, per-cell digests, simulated
metrics, failed ShapeChecks, peak RSS and, for a traced pass, the
per-layer metrics.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference  # noqa: E402  (stdlib-only)

#: The host's speed swings within a second, so an untraced pass also runs
#: the reference at the first cell boundary after each PROBE_EVERY_S of
#: work: samples spread through the pass track it better than samples at
#: its two ends.
PROBE_EVERY_S = 0.5


class _Probe:
    """A per-cell progress callback that runs the reference.

    ``spent`` is the wall time its reference runs took; the pass's wall
    time leaves it out.
    """

    def __init__(self, samples: List[float]) -> None:
        self.samples = samples
        self.spent = 0.0
        self.last = time.perf_counter()

    def __call__(self, _line: str) -> None:
        start = time.perf_counter()
        if start - self.last < PROBE_EVERY_S:
            return
        self.samples.append(reference.measure())
        self.last = time.perf_counter()
        self.spent += self.last - start


def _environment() -> Dict[str, Any]:
    import platform

    import numpy
    from repro.sim._compiled import compiled_lane_active

    return {"kernel_lane": "compiled" if compiled_lane_active()
            else "interpreted",
            "python": platform.python_version(),
            "numpy": numpy.__version__}


def main(argv: List[str]) -> int:
    name, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    spans_path = argv[3] if len(argv) > 3 else None

    import repro.experiments  # noqa: F401  (registers the specs)
    import repro.runner
    import spans
    import workloads

    workload = workloads.WORKLOADS[name]
    runs = workload.build(seed)
    log = spans.install() if trace else None
    ready = time.monotonic()
    reference_s = [reference.measure()]

    results: List[Any] = []
    errors: List[str] = []
    t0 = time.perf_counter()
    # A traced pass is not scaled, and its layer self times must sum to
    # its wall time, so it runs no reference between cells.
    probe = None if trace else _Probe(reference_s)
    for run in runs:
        try:
            result = repro.runner.run_experiment(
                run.experiment_id, run.config, parallel=1, cache=None,
                progress=probe, telemetry=run.telemetry, chaos=run.chaos)
            result.render()
        except Exception:  # a raising run fails its cells, not the pass
            result = None
            errors.append(f"{run.experiment_id}: "
                          f"{traceback.format_exc(limit=4)}")
        results.append(result)
    wall = time.perf_counter() - t0 - (probe.spent if probe else 0.0)
    reference_s.append(reference.measure())

    cells: Dict[str, Dict[str, Any]] = {}
    checks_failed: List[str] = []
    for run, result in zip(runs, results):
        payloads = {} if result is None else {
            run.cell_key(key): payload
            for key, payload in run.payloads(result).items()}
        seconds = {} if result is None else {
            run.cell_key(outcome.key): outcome.elapsed
            for outcome in result.data["runner"].cells}
        submits = (workloads.broker_cell_submits(result)
                   if result is not None and run.telemetry else {})
        for key, ops in run.planned.items():
            payload = payloads.get(key)
            cell = {"ops": ops, "seconds": seconds.get(key),
                    "digest": None if payload is None
                    else workloads.digest(payload)}
            if key in submits and submits[key] != ops:
                cell["error"] = (f"{submits[key]:g} submissions reached "
                                 f"the broker, {ops} planned")
            cells[key] = cell
        if result is not None and workload.shape_checked:
            checks_failed += [f"{run.experiment_id}: {c.description}"
                              for c in result.checks if not c.passed]

    out: Dict[str, Any] = {
        "ready": ready,
        "wall": wall,
        "reference_s": reference_s,
        "cells": cells,
        "sim": workload.sim_metrics(runs, results),
        "checks_failed": checks_failed,
        "errors": errors,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": _environment(),
    }
    if log is None:
        spans.check_boundaries()  # a renamed boundary fails every run
    else:
        out["layers"] = spans.layer_metrics(log, wall)
        out["spans"] = len(log.start)
        if spans_path:
            log.write(spans_path)
    print(json.dumps(out, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
