"""The repository benchmark: three paper workloads, end to end and by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table1-startup --seed 1 \\
        --seconds 30 --trace 0

``--workload`` is ``table1-startup``, ``stream-io``, ``broker-chaos`` or
``all`` (each in turn).  A run repeats passes of the workload for about
``--seconds`` seconds.  Each pass runs in a fresh worker process
(``worker.py``) with the cell cache off and no process pool; set-up time
is measured from the worker's start to its first timed op.

``--trace 0`` reports the end-to-end metrics, each a median over the
passes.  The host is a share of a busy machine whose speed drifts by
tens of percent from minute to minute, so throughput is reported as
``norm_ops_per_s``: the median ops per second of the passes, scaled by
the mean time of a fixed reference simulation (``reference.py``) run
just before, during (between cells) and just after each pass.  The raw
``ops_per_s`` is printed as an extra.
``--trace 1`` alternates an untraced and a traced pass and reports the
per-layer metrics of the traced passes (``spans.py``) plus the tracing
overhead.

Outputs are checked: each cell's payload digest must match the one
committed in ``digests.json`` when ``--seed`` is the workload's default
seed, must be the same in every pass, and a traced pass must match the
untraced one.  On ``table1-startup`` and ``stream-io`` every ShapeCheck
must pass.  A cell that raises or mismatches counts its ops as failed.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
same metrics for people, the workload extras (``paper_err_pct``, ...)
and the run's environment.  The full record, per-pass samples included,
is written to ``.perfbench/`` in the checkout.

``--record-digests`` runs one pass at the default seed and rewrites the
workload's entry in ``digests.json``; use it only for a change that is
meant to alter simulated results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(ROOT, ".perfbench")
#: Every run must end well inside the 180 s a run may take.
HARD_LIMIT_S = 165.0

sys.path.insert(0, HERE)
import reference  # noqa: E402  (stdlib-only)
import workloads  # noqa: E402  (stdlib-only at import)


class BenchError(RuntimeError):
    """The benchmark could not measure (not a failed op)."""


def _load_json(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------
def _run_worker(name: str, seed: int, trace: bool,
                deadline: float) -> Dict[str, Any]:
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.npz")
    cmd = [sys.executable, WORKER, name, str(seed), "1" if trace else "0",
           spans_path]
    spawn = time.monotonic()
    timeout = deadline - spawn
    if timeout <= 0:
        raise BenchError("out of time before a pass could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {name} pass did not finish within "
                         f"{timeout:.0f}s") from None
    end = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}:\n"
                         + proc.stderr[-3000:])
    record = json.loads(lines[-1])
    record["trace"] = trace
    record["setup_s"] = record.pop("ready") - spawn
    record["elapsed_s"] = end - spawn
    return record


def _measure(name: str, seed: int, seconds: float,
             trace: bool) -> List[Dict[str, Any]]:
    """Passes until ``seconds`` are used (at least one pass or pair)."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    passes: List[Dict[str, Any]] = []
    rounds: List[float] = []
    while True:
        t0 = time.monotonic()
        if trace:
            passes.append(_run_worker(name, seed, False, deadline))
        passes.append(_run_worker(name, seed, trace, deadline))
        rounds.append(time.monotonic() - t0)
        used = time.monotonic() - start
        if used + statistics.median(rounds) > seconds:
            return passes


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------
def _check(name: str, seed: int, passes: List[Dict[str, Any]],
           spec: Dict[str, Any]) -> Dict[str, Any]:
    """Failed ops per pass and the reasons the run is not correct."""
    sizes = spec["workloads"][name]
    recorded = _load_json(DIGESTS).get(name)
    if recorded is None:
        raise BenchError(f"digests.json has no entry for {name}")
    committed = recorded["cells"] if seed == recorded["seed"] else None
    first = next(p for p in passes if not p["trace"])
    problems: List[str] = []
    attempted = failed = 0
    for record in passes:
        if (len(record["cells"]), sum(c["ops"] for c in record["cells"].values())
                ) != (sizes["cells"], sizes["ops"]):
            problems.append("cells or ops per pass differ from metrics.json")
        for key, cell in record["cells"].items():
            attempted += cell["ops"]
            why = None
            if cell["digest"] is None:
                why = "the cell raised"
            elif cell.get("error"):
                why = cell["error"]
            elif committed is not None and cell["digest"] != committed.get(key):
                why = "digest differs from digests.json"
            elif cell["digest"] != first["cells"][key]["digest"]:
                why = ("traced digest differs from the untraced one"
                       if record["trace"] else
                       "digest differs between passes of the same seed")
            if why is not None:
                failed += cell["ops"]
                problems.append(f"{key}: {why}")
        problems += record["errors"]
        problems += [f"ShapeCheck failed: {c}" for c in record["checks_failed"]]
        if record["sim"] != first["sim"]:
            problems.append("simulated metrics differ between passes")
        if record["trace"]:
            layers = record["layers"]
            covered = sum(v for k, v in layers.items() if k.endswith(".self_s"))
            if abs(covered - record["wall"]) > 1e-6 * record["wall"] + 1e-9:
                problems.append(f"layer self times sum to {covered:.6f}s, "
                                f"traced wall is {record['wall']:.6f}s")
    return {"attempted": attempted, "failed": failed,
            "problems": sorted(set(problems))}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def _finite(value: float) -> float:
    """JSON has no infinity; an unbounded value reads as the float max."""
    return value if value == value and abs(value) != float("inf") \
        else sys.float_info.max


def _ops_done(record: Dict[str, Any]) -> int:
    return sum(c["ops"] for c in record["cells"].values()
               if c["digest"] is not None and not c.get("error"))


def _ops_per_s(passes: List[Dict[str, Any]]) -> float:
    """Median over the untraced passes of ops done per host second."""
    return statistics.median(_ops_done(p) / p["wall"]
                             for p in passes if not p["trace"])


def _reference_s(passes: List[Dict[str, Any]]) -> float:
    """Mean time of the reference runs around the untraced passes."""
    return statistics.fmean(t for p in passes if not p["trace"]
                            for t in p["reference_s"])


def _end_to_end(passes: List[Dict[str, Any]], spec: Dict[str, Any]
                ) -> Dict[str, float]:
    sim = passes[0]["sim"]
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        # Scaled by the run's mean reference time, not pass by pass: a
        # pass holds too few reference runs to estimate its own speed,
        # while the drift over a run is what the scaling damps.
        "norm_ops_per_s": _ops_per_s(passes) * _reference_s(passes)
        / reference.NOMINAL_S,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "sim_response_p50_s": sim["sim_response_p50_s"],
        "sim_success_pct": sim["sim_success_pct"],
    }
    if set(values) != set(spec["end_to_end"]):
        raise BenchError("end-to-end metrics disagree with metrics.json")
    return values


def _per_layer(passes: List[Dict[str, Any]], spec: Dict[str, Any]
               ) -> Dict[str, float]:
    traced = [p for p in passes if p["trace"]]
    plain = [p for p in passes if not p["trace"]]
    names = sorted(traced[0]["layers"])
    values = {k: statistics.median(p["layers"][k] for p in traced)
              for k in names}
    values["trace.overhead_pct"] = 100.0 * (
        statistics.median(p["wall"] for p in traced)
        / statistics.median(p["wall"] for p in plain) - 1.0)
    if set(values) != set(spec["per_layer"]):
        missing = set(spec["per_layer"]) - set(values)
        extra = set(values) - set(spec["per_layer"])
        raise BenchError(f"per-layer metrics disagree with metrics.json: "
                         f"missing {sorted(missing)}, extra {sorted(extra)}")
    return values


def _environment(passes: List[Dict[str, Any]]) -> Dict[str, Any]:
    env = dict(passes[0]["env"])
    env["nproc"] = os.cpu_count()
    env["platform"] = platform.platform()
    env["commit"] = _commit()
    return env


def _commit() -> str:
    """The git commit, or a digest of ``src/`` outside a git checkout."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            if proc.returncode == 0 and proc.stdout.strip():
                return proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.blake2b(digest_size=10)
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith((".py", ".c", ".html")):
                path = os.path.join(dirpath, filename)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "src-" + h.hexdigest()


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: Dict[str, Any]) -> Dict[str, Any]:
    passes = _measure(name, seed, seconds, trace)
    checked = _check(name, seed, passes, spec)
    if trace:
        values = _per_layer(passes, spec)
        units = {k: spec["per_layer"][k]["unit"] for k in values}
    else:
        values = _end_to_end(passes, spec)
        units = {k: spec["end_to_end"][k]["unit"] for k in values}
    extras = {k: v for k, v in passes[0]["sim"].items()
              if k in spec["workload_extras"]}
    extras["ops_per_s"] = _ops_per_s(passes)
    extras["reference_s"] = _reference_s(passes)
    return {
        "workload": name, "seed": seed, "trace": trace,
        "correct": not checked["problems"] and checked["failed"] == 0,
        "attempted": checked["attempted"], "failed": checked["failed"],
        "problems": checked["problems"],
        "metrics": {k: {"value": _finite(v), "unit": units[k]}
                    for k, v in values.items()},
        "extras": {k: {"value": _finite(v),
                       "unit": spec["workload_extras"][k]["unit"]}
                   for k, v in extras.items()},
        "environment": _environment(passes),
        "passes": [dict({k: v for k, v in p.items() if k != "cells"},
                        cell_s={k: c["seconds"]
                                for k, c in p["cells"].items()})
                   for p in passes],
    }


def _print_human(result: Dict[str, Any]) -> None:
    print(f"# {result['workload']} seed={result['seed']} "
          f"trace={int(result['trace'])} passes={len(result['passes'])} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    for section in ("metrics", "extras"):
        for key, m in sorted(result[section].items()):
            print(f"  {key:<26} {m['value']:>16.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    print("  environment: " + json.dumps(result["environment"],
                                         sort_keys=True))


def _save(result: Dict[str, Any]) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{result['workload']}-seed{result['seed']}"
                                 f"-trace{int(result['trace'])}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)


def _verify_benchmark_json(spec: Dict[str, Any]) -> None:
    """BENCHMARK.json must name what metrics.json and this code report."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    bench = _load_json(path)
    for section in ("end_to_end", "per_layer"):
        for entry in bench[section]:
            mine = spec[section].get(entry["name"])
            if mine is None or mine["unit"] != entry["unit"] \
                    or mine["better"] != entry["better"]:
                raise BenchError(f"BENCHMARK.json {section} entry "
                                 f"{entry['name']!r} disagrees with "
                                 f"perfbench/metrics.json")
        if {e["name"] for e in bench[section]} != set(spec[section]):
            raise BenchError(f"BENCHMARK.json {section} names differ from "
                             f"perfbench/metrics.json")
    if {w["name"] for w in bench["workloads"]} != set(workloads.WORKLOADS):
        raise BenchError("BENCHMARK.json workloads differ from workloads.py")


def record_digests(name: str, spec: Dict[str, Any]) -> None:
    seed = spec["workloads"][name]["default_seed"]
    record = _run_worker(name, seed, False, time.monotonic() + HARD_LIMIT_S)
    if record["errors"] or record["checks_failed"]:
        raise BenchError("refusing to record digests of a failing pass: "
                         + "; ".join(record["errors"]
                                     + record["checks_failed"]))
    digests = _load_json(DIGESTS) if os.path.exists(DIGESTS) else {}
    digests[name] = {"seed": seed,
                     "cells": {k: c["digest"]
                               for k, c in record["cells"].items()}}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(record['cells'])} cell digests for {name} "
          f"at seed {seed}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    names = sorted(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]

    try:
        if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
            raise BenchError(f"no program to measure: {SRC}/repro is missing")
        spec = _load_json(os.path.join(HERE, "metrics.json"))
        _verify_benchmark_json(spec)
        if args.record_digests:
            for name in names:
                record_digests(name, spec)
            return 0
        if args.seed is None:
            parser.error("--seed is required")
        results = []
        for name in names:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), spec)
            _save(result)
            _print_human(result)
            results.append(result)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m
                   for r in results for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
