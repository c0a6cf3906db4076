"""The benchmark's three workloads, built from the paper's experiments.

Each workload is a list of experiment runs driven through the public
``repro.runner.run_experiment`` with the cell cache off and one process
(``parallel=1``).  The workload seed is written into every config's
``seed``.  For each run the workload knows its planned ops per cell, how
to pull each cell's payload out of the merged result (for the digest),
and which simulated metrics the ops produce.

* ``table1-startup`` — Table I at paper scale (an op is one submission);
* ``stream-io`` — Figures 6 and 7 at paper scale (an op is one
  read/write sequence);
* ``broker-chaos`` — ``broker-modes`` with 100 jobs per cell, telemetry
  on and the chaos schedule in ``chaos.json`` (an op is one submission
  reaching a terminal state, injected burst jobs included).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
CHAOS_PATH = os.path.join(HERE, "chaos.json")


@dataclasses.dataclass
class Run:
    """One ``run_experiment`` call of a workload."""

    experiment_id: str
    config: Any
    ops_per_cell: int
    #: ``merged result -> {cell key tuple: payload}``.
    payloads: Callable[[Any], Dict[Tuple[str, ...], Any]]
    telemetry: bool = False
    chaos: Optional[Dict[str, Any]] = None
    #: Prefix of this run's cell keys (when a workload has several runs).
    prefix: str = ""

    def cell_key(self, key: Tuple[str, ...]) -> str:
        return self.prefix + "/".join(key)

    @property
    def planned(self) -> Dict[str, int]:
        """Planned ops per cell key, in the experiment's plan order."""
        from repro.runner import get_spec

        plan = get_spec(self.experiment_id).plan(self.config)
        return {self.cell_key(key): self.ops_per_cell for key in plan}


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    #: Whether every ShapeCheck of the merged results must pass.
    shape_checked: bool
    build: Callable[[int], List[Run]]
    #: ``(runs, results) -> simulated metrics``; results may hold None
    #: for a run that raised.
    sim_metrics: Callable[[List[Run], List[Any]], Dict[str, float]]


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------
def _canonical(value: Any) -> Any:
    """A JSON-able, exact rendering of a cell payload."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, float):
        return value.hex()
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise TypeError(f"cannot digest a {type(value).__name__}")


def digest(payload: Any) -> str:
    text = json.dumps(_canonical(payload), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


# ---------------------------------------------------------------------------
# Simulated metrics
# ---------------------------------------------------------------------------
def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failed ops) sort last."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _with_missing(values: List[float], planned: int) -> List[float]:
    """Ops that produced no sample count as unbounded."""
    return values + [math.inf] * max(0, planned - len(values))


# -- table1-startup ----------------------------------------------------------
def _table1_runs(seed: int) -> List[Run]:
    from repro.experiments.table1 import Table1Config

    config = Table1Config(seed=seed)

    def payloads(result: Any) -> Dict[Tuple[str, ...], Any]:
        return {(scenario, method): m
                for scenario, by_method in result.data["measurements"].items()
                for method, m in by_method.items()}

    return [Run("table1", config, config.jobs_per_method, payloads)]


def _table1_metrics(runs: List[Run], results: List[Any]) -> Dict[str, float]:
    from repro.experiments.table1 import PAPER

    planned = sum(runs[0].planned.values())
    result = results[0]
    if result is None:
        values: List[float] = []
        errors = [math.inf]
    else:
        data = result.data["measurements"]
        values = [v for by_method in data.values()
                  for m in by_method.values() for v in m.submission.values]
        errors = [abs(data[scenario][method].submission.mean - paper) / paper
                  for method, by_scenario in PAPER.items()
                  for scenario, paper in by_scenario.items()
                  if paper is not None]
    samples = _with_missing(values, planned)
    return {
        "sim_response_p50_s": percentile(samples, 50),
        "sim_response_p98_s": percentile(samples, 98),
        "sim_success_pct": 100.0 * len(values) / planned,
        "paper_err_pct": 100.0 * math.fsum(errors) / len(errors),
    }


# -- stream-io ---------------------------------------------------------------
def _stream_runs(seed: int) -> List[Run]:
    from repro.experiments.streaming_overhead import StreamingConfig

    def payloads(result: Any) -> Dict[Tuple[str, ...], Any]:
        return {(name, str(size)): series
                for name, by_size in result.data["series"].items()
                for size, series in by_size.items()}

    runs = []
    for experiment_id, scenario in (("fig6", "campus"), ("fig7", "wan")):
        config = StreamingConfig(scenario=scenario, seed=seed)
        runs.append(Run(experiment_id, config, config.sequences, payloads,
                        prefix=f"{experiment_id}/"))
    return runs


def _stream_metrics(runs: List[Run], results: List[Any]) -> Dict[str, float]:
    planned = sum(sum(run.planned.values()) for run in runs)
    values = [v for result in results if result is not None
              for by_size in result.data["series"].values()
              for series in by_size.values() for v in series.values]
    samples = _with_missing(values, planned)
    return {
        "sim_response_p50_s": percentile(samples, 50),
        "sim_rtt_p50_ms": 1e3 * percentile(samples, 50),
        "sim_rtt_p999_ms": 1e3 * percentile(samples, 99.9),
        "sim_success_pct": 100.0 * len(values) / planned,
    }


# -- broker-chaos ------------------------------------------------------------
def load_chaos() -> Dict[str, Any]:
    """The chaos schedule, validated through ``ChaosSchedule``."""
    from repro.obs import ChaosSchedule

    schedule = ChaosSchedule.load(CHAOS_PATH)
    if not len(schedule):
        raise ValueError(f"{CHAOS_PATH}: the schedule has no actions")
    return schedule.to_dict()


def _broker_runs(seed: int) -> List[Run]:
    from repro.experiments.broker_modes import BrokerModesConfig

    config = BrokerModesConfig(jobs=100, seed=seed)
    chaos = load_chaos()
    injected = sum(int(action.get("count", 1))
                   for action in chaos["actions"]
                   if action["verb"] == "inject")

    def payloads(result: Any) -> Dict[Tuple[str, ...], Any]:
        return dict(result.data["measurements"])

    return [Run("broker-modes", config, config.jobs + injected, payloads,
                telemetry=True, chaos=chaos)]


def _broker_metrics(runs: List[Run], results: List[Any]) -> Dict[str, float]:
    result = results[0]
    if result is None:
        return {"sim_response_p50_s": math.inf, "sim_success_pct": 0.0}
    measured = result.data["measurements"].values()
    jobs = sum(m.jobs for m in measured)
    successes = sum(m.successes for m in measured)
    values = [v for m in measured for v in m.response.values]
    return {
        "sim_response_p50_s": percentile(_with_missing(values, jobs), 50),
        "sim_success_pct": 100.0 * successes / jobs,
    }


def broker_cell_submits(result: Any) -> Dict[str, float]:
    """Submissions per cell as the broker's telemetry counted them."""
    cells = result.data["telemetry"]["cells"]
    return {key: snap["counters"].get("broker.submits", 0.0)
            for key, snap in cells.items()}


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("table1-startup", True, _table1_runs, _table1_metrics),
        Workload("stream-io", True, _stream_runs, _stream_metrics),
        # Checked by digest only: the chaos schedule fails two of the six
        # broker-modes ShapeChecks by design.
        Workload("broker-chaos", False, _broker_runs, _broker_metrics),
    )
}

