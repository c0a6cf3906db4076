"""§6.1 in-text claim: discovery ≈ 0.5 s regardless of grid size (it is one
index query), while selection grows with the number of discovered sites
(the broker refreshes each one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Tuple

from ..calibration import Calibration, DEFAULT_CALIBRATION
from ..jdl import JobDescription, JobCategory, MachineAccess
from ..metrics import AsciiTable, Series
from ..runner.spec import CellKey, ExperimentSpec, register
from ..scenario import Scenario
from ..workloads import immediate_output_app
from .common import ConfigCodec, ExperimentResult


@dataclass
class SelectionScalingConfig(ConfigCodec):
    site_counts: Tuple[int, ...] = (5, 10, 20, 40)
    jobs: int = 10
    seed: int = 3
    calibration: Calibration = field(default_factory=lambda: DEFAULT_CALIBRATION)


def _measure(config: SelectionScalingConfig,
             n_sites: int) -> Tuple[Series, Series]:
    handle = Scenario(sites=n_sites, scenario="europe",
                      seed=config.seed + n_sites,
                      calibration=config.calibration).build()
    env = handle.env
    broker = handle.broker
    discovery: List[float] = []
    selection: List[float] = []

    def driver() -> Generator:
        pace = env.timer(name="selscale/pace")
        for i in range(config.jobs):
            job = JobDescription(
                executable="probe", owner=f"user{i % 3}",
                category=JobCategory.INTERACTIVE,
                machine_access=MachineAccess.EXCLUSIVE)
            submitted = broker.submit(
                job, lambda r: immediate_output_app(run_for=0.1))
            yield submitted.finished
            discovery.append(submitted.report.discovery_time)
            selection.append(submitted.report.selection_time)
            yield pace.arm(2.0)
        return None

    proc = env.process(driver(), name="selscale")
    env.run(until=proc)
    return Series.of("discovery", discovery), Series.of("selection", selection)


# ---------------------------------------------------------------------------
# Runner cells: one grid size per cell
# ---------------------------------------------------------------------------
def plan_cells(config: SelectionScalingConfig) -> List[CellKey]:
    return [(str(n),) for n in config.site_counts]


def run_cell(config: SelectionScalingConfig,
             key: CellKey) -> Tuple[Series, Series]:
    return _measure(config, int(key[0]))


def merge_cells(config: SelectionScalingConfig,
                payloads: Dict[CellKey, Tuple[Series, Series]]) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="selection-scaling",
        title="Discovery/selection time vs. number of sites",
        paper_reference="§6.1 in-text timings (0.5 s discovery, 3 s "
                        "selection at 20 sites)")
    table = AsciiTable(["sites", "discovery mean (s)", "selection mean (s)"],
                       title="Two-stage selection scaling")
    discovery: Dict[int, Series] = {}
    selection: Dict[int, Series] = {}
    for n in config.site_counts:
        d, s = payloads[(str(n),)]
        discovery[n], selection[n] = d, s
        table.add_row(n, d.mean, s.mean)
    result.tables.append(table)
    result.data["discovery"] = discovery
    result.data["selection"] = selection

    counts = sorted(config.site_counts)
    result.check(
        "selection time grows with the number of sites",
        all(selection[a].mean < selection[b].mean
            for a, b in zip(counts, counts[1:])),
        " -> ".join(f"{n}:{selection[n].mean:.2f}s" for n in counts))
    lo, hi = discovery[counts[0]].mean, discovery[counts[-1]].mean
    result.check(
        "discovery time is roughly flat in grid size",
        hi < 2.0 * lo + 0.2,
        f"{counts[0]} sites: {lo:.2f}s vs {counts[-1]} sites: {hi:.2f}s")
    if 20 in selection:
        result.check(
            "selection at 20 sites lands near the paper's ~3 s",
            1.8 <= selection[20].mean <= 4.5,
            f"measured {selection[20].mean:.2f}s")
    return result


register(ExperimentSpec(
    experiment_id="selection-scaling",
    config_factory=SelectionScalingConfig,
    plan=plan_cells,
    run_cell=run_cell,
    merge=merge_cells,
    cache_salt="ss-v1",
    quick_config_factory=lambda: SelectionScalingConfig(jobs=4),
))
