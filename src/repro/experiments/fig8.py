"""Figure 8: VM load overhead (CPU left, I/O right).

§6.3's four configurations of the 1000-iteration loop application:

* **exclusive** — alone on an idle machine (the reference);
* **shared-alone** — on the interactive VM of a glide-in agent, batch VM
  empty (paper: indistinguishable from exclusive);
* **shared, PL=10** — batch CPU hog co-located (paper: CPU ≈ +8-9 %,
  I/O ≈ +5 %);
* **shared, PL=25** — (paper: CPU ≈ +22 %, I/O ≈ +10 %).

Paper reference values: CPU 0.921 / 1.004 / 1.132 s; I/O 6.06 / 6.32 /
6.61 ms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from ..calibration import Calibration, DEFAULT_CALIBRATION
from ..metrics import (
    AsciiTable,
    Series,
    indistinguishable,
    relative_increase,
    sparkline,
)
from ..multiprog import AgentRuntime
from ..runner.spec import CellKey, ExperimentSpec, register
from ..scenario import Scenario
from ..workloads import cpu_hog, make_loop_app
from .common import ConfigCodec, ExperimentResult

#: Paper's measured means, for side-by-side reporting.
PAPER_CPU = {"exclusive": 0.921, "shared-alone": 0.921,
             "shared-pl10": 1.004, "shared-pl25": 1.132}
PAPER_IO = {"exclusive": 0.00606, "shared-alone": 0.00606,
            "shared-pl10": 0.00632, "shared-pl25": 0.00661}


@dataclass
class Fig8Config(ConfigCodec):
    iterations: int = 1000
    performance_losses: Tuple[int, ...] = (10, 25)
    seed: int = 8
    calibration: Calibration = field(default_factory=lambda: DEFAULT_CALIBRATION)


def _scenario_table(config: Fig8Config) -> List[Tuple[str, Optional[int],
                                                      bool, bool]]:
    """The canonical (name, pl, with_batch, shared) configuration list."""
    scenarios: List[Tuple[str, Optional[int], bool, bool]] = [
        ("exclusive", None, False, False),
        ("shared-alone", config.performance_losses[0], False, True),
    ]
    for pl in config.performance_losses:
        scenarios.append((f"shared-pl{pl}", pl, True, True))
    return scenarios


def _scenario(config: Fig8Config, pl: Optional[int], with_batch: bool,
              shared: bool, seed_offset: int) -> Tuple[Series, Series]:
    """Run one configuration; returns (io_series, cpu_series)."""
    calibration = config.calibration
    profile = calibration.loop_app
    if config.iterations != profile.iterations:
        from dataclasses import replace

        profile = replace(profile, iterations=config.iterations)
    handle = Scenario(sites=1, scenario="campus", nodes_per_site=1,
                      seed=config.seed + seed_offset,
                      calibration=calibration).build()
    tb = handle.testbed
    env = tb.env
    node = handle.node()
    loop = make_loop_app(profile)

    if not shared:
        node.acquire("fig8")
        proc = node.execute(loop, "loop", interactive=True,
                            performance_loss=pl or 0)
        env.run(until=proc)
        samples = proc.value
    else:
        runtime = AgentRuntime(env, tb.network, tb.rng, node,
                               calibration.middleware)
        node.acquire(runtime.agent_id)

        def driver() -> Generator:
            # Boot the runtime in place (no GRAM path needed here; Fig. 8
            # isolates the steady-state overhead, not startup).
            boot = env.process(runtime.behavior()(_direct_ctx(env, tb, node)),
                               name="fig8/agent", daemon=True)
            yield runtime.ready
            if with_batch:
                bt = yield from runtime.run_job("hog", cpu_hog(), False, 0,
                                                daemon=True)
                yield bt.started
            it = yield from runtime.run_job("loop", loop, True, pl or 0)
            result = yield it.finished
            return result

        proc = env.process(driver(), name="fig8/driver")
        env.run(until=proc)
        samples = proc.value

    io_series = Series.of("io", [s.io_elapsed for s in samples])
    cpu_series = Series.of("cpu", [s.cpu_elapsed for s in samples])
    return io_series, cpu_series


def _direct_ctx(env, tb, node):
    """A machine context for booting the agent runtime in place."""
    from ..grid.workernode import MachineContext

    tenant = node.cpu.attach("fig8-agent", interactive=False, daemon=True)
    return MachineContext(env, node, tenant, tb.rng, "fig8-agent")


# ---------------------------------------------------------------------------
# Runner cells: one loop-application configuration per cell
# ---------------------------------------------------------------------------
def plan_cells(config: Fig8Config) -> List[CellKey]:
    return [(name,) for name, _, _, _ in _scenario_table(config)]


def run_cell(config: Fig8Config, key: CellKey) -> Tuple[Series, Series]:
    table = _scenario_table(config)
    for offset, (name, pl, with_batch, shared) in enumerate(table):
        if name == key[0]:
            return _scenario(config, pl, with_batch, shared, offset)
    raise KeyError(f"unknown fig8 cell {key!r}")


def merge_cells(config: Fig8Config,
                payloads: Dict[CellKey, Tuple[Series, Series]]) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig8",
        title="VM load overhead: CPU bursts and I/O under multiprogramming",
        paper_reference="Figure 8 and §6.3 statistics")

    cpu: Dict[str, Series] = {}
    io: Dict[str, Series] = {}
    for name, _, _, _ in _scenario_table(config):
        io_s, cpu_s = payloads[(name,)]
        cpu[name] = cpu_s
        io[name] = io_s
    result.data["cpu"] = cpu
    result.data["io"] = io

    table = AsciiTable(
        ["configuration", "CPU mean (s)", "CPU std", "CPU paper (s)",
         "I/O mean (ms)", "I/O std (ms)", "I/O paper (ms)"],
        title="Figure 8 — loop application phase times", precision=4)
    for name in cpu:
        paper_cpu = PAPER_CPU.get(name)
        paper_io = PAPER_IO.get(name)
        table.add_row(name, cpu[name].mean, cpu[name].std,
                      paper_cpu if paper_cpu is not None else None,
                      io[name].mean * 1e3, io[name].std * 1e3,
                      paper_io * 1e3 if paper_io is not None else None)
    result.tables.append(table)

    result.notes.append("Per-iteration CPU burst series (Figure 8 left):")
    for name in cpu:
        result.notes.append(
            f"  {name:>14}  {sparkline(cpu[name].values, 48)}  "
            f"mean {cpu[name].mean:.4f} s")
    result.notes.append("Per-iteration I/O series (Figure 8 right):")
    for name in io:
        result.notes.append(
            f"  {name:>14}  {sparkline(io[name].values, 48)}  "
            f"mean {io[name].mean*1e3:.3f} ms")

    # -- shape checks -----------------------------------------------------
    ref_cpu, ref_io = cpu["exclusive"], io["exclusive"]
    result.check(
        "shared-alone is indistinguishable from exclusive (CPU)",
        indistinguishable(ref_cpu, cpu["shared-alone"], 0.02),
        f"delta={relative_increase(ref_cpu, cpu['shared-alone'])*100:.2f}%")
    result.check(
        "shared-alone is indistinguishable from exclusive (I/O)",
        indistinguishable(ref_io, io["shared-alone"], 0.03),
        f"delta={relative_increase(ref_io, io['shared-alone'])*100:.2f}%")

    for pl in config.performance_losses:
        name = f"shared-pl{pl}"
        cpu_loss = relative_increase(ref_cpu, cpu[name])
        io_loss = relative_increase(ref_io, io[name])
        nominal = pl / 100.0
        result.check(
            f"PL={pl}: measured CPU loss close to but not above nominal",
            0.5 * nominal <= cpu_loss <= nominal * 1.05,
            f"measured={cpu_loss*100:.1f}% vs nominal {pl}%")
        result.check(
            f"PL={pl}: I/O loss positive and smaller than CPU loss",
            0.0 < io_loss < cpu_loss,
            f"io={io_loss*100:.1f}% cpu={cpu_loss*100:.1f}%")

    if len(config.performance_losses) >= 2:
        lo, hi = config.performance_losses[0], config.performance_losses[-1]
        result.check(
            "higher PerformanceLoss costs more CPU time",
            cpu[f"shared-pl{hi}"].mean > cpu[f"shared-pl{lo}"].mean,
            f"pl{lo}={cpu[f'shared-pl{lo}'].mean:.4f}s "
            f"pl{hi}={cpu[f'shared-pl{hi}'].mean:.4f}s")
    return result


register(ExperimentSpec(
    experiment_id="fig8",
    config_factory=Fig8Config,
    plan=plan_cells,
    run_cell=run_cell,
    merge=merge_cells,
    cache_salt="f8-v1",
    quick_config_factory=lambda: Fig8Config(iterations=300),
))
