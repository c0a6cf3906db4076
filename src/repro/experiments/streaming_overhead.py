"""Figures 6 & 7: sequential I/O streaming round trips.

§6.2's suite: 1000 coordinated read/write sequences between a client on
the submission machine and a server on the execution machine, payloads
10 B to 10 KB, four mechanisms (ssh, glogin, interposition agents in fast
and reliable modes), over the campus grid (Fig. 6) and the wide-area
UAB<->IFCA path (Fig. 7).

Expected shape (paper §6.2 prose):

* campus: fast is the best at all sizes; glogin performs poorly; reliable
  is slowest for small payloads (disk overhead) but **beats ssh at 10 KB**
  thanks to its larger internal buffers;
* wide-area: fast ≈ ssh ≈ glogin for 10 B-1 KB but with higher variance;
  glogin degrades at 10 KB; reliable ≈ ssh at 10 KB.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Tuple

from ..baselines import GloginMechanism, InterpositionMechanism, SshMechanism
from ..calibration import Calibration, DEFAULT_CALIBRATION
from ..grid import Testbed
from ..jdl import StreamingMode
from ..metrics import AsciiTable, Series, crossover_size, ranking, sparkline
from ..runner.spec import CellKey, ExperimentSpec, register
from ..scenario import Scenario
from ..workloads import run_sequences
from .common import ConfigCodec, ExperimentResult

SIZES: Tuple[int, ...] = (10, 100, 1000, 10000)
MECHANISMS: Tuple[str, ...] = ("ssh", "glogin", "agents-fast",
                               "agents-reliable")


@dataclass
class StreamingConfig(ConfigCodec):
    scenario: str = "campus"  # or "wan"
    sizes: Tuple[int, ...] = SIZES
    sequences: int = 1000
    seed: int = 6
    calibration: Calibration = field(default_factory=lambda: DEFAULT_CALIBRATION)


def _build_world(config: StreamingConfig, offset: int) -> Testbed:
    return Scenario(sites=1, scenario=config.scenario, nodes_per_site=1,
                    seed=config.seed + offset,
                    calibration=config.calibration).build().testbed


def _make_mechanism(name: str, tb: Testbed, config: StreamingConfig):
    site = next(iter(tb.sites.values()))
    node = site.nodes[0]
    cal = config.calibration
    wan = config.scenario != "campus"
    if name == "ssh":
        return SshMechanism(tb.env, tb.network, tb.rng, "ui", node.name,
                            cal.ssh)
    if name == "glogin":
        return GloginMechanism(tb.env, tb.network, tb.rng, "ui", node.name,
                               cal.glogin, wan=wan)
    mode = StreamingMode.FAST if name.endswith("fast") else StreamingMode.RELIABLE
    return InterpositionMechanism(tb.env, tb.network, tb.rng, "ui", node,
                                  cal.streaming, mode)


# ---------------------------------------------------------------------------
# Runner cells: one (mechanism, payload-size) pair per cell
# ---------------------------------------------------------------------------
def plan_cells(config: StreamingConfig) -> List[CellKey]:
    return [(name, str(size))
            for name in MECHANISMS for size in config.sizes]


def run_cell(config: StreamingConfig, key: CellKey) -> Series:
    name, size_str = key
    size = int(size_str)
    # The cell's world seed offset is its canonical position in the
    # mechanism x size grid — stable under sharding, identical to the
    # historical serial sweep order.
    offset = (MECHANISMS.index(name) * len(config.sizes)
              + config.sizes.index(size))
    tb = _build_world(config, offset)
    mech = _make_mechanism(name, tb, config)

    def driver() -> Generator:
        times = yield from run_sequences(mech, size, config.sequences)
        return times

    proc = tb.env.process(driver(), name=f"suite/{name}/{size}")
    tb.env.run(until=proc)
    return Series.of(f"{name}@{size}", proc.value)


def _assemble(config: StreamingConfig,
              payloads: Dict[CellKey, Series]) -> Dict[str, Dict[int, Series]]:
    return {name: {size: payloads[(name, str(size))]
                   for size in config.sizes}
            for name in MECHANISMS}


def measure(config: StreamingConfig) -> Dict[str, Dict[int, Series]]:
    """Run the full suite; returns mechanism -> size -> per-sequence times."""
    return _assemble(config, {key: run_cell(config, key)
                              for key in plan_cells(config)})


def _result_tables(data: Dict[str, Dict[int, Series]],
                   config: StreamingConfig) -> AsciiTable:
    table = AsciiTable(
        ["mechanism"] + [f"{s} B mean (ms)" for s in config.sizes]
        + [f"{s} B std (ms)" for s in config.sizes],
        title=(f"Per-sequence round-trip times, {config.scenario} grid "
               f"({config.sequences} sequences)"),
        precision=3)
    for name in MECHANISMS:
        row: List = [name]
        row += [data[name][s].mean * 1e3 for s in config.sizes]
        row += [data[name][s].std * 1e3 for s in config.sizes]
        table.add_row(*row)
    return table


def _series_notes(data: Dict[str, Dict[int, Series]],
                  config: StreamingConfig) -> List[str]:
    """Terminal 'figure': one sparkline per curve (time per sequence,
    mirroring the paper's per-sequence X axis), plus a mean-vs-size chart."""
    from ..metrics import size_profile_chart

    notes: List[str] = ["Per-sequence round-trip series (paper's X axis):"]
    for size in (config.sizes[0], config.sizes[-1]):
        notes.append(f"  payload {size} B:")
        for name in MECHANISMS:
            series = data[name][size]
            notes.append(f"    {name:>16}  {sparkline(series.values, 48)}  "
                         f"mean {series.mean*1e3:7.3f} ms")
    notes.append("")
    notes.append(size_profile_chart(
        f"Mean round trip vs payload size ({config.scenario})",
        data, config.sizes))
    return notes


def merge_fig6(config: StreamingConfig,
               payloads: Dict[CellKey, Series]) -> ExperimentResult:
    """Campus-grid streaming comparison (Figure 6)."""
    assert config.scenario == "campus"
    result = ExperimentResult(
        experiment_id="fig6",
        title="I/O streaming round trips — campus grid",
        paper_reference="Figure 6 and §6.2")
    data = _assemble(config, payloads)
    result.data["series"] = data
    result.tables.append(_result_tables(data, config))
    result.notes.extend(_series_notes(data, config))

    small, large = config.sizes[0], config.sizes[-1]
    for size in config.sizes:
        by_mech = {m: data[m][size] for m in MECHANISMS}
        result.check(
            f"fast mode is the fastest mechanism at {size} B",
            ranking(by_mech)[0] == "agents-fast",
            f"order: {ranking(by_mech)}")
    result.check(
        f"reliable mode is the slowest at {small} B (disk overhead)",
        ranking({m: data[m][small] for m in MECHANISMS})[-1]
        == "agents-reliable",
        f"order: {ranking({m: data[m][small] for m in MECHANISMS})}")
    result.check(
        f"reliable mode beats ssh at {large} B (larger internal buffers)",
        data["agents-reliable"][large].mean < data["ssh"][large].mean,
        f"reliable={data['agents-reliable'][large].mean*1e3:.3f}ms "
        f"ssh={data['ssh'][large].mean*1e3:.3f}ms")
    cross = crossover_size(data["agents-reliable"], data["ssh"])
    result.check(
        "reliable-vs-ssh crossover lies at large payloads",
        cross is not None and cross >= 1000,
        f"crossover at {cross} B")
    result.check(
        "glogin does not perform well on the campus grid (worse than ssh)",
        all(data["glogin"][s].mean > data["ssh"][s].mean
            for s in config.sizes),
        "glogin slower than ssh at every size")
    return result


def merge_fig7(config: StreamingConfig,
               payloads: Dict[CellKey, Series]) -> ExperimentResult:
    """Wide-area streaming comparison (Figure 7)."""
    assert config.scenario == "wan"
    result = ExperimentResult(
        experiment_id="fig7",
        title="I/O streaming round trips — wide-area grid (UAB<->IFCA)",
        paper_reference="Figure 7 and §6.2")
    data = _assemble(config, payloads)
    result.data["series"] = data
    result.tables.append(_result_tables(data, config))
    result.notes.extend(_series_notes(data, config))

    large = config.sizes[-1]
    for size in [s for s in config.sizes if s <= 1000]:
        fast, ssh = data["agents-fast"][size], data["ssh"][size]
        result.check(
            f"fast mode is comparable to ssh at {size} B (within 35%)",
            abs(fast.mean - ssh.mean) / ssh.mean < 0.35,
            f"fast={fast.mean*1e3:.2f}ms ssh={ssh.mean*1e3:.2f}ms")
    result.check(
        "fast mode shows higher variance than ssh on the WAN",
        data["agents-fast"][1000].std > data["ssh"][1000].std,
        f"fast std={data['agents-fast'][1000].std*1e3:.3f}ms "
        f"ssh std={data['ssh'][1000].std*1e3:.3f}ms")
    result.check(
        f"glogin degrades at {large} B on the WAN (>25% slower than ssh)",
        data["glogin"][large].mean > 1.25 * data["ssh"][large].mean,
        f"glogin={data['glogin'][large].mean*1e3:.2f}ms "
        f"ssh={data['ssh'][large].mean*1e3:.2f}ms")
    rel, ssh_l = data["agents-reliable"][large], data["ssh"][large]
    result.check(
        f"reliable mode is similar to ssh at {large} B",
        abs(rel.mean - ssh_l.mean) / ssh_l.mean < 0.35,
        f"reliable={rel.mean*1e3:.2f}ms ssh={ssh_l.mean*1e3:.2f}ms")
    return result


register(ExperimentSpec(
    experiment_id="fig6",
    config_factory=lambda: StreamingConfig(scenario="campus"),
    plan=plan_cells,
    run_cell=run_cell,
    merge=merge_fig6,
    cache_salt="f6-v1",
    quick_config_factory=lambda: StreamingConfig(scenario="campus",
                                                 sequences=200),
))

register(ExperimentSpec(
    experiment_id="fig7",
    config_factory=lambda: StreamingConfig(scenario="wan"),
    plan=plan_cells,
    run_cell=run_cell,
    merge=merge_fig7,
    cache_salt="f7-v1",
    quick_config_factory=lambda: StreamingConfig(scenario="wan",
                                                 sequences=200),
))
