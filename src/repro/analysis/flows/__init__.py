"""simlint flows — whole-program import/call-graph analysis.

The per-file rule engine (:mod:`repro.analysis.engine`) sees one AST at
a time; the contracts that broke in practice are *cross-module*: an
import chain that sneaks an upper layer under a lower one, a config
field the cell reads but the cache key never hashes (the PR-8
``cache_salt`` bump), module state mutated behind a process-pool worker
entry point, and protocol implementers drifting from the structural
surface that ``runtime_checkable`` cannot inspect.

``flows`` parses the whole tree once into per-module summaries
(:mod:`.graph` — incremental, keyed by file blake2b so warm runs skip
parsing entirely), links them into a :class:`~.graph.ProgramGraph`, and
runs the flow rules over the graph:

========================  ==============================================
``flow-layer-dag``        declared layer DAG (:data:`~.layers.REPRO_LAYERS`),
                          violations reported with the full import chain
``flow-obs-isolation``    observed layers must not import ``repro.obs``
``flow-sim-purity``       kernel package imports only its substrate
                          allowlist at module level (compiled lane)
``flow-broker-factory``   driver code builds brokers via ``make_broker``
``flow-cache-key``        every config field reachable from ``run_cell``
                          is represented in the cell cache key
``flow-worker-purity``    no module-global writes reachable from
                          process-pool worker entry points
``flow-protocol-drift``   implementer signatures match the Protocol
========================  ==============================================

All layering policy lives in one :class:`~.layers.LayerMap` declaration;
the old hand-written ``obs-direct-import`` / ``broker-factory`` /
``compiled-lane-purity`` rule classes are subsumed by it as data.

Entry point: :func:`run_flows` (wired to ``repro lint --flows``).
"""

from __future__ import annotations

from .engine import (FLOW_RULES, FlowReport, FlowRule, flow_rules_by_id,
                     run_flows)
from .graph import FlowStats, ModuleSummary, ProgramGraph, build_graph
from .layers import REPRO_LAYERS, LayerMap

__all__ = [
    "FLOW_RULES",
    "FlowReport",
    "FlowRule",
    "FlowStats",
    "LayerMap",
    "ModuleSummary",
    "ProgramGraph",
    "REPRO_LAYERS",
    "build_graph",
    "flow_rules_by_id",
    "run_flows",
]
