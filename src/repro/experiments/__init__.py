"""Experiment harness: one module per paper table/figure, plus ablations.

Importing this package registers every experiment's
:class:`~repro.runner.ExperimentSpec`; run one with
``repro.runner.run_experiment("<id>", config)`` or ``repro run <id>``.
"""

from .ablations import (
    BufferSweepConfig,
    DegreeSweepConfig,
    HalfLifeSweepConfig,
    PerformanceLossSweepConfig,
    RetrySweepConfig,
)
from .broker_modes import BrokerModesConfig
from .chaos_drill import ChaosDrillConfig
from .common import ExperimentResult, ShapeCheck
from .export import collect_series, export_all, export_result
from .fairshare_saturation import SaturationConfig
from .fig8 import Fig8Config
from .scale_campaign import ScaleCampaignConfig
from .selection_scaling import SelectionScalingConfig
from .streaming_overhead import StreamingConfig
from .table1 import Table1Config

__all__ = [
    "BrokerModesConfig",
    "BufferSweepConfig",
    "ChaosDrillConfig",
    "DegreeSweepConfig",
    "ExperimentResult",
    "Fig8Config",
    "HalfLifeSweepConfig",
    "PerformanceLossSweepConfig",
    "RetrySweepConfig",
    "SaturationConfig",
    "ScaleCampaignConfig",
    "SelectionScalingConfig",
    "ShapeCheck",
    "StreamingConfig",
    "Table1Config",
    "collect_series",
    "export_all",
    "export_result",
]
