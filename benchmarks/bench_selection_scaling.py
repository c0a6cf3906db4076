"""Regenerates the §6.1 in-text discovery/selection timings and their
scaling with grid size (selection grows, discovery stays flat)."""

from repro.experiments import SelectionScalingConfig

from conftest import regenerate


def test_bench_selection_scaling(benchmark):
    config = SelectionScalingConfig(site_counts=(5, 10, 20, 40), jobs=6)
    regenerate(benchmark, "selection-scaling", config)
