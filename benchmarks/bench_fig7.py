"""Regenerates Figure 7 — I/O streaming round trips, wide-area grid.

Paper shape: fast ≈ ssh ≈ glogin below 1 KB (higher variance for fast);
glogin degrades at 10 KB; reliable ≈ ssh at 10 KB.
"""

from repro.experiments import StreamingConfig

from conftest import regenerate


def test_bench_fig7(benchmark):
    config = StreamingConfig(scenario="wan", sequences=500)
    regenerate(benchmark, "fig7", config)
