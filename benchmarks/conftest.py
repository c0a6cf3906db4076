"""Shared benchmark plumbing.

Every benchmark regenerates one paper table/figure (or ablation), prints
the rows/series the paper reports alongside the paper's own numbers, and
asserts the *shape* checks.  pytest-benchmark times the regeneration.
"""

from __future__ import annotations

from repro.runner import run_experiment


def regenerate(benchmark, experiment_id: str, config=None):
    """Run one experiment under pytest-benchmark and verify its shape.

    ``config=None`` runs the experiment's paper-scale default config.
    """
    result = benchmark.pedantic(run_experiment, args=(experiment_id, config),
                                rounds=1, iterations=1)
    print()
    print(result.render())
    failed = [c.render() for c in result.checks if not c.passed]
    assert not failed, f"{experiment_id}: " + "; ".join(failed)
    return result
