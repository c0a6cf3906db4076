"""End-to-end tests: every paper table/figure reproduction passes its
shape checks in a reduced-sample configuration.

These are the repository's acceptance tests — the full-sample versions
live in benchmarks/.
"""

import pytest

from repro.experiments import (
    BufferSweepConfig,
    DegreeSweepConfig,
    Fig8Config,
    HalfLifeSweepConfig,
    PerformanceLossSweepConfig,
    RetrySweepConfig,
    SelectionScalingConfig,
    StreamingConfig,
    Table1Config,
)
from repro.runner import run_experiment


def assert_all_checks(result):
    failed = [c.render() for c in result.checks if not c.passed]
    assert not failed, f"{result.experiment_id}: " + "; ".join(failed)


@pytest.mark.slow
class TestPaperExperiments:
    def test_table1_shape(self):
        result = run_experiment("table1", Table1Config(jobs_per_method=5))
        assert_all_checks(result)
        assert len(result.tables) == 2

    def test_fig6_shape(self):
        result = run_experiment(
            "fig6", StreamingConfig(scenario="campus", sequences=150))
        assert_all_checks(result)

    def test_fig7_shape(self):
        result = run_experiment(
            "fig7", StreamingConfig(scenario="wan", sequences=150))
        assert_all_checks(result)

    def test_fig8_shape(self):
        result = run_experiment("fig8", Fig8Config(iterations=400))
        assert_all_checks(result)

    def test_selection_scaling_shape(self):
        result = run_experiment(
            "selection-scaling",
            SelectionScalingConfig(site_counts=(5, 10, 20), jobs=3))
        assert_all_checks(result)


@pytest.mark.slow
class TestAblations:
    def test_buffer_sweep(self):
        result = run_experiment("ablation-buffer",
                                BufferSweepConfig(sequences=100))
        assert_all_checks(result)

    def test_retry_sweep(self):
        result = run_experiment("ablation-retry", RetrySweepConfig(ticks=20))
        assert_all_checks(result)

    def test_performance_loss_sweep(self):
        result = run_experiment(
            "ablation-pl", PerformanceLossSweepConfig(iterations=150))
        assert_all_checks(result)

    def test_degree_sweep(self):
        result = run_experiment("ablation-degree",
                                DegreeSweepConfig(iterations=60))
        assert_all_checks(result)

    def test_half_life_sweep(self):
        result = run_experiment("ablation-halflife", HalfLifeSweepConfig())
        assert_all_checks(result)


class TestHarness:
    def test_result_rendering(self):
        result = run_experiment("ablation-halflife", HalfLifeSweepConfig())
        text = result.render()
        assert "Shape checks:" in text
        assert "PASS" in text
        md = result.render_markdown()
        assert md.startswith("###")

    def test_cli_registry_covers_everything(self):
        from repro.experiments.cli import CANONICAL_ORDER
        from repro.runner import all_specs

        names = set(all_specs())
        assert {"table1", "fig6", "fig7", "fig8",
                "selection-scaling"} <= names
        assert any(n.startswith("ablation-") for n in names)
        assert set(CANONICAL_ORDER) <= names

    def test_cli_rejects_unknown(self):
        from repro.experiments.cli import run_main

        with pytest.raises(SystemExit):
            run_main(["no-such-experiment", "--no-cache"])

    def test_write_markdown(self, tmp_path):
        from repro.experiments.cli import write_markdown

        result = run_experiment("ablation-halflife", HalfLifeSweepConfig())
        path = tmp_path / "out.md"
        write_markdown([result], str(path))
        text = path.read_text()
        assert "EXPERIMENTS" in text
        assert result.title in text
