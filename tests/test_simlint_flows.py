"""Tests for the whole-program flows pass (``repro lint --flows``).

The fixture universe under ``tests/data/simlint/flows`` is a
repro-shaped package tree (never imported by Python) seeding exactly
one defect per flow rule; these tests pin that every seeded defect is
detected — the layer-DAG violation with its *full* import chain — plus
the incremental summary cache, the baseline grandfathering contract,
suppression handling, the CLI surface (``--flows``, ``--format
github``, ``--audit-suppressions``, ``--write-baseline``), and the
satellite engine edge cases (syntax-error pseudo-findings, unknown
rule-id errors, sanitizer daemon semantics inside process-pool worker
subprocesses).
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.analysis.cli import lint_main
from repro.analysis.flows import FLOW_RULES, REPRO_LAYERS, run_flows
from repro.analysis.flows.engine import (baseline_fingerprint,
                                         flow_rules_by_id, write_baseline)
from repro.analysis.flows.graph import (build_graph, module_name_for,
                                        summarize_source)

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(HERE)
FLOWS_FIXTURES = os.path.join(HERE, "data", "simlint", "flows")

FLOW_RULE_IDS = sorted(rule.id for rule in FLOW_RULES)


def _fixture_report(**kwargs):
    return run_flows([FLOWS_FIXTURES], root=FLOWS_FIXTURES, **kwargs)


def _by_rule(report):
    out = {}
    for finding in report.findings:
        out.setdefault(finding.rule, []).append(finding)
    return out


# -- seeded fixture defects ----------------------------------------------
class TestSeededDefects:
    @pytest.fixture(scope="class")
    def report(self):
        return _fixture_report()

    def test_every_flow_rule_fires_on_the_fixture_tree(self, report):
        fired = {f.rule for f in report.findings}
        assert set(FLOW_RULE_IDS) <= fired, (
            f"rules without fixture coverage: "
            f"{set(FLOW_RULE_IDS) - fired}")

    def test_layer_dag_reports_the_full_import_chain(self, report):
        [finding] = [f for f in _by_rule(report)["flow-layer-dag"]
                     if "core/stats" in f.path]
        assert ("repro.core.stats -> repro.util.bridge -> "
                "repro.experiments.report") in finding.message
        assert "(layer 4)" in finding.message
        assert "(layer 6)" in finding.message
        assert finding.line > 0

    def test_obs_isolation_fires_on_observed_layer(self, report):
        [finding] = _by_rule(report)["flow-obs-isolation"]
        assert finding.path.endswith("core/watcher.py")
        assert "repro.obs" in finding.message

    def test_sim_purity_flags_allowlist_and_cross_package(self, report):
        messages = [f.message for f in _by_rule(report)["flow-sim-purity"]]
        assert any("'threading'" in m for m in messages)
        assert any("repro.core.stats" in m for m in messages)

    def test_broker_factory_flags_direct_construction(self, report):
        [finding] = _by_rule(report)["flow-broker-factory"]
        assert finding.path.endswith("direct_broker.py")
        assert "CrossBroker" in finding.message

    def test_cache_key_flags_non_key_field_read(self, report):
        findings = _by_rule(report)["flow-cache-key"]
        non_key = [f for f in findings if "verbosity" in f.message]
        assert non_key, [f.message for f in findings]
        # Read through a helper, not in run_cell itself: taint followed
        # the call graph.
        assert any("_inner reads config.verbosity" in f.message
                   for f in non_key)

    def test_cache_key_flags_undeclared_field_read(self, report):
        findings = _by_rule(report)["flow-cache-key"]
        assert any("debug_level" in f.message
                   and "not a declared field" in f.message
                   for f in findings)

    def test_worker_purity_flags_mutation_and_rebind(self, report):
        messages = [f.message
                    for f in _by_rule(report)["flow-worker-purity"]]
        assert any("mutates module global 'CACHE'" in m for m in messages)
        assert any("rebinds module global 'CALLS'" in m for m in messages)
        # Findings name the worker entry and the call chain.
        assert any("run_cell -> _note" in m for m in messages)

    def test_protocol_drift_flags_rename_and_default(self, report):
        messages = [f.message
                    for f in _by_rule(report)["flow-protocol-drift"]]
        assert any("'target'" in m and "'site'" in m for m in messages)
        assert any("reason='aborted'" in m for m in messages)
        assert any("bad_merge requires 3" in m for m in messages)
        # The faithful implementer stays clean.
        assert not any("GoodAgent" in m for m in messages)

    def test_findings_are_deterministic(self, report):
        again = _fixture_report()
        assert ([f.to_dict() for f in report.findings]
                == [f.to_dict() for f in again.findings])


# -- incremental summary cache -------------------------------------------
class TestIncrementalCache:
    def test_warm_run_parses_nothing_and_is_faster(self, tmp_path):
        cache = str(tmp_path / "flows-cache.json")
        cold = run_flows(["src"], root=REPO_ROOT, cache_path=cache)
        warm = run_flows(["src"], root=REPO_ROOT, cache_path=cache)
        assert cold.stats.parsed == cold.stats.files > 0
        assert warm.stats.parsed == 0
        assert warm.stats.cached == warm.stats.files == cold.stats.files
        assert warm.stats.elapsed < cold.stats.elapsed, (
            f"warm {warm.stats.elapsed:.4f}s not faster than "
            f"cold {cold.stats.elapsed:.4f}s")
        # Cached and parsed summaries must yield identical findings.
        assert ([f.to_dict() for f in cold.findings]
                == [f.to_dict() for f in warm.findings])

    def test_editing_one_file_reparses_exactly_that_file(self, tmp_path):
        tree = tmp_path / "tree"
        shutil.copytree(FLOWS_FIXTURES, tree)
        cache = str(tmp_path / "cache.json")
        first = run_flows([str(tree)], root=str(tree), cache_path=cache)
        target = tree / "repro" / "experiments" / "report.py"
        target.write_text(target.read_text(encoding="utf-8")
                          + "\nEXTRA = 1\n", encoding="utf-8")
        second = run_flows([str(tree)], root=str(tree), cache_path=cache)
        assert second.stats.parsed == 1
        assert second.stats.cached == first.stats.files - 1

    def test_corrupt_cache_is_ignored(self, tmp_path):
        cache = tmp_path / "cache.json"
        cache.write_text("{not json", encoding="utf-8")
        report = _fixture_report(cache_path=str(cache))
        assert report.stats.parsed == report.stats.files > 0


# -- baseline -------------------------------------------------------------
class TestBaseline:
    def test_baseline_grandfathers_known_findings(self, tmp_path):
        report = _fixture_report()
        assert report.findings
        baseline = str(tmp_path / "baseline.json")
        write_baseline(baseline, report.findings)
        gated = _fixture_report(baseline_path=baseline)
        assert gated.findings == []
        assert len(gated.baselined) == len(report.findings)
        assert gated.stale_baseline == []

    def test_fixed_findings_surface_as_stale_entries(self, tmp_path):
        report = _fixture_report()
        baseline = str(tmp_path / "baseline.json")
        write_baseline(baseline, report.findings)
        data = json.loads(open(baseline).read())
        data["findings"]["feedbeef00feedbeef00feed"] = {
            "rule": "flow-layer-dag", "path": "gone.py", "line": 1,
            "message": "was fixed long ago"}
        with open(baseline, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        gated = _fixture_report(baseline_path=baseline)
        assert gated.stale_baseline == ["feedbeef00feedbeef00feed"]

    def test_fingerprint_is_line_independent(self):
        report = _fixture_report()
        a = report.findings[0]
        from dataclasses import replace
        b = replace(a, line=a.line + 40)
        assert baseline_fingerprint(a) == baseline_fingerprint(b)
        c = replace(a, message=a.message + "!")
        assert baseline_fingerprint(a) != baseline_fingerprint(c)

    def test_committed_repo_baseline_gates_src_clean(self, monkeypatch,
                                                     capsys):
        monkeypatch.chdir(REPO_ROOT)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(REPO_ROOT)
                           + "/.repro-cache")
        assert lint_main(["src", "--flows"]) == 0, (
            capsys.readouterr().out)


# -- suppressions ---------------------------------------------------------
class TestFlowSuppressions:
    def test_pragma_silences_a_flow_finding(self, tmp_path):
        tree = tmp_path / "tree"
        shutil.copytree(FLOWS_FIXTURES, tree)
        target = tree / "repro" / "core" / "watcher.py"
        src = target.read_text(encoding="utf-8").replace(
            "import repro.obs",
            "import repro.obs  # simlint: disable=flow-obs-isolation "
            "-- fixture override")
        target.write_text(src, encoding="utf-8")
        report = run_flows([str(tree)], root=str(tree))
        assert not [f for f in report.findings
                    if f.rule == "flow-obs-isolation"]
        assert [f for f in report.suppressed
                if f.rule == "flow-obs-isolation"]

    def test_docstring_pragma_text_does_not_suppress(self):
        src = ('"""Doc mentioning  # simlint: disable-file=all -- nope\n'
               '"""\n'
               "import time\n"
               "t = time.time()\n")
        from repro.analysis import lint_source, rules_by_id
        findings = lint_source(src, "x.py", rules_by_id(["wallclock"]))
        assert [f.rule for f in findings] == ["wallclock"]


# -- CLI surface ----------------------------------------------------------
class TestFlowsCli:
    def test_flows_exit_one_on_fixture_defects(self, tmp_path, capsys):
        cache = str(tmp_path / "c.json")
        code = lint_main([FLOWS_FIXTURES, "--flows",
                          "--flows-cache", cache])
        out = capsys.readouterr().out
        assert code == 1
        assert "flow-layer-dag" in out

    def test_github_format_emits_error_annotations(self, tmp_path,
                                                   capsys):
        cache = str(tmp_path / "c.json")
        lint_main([FLOWS_FIXTURES, "--flows", "--flows-cache", cache,
                   "--format", "github"])
        out = capsys.readouterr().out
        assert "::error file=" in out
        assert "title=simlint flow-layer-dag" in out

    def test_select_single_flow_rule(self, tmp_path, capsys):
        cache = str(tmp_path / "c.json")
        code = lint_main([FLOWS_FIXTURES, "--select", "flow-cache-key",
                          "--flows-cache", cache])
        out = capsys.readouterr().out
        assert code == 1
        assert "flow-cache-key" in out
        assert "flow-layer-dag" not in out

    def test_unknown_rule_lists_catalogs_and_exits_2(self, capsys):
        assert lint_main(["--select", "flow-nope", "src"]) == 2
        err = capsys.readouterr().err
        assert "flow-cache-key" in err and "wallclock" in err

    def test_write_baseline_roundtrip(self, tmp_path, capsys):
        cache = str(tmp_path / "c.json")
        baseline = str(tmp_path / "baseline.json")
        assert lint_main([FLOWS_FIXTURES, "--flows",
                          "--flows-cache", cache,
                          "--baseline", baseline,
                          "--write-baseline"]) == 0
        capsys.readouterr()
        assert lint_main([FLOWS_FIXTURES, "--flows",
                          "--flows-cache", cache,
                          "--baseline", baseline]) == 0
        assert "simlint: clean" in capsys.readouterr().out

    def test_list_rules_markdown_matches_committed_doc(self, capsys):
        assert lint_main(["--list-rules", "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        committed = open(os.path.join(REPO_ROOT, "docs",
                                      "simlint-rules.md"),
                         encoding="utf-8").read()
        assert out.strip() == committed.strip(), (
            "docs/simlint-rules.md is stale — regenerate with "
            "`repro lint --list-rules --format markdown`")

    def test_audit_reports_stale_pragma(self, tmp_path, capsys):
        stale = tmp_path / "stale.py"
        stale.write_text(
            "x = 1  # simlint: disable=wallclock -- nothing here\n",
            encoding="utf-8")
        assert lint_main([str(stale), "--audit-suppressions"]) == 1
        out = capsys.readouterr().out
        assert "stale suppression [wallclock]" in out

    def test_audit_keeps_live_pragma(self, tmp_path, capsys):
        live = tmp_path / "live.py"
        live.write_text(
            "import time\n"
            "t = time.time()  # simlint: disable=wallclock -- test\n",
            encoding="utf-8")
        assert lint_main([str(live), "--audit-suppressions"]) == 0
        assert "0 stale" in capsys.readouterr().out

    def test_exclude_prefix_skips_files(self, capsys):
        # The fixture tree trips rules; excluding it leaves nothing.
        code = lint_main([FLOWS_FIXTURES, "--exclude", FLOWS_FIXTURES])
        assert code == 2  # no files left


# -- engine edge cases (satellite) ----------------------------------------
class TestEngineEdgeCases:
    def test_syntax_error_summary_carries_path_and_line(self, tmp_path):
        tree = tmp_path / "pkg"
        tree.mkdir()
        (tree / "bad.py").write_text("x = 1\ndef broken(:\n",
                                     encoding="utf-8")
        report = run_flows([str(tree)], root=str(tmp_path))
        [finding] = report.findings
        assert finding.rule == "syntax-error"
        assert finding.path.endswith("pkg/bad.py".replace("/", os.sep)) \
            or finding.path.endswith("pkg/bad.py")
        assert finding.line == 2

    def test_flow_rules_by_id_unknown_lists_valid_ids(self):
        with pytest.raises(KeyError) as exc:
            flow_rules_by_id(["flow-bogus"])
        message = str(exc.value)
        for rule_id in FLOW_RULE_IDS:
            assert rule_id in message

    def test_module_name_derivation(self):
        path = os.path.join(FLOWS_FIXTURES, "repro", "core", "stats.py")
        assert module_name_for(path) == "repro.core.stats"
        init = os.path.join(FLOWS_FIXTURES, "repro", "core",
                            "__init__.py")
        assert module_name_for(init) == "repro.core"

    def test_summary_roundtrips_through_json(self):
        path = os.path.join(FLOWS_FIXTURES, "repro", "experiments",
                            "workerized.py")
        src = open(path, encoding="utf-8").read()
        summary = summarize_source(src, path, "workerized.py", "d1")
        from repro.analysis.flows.graph import ModuleSummary
        clone = ModuleSummary.from_dict(
            json.loads(json.dumps(summary.to_dict())))
        assert clone.to_dict() == summary.to_dict()
        assert clone.module == "repro.experiments.workerized"
        assert ("run_cell", 52) in clone.worker_entries

    def test_layer_map_ranks_match_the_real_tree(self):
        assert REPRO_LAYERS.rank_of("repro.sim.events") == 0
        assert REPRO_LAYERS.rank_of("repro.core.broker") == 4
        assert REPRO_LAYERS.rank_of("repro.experiments.table1") == 6
        assert REPRO_LAYERS.rank_of("repro.obs.telemetry") is None
        assert REPRO_LAYERS.is_isolated("repro.obs.tracer")
        assert REPRO_LAYERS.rank_of("repro.analysis.engine") is None
        assert REPRO_LAYERS.rank_of("outside.module") is None


# -- sanitizer daemon semantics inside pool worker processes -------------
def _sanitizing_site_task(config, site):
    """Builds a sanitized Environment inside the (possibly forked) pool
    worker and reports the audit outcome as pure data."""
    from repro.sim import Environment

    env = Environment(sanitize=True)

    def service():
        while True:
            yield env.timeout(1.0)

    env.process(service(), name="svc", daemon=True)  # exempt
    env.timer(name="heartbeat", daemon=True).arm(5.0)  # exempt

    def stuck():
        yield env.event()  # never fires -> alive-process leak

    if config["leak"]:
        env.process(stuck(), name="stuck")
    env.run(until=env.timeout(2.0))
    report = env.sanitizer.report()
    return {"clean": report.clean,
            "kinds": sorted(report.kinds()),
            "daemons_exempt": report.stats.get("daemons_exempt", 0)}


def _audit_sites(config, n_sites, workers):
    """Run the task once per site: in-process for ``workers == 1``,
    otherwise in a ``ProcessPoolExecutor`` (the runner engine's pool)."""
    if workers == 1:
        return [_sanitizing_site_task(config, site)
                for site in range(n_sites)]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_sanitizing_site_task, config, site)
                   for site in range(n_sites)]
        return [future.result() for future in futures]


class TestSanitizerInConveyorWorkers:
    """Sanitizer verdicts computed inside ``ProcessPoolExecutor`` workers."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_daemon_semantics_hold_across_process_boundary(self, workers):
        clean = _audit_sites({"leak": False}, 2, workers=workers)
        leaky = _audit_sites({"leak": True}, 2, workers=workers)
        for state in clean:
            assert state["clean"], state
            assert state["daemons_exempt"] >= 1
        for state in leaky:
            assert not state["clean"]
            assert "alive-process" in state["kinds"]

    def test_serial_equals_parallel_verdicts(self):
        serial = _audit_sites({"leak": True}, 2, workers=1)
        fanned = _audit_sites({"leak": True}, 2, workers=2)
        assert serial == fanned
