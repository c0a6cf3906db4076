"""CLI smoke tests: `repro run`, `repro cache`, `repro trace`.

Each test drives the real entry point (``python -m repro ...``) in a
subprocess, asserting exit codes and the stdout/stderr split that the
determinism contract demands (renders on stdout, progress/statistics on
stderr).  The fastest experiment (``ablation-halflife``: three pure-math
cells, no simulation world) keeps these subprocess round trips cheap.
"""

import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")


def run_cli(*args, cwd=None):
    env = dict(os.environ)  # simlint: disable=environ-read -- building a subprocess environment, not sim state
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=600,
        cwd=cwd or REPO, env=env)


class TestRunCommand:
    def test_run_quick_exits_zero(self, tmp_path):
        proc = run_cli("run", "ablation-halflife", "--quick",
                       "--cache-dir", str(tmp_path / "cache"))
        assert proc.returncode == 0, proc.stderr
        assert "== Priority recovery vs. fair-share half-life ==" \
            in proc.stdout
        assert "ALL SHAPE CHECKS PASSED" in proc.stdout
        # Runner statistics go to stderr, never stdout.
        assert "runner statistics" in proc.stderr
        assert "runner statistics" not in proc.stdout

    def test_parallel_stdout_matches_serial(self, tmp_path):
        serial = run_cli("run", "ablation-halflife", "--quick", "--no-cache")
        parallel = run_cli("run", "ablation-halflife", "--quick",
                           "--no-cache", "--parallel", "2")
        assert serial.returncode == parallel.returncode == 0
        assert serial.stdout == parallel.stdout

    def test_second_invocation_hits_cache(self, tmp_path):
        cache = str(tmp_path / "cache")
        first = run_cli("run", "ablation-halflife", "--quick",
                        "--cache-dir", cache)
        second = run_cli("run", "ablation-halflife", "--quick",
                         "--cache-dir", cache)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert "(0 computed, 3 cached)" in second.stderr

    def test_non_subcommand_is_a_usage_error(self):
        proc = run_cli("ablation-halflife", "--quick")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: repro {run,")

    def test_unknown_experiment_fails(self):
        proc = run_cli("run", "no-such-experiment", "--no-cache")
        assert proc.returncode != 0
        assert "unknown experiment" in proc.stderr

    def test_write_md_report(self, tmp_path):
        md = tmp_path / "report.md"
        proc = run_cli("run", "ablation-halflife", "--quick", "--no-cache",
                       "--write-md", str(md))
        assert proc.returncode == 0, proc.stderr
        body = md.read_text()
        assert "Priority recovery vs. fair-share half-life" in body
        assert "paper vs. reproduction" in body


class TestCacheCommand:
    def test_ls_empty_cache(self, tmp_path):
        proc = run_cli("cache", "ls", "--cache-dir", str(tmp_path / "nope"))
        assert proc.returncode == 0
        assert "(cache is empty)" in proc.stdout

    def test_ls_and_clear_after_run(self, tmp_path):
        cache = str(tmp_path / "cache")
        assert run_cli("run", "ablation-halflife", "--quick",
                       "--cache-dir", cache).returncode == 0
        ls = run_cli("cache", "ls", "--cache-dir", cache)
        assert ls.returncode == 0
        assert "ablation-halflife" in ls.stdout

        cells = run_cli("cache", "ls", "--cells", "--cache-dir", cache)
        assert cells.returncode == 0
        assert cells.stdout.count("ablation-halflife") >= 3

        cleared = run_cli("cache", "clear", "--cache-dir", cache)
        assert cleared.returncode == 0
        assert "removed 3 cached cell(s)" in cleared.stdout

        again = run_cli("cache", "ls", "--cache-dir", cache)
        assert "(cache is empty)" in again.stdout

    def test_clear_single_experiment(self, tmp_path):
        cache = str(tmp_path / "cache")
        run_cli("run", "ablation-halflife", "--quick", "--cache-dir", cache)
        cleared = run_cli("cache", "clear", "other-experiment",
                          "--cache-dir", cache)
        assert cleared.returncode == 0
        assert "removed 0 cached cell(s)" in cleared.stdout


class TestTraceCommand:
    def test_trace_single_method(self, tmp_path):
        out = tmp_path / "trace.json"
        proc = run_cli("trace", "--method", "idle", "--jobs", "1",
                       "--sites", "3", "--json", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "Per-phase latency breakdown" in proc.stdout
        assert out.exists()
