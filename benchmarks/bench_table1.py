"""Regenerates Table I — response time for jobs (seconds).

Paper rows (campus): glogin 16.43, idle 17.2, virtual machine 6.79,
job+agent 29.3; discovery ~0.5 s; selection ~3 s at 20 sites.
"""

from repro.experiments import Table1Config

from conftest import regenerate


def test_bench_table1(benchmark):
    config = Table1Config(jobs_per_method=25)
    regenerate(benchmark, "table1", config)
