"""Tests for the broker's adaptive and fairness policies (§5.1, §7)."""

import pytest

from repro.core import BrokerConfig, CrossBroker, SubmissionPath
from repro.grid import campus_grid
from repro.jdl import JobDescription, JobCategory, MachineAccess
from repro.workloads import cpu_bound_app, immediate_output_app


def interactive_job(owner, shared=True, pl=10):
    return JobDescription.from_attributes({
        "executable": "app",
        "jobtype": ["interactive", "sequential"],
        "machineaccess": "shared" if shared else "exclusive",
        "performanceloss": pl if shared else 0,
        "streamingmode": "fast",
    }, owner=owner)


class TestAdaptiveMultiprogramming:
    def _world(self, adaptive, seed):
        config = BrokerConfig(adaptive_multiprogramming=adaptive,
                              max_interactive_slots=3)
        tb = campus_grid(seed=seed, n_nodes=4)
        tb.publish_all_now()
        broker = CrossBroker(tb.env, tb.network, tb.rng, tb.calibration,
                             config=config)
        return tb, broker

    def _run_burst(self, tb, broker, n=3):
        """Submit a burst of shared jobs; each miss plants an agent."""
        jobs = []
        for i in range(n):
            submitted = broker.submit(interactive_job(f"u{i}"),
                                      lambda r: cpu_bound_app(600.0))
            tb.env.run(until=submitted.started)
            tb.publish_all_now()
            jobs.append(submitted)
        return jobs

    def test_static_agents_have_one_slot(self):
        tb, broker = self._world(adaptive=False, seed=140)
        self._run_burst(tb, broker)
        from repro.multiprog import VmKind

        slot_counts = [len(r.runtime.slots[VmKind.INTERACTIVE])
                       for r in broker.agents.live_agents()]
        assert slot_counts == [1, 1, 1]

    def test_adaptive_raises_degree_under_miss_pressure(self):
        tb, broker = self._world(adaptive=True, seed=141)
        self._run_burst(tb, broker)
        from repro.multiprog import VmKind

        slot_counts = sorted(len(r.runtime.slots[VmKind.INTERACTIVE])
                             for r in broker.agents.live_agents())
        # Every burst job missed the VM lookup, so later agents grow
        # (1 miss -> 2 slots, 2 misses -> 3 slots, capped at 3).
        assert slot_counts[-1] > 1
        assert max(slot_counts) <= 3

    def test_adaptive_slots_capped(self):
        tb, broker = self._world(adaptive=True, seed=142)
        broker._vm_miss_times = [tb.env.now] * 50
        assert broker._interactive_slots_for_next_agent() == 3

    def test_old_misses_expire(self):
        config = BrokerConfig(adaptive_multiprogramming=True,
                              adaptive_window=100.0)
        tb = campus_grid(seed=143, n_nodes=1)
        broker = CrossBroker(tb.env, tb.network, tb.rng, tb.calibration,
                             config=config)
        broker._vm_miss_times = [0.0, 0.0]
        tb.env.run(until=200.0)
        assert broker._interactive_slots_for_next_agent() == 1


class TestScarcityRejection:
    def test_good_priority_user_wins_the_last_machine(self):
        tb = campus_grid(seed=144, n_nodes=2)
        tb.publish_all_now()
        calibration = tb.calibration.with_fairshare(scarcity_margin=0.05,
                                                    update_interval=30.0)
        broker = CrossBroker(tb.env, tb.network, tb.rng, calibration,
                             config=BrokerConfig(scarcity_factor=2.0))

        # Give "hog" terrible priority directly through the accounting.
        broker.fairshare.job_started("hog", "ghost", cpus=2, af=2.0)
        broker.fairshare.total_cpus = 2
        for _ in range(50):
            broker.fairshare.step()
        broker.fairshare.job_finished("hog", "ghost")

        # Occupy one node so the grid is scarce.
        blocker = broker.submit(
            JobDescription.from_attributes({"executable": "b"},
                                           owner="background"),
            lambda r: cpu_bound_app(1e6))
        tb.env.run(until=blocker.started)
        tb.publish_all_now()

        rejected = broker.submit(interactive_job("hog", shared=False),
                                 lambda r: immediate_output_app())
        tb.env.run(until=rejected.process)
        assert rejected.report.rejected

        admitted = broker.submit(interactive_job("newcomer", shared=False),
                                 lambda r: immediate_output_app())
        tb.env.run(until=admitted.finished)
        assert admitted.report.success

    def test_no_rejection_when_plentiful(self):
        tb = campus_grid(seed=145, n_nodes=4)
        tb.publish_all_now()
        broker = CrossBroker(tb.env, tb.network, tb.rng, tb.calibration)
        broker.fairshare.job_started("hog", "ghost", cpus=4, af=2.0)
        for _ in range(50):
            broker.fairshare.step()
        broker.fairshare.job_finished("hog", "ghost")

        submitted = broker.submit(interactive_job("hog", shared=False),
                                  lambda r: immediate_output_app())
        tb.env.run(until=submitted.finished)
        assert submitted.report.success


class TestSaturationExperiment:
    def test_experiment_passes(self):
        from repro.experiments import SaturationConfig
        from repro.runner import run_experiment

        result = run_experiment(
            "fairshare-saturation",
            SaturationConfig(warmup_jobs=4, contest_rounds=3))
        failed = [c.render() for c in result.checks if not c.passed]
        assert not failed, failed
