"""Unit tests for the churn-replay scenario suite."""

import pytest

from repro.core.config import SDXConfig
from repro.core.controller import SDXController
from repro.guard import GuardConfig
from repro.workloads.providers import load_fixture
from repro.workloads.scenarios import (
    SCENARIO_KINDS,
    ScenarioSpec,
    build_scenario_trace,
    correlated_withdrawal,
    failover_storm,
    replay,
    segment_bursts,
    stuck_routes,
)
from repro.workloads.serialization import dumps_trace
from repro.workloads.topology_gen import generate_ixp
from repro.workloads.update_gen import validate_trace


@pytest.fixture(scope="module")
def small_ixp():
    return load_fixture("ixp_small").build()


def _live_keys(updates, initial=frozenset()):
    live = set(initial)
    for update in updates:
        for announcement in update.announced:
            live.add((update.peer, announcement.prefix))
        for withdrawal in update.withdrawn:
            live.discard((update.peer, withdrawal.prefix))
    return live


class TestFailoverStorm:
    def test_valid_and_restores_the_table(self, small_ixp):
        spec = ScenarioSpec("t", "failover-storm", seed=9)
        trace = build_scenario_trace(small_ixp, spec)
        validate_trace(small_ixp, trace.updates)
        # After all waves the victim's session is back: the set of live
        # (peer, prefix) routes equals the starting table.
        initial = _live_keys(small_ixp.updates)
        assert _live_keys(trace.updates, initial) == initial

    def test_victim_withdraws_its_whole_table(self, small_ixp):
        victim = max(
            small_ixp.announced, key=lambda n: len(small_ixp.announced[n])
        )
        spec = ScenarioSpec("t", "failover-storm", seed=9, params={"waves": 1})
        trace = build_scenario_trace(small_ixp, spec)
        withdrawn = {
            w.prefix
            for u in trace.updates
            if u.peer == victim
            for w in u.withdrawn
        }
        initial = _live_keys(small_ixp.updates)
        assert withdrawn == {p for n, p in initial if n == victim}

    def test_background_churn_comes_from_other_peers(self, small_ixp):
        victim = max(
            small_ixp.announced, key=lambda n: len(small_ixp.announced[n])
        )
        spec = ScenarioSpec("t", "failover-storm", seed=9)
        trace = build_scenario_trace(small_ixp, spec)
        others = {u.peer for u in trace.updates if u.peer != victim}
        assert others  # churn_per_burst > 0 by default


class TestStuckRoutes:
    def test_valid_and_leak_fully_drains(self, small_ixp):
        spec = ScenarioSpec("t", "stuck-routes", seed=4)
        trace = build_scenario_trace(small_ixp, spec)
        validate_trace(small_ixp, trace.updates)
        hijacker = sorted(
            small_ixp.announced,
            key=lambda n: (-len(small_ixp.announced[n]), n),
        )[1]
        leaked = [
            a.prefix
            for u in trace.updates
            if u.peer == hijacker
            for a in u.announced
        ]
        assert leaked
        withdrawn = [
            w.prefix
            for u in trace.updates
            if u.peer == hijacker
            for w in u.withdrawn
        ]
        assert sorted(leaked, key=str) == sorted(withdrawn, key=str)

    def test_cleanup_arrives_after_victim_flaps(self, small_ixp):
        spec = ScenarioSpec("t", "stuck-routes", seed=4)
        trace = build_scenario_trace(small_ixp, spec)
        hijacker = sorted(
            small_ixp.announced,
            key=lambda n: (-len(small_ixp.announced[n]), n),
        )[1]
        last_victim_event = max(
            u.time for u in trace.updates if u.peer != hijacker
        )
        first_cleanup = min(
            u.time for u in trace.updates if u.peer == hijacker and u.withdrawn
        )
        assert first_cleanup > last_victim_event


class TestCorrelatedWithdrawal:
    def test_valid_and_waves_share_a_burst(self, small_ixp):
        spec = ScenarioSpec(
            "t", "correlated-withdrawal", seed=2, params={"members": 4}
        )
        trace = build_scenario_trace(small_ixp, spec)
        validate_trace(small_ixp, trace.updates)
        bursts = segment_bursts(trace.updates)
        withdrawal_bursts = [
            b for b in bursts if any(u.withdrawn for u in b)
        ]
        assert withdrawal_bursts
        for burst in withdrawal_bursts:
            # The shared upstream failed for everyone at once.
            assert len({u.peer for u in burst}) > 1

    def test_recovery_staggers_one_member_per_burst(self, small_ixp):
        spec = ScenarioSpec(
            "t", "correlated-withdrawal", seed=2, params={"members": 4}
        )
        trace = build_scenario_trace(small_ixp, spec)
        for burst in segment_bursts(trace.updates):
            if all(u.announced for u in burst):
                assert len({u.peer for u in burst}) == 1


class TestSpecHandling:
    def test_unknown_kind_rejected(self, small_ixp):
        with pytest.raises(ValueError, match="unknown scenario kind"):
            build_scenario_trace(small_ixp, ScenarioSpec("t", "meteor-strike"))

    def test_builders_are_deterministic(self, small_ixp):
        for kind in SCENARIO_KINDS:
            spec = ScenarioSpec("t", kind, seed=13)
            first = dumps_trace(build_scenario_trace(small_ixp, spec))
            second = dumps_trace(build_scenario_trace(small_ixp, spec))
            assert first == second, kind

    def test_seed_changes_the_trace(self, small_ixp):
        a = dumps_trace(
            build_scenario_trace(small_ixp, ScenarioSpec("t", "stuck-routes", seed=1))
        )
        b = dumps_trace(
            build_scenario_trace(small_ixp, ScenarioSpec("t", "stuck-routes", seed=2))
        )
        assert a != b

    def test_params_reach_the_builder(self, small_ixp):
        spec = ScenarioSpec(
            "t", "failover-storm", seed=9, params={"waves": 1, "burst_size": 10}
        )
        one_wave = build_scenario_trace(small_ixp, spec)
        two_waves = build_scenario_trace(
            small_ixp, spec._replace(params={"waves": 2, "burst_size": 10})
        )
        assert len(two_waves.updates) > len(one_wave.updates)

    def test_builders_accessible_directly(self, small_ixp):
        spec = ScenarioSpec("t", "ignored", seed=5)
        for builder in (failover_storm, stuck_routes, correlated_withdrawal):
            trace = builder(small_ixp, spec)
            validate_trace(small_ixp, trace.updates)


class TestSegmentBursts:
    def test_splits_on_gap(self, small_ixp):
        trace = build_scenario_trace(
            small_ixp, ScenarioSpec("t", "failover-storm", seed=9)
        )
        bursts = segment_bursts(trace.updates)
        assert sum(len(b) for b in bursts) == len(trace.updates)
        for left, right in zip(bursts, bursts[1:]):
            assert right[0].time - left[-1].time > 1.0
        for burst in bursts:
            for a, b in zip(burst, burst[1:]):
                assert b.time - a.time <= 1.0


class TestReplay:
    def _controller(self, ixp):
        controller = SDXController(
            ixp.config, sdx=SDXConfig(guard=GuardConfig(probe_budget=8, seed=1))
        )
        controller.route_server.load(ixp.updates)
        controller.compile()
        return controller

    def test_replay_is_clean(self, small_ixp):
        trace = build_scenario_trace(
            small_ixp, ScenarioSpec("t", "stuck-routes", seed=4)
        )
        controller = self._controller(small_ixp)
        report = replay(
            controller, trace.updates, scenario="t", verify_every=3, probes=16
        )
        assert report.ok
        assert report.events == len(trace.updates)
        assert report.bursts == len(segment_bursts(trace.updates))
        assert report.verify_passes == len(segment_bursts(trace.updates)) // 3 + 1
        assert report.probes_checked > 0

    def test_recompile_every_forces_commits(self, small_ixp):
        trace = build_scenario_trace(
            small_ixp, ScenarioSpec("t", "stuck-routes", seed=4)
        )
        controller = self._controller(small_ixp)
        report = replay(
            controller,
            trace.updates,
            verify_every=0,
            recompile_every=2,
        )
        assert report.ok
        assert report.commits >= report.bursts // 2
