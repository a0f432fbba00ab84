"""End-to-end churn replay: fixture topology × encoding modes × runtime.

The acceptance loop for the scenario suite: the checked-in GML fixture
builds an exchange, §6.1 policies load, and every churn scenario
(failover storm, stuck-route leak, correlated withdrawals) replays
through the controller under the event-loop runtime with the verify
oracle sampling along the way — across all four vmac × dataplane
configurations.  Zero probe mismatches and zero invariant violations,
every time.
"""

import pytest

from repro.core.config import SDXConfig
from repro.core.controller import SDXController
from repro.guard import GuardConfig
from repro.runtime import RuntimeConfig
from repro.workloads.policy_gen import generate_policies
from repro.workloads.providers import load_fixture
from repro.workloads.scenarios import (
    SCENARIO_KINDS,
    ScenarioSpec,
    build_scenario_trace,
    replay,
)

MODES = [
    ("fec", "single"),
    ("superset", "single"),
    ("fec", "multitable"),
    ("superset", "multitable"),
]

#: Small scenario parameters keep the full 4-mode × 3-kind matrix fast.
_PARAMS = {
    "failover-storm": {"waves": 1, "burst_size": 30, "churn_per_burst": 2},
    "stuck-routes": {"leak_count": 20, "burst_size": 10, "victim_flaps": 4},
    "correlated-withdrawal": {"members": 4, "waves": 1, "slice_size": 10},
}


@pytest.fixture(scope="module")
def ixp():
    return load_fixture("ixp_small").build()


@pytest.fixture(scope="module")
def workload(ixp):
    return generate_policies(ixp, seed=21)


def _controller(ixp, workload, vmac_mode, dataplane_mode):
    controller = SDXController(
        ixp.config,
        sdx=SDXConfig(
            vmac_mode=vmac_mode,
            dataplane_mode=dataplane_mode,
            runtime_config=RuntimeConfig(coalesce=True),
            guard=GuardConfig(probe_budget=12, seed=3),
        ),
    )
    controller.route_server.load(ixp.updates)
    with controller.deferred_recompilation():
        for name, policy_set in workload.policies.items():
            controller.policy.set_policies(name, policy_set)
    return controller


class TestChurnReplayMatrix:
    @pytest.mark.parametrize("vmac_mode,dataplane_mode", MODES)
    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_scenario_replays_clean(self, ixp, workload, kind, vmac_mode, dataplane_mode):
        controller = _controller(ixp, workload, vmac_mode, dataplane_mode)
        spec = ScenarioSpec(
            name=f"{kind}/{vmac_mode}/{dataplane_mode}",
            kind=kind,
            seed=17,
            params=_PARAMS[kind],
        )
        trace = build_scenario_trace(ixp, spec)
        report = replay(
            controller,
            trace.updates,
            scenario=spec.name,
            verify_every=3,
            probes=24,
            seed=5,
            recompile_every=4,
        )
        assert report.ok, report.summary()
        assert report.events == len(trace.updates)
        assert report.verify_passes >= 1
        assert report.probes_checked > 0


class TestReplayUnderChurnKeepsInvariants:
    def test_mid_replay_verification_catches_nothing(self, ixp, workload):
        """Dense sampling (every burst) through the heaviest scenario."""
        controller = _controller(ixp, workload, "fec", "single")
        spec = ScenarioSpec(
            name="dense", kind="failover-storm", seed=29, params=_PARAMS["failover-storm"]
        )
        trace = build_scenario_trace(ixp, spec)
        report = replay(
            controller,
            trace.updates,
            scenario="dense",
            verify_every=1,
            probes=16,
            recompile_every=2,
        )
        assert report.ok, report.summary()
        assert report.verify_passes == report.bursts + 1
        assert report.commits > 0
