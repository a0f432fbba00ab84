"""Re-advertised next hops: the prefix → VNH override map.

The controller keeps a VNH only for policy-affected prefixes (iSDX's
``prefix_2_VNH``); every other prefix is re-advertised with the
receiving participant's live best route's real next hop.  These tests
hold that map to the dense ``(participant, prefix) → next hop`` map the
compiler used to build on every compile, and pin the stale-next-hop
bug the dense map had when a best path moved without a fast-path
re-advertisement.
"""

from __future__ import annotations

import pytest

from repro import RouteAttributes, SDXController
from repro.netutils.ip import IPv4Address, IPv4Prefix
from repro.workloads.policy_gen import generate_policies
from repro.workloads.providers import load_fixture
from repro.workloads.scenarios import ScenarioSpec, build_scenario_trace, segment_bursts

from tests.conftest import P5, load_figure1_routes, make_figure1_config


def dense_next_hops(controller: SDXController):
    """The dense map the compiler used to build, as an oracle.

    Every (participant, Loc-RIB prefix): the prefix's FEC VNH when the
    last compilation's FEC table marks it policy-affected, else the best
    route's real next hop.
    """
    fec_table = controller.last_compilation.fec_table
    advertised = {}
    for name in controller.config.participant_names():
        for prefix, route in controller.route_server.loc_rib(name).items():
            group = fec_table.group_for(prefix)
            if group is not None and group.is_affected:
                advertised[(name, prefix)] = group.vnh.address
            else:
                advertised[(name, prefix)] = route.attributes.next_hop
    return advertised


def assert_matches_dense(controller: SDXController) -> int:
    """Every participant's next hop for every Loc-RIB prefix, both read
    paths, equals the dense oracle.  Returns the number of VNH entries."""
    oracle = dense_next_hops(controller)
    for (name, prefix), expected in oracle.items():
        assert controller.advertised_next_hop(name, prefix) == expected, (name, prefix)
    for name in controller.config.participant_names():
        told = {a.prefix: a.attributes.next_hop for a in controller.advertisements(name)}
        assert told == {
            prefix: next_hop for (who, prefix), next_hop in oracle.items() if who == name
        }, name
    return sum(1 for next_hop in oracle.values() if next_hop in controller.config.vnh_pool)


class TestStaleNextHop:
    def test_unaffected_prefix_follows_its_new_best_route(self):
        """A best path that moves with no fast-path re-advertisement must
        not leave the old announcer's next hop behind."""
        controller = SDXController(make_figure1_config(), fast_path_enabled=False)
        load_figure1_routes(controller)
        controller.compile()
        p5 = IPv4Prefix(P5)
        assert controller.advertised_next_hop("B", p5) == IPv4Address("172.0.0.1")

        controller.routing.announce(
            "C", P5, RouteAttributes(as_path=[65003], next_hop="172.0.0.21")
        )
        assert controller.route_server.best_route("B", p5).learned_from == "C"
        assert controller.advertised_next_hop("B", p5) == IPv4Address("172.0.0.21")
        told = {a.prefix: a.attributes.next_hop for a in controller.advertisements("B")}
        assert told[p5] == IPv4Address("172.0.0.21")


class TestDenseEquivalence:
    def test_figure1_with_policies(self, figure1_compiled):
        assert assert_matches_dense(figure1_compiled) > 0

    @pytest.fixture(scope="class")
    def ixp(self):
        return load_fixture("ixp_small").build()

    def _controller(self, ixp) -> SDXController:
        controller = SDXController(ixp.config)
        controller.route_server.load(ixp.updates)
        with controller.deferred_recompilation():
            for name, policy_set in generate_policies(ixp, seed=21).policies.items():
                controller.policy.set_policies(name, policy_set)
        return controller

    def test_ixp_small_with_section_6_1_policies(self, ixp):
        controller = self._controller(ixp)
        assert assert_matches_dense(controller) > 0

    def test_after_fast_path_burst_and_recompile(self, ixp):
        controller = self._controller(ixp)
        spec = ScenarioSpec(
            name="burst",
            kind="failover-storm",
            seed=17,
            params={"waves": 1, "burst_size": 30, "churn_per_burst": 2},
        )
        # The storm's first bursts withdraw a member's prefixes outright,
        # the next ones re-announce them through the fast path.
        for burst in segment_bursts(build_scenario_trace(ixp, spec).updates)[:5]:
            for update in burst:
                controller.routing.process_update(update)
        vnhs = controller.fast_path.active_vnhs()
        assert vnhs, "the bursts should have taken the fast path"
        # Before the recompile, fast-path prefixes are told their fresh VNH.
        for prefix, vnh in vnhs.items():
            for name in controller.config.participant_names():
                if controller.route_server.best_route(name, prefix) is not None:
                    assert controller.advertised_next_hop(name, prefix) == vnh.address
        controller.compile()
        assert not controller.fast_path.active_prefixes
        assert assert_matches_dense(controller) > 0
