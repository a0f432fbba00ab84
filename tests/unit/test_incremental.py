"""Unit tests for the fast-path incremental compiler."""

import pytest

from repro.bgp.attributes import RouteAttributes
from repro.core.incremental import FASTPATH_BASE_PRIORITY
from repro.netutils.ip import IPv4Address, IPv4Prefix
from repro.policy import Packet

from tests.conftest import P1, P2, P3, P4, P5


def tagged_packet(controller, sender_port, dst_prefix, dstip, **headers):
    """Build a packet carrying the dstmac the sender's router would apply."""
    sender = controller.config.owner_of_port(sender_port).name
    (announcement,) = [
        a
        for a in controller.advertisements(sender)
        if a.prefix == IPv4Prefix(dst_prefix)
    ]
    next_hop = announcement.attributes.next_hop
    vmac = controller.arp.resolve(next_hop)
    if vmac is None:
        owner = controller.config.owner_of_address(next_hop)
        vmac = owner.port_for_address(next_hop).hardware
    return Packet(dstip=dstip, dstmac=vmac, port=sender_port, **headers)


class TestFastPath:
    def test_single_update_installs_high_priority_block(self, figure1_compiled):
        controller = figure1_compiled
        base_rules = controller.table_size()
        controller.routing.withdraw("C", P1)
        (entry,) = controller.ops.fast_path_log
        assert entry.rules_installed > 0
        assert controller.table_size() == base_rules + entry.rules_installed
        fast_rules = [
            rule
            for rule in controller.switch.table
            if rule.priority >= FASTPATH_BASE_PRIORITY
        ]
        assert len(fast_rules) == entry.rules_installed

    def test_fast_path_rules_steer_traffic_correctly(self, figure1_compiled):
        controller = figure1_compiled
        # Before: A's HTTP to p1 diverts via B (policy).  Withdraw B's p1:
        # the policy filter no longer allows B, so HTTP follows default to C.
        controller.routing.withdraw("B", P1)
        packet = tagged_packet(
            controller, "A1", P1, "10.1.2.3", dstport=80, srcport=7, srcip="50.0.0.1"
        )
        out = controller.switch.receive(packet, "A1")
        assert len(out) == 1 and out[0][0] == "C1"

    def test_withdrawal_of_only_route_uninstalls(self, figure1_compiled):
        controller = figure1_compiled
        controller.routing.withdraw("A", P5)
        (entry,) = controller.ops.fast_path_log
        assert entry.vnh is None and entry.rules_installed == 0
        assert P5 not in {str(p) for p in controller.fast_path.active_prefixes}

    def test_repeated_updates_replace_block(self, figure1_compiled):
        controller = figure1_compiled

        def attrs(asns, next_hop):
            return RouteAttributes(as_path=asns, next_hop=next_hop)

        controller.routing.announce("C", P1, attrs([65003, 65100], "172.0.0.21"))
        first_size = controller.table_size()
        controller.routing.announce("C", P1, attrs([65100], "172.0.0.21"))
        # the old block for P1 was removed before the new one installed
        assert len(controller.fast_path.active_prefixes) == 1
        assert controller.table_size() <= first_size + 4

    def test_fast_path_readvertises_new_vnh(self, figure1_compiled):
        controller = figure1_compiled
        before = {
            a.prefix: a.attributes.next_hop for a in controller.advertisements("A")
        }
        controller.routing.withdraw("C", P1)
        after = {
            a.prefix: a.attributes.next_hop for a in controller.advertisements("A")
        }
        assert after[IPv4Prefix(P1)] != before[IPv4Prefix(P1)]
        assert controller.arp.resolve(after[IPv4Prefix(P1)]) is not None

    def test_additional_rules_metric(self, figure1_compiled):
        controller = figure1_compiled
        assert controller.fast_path.additional_rules() == 0
        controller.routing.withdraw("C", P1)
        assert controller.fast_path.additional_rules() > 0

    def test_additional_rules_matches_table_scan_and_running_count(
        self, figure1_compiled
    ):
        controller = figure1_compiled
        controller.routing.withdraw("C", P1)
        controller.routing.withdraw("B", P3)
        engine = controller.fast_path
        fastpath_rules = [
            rule
            for rule in controller.switch.table
            if isinstance(rule.cookie, tuple) and rule.cookie[0] == "fastpath"
        ]
        assert engine.additional_rules() == len(fastpath_rules)
        # the engine's O(1) running count (what Figure 9 reads through
        # the gauge) agrees with the authoritative table scan
        assert engine._extra_rules == len(fastpath_rules)

    def test_superseded_vnh_is_released(self, figure1_compiled):
        controller = figure1_compiled
        controller.routing.withdraw("C", P1)
        footprint = controller.allocator.allocated
        for index in range(8):  # repeated flaps replace P1's block in place
            controller.routing.announce(
                "C",
                P1,
                RouteAttributes(
                    as_path=[65100 + index % 2, 65100], next_hop="172.0.0.21"
                ),
            )
        assert controller.allocator.allocated == footprint
        assert controller.allocator.released_total >= 8

    def test_fastpath_seconds_follow_sim_clock_when_resilient(
        self, figure1_compiled
    ):
        from repro.sim.clock import Simulator

        controller = figure1_compiled
        controller.enable_resilience(clock=Simulator(start=100.0))
        controller.routing.withdraw("C", P1)
        (entry,) = controller.ops.fast_path_log
        # on the sim time base, handling is instantaneous: no wall-clock
        # jitter leaks into simulated measurements
        assert entry.seconds == 0.0
        assert controller.telemetry.now() == 100.0

    def test_fastpath_latency_lands_in_telemetry(self, figure1_compiled):
        controller = figure1_compiled
        controller.routing.withdraw("C", P1)
        histogram = controller.telemetry.get("sdx_fastpath_seconds")
        assert histogram.count() == len(controller.ops.fast_path_log)
        assert histogram.samples() == [
            entry.seconds for entry in controller.ops.fast_path_log
        ]

    def test_flush_removes_blocks(self, figure1_compiled):
        controller = figure1_compiled
        controller.routing.withdraw("C", P1)
        removed = controller.fast_path.flush()
        assert removed > 0
        assert controller.fast_path.additional_rules() == 0

    def test_inbound_policy_applies_to_fast_path_traffic(self, figure1_compiled):
        controller = figure1_compiled
        # Flip best path for p3 (currently via B) by shortening C's path;
        # default for p3 then goes to C.  B's inbound TE must still apply
        # to policy-diverted HTTP traffic toward the new VMAC.
        controller.routing.announce(
            "C", P3, RouteAttributes(as_path=[65102], next_hop="172.0.0.21")
        )
        packet = tagged_packet(
            controller, "A1", P3, "10.3.9.9", dstport=80, srcport=7, srcip="200.0.0.1"
        )
        out = controller.switch.receive(packet, "A1")
        # HTTP diverts to B (still feasible via B) and B's inbound TE sends
        # srcip 200.x (128/1) to port B2.
        assert len(out) == 1 and out[0][0] == "B2"


class TestUnreachedPrefix:
    """A prefix no outbound rule can reach gets no VNH and no block.

    In Figure 1 only A holds an outbound policy, forwarding to B and C;
    p5 is announced by A alone, so neither target is BGP-feasible for
    it and its traffic is plain default forwarding by real MAC, which
    the base table already does.
    """

    @staticmethod
    def _outcomes(controller, outcome):
        return controller.telemetry.get("sdx_fastpath_updates_total").value(
            outcome=outcome
        )

    def test_update_installs_nothing_and_advertises_the_real_next_hop(
        self, figure1_compiled
    ):
        controller = figure1_compiled
        macs = controller.allocator.mac_source()
        rules, allocated, drawn = (
            controller.table_size(),
            controller.allocator.allocated,
            macs.allocated,
        )
        unaffected = self._outcomes(controller, "unaffected")
        controller.routing.announce(
            "A", P5, RouteAttributes(as_path=[65001], next_hop="172.0.0.1")
        )
        (entry,) = controller.ops.fast_path_log
        assert entry.rules_installed == 0 and entry.vnh is None
        assert controller.table_size() == rules
        assert not controller.fast_path.active_prefixes
        assert controller.advertised_next_hop("B", IPv4Prefix(P5)) == IPv4Address(
            "172.0.0.1"
        )
        assert controller.allocator.allocated == allocated
        # one VMAC is still drawn, so later compiles assign the same VMACs
        assert macs.allocated == drawn + 1
        assert self._outcomes(controller, "unaffected") == unaffected + 1

    def test_reached_prefix_still_installs_a_block(self, figure1_compiled):
        controller = figure1_compiled
        controller.routing.announce(
            "A", P5, RouteAttributes(as_path=[65001], next_hop="172.0.0.1")
        )
        controller.routing.announce(
            "C", P1, RouteAttributes(as_path=[65003, 65100], next_hop="172.0.0.21")
        )
        entry = controller.ops.fast_path_log[-1]
        assert str(entry.prefix) == P1
        assert entry.vnh is not None and entry.rules_installed > 0
        assert controller.fast_path.active_prefixes == {IPv4Prefix(P1)}
        assert controller.advertised_next_hop("B", IPv4Prefix(P1)) == entry.vnh.address


class TestStaleDeliveryPruning:
    """The multi-table VMAC table must not strand delivery rules.

    The merged table-1 segment carries one delivery rule per (class,
    announcing participant), keyed by feasibility at compile time.  A
    withdrawal handled by the fast path must prune entries whose
    participant no longer advertises any prefix of the class — the
    invariant checker flags them, and a router receiving such a frame
    would discard it.
    """

    def _controller(self, vmac_mode="fec", dataplane_mode="multitable"):
        from repro.core.config import SDXConfig
        from repro.core.controller import SDXController
        from tests.conftest import (
            install_figure1_policies,
            load_figure1_routes,
            make_figure1_config,
        )

        controller = SDXController(
            make_figure1_config(),
            sdx=SDXConfig(vmac_mode=vmac_mode, dataplane_mode=dataplane_mode),
        )
        load_figure1_routes(controller)
        install_figure1_policies(controller)
        return controller

    def _delivery_rules(self, controller, prefix, participant):
        ports = {
            port.port_id
            for port in controller.config.participant(participant).ports
        }
        group = next(
            g
            for g in controller.last_compilation.fec_table.affected_groups
            if IPv4Prefix(prefix) in g.prefixes
        )
        return [
            rule
            for rule in controller.switch.table
            if rule.table > 0
            and rule.goto is None
            and rule.match.constraints.get("dstmac") == group.vnh.hardware
            and any(a.output_port in ports for a in rule.actions)
        ]

    def test_withdrawal_prunes_stale_delivery_rule(self):
        from repro.verify.invariants import check_bgp_consistency

        controller = self._controller()
        # p3 is multihomed (B best, C backup): both delivery rules exist.
        assert self._delivery_rules(controller, P3, "B")
        assert self._delivery_rules(controller, P3, "C")
        controller.routing.withdraw("B", P3)
        # B's entry is gone, C's (still advertising) survives.
        assert not self._delivery_rules(controller, P3, "B")
        assert self._delivery_rules(controller, P3, "C")
        assert check_bgp_consistency(controller) == []

    @pytest.mark.parametrize("vmac_mode", ["fec", "superset"])
    def test_mass_withdrawal_keeps_bgp_consistency(self, vmac_mode):
        from repro.verify.invariants import check_bgp_consistency

        controller = self._controller(vmac_mode=vmac_mode)
        for prefix in (P1, P2, P3, P4):
            controller.routing.withdraw("B", prefix)
            assert check_bgp_consistency(controller) == [], (vmac_mode, prefix)

    def test_single_table_layout_is_untouched(self):
        controller = self._controller(dataplane_mode="single")
        table_before = controller.switch.table.content_hash()
        assert controller.fast_path.prune_stale_delivery([IPv4Prefix(P3)]) == 0
        assert controller.switch.table.content_hash() == table_before
