"""Unit tests for flow tables and rules."""

import pytest

from repro.dataplane.flowtable import FlowRule, FlowTable
from repro.policy.classifier import Action, Classifier, HeaderMatch, Rule
from repro.policy.packet import Packet


def rule(priority, actions=(Action(port="out"),), cookie=None, **constraints):
    return FlowRule(priority, HeaderMatch(**constraints), actions, cookie=cookie)


class TestFlowRule:
    def test_counters(self):
        entry = rule(1)
        entry.count(100)
        entry.count(50)
        assert entry.packets == 2 and entry.bytes == 150

    def test_drop_detection(self):
        assert FlowRule(1, HeaderMatch.ANY, ()).is_drop
        assert not rule(1).is_drop

    def test_rule_ids_unique(self):
        assert rule(1).rule_id != rule(1).rule_id


class TestFlowTable:
    def test_priority_order(self):
        table = FlowTable()
        low = table.install(rule(1, dstport=80))
        high = table.install(rule(10, dstport=80))
        assert table.lookup(Packet(dstport=80)) is high
        table.remove(high)
        assert table.lookup(Packet(dstport=80)) is low

    def test_equal_priority_insertion_order(self):
        table = FlowTable()
        first = table.install(rule(5, dstport=80))
        table.install(rule(5, dstport=80))
        assert table.lookup(Packet(dstport=80)) is first

    def test_miss_counted(self):
        table = FlowTable()
        table.install(rule(1, dstport=80))
        assert table.process(Packet(dstport=22)) == frozenset()
        assert table.misses == 1

    def test_process_applies_actions_and_counts(self):
        table = FlowTable()
        entry = table.install(rule(1, dstport=80))
        out = table.process(Packet(dstport=80), packet_bytes=64)
        assert {p["port"] for p in out} == {"out"}
        assert entry.packets == 1 and entry.bytes == 64

    def test_drop_rule_matches_and_counts(self):
        table = FlowTable()
        drop_rule = table.install(FlowRule(10, HeaderMatch(dstport=80), ()))
        table.install(rule(1, dstport=80))
        assert table.process(Packet(dstport=80)) == frozenset()
        assert drop_rule.packets == 1
        assert table.misses == 0

    def test_install_classifier_preserves_order(self):
        classifier = Classifier(
            [
                Rule(HeaderMatch(dstport=80), (Action(port="B"),)),
                Rule(HeaderMatch.ANY, (Action(port="C"),)),
            ]
        )
        table = FlowTable()
        table.install_classifier(classifier, base_priority=100)
        assert {p["port"] for p in table.process(Packet(dstport=80))} == {"B"}
        assert {p["port"] for p in table.process(Packet(dstport=22))} == {"C"}
        priorities = [entry.priority for entry in table]
        assert priorities == sorted(priorities, reverse=True)
        assert min(priorities) > 100

    def test_classifier_blocks_stack_by_priority(self):
        base = Classifier([Rule(HeaderMatch.ANY, (Action(port="old"),))])
        override = Classifier([Rule(HeaderMatch(dstport=80), (Action(port="new"),))])
        table = FlowTable()
        table.install_classifier(base, base_priority=100, cookie="base")
        table.install_classifier(override, base_priority=1000, cookie="fast")
        assert {p["port"] for p in table.process(Packet(dstport=80))} == {"new"}
        assert {p["port"] for p in table.process(Packet(dstport=22))} == {"old"}

    def test_remove_by_cookie(self):
        table = FlowTable()
        table.install(rule(1, cookie="a", dstport=80))
        table.install(rule(2, cookie="a", dstport=443))
        table.install(rule(3, cookie="b", dstport=22))
        assert table.remove_by_cookie("a") == 2
        assert len(table) == 1

    def test_rules_for_cookie(self):
        table = FlowTable()
        low = table.install(rule(1, cookie="a", dstport=80))
        high = table.install(rule(9, cookie="a", dstport=443))
        table.install(rule(5, cookie="b", dstport=22))
        assert table.rules_for_cookie("a") == (high, low)
        assert table.rules_for_cookie("missing") == ()

    def test_counters_by_cookie(self):
        table = FlowTable()
        table.install(rule(2, cookie="x", dstport=80))
        table.install(rule(1, cookie="y", dstport=443))
        table.process(Packet(dstport=80), packet_bytes=10)
        table.process(Packet(dstport=443), packet_bytes=20)
        totals = table.counters_by_cookie()
        assert totals["x"] == (1, 10) and totals["y"] == (1, 20)

    def test_clear(self):
        table = FlowTable()
        table.install(rule(1))
        table.clear()
        assert len(table) == 0

    def test_remove_or_move_of_uninstalled_rule_raises(self):
        table = FlowTable()
        installed = table.install(rule(5, cookie="a", dstport=80))
        twin = rule(5, cookie="a", dstport=80)  # equal fields, not installed
        with pytest.raises(ValueError):
            table.remove(twin)
        with pytest.raises(ValueError):
            table.reprioritize(twin, 7)
        table.remove(installed)
        with pytest.raises(ValueError):
            table.remove(installed)
        assert len(table) == 0 and table.rules_for_cookie("a") == ()

    @pytest.mark.parametrize("doomed", [2, 60])  # a few rules; most of the table
    def test_cookie_removal_keeps_the_rest_in_order(self, doomed):
        table = FlowTable()
        kept = []
        for port in range(100):
            cookie = "drop" if port % 50 < doomed // 2 else "keep"
            entry = table.install(rule(port % 7, cookie=cookie, dstport=port))
            if cookie == "keep":
                kept.append(entry)
        assert table.remove_by_cookie("drop") == doomed
        assert list(table) == sorted(kept, key=lambda entry: -entry.priority)
        assert table.rules_for_cookie("keep") == tuple(table)
        assert table.lookup(Packet(dstport=99)) is kept[-1]


class TestReprioritize:
    def test_moves_rule_and_keeps_counters(self):
        table = FlowTable()
        moved = table.install(rule(1, dstport=80))
        blocker = table.install(rule(5, dstport=80))
        moved.count(64)
        table.reprioritize(moved, 9)
        assert table.lookup(Packet(dstport=80)) is moved
        assert moved.packets == 1 and moved.bytes == 64
        assert blocker in table.rules()

    def test_not_counted_as_churn(self):
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        table = FlowTable()
        table.attach_telemetry(registry)
        entry = table.install(rule(1, dstport=80))
        installs = registry.get("sdx_flowtable_installs_total").total()
        table.reprioritize(entry, 7)
        assert registry.get("sdx_flowtable_installs_total").total() == installs
        assert registry.get("sdx_flowtable_removes_total").total() == 0


class TestTransactionPrioritySnapshot:
    def test_rollback_restores_in_place_priority_changes(self):
        table = FlowTable()
        entry = table.install(rule(3, dstport=80))
        before = table.content_hash()
        transaction = table.transaction()
        table.reprioritize(entry, 42)
        table.install(rule(50, dstport=22))
        transaction.rollback()
        assert entry.priority == 3
        assert table.content_hash() == before

    def test_commit_keeps_priority_changes(self):
        table = FlowTable()
        entry = table.install(rule(3, dstport=80))
        with table.transaction():
            table.reprioritize(entry, 42)
        assert entry.priority == 42


class TestMultiTable:
    def chained(self):
        table = FlowTable()
        stage1 = table.install(
            FlowRule(
                10,
                HeaderMatch(dstport=80),
                (Action(tos=1),),
                cookie="s1",
                table=0,
                goto=1,
            )
        )
        stage2 = table.install(
            FlowRule(
                5,
                HeaderMatch(tos=1),
                (Action(port="out"),),
                cookie="s2",
                table=1,
            )
        )
        return table, stage1, stage2

    def test_goto_must_point_forward(self):
        import pytest

        with pytest.raises(ValueError):
            FlowRule(1, HeaderMatch.ANY, (), table=1, goto=1)
        with pytest.raises(ValueError):
            FlowRule(1, HeaderMatch.ANY, (), table=2, goto=0)

    def test_lookup_is_per_table(self):
        table, stage1, stage2 = self.chained()
        assert table.lookup(Packet(dstport=80)) is stage1
        assert table.lookup(Packet(tos=1), table=1) is stage2
        assert table.lookup(Packet(tos=1)) is None

    def test_process_follows_goto_and_counts_both_stages(self):
        table, stage1, stage2 = self.chained()
        out = table.process(Packet(dstport=80), packet_bytes=64)
        assert {p["port"] for p in out} == {"out"}
        assert {p["tos"] for p in out} == {1}
        assert stage1.packets == 1 and stage1.bytes == 64
        assert stage2.packets == 1 and stage2.bytes == 64

    def test_miss_in_next_table_drops(self):
        table = FlowTable()
        table.install(
            FlowRule(10, HeaderMatch(dstport=80), (Action(tos=2),), table=0, goto=1)
        )
        table.install(FlowRule(5, HeaderMatch(tos=1), (Action(port="out"),), table=1))
        assert table.process(Packet(dstport=80)) == frozenset()

    def test_resolve_returns_first_stage_rule_without_counting(self):
        table, stage1, stage2 = self.chained()
        resolved = table.resolve(Packet(dstport=80))
        assert resolved is not None
        first, outputs = resolved
        assert first is stage1
        assert {p["port"] for p in outputs} == {"out"}
        assert stage1.packets == 0 and stage2.packets == 0
        assert table.resolve(Packet(dstport=22)) is None

    def test_multistage_fanout(self):
        table = FlowTable()
        table.install(
            FlowRule(
                10,
                HeaderMatch(dstport=80),
                (Action(tos=1), Action(tos=2)),
                table=0,
                goto=1,
            )
        )
        table.install(FlowRule(5, HeaderMatch(tos=1), (Action(port="a"),), table=1))
        table.install(FlowRule(5, HeaderMatch(tos=2), (Action(port="b"),), table=1))
        out = table.process(Packet(dstport=80))
        assert {p["port"] for p in out} == {"a", "b"}

    def test_identity_includes_table_and_goto(self):
        base = FlowRule(1, HeaderMatch(dstport=80), (Action(port="x"),), cookie="c")
        other_table = FlowRule(
            1, HeaderMatch(dstport=80), (Action(port="x"),), cookie="c", table=1
        )
        with_goto = FlowRule(
            1, HeaderMatch(dstport=80), (Action(port="x"),), cookie="c", goto=1
        )
        assert base.identity != other_table.identity
        assert base.identity != with_goto.identity

    def test_content_hash_distinguishes_placement(self):
        plain = FlowTable()
        plain.install(rule(1, dstport=80))
        staged = FlowTable()
        staged.install(
            FlowRule(1, HeaderMatch(dstport=80), (Action(port="out"),), table=1)
        )
        assert plain.content_hash() != staged.content_hash()

    def test_table_ids_and_rules_in(self):
        table, stage1, stage2 = self.chained()
        assert table.table_ids() == (0, 1)
        assert table.rules_in(0) == (stage1,)
        assert table.rules_in(1) == (stage2,)
