"""Unit tests for BGP messages and routes."""

import pytest

from repro.bgp.attributes import RouteAttributes
from repro.bgp.messages import Announcement, BGPUpdate, Route, Withdrawal
from repro.netutils.ip import IPv4Prefix


def attrs(next_hop="172.0.0.1"):
    return RouteAttributes(as_path=[65001, 65100], next_hop=next_hop)


class TestAnnouncement:
    def test_prefix_coercion(self):
        announcement = Announcement("10.0.0.0/8", attrs())
        assert announcement.prefix == IPv4Prefix("10.0.0.0/8")

    def test_prefix_object_is_shared(self):
        prefix = IPv4Prefix("10.0.0.0/8")
        assert Announcement(prefix, attrs()).prefix is prefix
        with pytest.raises(ValueError):
            Announcement("10.0.0.0/33", attrs())

    def test_export_to_everyone_by_default(self):
        announcement = Announcement("10.0.0.0/8", attrs())
        assert announcement.export_to is None
        assert announcement.exported_to("anyone")

    def test_export_scoping(self):
        announcement = Announcement("10.0.0.0/8", attrs(), export_to=["C"])
        assert announcement.exported_to("C")
        assert not announcement.exported_to("A")

    def test_equality(self):
        assert Announcement("10.0.0.0/8", attrs()) == Announcement("10.0.0.0/8", attrs())
        assert Announcement("10.0.0.0/8", attrs()) != Announcement(
            "10.0.0.0/8", attrs(), export_to=["C"]
        )


class TestWithdrawal:
    def test_equality_and_hash(self):
        assert Withdrawal("10.0.0.0/8") == Withdrawal("10.0.0.0/8")
        assert len({Withdrawal("10.0.0.0/8"), Withdrawal("10.0.0.0/8")}) == 1


class TestBGPUpdate:
    def test_prefixes_union(self):
        update = BGPUpdate(
            "B",
            announced=[Announcement("10.0.0.0/8", attrs())],
            withdrawn=[Withdrawal("11.0.0.0/8")],
            time=12.5,
        )
        assert update.prefixes == {IPv4Prefix("10.0.0.0/8"), IPv4Prefix("11.0.0.0/8")}
        assert update.time == 12.5

    def test_empty_update(self):
        update = BGPUpdate("B")
        assert update.prefixes == frozenset()


class TestRoute:
    def test_fields(self):
        route = Route("10.0.0.0/8", attrs(), learned_from="B")
        assert route.prefix == IPv4Prefix("10.0.0.0/8")
        assert route.learned_from == "B"
        assert route.next_hop == attrs().next_hop

    def test_export_scope(self):
        route = Route("10.0.0.0/8", attrs(), learned_from="B", export_to=frozenset({"C"}))
        assert route.exported_to("C") and not route.exported_to("A")
        open_route = Route("10.0.0.0/8", attrs(), learned_from="B")
        assert open_route.exported_to("A")

    def test_equality_hash(self):
        a = Route("10.0.0.0/8", attrs(), learned_from="B")
        b = Route("10.0.0.0/8", attrs(), learned_from="B")
        c = Route("10.0.0.0/8", attrs(), learned_from="C")
        assert a == b and a != c
        assert len({a, b, c}) == 2
