"""Unit tests for BGP path attributes."""

import pytest

from repro.bgp.attributes import ASPath, Community, Origin, RouteAttributes, community
from repro.netutils.ip import IPv4Address


class TestASPath:
    def test_construction_and_length(self):
        path = ASPath([65001, 65002, 43515])
        assert len(path) == 3
        assert list(path) == [65001, 65002, 43515]

    def test_origin_and_first_as(self):
        path = ASPath([65001, 43515])
        assert path.origin_as == 43515
        assert path.first_as == 65001
        assert ASPath().origin_as is None and ASPath().first_as is None

    def test_rejects_bad_asn(self):
        with pytest.raises(ValueError):
            ASPath([0])
        with pytest.raises(ValueError):
            ASPath([1 << 32])

    def test_out_of_range_asn_is_named(self):
        # the first bad ASN in path order is the one reported
        with pytest.raises(ValueError, match=r"out of range: 4294967296$"):
            ASPath([65001, 1 << 32, -1])
        with pytest.raises(ValueError, match=r"out of range: -1$"):
            ASPath([65001, -1, 1 << 32])
        with pytest.raises(ValueError, match=r"out of range: 0$"):
            ASPath(["65001", "0"])
        with pytest.raises(ValueError):
            ASPath(["not-an-asn"])
        with pytest.raises(TypeError):
            ASPath([None])
        assert list(ASPath(["1", 4294967295])) == [1, 4294967295]

    def test_prepend(self):
        path = ASPath([65002]).prepend(65001, count=2)
        assert list(path) == [65001, 65001, 65002]

    def test_loop_detection(self):
        assert ASPath([1, 2, 3]).contains_loop(2)
        assert not ASPath([1, 2, 3]).contains_loop(4)

    def test_regex_matching_paper_example(self):
        # ".*43515$" matches routes originated by YouTube's AS
        path = ASPath([65001, 65002, 43515])
        assert path.matches(r".*43515$")
        assert not ASPath([43515, 65001]).matches(r".*43515$")

    def test_string_form(self):
        assert str(ASPath([65001, 65002])) == "65001 65002"

    def test_equality_hash(self):
        assert ASPath([1, 2]) == ASPath([1, 2])
        assert len({ASPath([1, 2]), ASPath([1, 2]), ASPath([2, 1])}) == 2


class TestCommunity:
    def test_parts(self):
        c = Community(65000, 120)
        assert c.asn == 65000 and c.value == 120
        assert str(c) == "65000:120"

    def test_parse(self):
        assert Community.parse("65000:120") == Community(65000, 120)

    def test_coercion_helper(self):
        assert community("65000:120") == Community(65000, 120)
        assert community((65000, 120)) == Community(65000, 120)
        assert community(Community(65000, 120)) == Community(65000, 120)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            Community(1 << 16, 0)
        with pytest.raises(ValueError):
            Community(0, -1)


class TestRouteAttributes:
    def make(self, **overrides):
        values = dict(as_path=[65001, 65100], next_hop="172.0.0.1")
        values.update(overrides)
        return RouteAttributes(**values)

    def test_defaults(self):
        attrs = self.make()
        assert attrs.origin is Origin.IGP
        assert attrs.med == 0
        assert attrs.local_pref == 100
        assert attrs.communities == frozenset()
        assert attrs.next_hop == IPv4Address("172.0.0.1")

    def test_as_path_coercion(self):
        assert isinstance(self.make().as_path, ASPath)

    def test_communities_coercion(self):
        attrs = self.make(communities=["65000:1", (65000, 2)])
        assert Community(65000, 1) in attrs.communities
        assert Community(65000, 2) in attrs.communities

    def test_replace(self):
        attrs = self.make()
        rewritten = attrs.replace(next_hop="172.16.0.1")
        assert rewritten.next_hop == IPv4Address("172.16.0.1")
        assert rewritten.as_path == attrs.as_path
        assert attrs.next_hop == IPv4Address("172.0.0.1")  # original untouched

    def test_equality_hash(self):
        assert self.make() == self.make()
        assert self.make() != self.make(med=10)
        assert len({self.make(), self.make()}) == 1

    def test_rejects_bad_origin(self):
        with pytest.raises(ValueError):
            self.make(origin=3)
        with pytest.raises(ValueError):
            self.make(origin="IGP")
        assert self.make(origin=1).origin is Origin.EGP

    def test_rejects_bad_next_hop(self):
        with pytest.raises(ValueError):
            self.make(next_hop="300.0.0.1")
        with pytest.raises(ValueError):
            self.make(next_hop=-1)
        with pytest.raises(TypeError):
            self.make(next_hop=1.5)
        with pytest.raises(TypeError):
            self.make(next_hop=None)

    def test_rejects_bad_community(self):
        with pytest.raises(ValueError):
            self.make(communities=["65000:70000"])

    def test_values_of_their_own_type_are_shared(self):
        next_hop = IPv4Address("172.0.0.1")
        path = ASPath([65001])
        attrs = self.make(as_path=path, next_hop=next_hop, origin=Origin.EGP)
        assert attrs.next_hop is next_hop and attrs.as_path is path
        assert attrs.origin is Origin.EGP
        assert self.make(next_hop=0xAC000001).next_hop == next_hop

    def test_origin_ordering(self):
        assert Origin.IGP < Origin.EGP < Origin.INCOMPLETE
