"""Property tests: the flow table's ordering invariant and its indexes.

``FlowTable`` places rules by binary search, which is only right while
``list(table)`` is sorted by descending priority with equal priorities
in arrival order (a reprioritized rule arrives anew).  Random mutation
sequences — including transactions rolled back after rules were
reprioritized in place — are replayed against a model that sorts.
After every step the two indexes are checked against scans of the rule
list: ``lookup`` against a linear first match, and ``rules_for_cookie``
against a filter.
"""

from hypothesis import given, settings, strategies as st

from repro.dataplane.flowtable import FlowRule, FlowTable
from repro.netutils.ip import IPv4Prefix
from repro.netutils.mac import MACMask
from repro.policy.classifier import Action, HeaderMatch
from repro.policy.packet import Packet

priorities = st.integers(min_value=0, max_value=5)  # few values: ties are the point
cookies = st.sampled_from(("a", "b", "c"))
picks = st.integers(min_value=0, max_value=1_000)  # index into the live rules
tables = st.sampled_from((0, 1))

# Small value domains, so that matches overlap and packets hit them.
ports = st.sampled_from(("p1", "p2"))
macs = st.integers(min_value=0, max_value=3)
mac_masks = st.builds(MACMask, macs, st.sampled_from((0x1, 0x2, 0x0)))
addresses = st.integers(min_value=(10 << 24), max_value=(10 << 24) + 3)
prefixes = st.builds(IPv4Prefix, addresses, st.sampled_from((0, 8, 30, 31, 32)))
dstports = st.sampled_from((80, 443))

constraints = st.fixed_dictionaries(
    {},
    optional={
        "port": ports,
        "dstmac": st.one_of(macs, mac_masks),
        "dstip": prefixes,
        "srcip": prefixes,
        "dstport": dstports,
    },
)
headers = {
    "port": ports,
    "dstmac": macs,
    "dstip": addresses,
    "srcip": addresses,
    "dstport": dstports,
}
# Mostly complete packets, some missing a field or two.
packets = st.builds(
    lambda values, missing: Packet(
        {field: value for field, value in values.items() if field not in missing}
    ),
    st.fixed_dictionaries(headers),
    st.sets(st.sampled_from(sorted(headers)), max_size=2),
)

operations = st.one_of(
    st.tuples(st.just("install"), priorities, cookies, constraints, tables),
    st.tuples(st.just("reprioritize"), picks, priorities),
    st.tuples(st.just("remove"), picks),
    st.tuples(st.just("remove_by_cookie"), cookies),
    st.tuples(st.just("begin")),
    st.tuples(st.just("rollback")),
    st.tuples(st.just("commit")),
)


class Model:
    """rule -> (priority, arrival); the table must equal its stable sort."""

    def __init__(self):
        self.entries = {}
        self.arrivals = 0

    def place(self, rule, priority):
        self.arrivals += 1
        self.entries[rule] = (priority, self.arrivals)

    def ordered(self):
        return sorted(
            self.entries,
            key=lambda rule: (-self.entries[rule][0], self.entries[rule][1]),
        )


def first_match(table, packet, stage):
    """The lookup oracle: a linear scan for the first matching rule."""
    for rule in table:
        if rule.table == stage and rule.match.matches(packet):
            return rule
    return None


def assert_indexes_agree_with_scans(table, probes):
    for packet in probes:
        for stage in (0, 1):
            assert table.lookup(packet, stage) is first_match(table, packet, stage)
    for cookie in ("a", "b", "c"):
        assert table.rules_for_cookie(cookie) == tuple(
            rule for rule in table if rule.cookie == cookie
        )


@settings(max_examples=300, deadline=None)
@given(st.lists(operations, min_size=10, max_size=60), st.lists(packets, min_size=1, max_size=6))
def test_table_stays_sorted_by_priority_then_arrival(ops, probes):
    table = FlowTable()
    model = Model()
    transaction = saved = None
    for op in ops:
        kind = op[0]
        live = list(table)
        if kind == "install":
            rule = table.install(
                FlowRule(
                    op[1],
                    HeaderMatch(op[3]),
                    (Action(port="out"),),
                    cookie=op[2],
                    table=op[4],
                )
            )
            model.place(rule, op[1])
        elif kind == "reprioritize" and live:
            rule = live[op[1] % len(live)]
            table.reprioritize(rule, op[2])
            model.place(rule, op[2])
        elif kind == "remove" and live:
            rule = live[op[1] % len(live)]
            table.remove(rule)
            del model.entries[rule]
        elif kind == "remove_by_cookie":
            table.remove_by_cookie(op[1])
            model.entries = {
                rule: slot for rule, slot in model.entries.items() if rule.cookie != op[1]
            }
        elif kind == "begin" and transaction is None:
            transaction, saved = table.transaction(), dict(model.entries)
        elif kind == "rollback" and transaction is not None:
            transaction.rollback()
            model.entries, transaction = saved, None
        elif kind == "commit" and transaction is not None:
            transaction.commit()
            transaction = None
        assert list(table) == model.ordered()
        assert [rule.priority for rule in table] == [
            model.entries[rule][0] for rule in table
        ]
        assert_indexes_agree_with_scans(table, probes)
