"""Property tests: the flow table's ordering invariant.

``FlowTable`` places rules by binary search, which is only right while
``list(table)`` is sorted by descending priority with equal priorities
in arrival order (a reprioritized rule arrives anew).  Random mutation
sequences — including transactions rolled back after rules were
reprioritized in place — are replayed against a model that sorts.
"""

from hypothesis import given, settings, strategies as st

from repro.dataplane.flowtable import FlowRule, FlowTable
from repro.policy.classifier import Action, HeaderMatch

priorities = st.integers(min_value=0, max_value=5)  # few values: ties are the point
cookies = st.sampled_from(("a", "b", "c"))
picks = st.integers(min_value=0, max_value=1_000)  # index into the live rules

operations = st.one_of(
    st.tuples(st.just("install"), priorities, cookies),
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


@settings(max_examples=300, deadline=None)
@given(st.lists(operations, max_size=60))
def test_table_stays_sorted_by_priority_then_arrival(ops):
    table = FlowTable()
    model = Model()
    transaction = saved = None
    for op in ops:
        kind = op[0]
        live = list(table)
        if kind == "install":
            rule = table.install(
                FlowRule(op[1], HeaderMatch.ANY, (Action(port="out"),), cookie=op[2])
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
