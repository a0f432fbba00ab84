"""Property tests: indexed shadow elimination vs the brute-force scan.

:meth:`Classifier.optimized` answers "does an earlier kept match cover
this one?" from hash indexes.  The reference below is the pass it
replaced — every IP-bearing bucket scanned with
:meth:`HeaderMatch.covers` — with the size cap that pass carried
removed, so it is the definition the index must reproduce rule for
rule, in order.
"""

from hypothesis import given, settings, strategies as st

from repro.netutils.ip import IPv4Prefix
from repro.netutils.mac import MACAddress, MACMask
from repro.policy.classifier import Action, Classifier, HeaderMatch, Rule


def reference_optimized(classifier: Classifier) -> Classifier:
    """Single-rule shadow elimination by scanning (the oracle)."""
    kept = []
    # field set -> (hash set of matches, has ip fields, matches in order)
    buckets = {}
    for rule in classifier.rules:
        match = rule.match
        fields = match.fields()
        covered = False
        for bucket_fields, (matches_set, has_ip, matches_list) in buckets.items():
            if not bucket_fields <= fields:
                continue
            if has_ip:
                covered = any(earlier.covers(match) for earlier in matches_list)
            else:
                # Exact-only field sets test equality of the restriction.
                constraints = match.constraints
                probe = HeaderMatch({f: constraints[f] for f in bucket_fields})
                covered = probe in matches_set
            if covered:
                break
        if covered:
            continue
        kept.append(rule)
        bucket = buckets.setdefault(
            fields, (set(), bool(fields & {"srcip", "dstip"}), [])
        )
        bucket[0].add(match)
        bucket[2].append(match)
    while kept and kept[-1].is_drop and kept[-1].match.is_universal:
        kept.pop()
    return Classifier(kept)


# A small universe so that generated rules collide, nest and repeat.
_NETWORKS = (0x0A000000, 0x0A010000, 0x0A010100, 0x0A010101, 0xC0A80000)
_LENGTHS = (0, 8, 16, 24, 31, 32)
prefixes = st.builds(IPv4Prefix, st.sampled_from(_NETWORKS), st.sampled_from(_LENGTHS))

_MACS = (0x02A500000001, 0x02A500000003, 0x02A5000000FF)
_MASKS = (0xFFFFFFFFFF00, 0xFFFFFFFF0000, 0x0000000000FF, 0x000000000001)
mac_values = st.one_of(
    st.sampled_from(_MACS).map(MACAddress),
    st.builds(MACMask, st.sampled_from(_MACS), st.sampled_from(_MASKS)),
)

matches = st.fixed_dictionaries(
    {},
    optional={
        "srcip": prefixes,
        "dstip": prefixes,
        "dstmac": mac_values,
        "port": st.sampled_from(("A1", "B1")),
        "dstport": st.sampled_from((80, 443)),
    },
).map(HeaderMatch)

rules = st.builds(
    Rule,
    matches,
    st.sampled_from(((), (Action(port="B1"),), (Action(port="C1"),))),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(rules, max_size=40))
def test_indexed_elimination_equals_the_scan(rule_list):
    classifier = Classifier(rule_list)
    assert classifier.optimized().rules == reference_optimized(classifier).rules


@settings(max_examples=100, deadline=None)
@given(st.lists(rules, min_size=1, max_size=20), st.data())
def test_duplicates_and_reorderings_agree(rule_list, data):
    """Repeating rules and shuffling them changes which rule shadows
    which; the index must follow the scan through all of it."""
    doubled = data.draw(st.permutations(rule_list + rule_list))
    classifier = Classifier(doubled)
    assert classifier.optimized().rules == reference_optimized(classifier).rules


def test_dead_rules_are_found_in_a_bucket_of_any_size():
    """More than 4,000 live rules in one IP-bearing bucket, then one dead
    rule per live one.  The scan this index replaced gave up on buckets
    past 4,000 entries and left every one of the dead rules installed."""
    live = [
        Rule(
            HeaderMatch(port="A1", dstip=IPv4Prefix(0x0A000000 + (index << 8), 24)),
            (Action(port="B1"),),
        )
        for index in range(4100)
    ]
    dead = [
        Rule(
            HeaderMatch(
                port="A1", dstip=IPv4Prefix(0x0A000000 + (index << 8) + 7, 32)
            ),
            (Action(port="C1"),),
        )
        for index in range(4100)
    ]
    assert Classifier(live + dead).optimized().rules == live
