"""Property tests: delta-reconciled commits vs full wipe-and-reinstall.

The reconciling :class:`~repro.pipeline.stages.FabricCommitter` is only
correct if it is *observationally indistinguishable* from the historical
wipe-and-reinstall committer — same installed table, byte for byte —
while being strictly cheaper on incremental edits and preserving the
packet/byte counters of every rule it did not have to touch.  These
tests drive randomized synthetic exchanges (§6.1 policy mix, burst-
structured update traces) through full controllers and pin all three
claims at every commit point.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.controller import SDXController
from repro.core.participant import SDXPolicySet
from repro.dataplane.flowtable import FlowRule, FlowTable
from repro.dataplane.reconcile import (
    BASE_COOKIE,
    RuleSpec,
    TablePatch,
    diff,
    is_base_cookie,
    target_specs,
)
from repro.experiments.common import build_scenario
from repro.netutils.mac import MACMask
from repro.policy.classifier import Action, HeaderMatch
from repro.workloads.policy_gen import generate_policies
from repro.workloads.update_gen import generate_update_trace


def _base_rules(controller: SDXController):
    return [rule for rule in controller.switch.table if is_base_cookie(rule.cookie)]


def _full_reinstall_digest(controller: SDXController) -> str:
    """What a wipe-and-reinstall of the last compilation would produce."""
    result = controller.last_compilation
    assert result is not None
    segments = result.segments or ((("all",), result.classifier),)
    fresh = FlowTable()
    for spec in target_specs(segments):
        fresh.install(
            FlowRule(spec.priority, spec.match, spec.actions, cookie=spec.cookie)
        )
    return fresh.content_hash()


def _assert_digest_identical(controller: SDXController) -> None:
    assert controller.switch.table.content_hash() == _full_reinstall_digest(controller)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reconciled_commits_match_full_reinstall(seed):
    """After every commit in a randomized workload, the live table must
    hash identically to a from-scratch reinstall of the same result."""
    scenario = build_scenario(
        participants=8, prefixes=48, seed=seed, policy_seed=seed + 100
    )
    controller = scenario.controller()
    _assert_digest_identical(controller)

    trace = generate_update_trace(scenario.ixp, bursts=20, seed=seed + 5)
    half = len(trace.updates) // 2
    with controller.routing.batched_updates():
        for update in trace.updates[:half]:
            controller.routing.process_update(update)
    controller.run_background_recompilation()
    _assert_digest_identical(controller)

    alternate = generate_policies(scenario.ixp, seed=seed + 200)
    for name in list(alternate.policies)[:2]:
        controller.policy.set_policies(name, alternate.policies[name])
        _assert_digest_identical(controller)

    with controller.routing.batched_updates():
        for update in trace.updates[half:]:
            controller.routing.process_update(update)
    controller.run_background_recompilation()
    _assert_digest_identical(controller)


def test_reconciling_committer_matches_reinstall_after_policy_edit():
    """Shard results reconcile to the same table a full reinstall would
    build, both at cold start and after a single-participant edit."""
    scenario = build_scenario(participants=8, prefixes=48, seed=9, policy_seed=109)
    controller = scenario.controller()
    _assert_digest_identical(controller)
    alternate = generate_policies(scenario.ixp, seed=900)
    name = next(iter(alternate.policies))
    controller.policy.set_policies(name, alternate.policies[name])
    _assert_digest_identical(controller)


def test_single_participant_edit_installs_strictly_fewer_rules():
    """Editing 1 of 10 participants must not rewrite the whole table:
    the commit installs strictly fewer rules than the table holds, and
    retains a healthy remainder — asserted through the churn counters."""
    scenario = build_scenario(participants=10, prefixes=60, seed=3, policy_seed=7)
    controller = scenario.controller()
    table_total = len(_base_rules(controller))
    assert table_total > 0
    before = controller.ops.churn()

    alternate = generate_policies(scenario.ixp, seed=999)
    edited = next(
        name for name in alternate.policies if name in scenario.workload.policies
    )
    controller.policy.set_policies(edited, alternate.policies[edited])

    after = controller.ops.churn()
    report = controller.ops.last_commit()
    assert after.commits == before.commits + 1
    assert after.added - before.added == report.added
    assert report.added < table_total
    assert report.retained + report.reprioritized > 0
    _assert_digest_identical(controller)


def test_counters_preserved_on_every_untouched_rule():
    """Bump each installed base rule by exactly one packet, then edit one
    participant.  Every survivor the report counted (retained or
    reprioritized) must still carry its packet; every added rule starts
    at zero — so the table's packet total equals the survivor count."""
    scenario = build_scenario(participants=8, prefixes=48, seed=4, policy_seed=11)
    controller = scenario.controller()
    for rule in _base_rules(controller):
        rule.count(10)

    alternate = generate_policies(scenario.ixp, seed=444)
    edited = next(
        name for name in alternate.policies if name in scenario.workload.policies
    )
    controller.policy.set_policies(edited, alternate.policies[edited])

    report = controller.ops.last_commit()
    survivors = report.retained + report.reprioritized
    assert survivors > 0
    total_packets = sum(rule.packets for rule in _base_rules(controller))
    assert total_packets == survivors


def test_clearing_policies_reconciles_to_reduced_table():
    """Removing a participant's policies shrinks its segment via removes
    while the rest of the table survives in place."""
    scenario = build_scenario(participants=8, prefixes=48, seed=6, policy_seed=13)
    controller = scenario.controller()
    edited = next(iter(scenario.workload.policies))
    before_total = len(_base_rules(controller))
    controller.policy.set_policies(edited, SDXPolicySet())
    report = controller.ops.last_commit()
    assert report.removed > 0
    assert report.retained + report.reprioritized > 0
    assert len(_base_rules(controller)) <= before_total
    _assert_digest_identical(controller)


# -- the diff's bucketing key ---------------------------------------------


def _diff_on_identity(current, target) -> TablePatch:
    """``reconcile.diff`` bucketing on the ``identity`` strings — the
    definition of "same rule" that the value-keyed buckets must keep."""
    current_by_id = {}
    for rule in current:
        current_by_id.setdefault(rule.identity, []).append(rule)
    target_by_id = {}
    for spec in target:
        target_by_id.setdefault(spec.identity, []).append(spec)
    adds, removes, moves, retained = [], [], [], 0
    for identity, specs in target_by_id.items():
        by_priority = {}
        for rule in current_by_id.pop(identity, []):
            by_priority.setdefault(rule.priority, []).append(rule)
        unmatched_specs = []
        for spec in specs:
            bucket = by_priority.get(spec.priority)
            if bucket:
                bucket.pop()
                retained += 1
            else:
                unmatched_specs.append(spec)
        unmatched_rules = [rule for bucket in by_priority.values() for rule in bucket]
        unmatched_rules.sort(key=lambda rule: rule.priority)
        unmatched_specs.sort(key=lambda spec: spec.priority)
        paired = min(len(unmatched_rules), len(unmatched_specs))
        moves.extend(
            (rule, spec.priority)
            for rule, spec in zip(unmatched_rules[:paired], unmatched_specs[:paired])
        )
        adds.extend(unmatched_specs[paired:])
        removes.extend(unmatched_rules[paired:])
    for leftover in current_by_id.values():
        removes.extend(leftover)
    return TablePatch(adds, removes, moves, retained)


# A small universe, so installed rules and specs share identities,
# repeat them, and differ in one component at a time.
_entries = st.tuples(
    st.integers(min_value=1, max_value=6),  # priority
    st.sampled_from(
        (
            HeaderMatch(dstport=80),
            HeaderMatch(dstport=80, port="A1"),
            HeaderMatch(dstip="10.0.0.0/8"),
            HeaderMatch(dstmac=MACMask(0x02A500000001, 0xFFFFFFFFFF00)),
        )
    ),
    st.sampled_from(
        (
            frozenset(),
            frozenset({Action(port="B1")}),
            frozenset({Action(port="B1"), Action(port="C1", dstmac="02:00:00:00:00:01")}),
        )
    ),
    st.sampled_from(((BASE_COOKIE, "policy", "A"), (BASE_COOKIE, "policy", "B"))),
    st.sampled_from(((0, None), (0, 1), (1, None))),  # (table, goto)
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_entries, max_size=30), st.lists(_entries, max_size=30))
def test_value_keyed_diff_equals_identity_keyed_diff(installed, wanted):
    current = [
        FlowRule(priority, match, actions, cookie=cookie, table=table, goto=goto)
        for priority, match, actions, cookie, (table, goto) in installed
    ]
    target = [
        RuleSpec(priority, match, actions, cookie, table, goto)
        for priority, match, actions, cookie, (table, goto) in wanted
    ]
    patch, reference = diff(current, target), _diff_on_identity(current, target)
    assert patch.adds == reference.adds
    assert patch.removes == reference.removes
    assert patch.moves == reference.moves
    assert patch.retained == reference.retained
