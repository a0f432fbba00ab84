"""Determinism pin: a ``pipelined()`` burst ≡ auto-drained calls, byte for byte.

The runtime reorders *when* work happens inside a burst — events
queue, compilation yields at stage boundaries, guard verification of
commit N overlaps compilation of N+1 — but it runs exactly the same
apply bodies at exactly the same points in event order as submitting
each event alone and draining after it.  These tests drive identical
seeded workloads (synthetic exchange, §6.1 policy mix, burst-structured
update traces) both ways and assert the flow tables match at every
checkpoint, with the commit guard on and off.

The one sanctioned divergence is opt-in burst coalescing
(``RuntimeConfig(coalesce=True)``): it collapses a burst's fast-path
work into one deduplicated pass, which changes fast-path sequence
numbers (cookies) and is therefore only *forwarding-equivalent* — but a
full recompile flushes the fast path, so digests reconverge at the next
compilation checkpoint, which is also pinned here.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.experiments.common import build_scenario
from repro.guard import GuardConfig
from repro.runtime import RuntimeConfig
from repro.workloads.policy_gen import generate_policies
from repro.workloads.update_gen import generate_update_trace


def _drive(scenario, seed, *, guard=None, pipelined=False, runtime_config=None):
    """One fixed workload; returns the digest at every checkpoint."""
    kwargs = {}
    if guard is not None:
        kwargs["guard"] = guard
    if runtime_config is not None:
        kwargs["runtime_config"] = runtime_config
    controller = scenario.controller(**kwargs)
    digests = [controller.switch.table.content_hash()]

    def submit(calls):
        """Facet calls one auto-drained call at a time, or as one burst."""
        if not pipelined:
            for call in calls:
                call()
            return
        with controller.runtime.pipelined():
            handles = [call() for call in calls]
        for handle in handles:
            if handle.error is not None:
                raise handle.error

    def updates(batch):
        return [partial(controller.routing.process_update, update) for update in batch]

    trace = generate_update_trace(scenario.ixp, bursts=18, seed=seed)
    half = len(trace.updates) // 2
    submit(updates(trace.updates[:half]))
    digests.append(controller.switch.table.content_hash())
    controller.run_background_recompilation()
    digests.append(controller.switch.table.content_hash())

    # Policy edits (each one compile → commit → verify) lead the second
    # burst, so pipelining overlaps them with each other and the updates.
    alternate = generate_policies(scenario.ixp, seed=seed + 200)
    submit(
        [
            partial(controller.policy.set_policies, name, alternate.policies[name])
            for name in list(alternate.policies)[:2]
        ]
        + updates(trace.updates[half:])
    )
    digests.append(controller.switch.table.content_hash())
    controller.run_background_recompilation()
    digests.append(controller.switch.table.content_hash())
    return digests


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_pipelined_burst_matches_autodrain(seed):
    """Burst mode pipelines ingress/compile/commit/verify yet stays
    byte-identical: events still apply in submission order."""
    scenario = build_scenario(
        participants=8, prefixes=48, seed=seed, policy_seed=seed + 100
    )
    autodrain = _drive(scenario, seed + 7)
    burst = _drive(scenario, seed + 7, pipelined=True)
    assert burst == autodrain


def test_deferred_guard_verification_is_side_effect_free():
    """With the guard on, a burst defers verification past the commit;
    a passing check must leave no trace — digests match auto-drain."""
    scenario = build_scenario(participants=8, prefixes=48, seed=4, policy_seed=104)
    guard = GuardConfig(probe_budget=16, seed=3)
    autodrain = _drive(scenario, 9, guard=guard)
    burst = _drive(scenario, 9, guard=guard, pipelined=True)
    assert burst == autodrain


def test_coalesced_burst_reconverges_at_recompile():
    """coalesce=True changes fast-path cookies (not forwarding); a full
    recompile flushes the fast path, so compile checkpoints must agree."""
    scenario = build_scenario(participants=8, prefixes=48, seed=6, policy_seed=106)
    autodrain = _drive(scenario, 15)
    coalesced = _drive(
        scenario, 15, pipelined=True, runtime_config=RuntimeConfig(coalesce=True)
    )
    # checkpoints: [initial, post-burst, post-compile, post-edit+burst,
    # post-compile]
    assert coalesced[0] == autodrain[0]
    assert coalesced[2] == autodrain[2]
    assert coalesced[4] == autodrain[4]


def test_eventloop_is_self_deterministic():
    """Same seed + trace ⇒ identical digests on repeated runs."""
    scenario = build_scenario(participants=8, prefixes=48, seed=2, policy_seed=102)
    first = _drive(scenario, 21, pipelined=True)
    second = _drive(scenario, 21, pipelined=True)
    assert first == second
