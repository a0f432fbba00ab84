"""Determinism pin: ``REPRO_RUNTIME=inline`` ≡ ``eventloop``, byte for byte.

The event-loop runtime reorders *when* work happens — events queue,
compilation yields at stage boundaries, guard verification of
commit N overlaps compilation of N+1 — but it runs exactly the same
apply bodies at exactly the same points in event order.  These tests
drive identical seeded workloads (synthetic exchange, §6.1 policy mix,
burst-structured update traces) through both modes and assert the flow
tables match at every checkpoint, with the commit guard on and off.

The one sanctioned divergence is opt-in burst coalescing
(``RuntimeConfig(coalesce=True)``): it collapses a burst's fast-path
work into one deduplicated pass, which changes fast-path sequence
numbers (cookies) and is therefore only *forwarding-equivalent* — but a
full recompile flushes the fast path, so digests reconverge at the next
compilation checkpoint, which is also pinned here.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import build_scenario
from repro.guard import GuardConfig
from repro.runtime import RuntimeConfig
from repro.workloads.policy_gen import generate_policies
from repro.workloads.update_gen import generate_update_trace


def _drive(scenario, seed, *, runtime_mode, guard=None, pipelined=False,
           runtime_config=None):
    """One fixed workload; returns the digest at every checkpoint."""
    kwargs = {"runtime_mode": runtime_mode}
    if guard is not None:
        kwargs["guard"] = guard
    if runtime_config is not None:
        kwargs["runtime_config"] = runtime_config
    controller = scenario.controller(**kwargs)
    digests = [controller.switch.table.content_hash()]

    def burst(updates):
        if pipelined:
            with controller.runtime.pipelined():
                for update in updates:
                    controller.routing.process_update(update)
        else:
            for update in updates:
                controller.routing.process_update(update)

    trace = generate_update_trace(scenario.ixp, bursts=18, seed=seed)
    half = len(trace.updates) // 2
    burst(trace.updates[:half])
    digests.append(controller.switch.table.content_hash())
    controller.run_background_recompilation()
    digests.append(controller.switch.table.content_hash())

    alternate = generate_policies(scenario.ixp, seed=seed + 200)
    for name in list(alternate.policies)[:2]:
        controller.policy.set_policies(name, alternate.policies[name])
    digests.append(controller.switch.table.content_hash())

    burst(trace.updates[half:])
    controller.run_background_recompilation()
    digests.append(controller.switch.table.content_hash())
    return digests


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eventloop_matches_inline_serial(seed):
    scenario = build_scenario(
        participants=8, prefixes=48, seed=seed, policy_seed=seed + 100
    )
    inline = _drive(scenario, seed + 7, runtime_mode="inline")
    eventloop = _drive(scenario, seed + 7, runtime_mode="eventloop")
    assert eventloop == inline


@pytest.mark.parametrize("seed", [0, 3])
def test_pipelined_burst_matches_inline(seed):
    """Burst mode pipelines ingress/compile/commit/verify yet stays
    byte-identical: events still apply in submission order."""
    scenario = build_scenario(
        participants=8, prefixes=48, seed=seed, policy_seed=seed + 100
    )
    inline = _drive(scenario, seed + 7, runtime_mode="inline")
    burst = _drive(scenario, seed + 7, runtime_mode="eventloop", pipelined=True)
    assert burst == inline


def test_deferred_guard_verification_is_side_effect_free():
    """With the guard on, eventloop defers verification past the commit;
    a passing check must leave no trace — digests match inline exactly."""
    scenario = build_scenario(participants=8, prefixes=48, seed=4, policy_seed=104)
    guard = GuardConfig(probe_budget=16, seed=3)
    inline = _drive(scenario, 9, runtime_mode="inline", guard=guard)
    eventloop = _drive(
        scenario, 9, runtime_mode="eventloop", guard=guard, pipelined=True
    )
    assert eventloop == inline


def test_coalesced_burst_reconverges_at_recompile():
    """coalesce=True changes fast-path cookies (not forwarding); a full
    recompile flushes the fast path, so compile checkpoints must agree."""
    scenario = build_scenario(participants=8, prefixes=48, seed=6, policy_seed=106)
    inline = _drive(scenario, 15, runtime_mode="inline")
    coalesced = _drive(
        scenario, 15, runtime_mode="eventloop", pipelined=True,
        runtime_config=RuntimeConfig(coalesce=True),
    )
    # checkpoints: [initial, post-burst, post-compile, post-edit, post-compile]
    assert coalesced[0] == inline[0]
    assert coalesced[2] == inline[2]
    assert coalesced[4] == inline[4]


def test_eventloop_is_self_deterministic():
    """Same seed + trace ⇒ identical digests on repeated eventloop runs."""
    scenario = build_scenario(participants=8, prefixes=48, seed=2, policy_seed=102)
    first = _drive(scenario, 21, runtime_mode="eventloop", pipelined=True)
    second = _drive(scenario, 21, runtime_mode="eventloop", pipelined=True)
    assert first == second
