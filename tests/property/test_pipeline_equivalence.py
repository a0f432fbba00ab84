"""Golden equivalence: staged pipeline vs the monolithic compiler.

The staged pipeline (``repro.pipeline``) caches per-participant shard
blocks and reconciles VNHs across compilations, so its output is only
correct if it stays *byte-identical* to what the legacy single-shot
``SDXCompiler.compile`` would produce from the same inputs.  These
tests drive randomized workloads (synthetic exchange + §6.1 policy mix
+ burst-structured update traces) through a live controller and, after
every compilation point, replay the controller's current state through
the monolithic compiler.

The only free variable between the two is VNH assignment: the pipeline
reuses allocations for surviving prefix-set keys while a fresh legacy
compile would number them sequentially.  The ``_ReplayAllocator``
oracle closes that gap — it feeds the legacy compile exactly the
(VNH, VMAC) pairs the pipeline assigned, in group order, which is the
same order ``compute_fec_table`` allocates in.  With the allocator
pinned, every other byte must match.
"""

from __future__ import annotations

import random

import pytest

from repro.core.controller import SDXController
from repro.experiments.common import build_scenario
from repro.pipeline import CompilationPipeline, run_shard
from repro.workloads.policy_gen import generate_policies
from repro.workloads.update_gen import generate_update_trace


class _ReplayAllocator:
    """Feeds the legacy compile the pipeline's exact VNH assignments.

    ``compute_fec_table`` allocates one (VNH, VMAC) pair per bucket, in
    sorted-bucket order — the same order the pipeline's FEC table lists
    its groups.  Replaying ``[g.vnh for g in groups]`` therefore makes
    the fresh legacy compile reproduce the pipeline's incremental
    allocation decisions exactly.
    """

    def __init__(self, pairs):
        self._pairs = list(pairs)
        self._cursor = 0

    def allocate(self):
        if self._cursor >= len(self._pairs):
            raise AssertionError(
                "legacy compile allocated more VNHs than the pipeline did"
            )
        pair = self._pairs[self._cursor]
        self._cursor += 1
        return pair

    def release(self, address):  # pragma: no cover - legacy compile never releases
        pass

    @property
    def exhausted(self) -> bool:
        return self._cursor == len(self._pairs)


def _assert_matches_legacy(controller: SDXController) -> None:
    """The controller's last result must equal a fresh monolithic compile."""
    result = controller.last_compilation
    assert result is not None
    replay = _ReplayAllocator(group.vnh for group in result.fec_table.groups)
    live = {
        name: policy_set
        for name, policy_set in controller.policy.policies().items()
        if name not in controller.ops.quarantined()
    }
    expected = controller.compiler.compile(
        live,
        originated=controller.routing.originated(),
        allocator=replay,
        chains=list(controller.policy.chains().values()),
    )
    assert replay.exhausted, "pipeline kept VNHs the legacy compile never assigned"
    assert expected.classifier == result.classifier
    assert expected.stage1 == result.stage1
    assert expected.segments == result.segments
    assert expected.advertised_next_hops == result.advertised_next_hops


def _churn(controller: SDXController, scenario, seed: int) -> None:
    """One randomized round of BGP bursts + policy edits + a recompile."""
    trace = generate_update_trace(scenario.ixp, bursts=25, seed=seed)
    half = len(trace.updates) // 2
    with controller.routing.batched_updates():
        for update in trace.updates[:half]:
            controller.routing.process_update(update)
    controller.run_background_recompilation()
    _assert_matches_legacy(controller)

    alternate = generate_policies(scenario.ixp, seed=seed + 200)
    edited = [name for name in alternate.policies][:2]
    with controller.deferred_recompilation():
        for name in edited:
            controller.policy.set_policies(name, alternate.policies[name])
    _assert_matches_legacy(controller)

    with controller.routing.batched_updates():
        for update in trace.updates[half:]:
            controller.routing.process_update(update)
    controller.run_background_recompilation()
    _assert_matches_legacy(controller)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pipeline_matches_legacy_compiler_serial(seed):
    scenario = build_scenario(
        participants=8, prefixes=48, seed=seed, policy_seed=seed + 100
    )
    controller = scenario.controller()
    _assert_matches_legacy(controller)
    _churn(controller, scenario, seed=seed + 7)


def _shuffled_executor(seed):
    """A ``_run_shards`` that runs shards in a seeded random order.

    Results still come back in task order, as the pipeline expects; only
    the execution order changes.
    """

    def run_shards(self, tasks):
        order = list(range(len(tasks)))
        random.Random(seed).shuffle(order)
        results = [None] * len(tasks)
        for index in order:
            results[index] = run_shard(tasks[index])
        return results

    return run_shards


def _scripted_run(scenario):
    """Drive one fixed input sequence; return every observable checkpoint."""
    controller = scenario.controller()
    hashes = [controller.switch.table.content_hash()]
    trace = generate_update_trace(scenario.ixp, bursts=20, seed=31)
    with controller.routing.batched_updates():
        for update in trace.updates:
            controller.routing.process_update(update)
    controller.run_background_recompilation()
    hashes.append(controller.switch.table.content_hash())
    alternate = generate_policies(scenario.ixp, seed=231)
    with controller.deferred_recompilation():
        for name in list(alternate.policies)[:3]:
            controller.policy.set_policies(name, alternate.policies[name])
    hashes.append(controller.switch.table.content_hash())
    return hashes


def test_flow_table_deterministic_across_backends(monkeypatch):
    """Same inputs -> identical flow table, whatever order shards run in.

    The in-order executor is the reference; the shuffled executors
    randomize shard *execution* order, so agreement here means assembly
    depends only on the task order, never on scheduling.
    """
    scenario = build_scenario(participants=8, prefixes=48, seed=9, policy_seed=109)
    reference = _scripted_run(scenario)
    for seed in (3, 99):
        monkeypatch.setattr(CompilationPipeline, "_run_shards", _shuffled_executor(seed))
        assert _scripted_run(scenario) == reference
