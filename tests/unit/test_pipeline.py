"""Unit tests for the staged compilation pipeline (``repro.pipeline``)."""

import pytest

from repro.core.controller import SDXController
from repro.pipeline import (
    CompileFinished,
    PolicyChanged,
    ShardTask,
    run_shard,
)
from repro.dataplane.reconcile import is_base_cookie
from repro.pipeline.events import DirtyTracker, EventBus, SubscriberErrorGroup
from repro.core.participant import SDXPolicySet
from repro.policy import fwd, match

from tests.conftest import install_figure1_policies


def _counter(controller: SDXController, name: str, **labels) -> float:
    metric = controller.telemetry.get(name)
    return metric.value(**labels) if metric is not None else 0.0


class TestEvents:
    def test_bus_dispatches_by_event_type(self):
        bus = EventBus()
        seen = []
        bus.subscribe(PolicyChanged, seen.append)
        bus.publish(PolicyChanged("A"))
        bus.publish(CompileFinished(1, 2, 3))  # no subscriber: ignored
        assert seen == [PolicyChanged("A")]

    def test_single_subscriber_failure_reraises_unwrapped(self):
        bus = EventBus()
        seen = []

        def bad(event):
            raise ValueError("subscriber exploded")

        bus.subscribe(PolicyChanged, bad)
        bus.subscribe(PolicyChanged, seen.append)
        with pytest.raises(ValueError, match="subscriber exploded"):
            bus.publish(PolicyChanged("A"))
        # fanout completed anyway: the later subscriber still saw it
        assert seen == [PolicyChanged("A")]

    def test_multiple_failures_aggregate_into_error_group(self):
        """Regression pin for the aggregated fanout contract: every
        subscriber runs, and all failures surface together (mirroring
        the listener-side ``ListenerErrorGroup``)."""
        bus = EventBus()
        seen = []

        def first(event):
            raise ValueError("first")

        def second(event):
            raise KeyError("second")

        bus.subscribe(PolicyChanged, first)
        bus.subscribe(PolicyChanged, seen.append)
        bus.subscribe(PolicyChanged, second)
        event = PolicyChanged("A")
        with pytest.raises(SubscriberErrorGroup) as excinfo:
            bus.publish(event)
        group = excinfo.value
        assert seen == [event]  # the middle subscriber was not starved
        assert group.event is event
        assert [type(e) for e in group.errors] == [ValueError, KeyError]
        assert group.__cause__ is group.errors[0]
        assert "2 subscribers failed for PolicyChanged" in str(group)

    def test_dirty_tracker_accumulates_and_clears(self):
        dirty = DirtyTracker()
        assert not dirty.any
        dirty.mark_policy("A")
        dirty.mark_routes()
        assert dirty.any and "A" in dirty.participants and dirty.routes
        dirty.clear()
        assert not dirty.any and not dirty.participants


class TestShardErrors:
    def test_run_shard_captures_exception_in_result(self):
        task = ShardTask(
            label=("policy", "X"),
            participant="X",
            raw=None,  # vmacify blows up on this; must not escape the worker
            port_ids=frozenset(),
            participant_names=frozenset(),
            reachable={},
            fec_table=None,
            stage2_blocks={},
        )
        result = run_shard(task)
        assert result.error is not None
        assert result.label == ("policy", "X")
        assert result.stage1_block is None and result.segment is None


class TestDeferredRecompilation:
    def test_batch_of_edits_costs_one_compile(self, figure1_controller):
        controller = figure1_controller
        before = _counter(controller, "sdx_compilations_total")
        with controller.deferred_recompilation():
            install_figure1_policies(controller, recompile=False)
            controller.policy.set_policies(
                "C",
                SDXPolicySet(outbound=match(dstport=22) >> fwd("A")),
                recompile=True,
            )
        assert _counter(controller, "sdx_compilations_total") == before + 1
        assert controller.last_compilation is not None

    def test_nested_blocks_still_compile_once(self, figure1_controller):
        controller = figure1_controller
        before = _counter(controller, "sdx_compilations_total")
        with controller.deferred_recompilation():
            with controller.deferred_recompilation():
                install_figure1_policies(controller, recompile=False)
                controller.policy.set_policies(
                    "C",
                    SDXPolicySet(outbound=match(dstport=22) >> fwd("A")),
                    recompile=True,
                )
            # inner exit must not compile while the outer block is open
            assert _counter(controller, "sdx_compilations_total") == before
        assert _counter(controller, "sdx_compilations_total") == before + 1

    def test_failed_block_skips_compile_until_background_pass(
        self, figure1_controller
    ):
        controller = figure1_controller
        before = _counter(controller, "sdx_compilations_total")
        with pytest.raises(RuntimeError, match="boom"):
            with controller.deferred_recompilation():
                install_figure1_policies(controller, recompile=False)
                controller.policy.set_policies(
                    "C",
                    SDXPolicySet(outbound=match(dstport=22) >> fwd("A")),
                    recompile=True,
                )
                raise RuntimeError("boom")
        assert _counter(controller, "sdx_compilations_total") == before
        controller.run_background_recompilation()
        assert _counter(controller, "sdx_compilations_total") == before + 1


class TestNoopRecompilation:
    def test_clean_background_pass_skips_the_compiler(self, figure1_compiled):
        controller = figure1_compiled
        compiles = _counter(controller, "sdx_compilations_total")
        noops = _counter(controller, "sdx_pipeline_noop_total")
        table_before = controller.switch.table.content_hash()
        result = controller.run_background_recompilation()
        assert result.result is controller.last_compilation
        # A clean pass reconciles to a no-op patch: nothing added or
        # removed, every installed base rule retained in place.
        assert result.churn == 0
        assert result.retained == len(
            [rule for rule in controller.switch.table if is_base_cookie(rule.cookie)]
        )
        assert _counter(controller, "sdx_compilations_total") == compiles
        assert _counter(controller, "sdx_pipeline_noop_total") == noops + 1
        assert controller.switch.table.content_hash() == table_before

    def test_dirty_policy_forces_a_real_compile(self, figure1_compiled):
        controller = figure1_compiled
        controller.policy.set_policies("C", SDXPolicySet(outbound=match(dstport=22) >> fwd("A")), recompile=False
        )
        compiles = _counter(controller, "sdx_compilations_total")
        noops = _counter(controller, "sdx_pipeline_noop_total")
        controller.run_background_recompilation()
        assert _counter(controller, "sdx_compilations_total") == compiles + 1
        assert _counter(controller, "sdx_pipeline_noop_total") == noops


class TestShardCaching:
    def _shard_counts(self, controller):
        return {
            name: _counter(controller, "sdx_shard_compiles_total", participant=name)
            for name in ("A", "C", "default", "chains")
        }

    def test_policy_edit_recompiles_only_that_shard(self, figure1_compiled):
        controller = figure1_compiled
        controller.policy.set_policies("C", SDXPolicySet(outbound=match(dstport=22) >> fwd("A")))
        baseline = self._shard_counts(controller)

        # Same targets, different match: the FEC partition is unchanged,
        # so every other shard must come straight from the cache.
        controller.policy.set_policies("C", SDXPolicySet(outbound=match(dstport=23) >> fwd("A")))
        after = self._shard_counts(controller)
        assert after["C"] == baseline["C"] + 1
        assert after["A"] == baseline["A"]
        assert after["default"] == baseline["default"]
        assert after["chains"] == baseline["chains"]

    def test_new_policy_rebuilds_default_but_not_peers(self, figure1_compiled):
        controller = figure1_compiled
        baseline = self._shard_counts(controller)
        # C's new policy adds a prefix group, which the shared default
        # block covers — but A's shard only consults B/C delivery blocks,
        # which are untouched, so A stays cached.
        controller.policy.set_policies("C", SDXPolicySet(outbound=match(dstport=22) >> fwd("A")))
        after = self._shard_counts(controller)
        assert after["C"] == baseline["C"] + 1
        assert after["default"] == baseline["default"] + 1
        assert after["A"] == baseline["A"]

    def test_recompile_without_changes_is_all_cache_hits(self, figure1_compiled):
        controller = figure1_compiled
        baseline = self._shard_counts(controller)
        hits = _counter(controller, "sdx_shard_cache_total", result="hit")
        controller.compile()
        assert self._shard_counts(controller) == baseline
        assert _counter(controller, "sdx_shard_cache_total", result="hit") > hits


class TestIngressBatching:
    def test_batched_updates_dedupe_fast_path_work(self, figure1_compiled):
        controller = figure1_compiled
        log_before = len(controller.ops.fast_path_log)
        from repro.bgp.attributes import RouteAttributes

        with controller.routing.batched_updates():
            # Two best-path flips for the same prefix inside one burst:
            # only the final state should reach the fast path.
            controller.routing.announce(
                "B",
                "10.1.0.0/16",
                RouteAttributes(as_path=[65002], next_hop="172.0.0.11"),
            )
            controller.routing.withdraw("B", "10.1.0.0/16")
            assert len(controller.ops.fast_path_log) == log_before  # held in the batch
        assert len(controller.ops.fast_path_log) == log_before + 1
