"""Unit tests for the event-loop control-plane runtime (``repro.runtime``).

Covers the building blocks (bounded queues, the deterministic
cooperative scheduler, the timer wheel) and the runtime's caller-facing
contract: auto-drain submissions return the apply body's own result,
``pipelined()`` returns live handles, errors surface exactly once,
backpressure raises :class:`QueueOverflow` at submission time, and the
telemetry series (queue depth, task seconds, update→install latency)
are populated.
"""

from __future__ import annotations

import pytest

from repro.bgp.attributes import RouteAttributes
from repro.core.controller import SDXController
from repro.dataplane.reconcile import CommitReport
from repro.runtime import (
    BoundedQueue,
    CooperativeScheduler,
    QueueOverflow,
    RuntimeConfig,
    Submission,
    TimerWheel,
)
from repro.sim.clock import Simulator

from tests.conftest import (
    install_figure1_policies,
    load_figure1_routes,
    make_figure1_config,
)


def eventloop_figure1(config=None, **kwargs):
    controller = SDXController(make_figure1_config(), runtime_config=config, **kwargs)
    load_figure1_routes(controller)
    return controller


class TestBoundedQueue:
    def test_fifo_and_depth_accounting(self):
        depths = []
        queue = BoundedQueue("q", 3, on_depth=depths.append)
        queue.push(1)
        queue.push(2)
        assert len(queue) == 2 and queue.peek() == 1
        assert queue.pop() == 1 and queue.pop() == 2
        assert queue.empty and queue.peak_depth == 2
        assert queue.total_enqueued == 2
        assert depths == [1, 2, 1, 0]

    def test_overflow_raises_and_counts(self):
        queue = BoundedQueue("ingress", 1)
        queue.push("a")
        with pytest.raises(QueueOverflow) as excinfo:
            queue.push("b")
        assert excinfo.value.queue == "ingress" and excinfo.value.capacity == 1
        assert queue.total_rejected == 1 and len(queue) == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            BoundedQueue("q", 0)


class TestCooperativeScheduler:
    def test_fixed_rotation_order(self):
        order = []

        def task(name):
            while True:
                order.append(name)
                yield ("worked",)

        scheduler = CooperativeScheduler()
        scheduler.add("a", task("a"))
        scheduler.add("b", task("b"))
        scheduler.add("c", task("c"))
        for _ in range(3):
            assert scheduler.step()
        assert order == ["a", "b", "c"] * 3

    def test_idle_round_reports_no_progress(self):
        def idler():
            while True:
                yield ("idle",)

        scheduler = CooperativeScheduler()
        scheduler.add("a", idler())
        scheduler.add("b", idler())
        assert scheduler.step() is False

    def test_finished_task_is_retired(self):
        def once():
            yield ("worked",)

        scheduler = CooperativeScheduler()
        scheduler.add("once", once())
        assert scheduler.step()
        assert not scheduler.step()  # retired, nothing left


class TestTimerWheel:
    def test_duck_types_the_simulator_surface(self):
        clock = Simulator()
        wheel = TimerWheel(clock)
        fired = []
        wheel.schedule_in(5.0, lambda: fired.append(wheel.now))
        assert wheel.next_event_time() == 5.0
        wheel.run_until(10.0)
        assert fired == [5.0]
        assert wheel.now == 10.0 and clock.now == 10.0


class TestAutoDrain:
    def test_update_returns_inline_result(self):
        controller = eventloop_figure1()
        changes = controller.routing.announce(
            "B", "99.0.0.0/24", RouteAttributes(as_path=[65002], next_hop="172.0.0.11")
        )
        assert changes and str(changes[0].prefix) == "99.0.0.0/24"

    def test_compile_returns_commit_report(self):
        controller = eventloop_figure1()
        install_figure1_policies(controller, recompile=False)
        report = controller.compile()
        assert isinstance(report, CommitReport)
        assert report.added > 0

    def test_errors_propagate_like_inline(self):
        controller = eventloop_figure1()
        with pytest.raises(Exception):
            controller.policy.set_policies("nobody", None)
        # the loop is quiescent again and usable
        assert controller.runtime.health_info()["inflight"] == 0
        install_figure1_policies(controller)

    def test_recompiling_mutator_rides_the_compile_job(self):
        controller = eventloop_figure1()
        install_figure1_policies(controller)
        before = controller.pipeline.committer.churn_stats().commits
        controller.ops.release_quarantine("A", recompile=False)  # no-op, no compile
        assert controller.pipeline.committer.churn_stats().commits == before


class TestPipelinedBursts:
    def test_handles_fill_in_at_drain(self):
        controller = eventloop_figure1()
        install_figure1_policies(controller)
        runtime = controller.runtime
        with runtime.pipelined():
            first = controller.routing.withdraw("B", "10.1.0.0/16")
            second = controller.compile()
            assert isinstance(first, Submission) and not first.done
        assert first.done and second.done
        assert first.error is None
        assert isinstance(second.result, CommitReport)

    def test_submission_order_is_apply_order(self):
        controller = eventloop_figure1()
        seen = []
        original = controller.pipeline.ingress.submit

        def spy(update):
            seen.append(update.peer if hasattr(update, "peer") else update)
            return original(update)

        controller.pipeline.ingress.submit = spy
        attrs = RouteAttributes(as_path=[65002], next_hop="172.0.0.11")
        with controller.runtime.pipelined():
            controller.routing.announce("B", "99.0.0.0/24", attrs)
            controller.routing.withdraw("B", "99.0.0.0/24")
        assert len(seen) == 2

    def test_burst_error_lands_on_its_handle_only(self):
        controller = eventloop_figure1()
        attrs = RouteAttributes(as_path=[65002], next_hop="172.0.0.11")
        with controller.runtime.pipelined():
            bad = controller.policy.set_policies("nobody", None)
            good = controller.routing.announce("B", "99.0.0.0/24", attrs)
        assert bad.error is not None
        assert good.error is None and good.result

    def test_dirty_exit_leaves_queue_and_discard_clears_it(self):
        controller = eventloop_figure1()
        attrs = RouteAttributes(as_path=[65002], next_hop="172.0.0.11")
        runtime = controller.runtime
        with pytest.raises(RuntimeError, match="boom"):
            with runtime.pipelined():
                pending = controller.routing.announce("B", "99.0.0.0/24", attrs)
                raise RuntimeError("boom")
        assert not pending.done  # no drain on a dirty exit
        assert runtime.queue_depths()["ingress"] == 1
        assert runtime.discard_pending() == 1
        assert pending.done and pending.error is not None
        assert runtime.health_info()["inflight"] == 0

    def test_backpressure_overflows_at_submission_time(self):
        controller = eventloop_figure1(config=RuntimeConfig(ingress_capacity=2))
        attrs = RouteAttributes(as_path=[65002], next_hop="172.0.0.11")
        runtime = controller.runtime
        with pytest.raises(QueueOverflow):
            with runtime.pipelined():
                for i in range(3):
                    controller.routing.announce(f"B", f"99.0.{i}.0/24", attrs)
        runtime.discard_pending()
        assert runtime.health_info()["ingress_rejected"] == 1

    def test_coalesce_dedupes_fast_path_passes(self):
        plain = eventloop_figure1()
        install_figure1_policies(plain)
        attrs = RouteAttributes(as_path=[65002, 65100], next_hop="172.0.0.11")
        with plain.runtime.pipelined():
            plain.routing.withdraw("B", "10.1.0.0/16")
            plain.routing.announce("B", "10.1.0.0/16", attrs)
        assert len(plain.ops.fast_path_log) == 2  # one pass per update

        coalesced = eventloop_figure1(config=RuntimeConfig(coalesce=True))
        install_figure1_policies(coalesced)
        with coalesced.runtime.pipelined():
            coalesced.routing.withdraw("B", "10.1.0.0/16")
            coalesced.routing.announce("B", "10.1.0.0/16", attrs)
        assert len(coalesced.ops.fast_path_log) == 1  # one pass per burst


class TestReentrancy:
    def test_commit_hook_facet_call_runs_inline(self):
        """A facet call from inside the loop (here: a commit hook) must
        execute directly instead of deadlocking on its own queue."""
        controller = eventloop_figure1()
        install_figure1_policies(controller, recompile=False)
        observed = []

        def hook(result):
            observed.append(
                (controller.runtime.active, len(controller.policy.policies()))
            )

        controller.ops.add_commit_hook(hook)
        controller.compile()
        assert observed == [(True, 2)]


class TestTelemetryAndHealth:
    def test_health_reports_queues_and_mode(self):
        controller = eventloop_figure1()
        info = controller.ops.health().runtime
        assert info["mode"] == "eventloop"
        assert set(info["queues"]) == {"ingress", "compile", "commit", "verify"}
        assert info["inflight"] == 0
        assert info["ingress_peak"] >= 1  # the route load went through it

    def test_runtime_metrics_exist(self):
        controller = eventloop_figure1()
        install_figure1_policies(controller)
        metrics = controller.ops.metrics()
        assert "sdx_runtime_queue_depth" in metrics
        assert "sdx_runtime_task_seconds" in metrics
        assert "sdx_update_install_seconds" in metrics
        latency = controller.telemetry.get("sdx_update_install_seconds")
        assert latency.count(kind="update") >= 9  # the figure-1 route load


class TestModeSelection:
    def test_controller_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="runtime_mode"):
            SDXController(make_figure1_config(), runtime_mode="fibers")
        with pytest.raises(ValueError, match="runtime_mode='inline'"):
            SDXController(make_figure1_config(), runtime_mode="inline")

    def test_every_controller_has_a_runtime(self):
        default = SDXController(make_figure1_config())
        explicit = SDXController(make_figure1_config(), runtime_mode="eventloop")
        assert default.runtime is not None and explicit.runtime is not None
        assert default.sdx.runtime_mode == explicit.sdx.runtime_mode == "eventloop"
