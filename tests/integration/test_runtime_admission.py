"""Integration: the event-loop runtime under a seeded announcement storm.

Satellite of the runtime PR: admission-plane rejections must keep the
ingress queue bounded (rejected work either surfaces immediately or is
parked on the *timer wheel*, never left clogging the queue), and with
``RuntimeConfig(admission_retry=True)`` the scheduler honours the
admission plane's honest ``retry_after`` by re-enqueueing the submission
once the backoff expires on the runtime's virtual clock
(``sim_time=True`` puts telemetry — and therefore the token buckets —
on the same time base the timer wheel advances).
"""

from __future__ import annotations

import pytest

from repro.bgp.attributes import RouteAttributes
from repro.core.controller import SDXController
from repro.guard import AdmissionConfig, AnnouncementRateExceeded
from repro.runtime import QueueOverflow, RuntimeConfig

from tests.conftest import load_figure1_routes, make_figure1_config

ATTRS = RouteAttributes(as_path=[65002, 65901], next_hop="172.0.0.11")


def metered_eventloop(runtime_config, *, rate=10.0, burst=20):
    """Figure 1 on the event loop with finite announcement budgets,
    admission and runtime sharing one virtual clock."""
    controller = SDXController(
        make_figure1_config(),
        admission=AdmissionConfig(
            policy_edits_per_sec=100.0,
            policy_edit_burst=100,
            announcements_per_sec=rate,
            announcement_burst=burst,
            backoff_initial=0.5,
            backoff_factor=2.0,
            backoff_max=8.0,
        ),
        runtime_config=runtime_config,
    )
    load_figure1_routes(controller)
    # refill what the route load spent before the storm starts
    controller.runtime.clock.run_until(controller.runtime.clock.now + 10.0)
    return controller


class TestStormWithoutRetry:
    def test_rejection_propagates_like_inline(self):
        controller = metered_eventloop(RuntimeConfig(sim_time=True))
        admitted = rejected = 0
        for i in range(40):
            try:
                controller.routing.announce("B", f"10.{100 + i}.0.0/16", ATTRS)
                admitted += 1
            except AnnouncementRateExceeded as error:
                assert error.participant == "B" and error.retry_after > 0
                rejected += 1
        assert admitted == 20  # the burst capacity, exactly as inline
        assert rejected == 20
        assert controller.admission.snapshot()["B"]["in_backoff"]

    def test_queue_depth_stays_bounded_through_the_storm(self):
        controller = metered_eventloop(RuntimeConfig(sim_time=True))
        for i in range(40):
            try:
                controller.routing.announce("B", f"10.{100 + i}.0.0/16", ATTRS)
            except AnnouncementRateExceeded:
                pass
        info = controller.runtime.health_info()
        # Auto-drain never lets rejected work pile up: one event in
        # flight at a time, and the queue is empty again afterwards.
        assert info["ingress_peak"] <= 2
        assert controller.runtime.queue_depths()["ingress"] == 0
        assert info["inflight"] == 0


class TestStormWithRetry:
    def test_autodrain_retry_waits_out_the_backoff(self):
        controller = metered_eventloop(
            RuntimeConfig(sim_time=True, admission_retry=True)
        )
        started = controller.runtime.clock.now
        for i in range(40):  # every announcement eventually lands
            changes = controller.routing.announce("B", f"10.{100 + i}.0.0/16", ATTRS)
            assert changes
        state = controller.admission._tenants["B"]
        assert state.rejected > 0  # the storm *was* throttled...
        # ...but retries honoured retry_after, so all 40 were admitted
        # (plus the route load) and virtual time advanced to pay the
        # 20-announcement deficit at 10/sec.
        elapsed = controller.runtime.clock.now - started
        assert elapsed >= (40 - 20) / 10.0

    def test_pipelined_retry_timestamps_honor_retry_after(self):
        """One announcement over budget: its retry is parked for exactly
        ``retry_after`` (= the 0.5s initial backoff penalty) on the
        virtual clock, then admitted."""
        controller = metered_eventloop(
            RuntimeConfig(sim_time=True, admission_retry=True)
        )
        with controller.runtime.pipelined():
            handles = [
                controller.routing.announce("B", f"10.{100 + i}.0.0/16", ATTRS)
                for i in range(21)
            ]
        assert all(h.done and h.error is None for h in handles)
        retried = [h for h in handles if h.retries > 0]
        assert len(retried) == 1  # exactly one exceeded the burst of 20
        handle = retried[0]
        assert handle.completed_at - handle.enqueued_at == pytest.approx(0.5)

    def test_contended_storm_exhausts_the_retry_budget(self):
        controller = metered_eventloop(
            RuntimeConfig(sim_time=True, admission_retry=True,
                          max_admission_retries=2),
            rate=1.0,
            burst=5,
        )
        with controller.runtime.pipelined():
            handles = [
                controller.routing.announce("B", f"10.{100 + i}.0.0/16", ATTRS)
                for i in range(30)
            ]
        assert all(h.done for h in handles)
        succeeded = [h for h in handles if h.error is None]
        exhausted = [h for h in handles if h.error is not None]
        # The initial burst of 5 is admitted.  The 25 over-budget
        # contenders retry on honest retry_afters, but each retry that
        # lands inside the tenant's still-open backoff window counts as
        # a fresh rejection and extends the window for everyone — so a
        # contended storm exhausts its retry budget instead of slipping
        # past the throttle.  That is the admission plane's punitive
        # design, and the scheduler must surface it as a final, typed
        # rejection rather than retrying forever.
        assert len(succeeded) == 5
        assert len(exhausted) == 25
        for handle in exhausted:
            assert isinstance(handle.error, AnnouncementRateExceeded)
            assert handle.retries == 2  # budget spent before giving up

    def test_retry_requeue_respects_backpressure(self):
        controller = metered_eventloop(
            RuntimeConfig(sim_time=True, admission_retry=True,
                          ingress_capacity=8),
        )
        with pytest.raises(QueueOverflow):
            with controller.runtime.pipelined():
                for i in range(9):
                    controller.routing.announce("B", f"10.{100 + i}.0.0/16", ATTRS)
        controller.runtime.discard_pending()
        assert controller.runtime.health_info()["ingress_rejected"] >= 1
