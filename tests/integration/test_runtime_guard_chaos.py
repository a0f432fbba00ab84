"""Seeded chaos: deferred guard verification on the event-loop runtime.

The event-loop runtime moves the guard's probe pass *after*
``transaction.commit()`` (so verification of commit N overlaps
compilation of N+1).  These tests inject the same silent corruption as
``test_guard_chaos`` and assert the deferred machinery holds the same
line: the violation is detected by the verify task, the fabric is
rolled back byte-exactly from the pending snapshot, the culprit is
quarantined, the error surfaces from the drain — and the one thing
only the pipelined path can get wrong: a compilation in flight on top
of the rolled-back world is aborted, never installed.

Seeds follow the same contract as ``test_guard_chaos``: each base seed
was chosen so the budgeted probe pass deterministically draws a probe
that traverses the corrupted rule.
"""

import pytest

from repro.core.controller import SDXController
from repro.core.participant import SDXPolicySet
from repro.guard import GuardConfig
from repro.guard.commits import GuardedCommitError
from repro.policy.language import fwd, match
from repro.resilience import FaultInjector
from repro.runtime import RuntimeConfig

from tests.conftest import (
    P1,
    P3,
    install_figure1_policies,
    load_figure1_routes,
    make_figure1_config,
)
from tests.integration.test_chaos import egress
from tests.integration.test_guard_chaos import BAD_EDIT

pytestmark = pytest.mark.chaos


def guarded_eventloop(base_seed: int, runtime_config=None) -> SDXController:
    controller = SDXController(
        make_figure1_config(),
        guard=GuardConfig(probe_budget=16, seed=base_seed),
        runtime_config=runtime_config,
    )
    load_figure1_routes(controller)
    install_figure1_policies(controller)
    return controller


class TestDeferredViolation:
    def test_autodrain_violation_rolls_back_and_surfaces(self):
        controller = guarded_eventloop(base_seed=3)
        FaultInjector(seed=1).corrupt_commit(controller, participant="A")
        pre_digest = controller.switch.table.content_hash()

        with pytest.raises(GuardedCommitError) as excinfo:
            controller.policy.set_policies("A", BAD_EDIT, recompile=True)

        # rolled back byte-exactly from the deferred snapshot
        assert controller.switch.table.content_hash() == pre_digest
        record = controller.ops.health().quarantined["A"]
        assert record.state == "guard" and record.error_type == "GuardViolation"
        incident = excinfo.value.incident
        assert incident.participant == "A"
        # forwarding still follows the last-known-good policies
        assert egress(controller, "A", P1, dstport=80, srcip="50.0.0.1") == ["B1"]
        assert egress(controller, "A", P3, dstport=80, srcip="192.0.0.1") == ["B2"]
        # the loop is quiescent and the next compile verifies clean
        assert controller.runtime.health_info()["inflight"] == 0
        report = controller.compile()
        assert report is not None

    def test_pipelined_violation_aborts_the_overlapping_follow_up(self):
        """In a pipelined burst the follow-up edit's compilation starts
        while commit N's deferred check is still pending (that overlap
        is the pipeline's whole point).  When the check fails, the
        follow-up compiled against a world that was rolled back under
        it — the runtime must abort it, never install it."""
        controller = guarded_eventloop(base_seed=3)
        FaultInjector(seed=1).corrupt_commit(controller, participant="A")
        pre_digest = controller.switch.table.content_hash()
        good_edit = SDXPolicySet(outbound=(match(dstport=8080) >> fwd("C")))

        with pytest.raises(GuardedCommitError):
            with controller.runtime.pipelined():
                bad = controller.policy.set_policies("A", BAD_EDIT, recompile=True)
                follow = controller.policy.set_policies(
                    "B", good_edit, recompile=True
                )

        assert isinstance(bad.error, GuardedCommitError)
        assert isinstance(follow.error, RuntimeError)
        assert "compilation aborted" in str(follow.error)
        # neither commit survives: the fabric is the pre-burst state
        assert controller.switch.table.content_hash() == pre_digest
        assert "A" in controller.ops.health().quarantined
        # the runtime recovered: retrying B's edit lands it cleanly
        controller.policy.set_policies("B", good_edit, recompile=True)
        assert egress(controller, "B", P1, dstport=8080, srcip="60.0.0.1") == ["C1"]
        assert controller.runtime.health_info()["inflight"] == 0

    def test_violation_aborts_a_compile_already_in_flight(self):
        """The overlap the pipeline permits: compilation N+1 is mid-
        flight when commit N's deferred check fails.  N+1's inputs are
        fiction (they assume the rolled-back commit), so the runtime
        must abort it rather than install it."""
        controller = guarded_eventloop(base_seed=3)
        FaultInjector(seed=1).corrupt_commit(controller, participant="A")
        pre_digest = controller.switch.table.content_hash()
        runtime = controller.runtime
        # Stage the bad policy without compiling, then queue two jobs
        # back to back: job1 commits the corruption, and job2 is mid-
        # compile in the same rotation job1's deferred check fails in.
        controller.policy.set_policies("A", BAD_EDIT, recompile=False)
        job1 = runtime.request_compile()
        job2 = runtime.request_compile()
        with pytest.raises(GuardedCommitError):
            runtime.drain()

        assert isinstance(job1.error, GuardedCommitError) or job1.report is not None
        assert isinstance(job2.error, RuntimeError)
        assert "compilation aborted" in str(job2.error)
        # neither commit survives: job1 rolled back, job2 never landed
        assert controller.switch.table.content_hash() == pre_digest
        assert "A" in controller.ops.health().quarantined
        # the runtime recovered: the next compile verifies clean
        assert controller.compile() is not None

    def test_defer_guard_off_checks_inside_the_commit(self):
        """``RuntimeConfig(defer_guard=False)`` keeps the inline probe
        pass: the violation aborts the transaction itself, and the
        verify queue never sees a pending snapshot."""
        controller = guarded_eventloop(
            base_seed=3, runtime_config=RuntimeConfig(defer_guard=False)
        )
        FaultInjector(seed=1).corrupt_commit(controller, participant="A")
        pre_digest = controller.switch.table.content_hash()

        with pytest.raises(GuardedCommitError):
            controller.policy.set_policies("A", BAD_EDIT, recompile=True)

        assert controller.switch.table.content_hash() == pre_digest
        assert controller.runtime.health_info()["queues"]["verify"] == 0
        assert "A" in controller.ops.health().quarantined
