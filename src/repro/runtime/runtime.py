"""The deterministic event-loop control-plane runtime.

:class:`ControlPlaneRuntime` turns the controller's synchronous call
chain (update → route server → fast path → compile → guard → commit)
into four cooperative tasks communicating through queues:

* **ingress** — drains the bounded submission queue, applies each event
  (the ``_apply_*`` bodies of :mod:`repro.core.facets`), optionally
  coalescing contiguous BGP bursts through ``UpdateIngress.batch``, and
  waits for any compile job an event requested;
* **compile** — drives ``CompilationPipeline.compile_steps()``, yielding
  at its stage boundaries so the verify task gets a turn mid-pass;
* **verify** — runs the *deferred* guard check of the previous commit
  (:meth:`~repro.guard.commits.CommitGuard.verify_snapshot`), which is
  how guard verification of commit N overlaps compilation of N+1;
* **commit** — installs a compiled result with ``defer_guard=True`` and
  hands the resulting pending verification to the verify task.  It
  holds off while a verification is still pending: probes must read the
  table they are checking.

Determinism: tasks resume in a fixed rotation on one thread, events
apply in submission order, each compile lands before the next event
applies, and the guard's success path is side-effect-free — so a burst
under ``pipelined()`` produces *byte-identical* flow-table digests to
the same events submitted one auto-drained call at a time (pinned by
``tests/property/test_runtime_equivalence.py``).  The two sanctioned
divergences are opt-in or failure-only: burst coalescing
(``RuntimeConfig.coalesce``) changes fast-path sequence numbers and is
only forwarding-equivalent, and a deferred guard *violation* under
``pipelined()`` rolls back a commit that later events already built on.

By default every facet submission auto-drains — enqueue, run the loop
to quiescence, return the real result — so the facet API stays
synchronous.  :meth:`ControlPlaneRuntime.pipelined` opens burst
mode: submissions return :class:`~repro.runtime.events.Submission`
handles immediately and the loop pipelines ingress, compilation,
commit, and verification until the block drains.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Deque, Dict, List, NamedTuple, Optional

from repro.runtime.events import (
    ChainDefineEvent,
    ChainRemoveEvent,
    CompileEvent,
    OriginateEvent,
    PolicyEvent,
    ReleaseQuarantineEvent,
    Submission,
    UpdateEvent,
    WithdrawOriginationEvent,
)
from repro.runtime.queues import BoundedQueue, QueueOverflow
from repro.runtime.scheduler import CooperativeScheduler, TimerWheel
from repro.sim.clock import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.controller import SDXController

__all__ = ["CompileJob", "ControlPlaneRuntime", "RuntimeConfig"]


class RuntimeConfig(NamedTuple):
    """Event-loop runtime knobs (``SDXController(runtime_config=...)``)."""

    #: bounded ingress queue capacity; overflow raises QueueOverflow at
    #: submission time (backpressure)
    ingress_capacity: int = 1024
    #: coalesce contiguous queued BGP updates through UpdateIngress.batch
    #: — one deduplicated fast-path pass per burst.  Opt-in: coalescing
    #: changes fast-path sequence numbers (cookies), so the result is
    #: forwarding-equivalent but not byte-identical to one update per pass.
    coalesce: bool = False
    #: verify guarded commits *after* transaction.commit, overlapped
    #: with the next compilation (the pipelined update→install path)
    defer_guard: bool = True
    #: on an AdmissionError with retry_after, park the submission on the
    #: timer wheel and re-enqueue it instead of failing it
    admission_retry: bool = False
    #: retry budget per submission before the rejection is final
    max_admission_retries: int = 8
    #: drive the telemetry clock from the runtime's virtual clock so
    #: latencies, admission windows, and timers share one time base
    sim_time: bool = False


class CompileJob:
    """One requested compilation: from dirty state to committed report."""

    __slots__ = ("submissions", "report", "error", "done")

    def __init__(self) -> None:
        self.submissions: List[Submission] = []
        self.report = None
        self.error: Optional[BaseException] = None
        self.done = False

    def __repr__(self) -> str:
        state = "done" if self.done else "pending"
        if self.error is not None:
            state = f"failed:{type(self.error).__name__}"
        return f"CompileJob({state})"


class ControlPlaneRuntime:
    """Cooperative task runtime for one controller (``controller.runtime``)."""

    def __init__(
        self,
        controller: "SDXController",
        config: Optional[RuntimeConfig] = None,
        clock: Optional[Simulator] = None,
    ) -> None:
        self.controller = controller
        self.config = config if config is not None else RuntimeConfig()
        self.clock = clock if clock is not None else Simulator()
        self.timers = TimerWheel(self.clock)
        telemetry = controller.telemetry
        if self.config.sim_time:
            clock_ref = self.clock
            telemetry.set_time_source(lambda: clock_ref.now)
        self._m_depth = telemetry.gauge(
            "sdx_runtime_queue_depth",
            "Items queued between control-plane runtime tasks",
            labels=("queue",),
        )
        self._m_task = telemetry.histogram(
            "sdx_runtime_task_seconds",
            "Time per runtime task resume slice",
            labels=("task",),
            sample_window=2048,
        )
        self._ingress = BoundedQueue(
            "ingress",
            self.config.ingress_capacity,
            on_depth=lambda depth: self._m_depth.set(depth, queue="ingress"),
        )
        self._compile_q: Deque[CompileJob] = deque()
        self._commit_q: Deque = deque()
        self._verify_q: Deque = deque()
        self._inflight = 0
        self._active = False
        self._applying = False
        self._pipeline_depth = 0
        self._pending_errors: List[BaseException] = []
        self._requested_job: Optional[CompileJob] = None
        self._compiling = False
        self._abort_requested = False
        self.scheduler = CooperativeScheduler(self._m_task, telemetry.now)
        # Fixed rotation: verify sits between compile and commit so a
        # pending verification lands in the same rotation the compile
        # task yields in (overlap), and always before the next commit.
        self.scheduler.add("ingress", self._ingress_task())
        self.scheduler.add("compile", self._compile_task())
        self.scheduler.add("verify", self._verify_task())
        self.scheduler.add("commit", self._commit_task())

    # -- state the controller consults ---------------------------------------

    @property
    def active(self) -> bool:
        """True while the loop is draining (we are *inside* the machinery)."""
        return self._active

    @property
    def applying(self) -> bool:
        """True while an event's apply body is executing on the ingress task."""
        return self._applying

    def queue_depths(self) -> Dict[str, int]:
        return {
            "ingress": len(self._ingress),
            "compile": len(self._compile_q),
            "commit": len(self._commit_q),
            "verify": len(self._verify_q),
        }

    def health_info(self) -> Dict[str, Any]:
        """The ``runtime`` section of ``ops.health()``."""
        return {
            "mode": "eventloop",
            "queues": self.queue_depths(),
            "ingress_peak": self._ingress.peak_depth,
            "ingress_rejected": self._ingress.total_rejected,
            "inflight": self._inflight,
        }

    def refresh_gauges(self) -> None:
        for name, depth in self.queue_depths().items():
            self._m_depth.set(depth, queue=name)

    # -- submission entry points (called by the facets) ----------------------

    def submit_update(self, update):
        return self._submit(UpdateEvent(update))

    def submit_policies(self, name, policy_set, recompile=True):
        return self._submit(PolicyEvent(name, policy_set, recompile=recompile))

    def submit_originate(self, name, prefix):
        return self._submit(OriginateEvent(name, prefix))

    def submit_withdraw_origination(self, name, prefix):
        return self._submit(WithdrawOriginationEvent(name, prefix))

    def submit_define_chain(self, chain, recompile=False):
        return self._submit(ChainDefineEvent(chain, recompile=recompile))

    def submit_remove_chain(self, name, recompile=False):
        return self._submit(ChainRemoveEvent(name, recompile=recompile))

    def submit_release_quarantine(self, name, recompile=True):
        return self._submit(ReleaseQuarantineEvent(name, recompile=recompile))

    def submit_compile(self):
        return self._submit(CompileEvent())

    def _submit(self, event):
        """Enqueue an event; auto-drain unless inside ``pipelined()``.

        Re-entrant calls — a facet invoked *from inside* the loop (an
        apply body, a commit hook, the guard's release race) — execute
        the apply body directly, nested in the caller.
        """
        controller = self.controller
        if self._active:
            return event.apply(controller)
        submission = Submission(event, controller.telemetry.now())
        self._ingress.push(submission)  # may raise QueueOverflow
        self._inflight += 1
        if self._pipeline_depth > 0:
            return submission
        self.drain()
        if submission.error is not None:
            raise submission.error
        return submission.result

    def request_compile(self) -> CompileJob:
        """Queue a compilation job (called via ``_maybe_compile`` during
        an apply body); the requesting submission is attached by the
        ingress task and completes when the job commits."""
        job = CompileJob()
        self._compile_q.append(job)
        self._m_depth.set(len(self._compile_q), queue="compile")
        self._requested_job = job
        return job

    # -- burst mode and the drain loop ----------------------------------------

    @contextmanager
    def pipelined(self):
        """Burst mode: submissions return handles; one drain at exit.

        Inside the block the loop pipelines freely: ingress applies
        event N+1 as soon as commit N lands, while the guard verifies
        commit N under compilation N+1.  On a clean exit the block
        drains to quiescence; on an exception pending submissions stay
        queued (``discard_pending()`` clears them).
        """
        self._pipeline_depth += 1
        clean = False
        try:
            yield self
            clean = True
        finally:
            self._pipeline_depth -= 1
            if clean and self._pipeline_depth == 0:
                self.drain()

    def drain(self) -> None:
        """Run the loop until every queue is empty and nothing is in flight.

        One rotation resumes every task once.  After a rotation with no
        progress the virtual clock advances to the next timer (admission
        retries, resilience timers).  Raises the first recorded task
        error after quiescence.
        """
        if self._active:
            return
        self._active = True
        try:
            while not self._quiescent():
                if self.scheduler.step() or self._quiescent():
                    continue
                next_at = self.clock.next_event_time()
                if next_at is not None:
                    self.clock.run_until(next_at)
                    continue
                raise RuntimeError(
                    "control-plane runtime stalled: work pending but no "
                    f"runnable task and no timer ({self.queue_depths()}, "
                    f"inflight={self._inflight})"
                )
        finally:
            self._active = False
        if self._pending_errors:
            errors, self._pending_errors = self._pending_errors, []
            raise errors[0]

    def run_until(self, end: float) -> None:
        """Advance the virtual clock to ``end``, draining as timers fire."""
        while True:
            next_at = self.clock.next_event_time()
            if next_at is None or next_at > end:
                break
            self.clock.run_until(next_at)
            self.drain()
        self.clock.run_until(end)
        self.drain()

    def discard_pending(self) -> int:
        """Fail and drop everything still queued (after an aborted burst)."""
        dropped = 0
        error = RuntimeError("submission discarded before it was applied")
        while not self._ingress.empty:
            self._complete(self._ingress.pop(), error=error)
            dropped += 1
        self._compile_q.clear()
        self._commit_q.clear()
        self._verify_q.clear()
        self.refresh_gauges()
        return dropped

    def _quiescent(self) -> bool:
        return (
            self._inflight == 0
            and self._ingress.empty
            and not self._compile_q
            and not self._commit_q
            and not self._verify_q
        )

    def _complete(self, submission: Submission, result=None, error=None) -> None:
        submission.result = result
        submission.error = error
        submission.done = True
        now = self.controller.telemetry.now()
        submission.completed_at = now
        self._inflight -= 1
        self.controller._m_install_latency.observe(
            now - submission.enqueued_at, kind=submission.event.kind
        )

    def _maybe_retry(self, submission: Submission, error: BaseException) -> bool:
        """Park an admission-rejected submission until its retry_after."""
        retry_after = getattr(error, "retry_after", None)
        if not self.config.admission_retry or retry_after is None:
            return False
        if submission.retries >= self.config.max_admission_retries:
            return False
        submission.retries += 1

        def requeue() -> None:
            try:
                self._ingress.push(submission)
            except QueueOverflow as overflow:
                self._complete(submission, error=overflow)

        self.timers.schedule_in(max(float(retry_after), 0.0), requeue)
        return True

    # -- the tasks ------------------------------------------------------------

    def _apply_event(self, submission: Submission):
        """Run one event's apply body; returns (result, error, job)."""
        controller = self.controller
        result = None
        error: Optional[BaseException] = None
        self._requested_job = None
        self._applying = True
        try:
            result = submission.event.apply(controller)
        except Exception as exc:  # noqa: BLE001 - stored on the submission
            error = exc
        finally:
            self._applying = False
        job, self._requested_job = self._requested_job, None
        return result, error, job

    def _finish_simple(self, submission: Submission, result, error) -> None:
        if error is not None:
            if not self._maybe_retry(submission, error):
                self._complete(submission, error=error)
        else:
            self._complete(submission, result=result)

    def _ingress_task(self):
        controller = self.controller
        while True:
            if self._ingress.empty:
                yield ("idle",)
                continue
            submission = self._ingress.pop()
            if self.config.coalesce and isinstance(submission.event, UpdateEvent):
                # Coalesce the contiguous run of queued updates into one
                # UpdateIngress batch: RIB ordering is preserved (each
                # update still applies in sequence), but the fast path
                # sees one deduplicated change set for the whole burst.
                burst = [submission]
                while not self._ingress.empty and isinstance(
                    self._ingress.peek().event, UpdateEvent
                ):
                    burst.append(self._ingress.pop())
                if len(burst) > 1:
                    with controller.pipeline.ingress.batch():
                        for queued in burst:
                            result, error, _ = self._apply_event(queued)
                            self._finish_simple(queued, result, error)
                    yield ("worked",)
                    continue
            result, error, job = self._apply_event(submission)
            if error is not None:
                self._finish_simple(submission, None, error)
                yield ("worked",)
                continue
            if job is None:
                self._complete(submission, result=result)
                yield ("worked",)
                continue
            # The event requested a compilation: this submission rides
            # the job, and the next event waits for the commit — compile
            # points in event order match one-call-at-a-time submission.
            job.submissions.append(submission)
            yield ("worked",)
            while not job.done:
                yield ("idle",)
            if job.error is not None:
                self._complete(submission, error=job.error)
            elif submission.event.returns_report:
                self._complete(submission, result=job.report)
            else:
                self._complete(submission, result=result)
            # No yield here: keep draining in this same resume so events
            # queued behind the commit install *before* the verify task's
            # slot — the deferred probe pass must never sit on their
            # install path.  (Verification tolerates this: the deferred
            # rollback flushes post-commit fast-path overrides first.)

    def _compile_task(self):
        controller = self.controller
        while True:
            if not self._compile_q:
                yield ("idle",)
                continue
            job = self._compile_q[0]
            self._compiling = True
            self._abort_requested = False
            steps = controller.pipeline.compile_steps()
            result = None
            error: Optional[BaseException] = None
            aborted = False
            while True:
                if self._abort_requested:
                    # A deferred guard violation rolled the world back
                    # under this compilation; its inputs are fiction.
                    steps.close()
                    aborted = True
                    break
                try:
                    next(steps)
                except StopIteration as stop:
                    result = stop.value
                    break
                except Exception as exc:  # noqa: BLE001 - fails the job
                    error = exc
                    break
                yield ("worked",)
            self._compiling = False
            self._abort_requested = False
            self._compile_q.popleft()
            self._m_depth.set(len(self._compile_q), queue="compile")
            if aborted:
                job.error = RuntimeError(
                    "compilation aborted: a deferred guard violation rolled "
                    "back the commit it was building on"
                )
                job.done = True
            elif error is not None:
                job.error = error
                job.done = True
            else:
                self._commit_q.append((job, result))
                self._m_depth.set(len(self._commit_q), queue="commit")
            yield ("worked",)

    def _verify_task(self):
        while True:
            if not self._verify_q:
                yield ("idle",)
                continue
            job, pending = self._verify_q.popleft()
            self._m_depth.set(len(self._verify_q), queue="verify")
            guard = self.controller.guard
            try:
                job.report.verified = guard.verify_snapshot(pending)
            except Exception as exc:  # noqa: BLE001 - surfaced from drain
                if self._compiling:
                    self._abort_requested = True
                for submission in job.submissions:
                    if submission.error is None:
                        submission.error = exc
                self._pending_errors.append(exc)
            yield ("worked",)

    def _commit_task(self):
        controller = self.controller
        while True:
            if not self._commit_q:
                yield ("idle",)
                continue
            if self._verify_q:
                # The previous commit's deferred check must land first:
                # its probes read the table that is installed right now.
                yield ("idle",)
                continue
            job, result = self._commit_q.popleft()
            self._m_depth.set(len(self._commit_q), queue="commit")
            committer = controller.pipeline.committer
            try:
                job.report = committer.install(
                    result, defer_guard=self.config.defer_guard
                )
            except Exception as exc:  # noqa: BLE001 - stored on the job
                job.error = exc
            job.done = True
            pending = committer.pop_deferred_verification()
            if pending is not None:
                self._verify_q.append((job, pending))
                self._m_depth.set(len(self._verify_q), queue="verify")
            yield ("worked",)

    def __repr__(self) -> str:
        return (
            f"ControlPlaneRuntime(inflight={self._inflight}, "
            f"queues={self.queue_depths()})"
        )
