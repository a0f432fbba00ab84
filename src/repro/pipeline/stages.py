"""The pipeline's boundary stages: BGP ingress and fabric commit.

``UpdateIngress`` is where BGP UPDATEs enter the control plane (through
the resilience guard when one is attached) and where bursts can be
coalesced: inside an ``ingress.batch()`` block, updates still apply to
the route server immediately (RIB ordering is preserved), but the
resulting best-path changes are collected and handed to the fast path
*once*, deduplicated by prefix, when the batch closes.  A burst of N
updates touching one prefix then costs one fast-path pass instead of N.

``FabricCommitter`` is the last stage: the two-phase, rolled-back-on-
failure installation of a compilation into the switch.  Since the delta
reconciliation engine (``repro.dataplane.reconcile``) it no longer
wipes and reinstalls the base table: the target table is diffed against
the installed one and only the minimal add/remove/reprioritize patch is
applied, preserving packet/byte counters on every unchanged rule and
making an edit-1-of-N recompile O(changed segment) instead of O(table).
Commit success is also the pipeline's checkpoint — only then are dirty
flags cleared and superseded VNHs released, so a failed commit leaves
the next compilation knowing it still has work to do (and the old
advertisements still resolving).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.bgp.messages import BGPUpdate
from repro.bgp.route_server import BestPathChange
from repro.dataplane.reconcile import (
    BASE_COOKIE,
    BASE_PRIORITY,
    ChurnStats,
    CommitReport,
    diff,
    is_base_cookie,
    target_specs,
)
from repro.guard.commits import GuardViolation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.compiler import CompilationResult
    from repro.pipeline.pipeline import CompilationPipeline

__all__ = ["BASE_COOKIE", "BASE_PRIORITY", "FabricCommitter", "UpdateIngress"]


class UpdateIngress:
    """Feeds BGP updates into the route server, batching bursts."""

    def __init__(self, pipeline: "CompilationPipeline") -> None:
        self.pipeline = pipeline
        self._batch_depth = 0
        self._collected: List[BestPathChange] = []
        telemetry = pipeline.controller.telemetry
        self._m_updates = telemetry.counter(
            "sdx_ingress_updates_total", "BGP updates accepted by the ingress stage"
        )
        self._m_batched = telemetry.histogram(
            "sdx_ingress_batch_changes",
            "Best-path changes coalesced per ingress batch",
        )

    @property
    def batching(self) -> bool:
        return self._batch_depth > 0

    def submit(self, update: BGPUpdate) -> List[BestPathChange]:
        """One update through the guard (if any) into the route server.

        The subscriber hook on the route server routes the resulting
        best-path changes back through :meth:`collect` while a batch is
        open, or straight to the fast path otherwise.
        """
        controller = self.pipeline.controller
        self._m_updates.inc()
        if controller.resilience is not None:
            return controller.resilience.process_update(update)
        return controller.route_server.process_update(update)

    def collect(self, changes: List[BestPathChange]) -> None:
        """Hold a batch's best-path changes for coalesced dispatch."""
        self._collected.extend(changes)

    @contextmanager
    def batch(self):
        """Coalesce this block's best-path changes into one fast-path pass."""
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0:
                collected, self._collected = self._collected, []
                merged = self._dedupe(collected)
                self._m_batched.observe(len(merged))
                if merged:
                    self.pipeline.controller._dispatch_fast_path(merged)

    @staticmethod
    def _dedupe(changes: List[BestPathChange]) -> List[BestPathChange]:
        """Last change per prefix wins (the fast path recomputes from the
        route server anyway, so intermediate flaps are pure waste)."""
        last: Dict = {}
        for change in changes:
            last[change.prefix] = change
        return list(last.values())


class FabricCommitter:
    """Delta-reconciled, two-phase commit of a compilation into the switch."""

    def __init__(self, pipeline: "CompilationPipeline") -> None:
        self.pipeline = pipeline
        self._last_report: CommitReport | None = None
        #: a deferred guard check handed over by the last install
        #: (event-loop runtime only); popped by the verify task
        self._deferred_verification = None
        self._commits = 0
        self._total_added = 0
        self._total_removed = 0
        self._total_retained = 0
        self._total_reprioritized = 0
        telemetry = pipeline.controller.telemetry
        self._m_added = telemetry.counter(
            "sdx_fabric_rules_added_total",
            "Base-table rules installed by delta-reconciled commits",
        )
        self._m_removed = telemetry.counter(
            "sdx_fabric_rules_removed_total",
            "Base-table rules removed by delta-reconciled commits",
        )
        self._m_retained = telemetry.counter(
            "sdx_fabric_rules_retained_total",
            "Base-table rules left untouched (counters preserved) per commit",
        )
        self._m_reprioritized = telemetry.counter(
            "sdx_fabric_rules_reprioritized_total",
            "Base-table rules re-slotted in place (counters preserved)",
        )
        self._m_seconds = telemetry.histogram(
            "sdx_fabric_commit_seconds",
            "Fabric commit latency (reconcile + patch + hooks)",
        )

    @property
    def last_report(self) -> CommitReport | None:
        """The most recent commit's :class:`CommitReport` (None before one)."""
        return self._last_report

    def churn_stats(self) -> ChurnStats:
        """Cumulative reconciliation counters (``controller.ops.churn()``)."""
        return ChurnStats(
            commits=self._commits,
            added=self._total_added,
            removed=self._total_removed,
            retained=self._total_retained,
            reprioritized=self._total_reprioritized,
            last=self._last_report,
        )

    def install(
        self, result: "CompilationResult", defer_guard: bool = False
    ) -> CommitReport:
        """Reconcile ``result`` into the switch transactionally.

        The target table implied by ``result.segments`` is diffed
        against the installed base rules (identity: cookie + match +
        actions; priority handled as a reprioritize-in-place) and only
        the patch is applied — unchanged rules keep their packet/byte
        counters.  Any exception inside the transaction — including a
        registered commit hook raising — restores the flow table
        (membership, order, *and* priorities), the fast-path state, and
        the advertisement map to their pre-commit values, then
        propagates.  On success the pipeline checkpoint runs: dirty
        flags clear and superseded VNHs are released.  Returns the
        typed :class:`CommitReport`.

        With ``defer_guard=True`` (the event-loop runtime's pipelined
        path) the guard's probe pass is *not* run inside the
        transaction: the guard snapshots everything a rollback would
        need (:meth:`~repro.guard.commits.CommitGuard.begin_deferred`),
        the commit completes, and the check is left on
        :meth:`pop_deferred_verification` for the runtime's verify task
        to run — overlapped with the next compilation.  ``verified`` is
        then None on the returned report until the verify task fills in
        the :class:`~repro.guard.commits.GuardReport` (also left on
        ``guard.last_report``).
        """
        controller = self.pipeline.controller
        table = controller.switch.table
        started = controller.telemetry.now()
        previous = controller._last_result
        saved_fast_path = controller.fast_path.snapshot()
        saved_cookies = list(controller._base_cookies)
        saved_advertised = dict(controller._advertised)
        # Per-provenance segments let the flow table account traffic per
        # participant policy.  Segment order fixes relative priority:
        # earlier segments sit above later ones.
        segments = result.segments or ((("all",), result.classifier),)
        placements = dict(getattr(result, "placements", None) or {})
        patch = diff(
            (rule for rule in table if is_base_cookie(rule.cookie)),
            target_specs(segments, placements=placements),
        )
        transaction = table.transaction()
        guard = controller.guard
        verified = None
        deferred = None
        try:
            controller.fast_path.flush()
            patch.apply(table)
            controller._base_cookies = [
                (BASE_COOKIE, *label) for label, _ in segments
            ]
            controller._advertised = dict(result.advertised_next_hops)
            for hook in list(controller._commit_hooks):
                hook(result)
            if guard is not None:
                if defer_guard:
                    deferred = guard.begin_deferred(
                        result, patch, transaction, previous
                    )
                else:
                    # Inside the still-open transaction: probes traverse
                    # the patched table; a mismatch raises GuardViolation
                    # and the failure path below restores everything.
                    verified = guard.check_commit(result, patch)
            transaction.commit()
        except BaseException as error:
            transaction.rollback()
            controller.fast_path.restore(saved_fast_path)
            controller._base_cookies = saved_cookies
            controller._advertised = saved_advertised
            if guard is not None and isinstance(error, GuardViolation):
                # Quarantine the culprit, prove the rollback, re-assert
                # the last-known-good cache, record the incident.  Always
                # raises (GuardedCommitError or RollbackFailure).
                guard.handle_violation(error, result, transaction)
            raise
        seconds = controller.telemetry.now() - started
        report = CommitReport(
            added=len(patch.adds),
            removed=len(patch.removes),
            retained=patch.retained,
            reprioritized=len(patch.moves),
            seconds=seconds,
            result=result,
            verified=verified,
        )
        self._record(report)
        # Snapshot the dirty flags *before* on_committed clears them:
        # they are part of what a deferred violation must reinstate.
        dirty_state = self.pipeline.dirty.snapshot()
        controller._last_result = result
        released = self.pipeline.on_committed(result)
        if deferred is not None:
            deferred.complete(
                previous=previous,
                base_cookies=saved_cookies,
                advertised=saved_advertised,
                fast_path=saved_fast_path,
                released=tuple(released),
                dirty=dirty_state,
            )
            self._deferred_verification = deferred
        controller._push_routes_to_all()
        return report

    def pop_deferred_verification(self):
        """Take (and clear) the pending deferred guard check, if any."""
        pending, self._deferred_verification = self._deferred_verification, None
        return pending

    def _record(self, report: CommitReport) -> None:
        self._last_report = report
        self._commits += 1
        self._total_added += report.added
        self._total_removed += report.removed
        self._total_retained += report.retained
        self._total_reprioritized += report.reprioritized
        if report.added:
            self._m_added.inc(report.added)
        if report.removed:
            self._m_removed.inc(report.removed)
        if report.retained:
            self._m_retained.inc(report.retained)
        if report.reprioritized:
            self._m_reprioritized.inc(report.reprioritized)
        self._m_seconds.observe(report.seconds)
