"""Guarded commits: budgeted per-commit verification with auto-rollback.

PR 5's differential oracle answers "is the installed fabric right?" when
an operator asks.  :class:`CommitGuard` asks on every commit, *inside*
the still-open :class:`~repro.dataplane.flowtable.FlowTableTransaction`
— the delta patch has been applied in place, so probes traverse exactly
the table that would go live, while rollback is still one call away.

The state machine (see ``docs/internals.md``):

``commit`` → ``sample`` — after the patch, hooks, and admission of a
commit, the guard runs a *budgeted* sampled differential check: a fixed
probe budget, seeded deterministically per commit
(:func:`~repro.guard.sampling.probe_seed`), with sampling focused on the
prefixes this commit actually moved
(:func:`~repro.guard.sampling.changed_prefixes`).

``sample`` → ``rollback`` — any mismatch raises :class:`GuardViolation`
before ``transaction.commit()``; the committer's existing failure path
restores the flow table (membership, order, priorities), fast-path
state, and advertisement map.  The guard then *proves* the rollback:
the table's ``content_hash`` must equal the transaction's checkpoint
digest, byte for byte.

``rollback`` → ``quarantine`` — the counterexample's provenance names
the policy segment that misforwarded; that participant is quarantined
through the same machinery as a compile-time failure (with
``state="guard"`` and an escalating offense count), the last-known-good
table is re-asserted, and a :class:`GuardIncident` — counterexample
included — lands in the bounded incident log that
``controller.ops.health()`` surfaces.

``quarantine`` → ``release`` — an operator releases via
``ops.release_quarantine``; the participant's next policy edit also
clears it.  Re-offending re-quarantines with a higher offense count.

Verification *infrastructure* failures fail open: a probe pass that
itself raises (see :meth:`CommitGuard.arm_fault` and
``FaultInjector.fail_probe``) records a ``probe-failure`` incident and
lets the commit stand — the guard must never turn its own bugs into an
outage.  A rollback that cannot be proven clean fails *closed* with
:class:`RollbackFailure`: at that point the fabric state is unknown and
silence would be a lie.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from repro.dataplane.reconcile import TablePatch, diff, is_base_cookie, target_specs
from repro.guard.sampling import changed_prefixes, probe_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.compiler import CompilationResult
    from repro.core.controller import SDXController
    from repro.dataplane.flowtable import FlowTableTransaction
    from repro.verify.checker import CheckReport

__all__ = [
    "CommitGuard",
    "GuardConfig",
    "GuardIncident",
    "GuardReport",
    "GuardViolation",
    "GuardedCommitError",
    "PendingVerification",
    "ProbeFailure",
    "RollbackFailure",
]


class GuardConfig(NamedTuple):
    """How aggressively commits are verified."""

    #: probes sampled per guarded commit (the budget)
    probe_budget: int = 8
    #: base seed; each commit derives its own stream (``probe_seed``)
    seed: int = 0
    #: run the structural invariant sweep too (slower; off by default —
    #: the churn-focused probe diff is the per-commit check)
    invariants: bool = False
    #: master switch (an attached-but-disabled guard keeps its counters)
    enabled: bool = True
    #: incident-log bound (oldest incidents fall off)
    max_incidents: int = 64


class GuardReport(NamedTuple):
    """Outcome of one guarded commit's sampled check."""

    commit_seq: int
    probes: int
    checked: int
    skipped: int
    #: changed prefixes the sampler focused its budget on
    focused: int
    #: the derived per-commit probe seed (replays via ``ops.verify``)
    seed: int
    seconds: float
    ok: bool


class GuardIncident(NamedTuple):
    """One guard intervention, as surfaced by ``ops.health().incidents``."""

    commit_seq: int
    #: "rolled-back" | "probe-failure" | "rollback-failure"
    action: str
    participant: Optional[str]
    detail: str
    #: the minimized counterexample (``Mismatch.explain()``), when any
    counterexample: str
    #: probe seed that found it: ``ops.verify(budget=..., seed=...)`` replays
    seed: int
    #: a quarantine-release race fired while handling this incident
    released_by_race: bool = False

    def __repr__(self) -> str:
        who = self.participant or "unattributed"
        return (
            f"GuardIncident(#{self.commit_seq} {self.action} {who}: {self.detail})"
        )


class GuardViolation(Exception):
    """Internal control flow: sampled probes disagreed, roll back.

    Raised by :meth:`CommitGuard.check_commit` *inside* the commit
    transaction so the committer's failure path restores the fabric;
    the committer then hands it to :meth:`CommitGuard.handle_violation`,
    which never lets it escape (callers see :class:`GuardedCommitError`
    or :class:`RollbackFailure`).
    """

    def __init__(self, report: GuardReport, check: "CheckReport") -> None:
        super().__init__(
            f"guarded commit {report.commit_seq}: "
            f"{len(check.mismatches)} mismatch(es), "
            f"{len(check.violations)} invariant violation(s) "
            f"in {check.checked} probes"
        )
        self.report = report
        self.check = check


class GuardedCommitError(RuntimeError):
    """A commit was verified bad, rolled back, and quarantined.

    The fabric is back to its pre-commit state; ``incident`` carries the
    counterexample and the probe seed that reproduces it.
    """

    def __init__(self, incident: GuardIncident) -> None:
        who = incident.participant or "unattributed"
        super().__init__(
            f"commit {incident.commit_seq} rejected by guard ({who}): "
            f"{incident.detail} — replay with ops.verify(seed={incident.seed})"
        )
        self.incident = incident


class ProbeFailure(RuntimeError):
    """The verification pass itself failed (fail-open fault point)."""


class RollbackFailure(RuntimeError):
    """Rollback could not be proven clean (fail-closed fault point)."""


class PendingVerification:
    """A committed-but-unverified install, held for deferred checking.

    The event-loop runtime commits first and verifies *after*
    ``transaction.commit()`` so compilation of the next result can start
    under the check.  That is sound because ``check_commit``'s success
    path is side-effect-free; the price is that a violation can no
    longer lean on the open transaction — everything rollback needs is
    snapshotted here instead: the transaction's checkpoint (shared Rule
    objects + their pre-commit priorities), the pre-commit fast-path /
    cookie / advertisement state, the VNHs the commit released, and the
    dirty flags the commit cleared.
    """

    __slots__ = (
        "commit_seq",
        "seed",
        "focus",
        "result",
        "transaction",
        "previous",
        "base_cookies",
        "advertised",
        "fast_path",
        "released",
        "dirty",
    )

    def __init__(self, commit_seq, seed, focus, result, transaction) -> None:
        self.commit_seq = commit_seq
        self.seed = seed
        self.focus = focus
        self.result = result
        self.transaction = transaction
        self.previous = None
        self.base_cookies = None
        self.advertised = None
        self.fast_path = None
        self.released = ()
        self.dirty = ((), False, False)

    def complete(
        self, previous, base_cookies, advertised, fast_path, released, dirty
    ) -> None:
        """Fill in the recovery state once the commit has gone through."""
        self.previous = previous
        self.base_cookies = base_cookies
        self.advertised = advertised
        self.fast_path = fast_path
        self.released = released
        self.dirty = dirty

    def __repr__(self) -> str:
        return f"PendingVerification(commit_seq={self.commit_seq}, seed={self.seed})"


class CommitGuard:
    """Per-controller guarded-commit engine (``controller.guard``)."""

    def __init__(
        self, controller: "SDXController", config: GuardConfig = GuardConfig()
    ) -> None:
        self.controller = controller
        self.config = config
        self.last_report: Optional[GuardReport] = None
        self._commit_seq = 0
        self._incidents: List[GuardIncident] = []
        self._offenses: Dict[str, int] = {}
        #: armed fault points ("probe" | "rollback" | "release") -> shots
        self._armed: Dict[str, int] = {}
        telemetry = controller.telemetry
        self._m_checks = telemetry.counter(
            "sdx_guard_checks_total",
            "Guarded-commit verification passes by outcome",
            labels=("outcome",),
        )
        self._m_probes = telemetry.counter(
            "sdx_guard_probes_total", "Probes spent by guarded commits"
        )
        self._m_mismatches = telemetry.counter(
            "sdx_guard_mismatches_total", "Mismatches caught by guarded commits"
        )
        self._m_rollbacks = telemetry.counter(
            "sdx_guard_rollbacks_total", "Commits rolled back by the guard"
        )
        self._m_quarantines = telemetry.counter(
            "sdx_guard_quarantines_total", "Participants quarantined by the guard"
        )
        self._m_seconds = telemetry.histogram(
            "sdx_guard_seconds", "Per-commit sampled verification overhead"
        )

    # -- fault points (chaos harness) ---------------------------------------

    def arm_fault(self, point: str, times: int = 1) -> None:
        """Arm an injected failure: ``"probe"``, ``"rollback"``, ``"release"``."""
        if point not in ("probe", "rollback", "release"):
            raise ValueError(f"unknown guard fault point {point!r}")
        self._armed[point] = self._armed.get(point, 0) + times

    def _fault_fires(self, point: str) -> bool:
        remaining = self._armed.get(point, 0)
        if remaining <= 0:
            return False
        if remaining == 1:
            self._armed.pop(point)
        else:
            self._armed[point] = remaining - 1
        return True

    # -- incident log --------------------------------------------------------

    @property
    def incidents(self) -> Tuple[GuardIncident, ...]:
        """The bounded incident log, oldest first."""
        return tuple(self._incidents)

    def offenses(self, name: str) -> int:
        """How many guard violations have been attributed to ``name``."""
        return self._offenses.get(name, 0)

    def _record_incident(self, incident: GuardIncident) -> None:
        self._incidents.append(incident)
        overflow = len(self._incidents) - self.config.max_incidents
        if overflow > 0:
            del self._incidents[:overflow]

    # -- the sampled check (inside the transaction) -------------------------

    def check_commit(
        self, result: "CompilationResult", patch: TablePatch
    ) -> Optional[GuardReport]:
        """Budgeted differential check of the just-applied patch.

        Runs between ``patch.apply`` and ``transaction.commit``: the
        probes traverse the table exactly as it would go live.  Returns
        the :class:`GuardReport` (None when disabled, or on a no-op
        re-commit of the unchanged last result, or when the pass itself
        fails — fail open).  Raises :class:`GuardViolation` on any
        mismatch so the committer's failure path rolls back.
        """
        if not self.config.enabled:
            return None
        controller = self.controller
        last = controller._last_result
        if patch.is_noop and result is last:
            # Background no-op tick: this exact table already passed.
            return None
        self._commit_seq += 1
        seq = self._commit_seq
        seed = probe_seed(self.config.seed, seq)
        focus = changed_prefixes(
            last.fec_table if last is not None else None, result.fec_table
        )
        from repro.verify.checker import DifferentialChecker

        try:
            if self._fault_fires("probe"):
                raise ProbeFailure(f"injected probe failure at commit {seq}")
            check = DifferentialChecker(controller).check(
                budget=self.config.probe_budget,
                seed=seed,
                invariants=self.config.invariants,
                focus=focus,
            )
        except Exception as exc:  # noqa: BLE001 - fail open, on the record
            self._m_checks.inc(outcome="error")
            self._record_incident(
                GuardIncident(
                    commit_seq=seq,
                    action="probe-failure",
                    participant=None,
                    detail=f"verification pass failed: {type(exc).__name__}: {exc}",
                    counterexample="",
                    seed=seed,
                )
            )
            return None
        report = GuardReport(
            commit_seq=seq,
            probes=check.probes,
            checked=check.checked,
            skipped=check.skipped,
            focused=len(focus),
            seed=seed,
            seconds=check.seconds,
            ok=check.ok,
        )
        self.last_report = report
        self._m_probes.inc(check.probes)
        self._m_seconds.observe(check.seconds)
        if check.ok:
            self._m_checks.inc(outcome="ok")
            return report
        self._m_checks.inc(outcome="mismatch")
        self._m_mismatches.inc(len(check.mismatches) + len(check.violations))
        raise GuardViolation(report, check)

    # -- deferred verification (after the transaction committed) ------------

    def begin_deferred(
        self,
        result: "CompilationResult",
        patch: TablePatch,
        transaction: "FlowTableTransaction",
        previous: Optional["CompilationResult"],
    ) -> Optional[PendingVerification]:
        """Claim a commit sequence number and snapshot what rollback needs.

        Called by the committer *instead of* :meth:`check_commit` when
        verification is deferred: the probe pass moves to
        :meth:`verify_snapshot`, after ``transaction.commit()``, so the
        next compilation can overlap it.  Returns None when the guard is
        disabled or for the no-op re-commit shortcut (same cases where
        ``check_commit`` skips).  The sequence number and derived probe
        seed are fixed *here*, at commit order, so deferral cannot change
        which probe stream a commit is checked against.
        """
        if not self.config.enabled:
            return None
        if patch.is_noop and result is previous:
            return None
        self._commit_seq += 1
        seq = self._commit_seq
        return PendingVerification(
            commit_seq=seq,
            seed=probe_seed(self.config.seed, seq),
            focus=changed_prefixes(
                previous.fec_table if previous is not None else None,
                result.fec_table,
            ),
            result=result,
            transaction=transaction,
        )

    def verify_snapshot(
        self, pending: PendingVerification
    ) -> Optional[GuardReport]:
        """The deferred probe pass for an already-committed install.

        Identical verdict machinery to :meth:`check_commit` — same seed,
        same focus set, same fail-open handling of probe-infrastructure
        errors — but a mismatch can't abort an open transaction anymore,
        so recovery rolls the fabric back from the snapshot captured in
        ``pending`` (and then raises, like the in-transaction path).
        """
        controller = self.controller
        seq = pending.commit_seq
        from repro.verify.checker import DifferentialChecker

        try:
            if self._fault_fires("probe"):
                raise ProbeFailure(f"injected probe failure at commit {seq}")
            check = DifferentialChecker(controller).check(
                budget=self.config.probe_budget,
                seed=pending.seed,
                invariants=self.config.invariants,
                focus=pending.focus,
            )
        except Exception as exc:  # noqa: BLE001 - fail open, on the record
            self._m_checks.inc(outcome="error")
            self._record_incident(
                GuardIncident(
                    commit_seq=seq,
                    action="probe-failure",
                    participant=None,
                    detail=f"verification pass failed: {type(exc).__name__}: {exc}",
                    counterexample="",
                    seed=pending.seed,
                )
            )
            return None
        report = GuardReport(
            commit_seq=seq,
            probes=check.probes,
            checked=check.checked,
            skipped=check.skipped,
            focused=len(pending.focus),
            seed=pending.seed,
            seconds=check.seconds,
            ok=check.ok,
        )
        self.last_report = report
        self._m_probes.inc(check.probes)
        self._m_seconds.observe(check.seconds)
        if check.ok:
            self._m_checks.inc(outcome="ok")
            return report
        self._m_checks.inc(outcome="mismatch")
        self._m_mismatches.inc(len(check.mismatches) + len(check.violations))
        self._handle_deferred_violation(pending, report, check)
        raise AssertionError("unreachable")  # pragma: no cover

    def _handle_deferred_violation(
        self, pending: PendingVerification, report: GuardReport, check: "CheckReport"
    ) -> None:
        """Roll a *committed* bad install back from its snapshot.

        Mirrors the committer's failure path plus :meth:`handle_violation`,
        with one extra step each way: current fast-path overrides (added
        after the bad commit) are flushed before the restore, and the
        VNHs the commit released are re-reserved so the restored result's
        advertisements resolve again.  Always raises.
        """
        controller = self.controller
        pipeline = controller.pipeline
        table = controller.switch.table
        self._m_rollbacks.inc()
        counterexample = ""
        if check.mismatches:
            counterexample = check.mismatches[0].explain()
        elif check.violations:
            counterexample = str(check.violations[0])

        # The committer's failure path, replayed from the snapshot:
        # flush post-commit overrides (releasing their VNHs), restore
        # checkpoint membership/order/priorities, then the fast-path
        # bookkeeping, cookies, advertisements, and last-result pointer.
        controller.fast_path.flush()
        for rule, priority in zip(
            pending.transaction._checkpoint, pending.transaction._priorities
        ):
            rule.priority = priority
        table.restore(pending.transaction._checkpoint)
        controller.fast_path.restore(pending.fast_path)
        controller._base_cookies = list(pending.base_cookies)
        controller._advertised = dict(pending.advertised)
        controller._last_result = pending.previous
        # Undo the commit checkpoint: the released VNHs must resolve
        # again (the restored advertisements still point at them) and
        # stay queued for release by the next *good* commit; the dirty
        # flags the commit cleared are re-marked (unioned — later edits
        # may have dirtied more).
        for vnh in pending.released:
            controller.allocator.reclaim(vnh)
        pipeline._pending_release.extend(pending.released)
        dirty_participants, dirty_routes, dirty_chains = pending.dirty
        for name in dirty_participants:
            pipeline.dirty.mark_policy(name)
        if dirty_routes:
            pipeline.dirty.mark_routes()
        if dirty_chains:
            pipeline.dirty.mark_chains()
        controller._push_routes_to_all()

        injected = self._fault_fires("rollback")
        if injected or table.content_hash() != pending.transaction.checkpoint_digest():
            detail = (
                "injected rollback failure"
                if injected
                else "post-rollback table digest differs from pre-commit checkpoint"
            )
            self._record_incident(
                GuardIncident(
                    commit_seq=report.commit_seq,
                    action="rollback-failure",
                    participant=None,
                    detail=detail,
                    counterexample=counterexample,
                    seed=report.seed,
                )
            )
            raise RollbackFailure(f"guarded commit {report.commit_seq}: {detail}")

        culprit = self._attribute(check, dirty=dirty_participants)
        released = False
        if culprit is not None:
            offenses = self._offenses.get(culprit, 0) + 1
            self._offenses[culprit] = offenses
            pipeline._quarantine(
                culprit,
                "GuardViolation",
                f"guarded commit {report.commit_seq}: "
                f"{len(check.mismatches)} mismatch(es) traced to this policy",
                attempts=1,
                state="guard",
                offenses=offenses,
            )
            self._m_quarantines.inc()
            if self._fault_fires("release"):
                controller.ops.release_quarantine(culprit, recompile=False)
                released = True

        self._reassert_last_good()

        incident = GuardIncident(
            commit_seq=report.commit_seq,
            action="rolled-back",
            participant=culprit,
            detail=(
                f"{len(check.mismatches)} mismatch(es), "
                f"{len(check.violations)} invariant violation(s) in "
                f"{check.checked}/{report.probes} probes "
                f"(seed {report.seed}); fabric restored (deferred)"
            ),
            counterexample=counterexample,
            seed=report.seed,
            released_by_race=released,
        )
        self._record_incident(incident)
        raise GuardedCommitError(incident)

    # -- recovery (after the committer rolled back) -------------------------

    def handle_violation(
        self,
        violation: GuardViolation,
        result: "CompilationResult",
        transaction: "FlowTableTransaction",
    ) -> None:
        """Rollback proof, quarantine, last-known-good re-assert, incident.

        Called by the committer *after* its failure path restored the
        table, fast path, and advertisement map.  Always raises:
        :class:`GuardedCommitError` on a clean recovery,
        :class:`RollbackFailure` when the restored table cannot be
        proven byte-identical to the pre-commit checkpoint.
        """
        controller = self.controller
        table = controller.switch.table
        check = violation.check
        report = violation.report
        self._m_rollbacks.inc()
        counterexample = ""
        if check.mismatches:
            counterexample = check.mismatches[0].explain()
        elif check.violations:
            counterexample = str(check.violations[0])

        injected = self._fault_fires("rollback")
        if injected or table.content_hash() != transaction.checkpoint_digest():
            detail = (
                "injected rollback failure"
                if injected
                else "post-rollback table digest differs from pre-commit checkpoint"
            )
            self._record_incident(
                GuardIncident(
                    commit_seq=report.commit_seq,
                    action="rollback-failure",
                    participant=None,
                    detail=detail,
                    counterexample=counterexample,
                    seed=report.seed,
                )
            )
            raise RollbackFailure(
                f"guarded commit {report.commit_seq}: {detail}"
            ) from violation

        culprit = self._attribute(check)
        released = False
        if culprit is not None:
            offenses = self._offenses.get(culprit, 0) + 1
            self._offenses[culprit] = offenses
            controller.pipeline._quarantine(
                culprit,
                "GuardViolation",
                f"guarded commit {report.commit_seq}: "
                f"{len(check.mismatches)} mismatch(es) traced to this policy",
                attempts=1,
                state="guard",
                offenses=offenses,
            )
            self._m_quarantines.inc()
            if self._fault_fires("release"):
                # The injected race: something lifts the quarantine while
                # the guard is still mid-recovery.  The bad policy will
                # recompile; the guard must simply catch it again.
                controller.ops.release_quarantine(culprit, recompile=False)
                released = True

        self._reassert_last_good()

        incident = GuardIncident(
            commit_seq=report.commit_seq,
            action="rolled-back",
            participant=culprit,
            detail=(
                f"{len(check.mismatches)} mismatch(es), "
                f"{len(check.violations)} invariant violation(s) in "
                f"{check.checked}/{report.probes} probes "
                f"(seed {report.seed}); fabric restored"
            ),
            counterexample=counterexample,
            seed=report.seed,
            released_by_race=released,
        )
        self._record_incident(incident)
        raise GuardedCommitError(incident) from violation

    def _attribute(self, check: "CheckReport", dirty=None) -> Optional[str]:
        """Which participant's policy segment misforwarded?

        The counterexamples' provenance strings (``"policy:NAME"``) name
        the installed segment that decided; when they are unanimous the
        attribution is direct.  When no policy segment decided (the bad
        rule dropped the probe, say), a commit with exactly one dirty
        policy author is blamed on circumstantial evidence — for a
        deferred check the *snapshot* of dirty authors at commit time is
        passed in, since the live tracker has moved on.  Anything else
        stays unattributed — quarantining an innocent tenant is worse
        than leaving an incident for the operator.
        """
        names = set()
        for mismatch in check.mismatches:
            provenance = mismatch.provenance
            if provenance.startswith("policy:"):
                names.add(provenance.split(":", 1)[1])
        if len(names) == 1:
            return next(iter(names))
        if not names:
            if dirty is None:
                dirty = self.controller.pipeline.dirty.participants
            if len(dirty) == 1:
                return next(iter(dirty))
        return None

    def _reassert_last_good(self) -> None:
        """Re-commit the last-known-good table (expected: a no-op diff).

        The transaction rollback already restored the fabric; this
        re-derives the last committed result's target table and applies
        any residual patch, proving "restored" against the *cache*
        rather than trusting the checkpoint alone.  Deliberately not a
        full ``install()``: ``pipeline.on_committed`` must NOT run here
        — it would clear dirty flags for work the failed commit never
        delivered and release VNHs the restored result still advertises.
        """
        controller = self.controller
        last = controller._last_result
        if last is None:
            return
        table = controller.switch.table
        segments = last.segments or ((("all",), last.classifier),)
        placements = dict(getattr(last, "placements", None) or {})
        patch = diff(
            (rule for rule in table if is_base_cookie(rule.cookie)),
            target_specs(segments, placements=placements),
        )
        if patch.is_noop:
            return
        with table.transaction():
            patch.apply(table)

    def __repr__(self) -> str:
        return (
            f"CommitGuard(enabled={self.config.enabled}, "
            f"budget={self.config.probe_budget}, commits={self._commit_seq}, "
            f"incidents={len(self._incidents)})"
        )
