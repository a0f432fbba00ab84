"""Faceted controller API: ``controller.routing`` / ``.policy`` / ``.ops``.

The flat ``SDXController`` surface had grown to ~50 methods mixing
three very different audiences — BGP speakers, policy authors, and
operators.  The facets split that surface into cohesive namespaces
while staying *thin views over existing controller state*: no facet
owns data, every method reads and writes the same structures the flat
API always did, so the two surfaces can never disagree.

* :class:`RoutingFacet` (``controller.routing``) — the BGP side:
  ``process_update`` / ``batched_updates``, the ``announce`` /
  ``withdraw`` conveniences, SDX route origination, re-advertisement
  queries, and border-router feeds.
* :class:`PolicyFacet` (``controller.policy``) — the policy-author
  side: ``set_policies``, service-chain definition, and the read views
  over installed policies and chains.
* :class:`OpsFacet` (``controller.ops``) — the operator side: health,
  metrics, quarantine management, commit hooks, the fast-path log,
  ``churn()`` — the structured reconciliation counters of the delta
  fabric committer — and ``verify()``, one pass of the
  :mod:`repro.verify` differential oracle over the installed tables.

The facets are *the* controller API: the historical flat methods (and
their deprecation-warning shims) are gone.

Every mutating entry point is split in two: a module-level ``_apply_*``
function holding the actual body, and the facet method that submits a
typed event to ``controller.runtime``, whose ingress task calls the
body (see :mod:`repro.runtime`).  Outside ``runtime.pipelined()`` a
submission auto-drains, so the facet call still returns the body's
result (or raises its error) once the work is installed; the
update→install latency lands on the ``sdx_update_install_seconds``
histogram, labelled by event kind.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
)

from repro.bgp.attributes import RouteAttributes
from repro.bgp.messages import Announcement, BGPUpdate, Withdrawal
from repro.bgp.route_server import BestPathChange
from repro.dataplane.reconcile import ChurnStats, CommitReport
from repro.netutils.ip import IPv4Prefix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.compiler import CompilationResult
    from repro.core.controller import SDXController
    from repro.core.incremental import FastPathUpdate
    from repro.core.participant import SDXPolicySet
    from repro.dataplane.router import BorderRouter
    from repro.resilience.health import HealthReport, QuarantineRecord
    from repro.verify.checker import CheckReport

__all__ = ["OpsFacet", "PolicyFacet", "RoutingFacet"]


# ---------------------------------------------------------------------------
# Shared apply bodies.
#
# These module-level functions are the single implementation of every
# mutating control-plane operation.  The runtime calls them from its
# ingress task via the typed events in repro.runtime.events (or directly,
# for a re-entrant call from inside the loop).  They stay free of
# runtime/facet knowledge, so pipelined and auto-drained submissions
# execute identical code.
# ---------------------------------------------------------------------------


def _apply_process_update(
    controller: "SDXController", update: BGPUpdate
) -> List[BestPathChange]:
    if controller.admission is not None:
        controller.admission.admit_update(update)
    return controller.pipeline.ingress.submit(update)


def _apply_set_policies(
    controller: "SDXController",
    name: str,
    policy_set: "SDXPolicySet",
    recompile: bool = True,
) -> None:
    from repro.pipeline.events import PolicyChanged

    controller.config.participant(name)
    if controller.admission is not None:
        controller.admission.admit_policy_edit(name, policy_set)
    controller._quarantined.pop(name, None)
    if policy_set.is_empty:
        controller._policies.pop(name, None)
    else:
        controller._policies[name] = policy_set
    controller.pipeline.bus.publish(PolicyChanged(name))
    controller._maybe_compile(recompile)


def _apply_originate(
    controller: "SDXController", name: str, prefix: "IPv4Prefix | str"
) -> None:
    prefix = IPv4Prefix(prefix)
    spec = controller.config.participant(name)
    if controller.ownership is not None:
        controller.ownership.require(spec.asn, prefix)
    controller._originated.setdefault(name, set()).add(prefix)
    # Origination changes the FEC input even when the announcement
    # does not move a best path, so mark routes dirty explicitly.
    controller.pipeline.dirty.mark_routes()
    attributes = RouteAttributes(
        as_path=[spec.asn],
        next_hop=controller.config.vnh_pool.network,
    )
    update = BGPUpdate(name, announced=[Announcement(prefix, attributes)])
    _apply_process_update(controller, update)


def _apply_withdraw_origination(
    controller: "SDXController", name: str, prefix: "IPv4Prefix | str"
) -> None:
    prefix = IPv4Prefix(prefix)
    originated = controller._originated.get(name)
    if originated is not None:
        originated.discard(prefix)
    controller.pipeline.dirty.mark_routes()
    _apply_process_update(controller, BGPUpdate(name, withdrawn=[Withdrawal(prefix)]))


def _apply_define_chain(
    controller: "SDXController", chain: "ServiceChain", recompile: bool = False
) -> None:
    from repro.core.chaining import validate_chains
    from repro.pipeline.events import ChainsChanged

    validate_chains([chain], controller.config)
    controller._chains[chain.name] = chain
    controller.pipeline.bus.publish(ChainsChanged(chain.name))
    controller._maybe_compile(recompile)


def _apply_remove_chain(
    controller: "SDXController", name: str, recompile: bool = False
) -> None:
    from repro.pipeline.events import ChainsChanged

    if controller._chains.pop(name, None) is not None:
        controller.pipeline.bus.publish(ChainsChanged(name))
    controller._maybe_compile(recompile)


def _apply_release_quarantine(
    controller: "SDXController", name: str, recompile: bool = True
) -> bool:
    from repro.pipeline.events import QuarantineLifted

    released = controller._quarantined.pop(name, None) is not None
    if released:
        controller.pipeline.bus.publish(QuarantineLifted(name))
        controller._maybe_compile(recompile)
    return released


class _Facet:
    """Base: a named view over one controller's state."""

    __slots__ = ("_controller",)

    def __init__(self, controller: "SDXController") -> None:
        self._controller = controller

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._controller!r})"


class RoutingFacet(_Facet):
    """BGP input, origination, and re-advertisement (``controller.routing``)."""

    __slots__ = ()

    # -- BGP input ---------------------------------------------------------

    def process_update(self, update: BGPUpdate) -> List[BestPathChange]:
        """Feed one BGP UPDATE from a participant into the route server.

        Best-path changes trigger the fast path automatically (when a
        base compilation exists and the fast path is enabled).  With
        resilience enabled, the update first passes the RFC 7606 guard
        and flap-damping bookkeeping.

        With an admission plane configured, the update is first metered
        against the peer's announcement budget; a rejection raises
        :class:`~repro.guard.admission.AnnouncementRateExceeded` (with
        ``retry_after``) before the route server sees anything.

        The update is submitted to the runtime's bounded ingress queue;
        outside a ``runtime.pipelined()`` block the call blocks until
        the update is fully installed and returns the changes.
        """
        return self._controller.runtime.submit_update(update)

    def batched_updates(self):
        """Context manager coalescing a BGP burst's fast-path work.

        Updates inside the block apply to the route server immediately
        (RIB ordering preserved); the resulting best-path changes are
        deduplicated per prefix and handed to the fast path once, when
        the block closes.
        """
        return self._controller.pipeline.ingress.batch()

    def announce(
        self,
        name: str,
        prefix: "IPv4Prefix | str",
        attributes: RouteAttributes,
        export_to=None,
    ) -> List[BestPathChange]:
        """Convenience wrapper for a participant announcing a route."""
        update = BGPUpdate(
            name, announced=[Announcement(prefix, attributes, export_to=export_to)]
        )
        return self.process_update(update)

    def withdraw(self, name: str, prefix: "IPv4Prefix | str") -> List[BestPathChange]:
        """Convenience wrapper for a participant withdrawing a route."""
        update = BGPUpdate(name, withdrawn=[Withdrawal(prefix)])
        return self.process_update(update)

    # -- SDX route origination (Section 3.2) -------------------------------

    def originate(self, name: str, prefix: "IPv4Prefix | str") -> None:
        """Originate ``prefix`` from the SDX on behalf of ``name``.

        The route enters the route server like any announcement, with
        the participant's own ASN as the path and a placeholder next-hop
        from the VNH pool (the compiler always assigns such prefixes a
        real VNH, because senders can only reach them through a tag).

        When the controller was built with an ownership registry (the
        RPKI stand-in), the participant must hold a covering ROA.
        """
        return self._controller.runtime.submit_originate(name, prefix)

    def withdraw_origination(self, name: str, prefix: "IPv4Prefix | str") -> None:
        """Withdraw a previously originated prefix."""
        return self._controller.runtime.submit_withdraw_origination(name, prefix)

    def originated(self) -> Mapping[str, FrozenSet[IPv4Prefix]]:
        """Prefixes the SDX currently originates, per participant."""
        return {
            name: frozenset(prefixes)
            for name, prefixes in self._controller._originated.items()
        }

    # -- re-advertisement and router feeds ---------------------------------

    def advertisements(self, name: str) -> List[Announcement]:
        """Best routes re-advertised to ``name``, next-hops VNH-rewritten."""
        return self._controller.advertisements(name)

    def attach_router(self, name: str, router: "BorderRouter") -> None:
        """Wire a border router to receive this participant's advertisements."""
        self._controller.attach_router(name, router)

    def refresh_prefix(self, prefix: "IPv4Prefix | str") -> "FastPathUpdate":
        """Force one prefix through the fast path (damping catch-up)."""
        return self._controller.refresh_prefix(prefix)


class PolicyFacet(_Facet):
    """Policy and service-chain management (``controller.policy``)."""

    __slots__ = ()

    def set_policies(
        self, name: str, policy_set: "SDXPolicySet", recompile: bool = True
    ) -> None:
        """Install a participant's policy set, optionally recompiling now.

        Submitting a new policy set clears any quarantine on the
        participant — it is their chance to ship a fix.

        With an admission plane configured, the edit is first metered
        against the participant's policy-edit rate and compiled-rule
        budget; a typed :class:`~repro.guard.admission.AdmissionError`
        rejection leaves every controller structure untouched.
        """
        return self._controller.runtime.submit_policies(
            name, policy_set, recompile=recompile
        )

    def policies(self) -> Mapping[str, "SDXPolicySet"]:
        """The currently installed policy sets, by participant."""
        return dict(self._controller._policies)

    # -- service chains (Section 8 extension) ------------------------------

    def define_chain(self, chain: "ServiceChain", recompile: bool = False) -> None:
        """Register a middlebox service chain participants may ``fwd()`` into."""
        return self._controller.runtime.submit_define_chain(chain, recompile=recompile)

    def remove_chain(self, name: str, recompile: bool = False) -> None:
        """Deregister a service chain (idempotent)."""
        return self._controller.runtime.submit_remove_chain(name, recompile=recompile)

    def chains(self) -> Mapping[str, "ServiceChain"]:
        """The registered service chains, by name."""
        return dict(self._controller._chains)

    def chain_hop_ports(self) -> FrozenSet[str]:
        """Every physical port currently serving as a chain hop."""
        return frozenset(
            hop
            for chain in self._controller._chains.values()
            for hop in chain.hops
        )


class OpsFacet(_Facet):
    """Operational surface: health, metrics, quarantine, commit hooks
    (``controller.ops``)."""

    __slots__ = ()

    # -- health and metrics ------------------------------------------------

    def health(self) -> "HealthReport":
        """One consistent snapshot of the exchange's operational state.

        Works with or without the resilience layer attached; damping
        and update-error fields are simply empty without it.
        """
        return self._controller._health_snapshot()

    def metrics(self) -> Dict[str, Dict[str, Any]]:
        """A structured snapshot of every metric (JSON-friendly).

        Counters and histograms accumulate as events happen; sampled
        gauges (VNH pool occupancy, fast-path footprint) are refreshed
        at snapshot time so the view is internally consistent.
        """
        controller = self._controller
        controller._refresh_gauges()
        return controller.telemetry.snapshot()

    def metrics_text(self) -> str:
        """The same snapshot in Prometheus text exposition format."""
        controller = self._controller
        controller._refresh_gauges()
        return controller.telemetry.exposition()

    def churn(self) -> ChurnStats:
        """Cumulative fabric-reconciliation counters, structured.

        The delta committer's added/removed/retained/reprioritized
        totals plus the latest :class:`CommitReport` — read these
        instead of parsing ``metrics_text()`` for the
        ``sdx_fabric_rules_*`` series.
        """
        return self._controller.pipeline.committer.churn_stats()

    def last_commit(self) -> Optional[CommitReport]:
        """The most recent fabric commit's report (None before any)."""
        return self._controller.pipeline.committer.last_report

    # -- fast path ---------------------------------------------------------

    @property
    def fast_path_log(self) -> List["FastPathUpdate"]:
        """Every fast-path invocation since the last full compilation."""
        return list(self._controller._fast_path_log)

    # -- quarantine (fault-isolated compilation) ---------------------------

    def quarantined(self) -> Mapping[str, "QuarantineRecord"]:
        """Participants degraded to BGP-default forwarding, with diagnoses."""
        return dict(self._controller._quarantined)

    def release_quarantine(self, name: str, recompile: bool = True) -> bool:
        """Re-admit a quarantined participant's policies (operator action)."""
        return self._controller.runtime.submit_release_quarantine(
            name, recompile=recompile
        )

    # -- verification (the repro.verify oracle) ----------------------------

    def verify(
        self,
        probes: int = 64,
        seed: int = 0,
        invariants: bool = True,
        budget: Optional[int] = None,
        focus: Optional[Iterable[IPv4Prefix]] = None,
    ) -> "CheckReport":
        """One differential + invariant pass over the installed tables.

        Samples ``probes`` router-faithful packets, diffs the compiled
        data plane against the reference interpreter, and sweeps the
        structural invariants (isolation, BGP consistency, loop freedom,
        VNH state).  Inspect ``.ok`` / ``summary()`` on the returned
        :class:`~repro.verify.checker.CheckReport`; results also land in
        the ``sdx_verify_*`` metric family.

        ``budget`` caps the pass at exactly that many probes (overriding
        ``probes``) and ``focus`` concentrates sampling on a prefix set
        — together they replay a guarded commit's check precisely:
        ``ops.verify(budget=cfg.probe_budget, seed=incident.seed)``.
        """
        from repro.verify.checker import DifferentialChecker

        return DifferentialChecker(self._controller).check(
            probes=probes,
            seed=seed,
            invariants=invariants,
            budget=budget,
            focus=focus,
        )

    # -- commit hooks ------------------------------------------------------

    def add_commit_hook(self, hook: Callable[["CompilationResult"], None]) -> None:
        """Run ``hook`` inside every fabric-commit transaction.

        A raising hook aborts the commit and triggers rollback — the
        fault-injection harness uses this to exercise mid-commit
        failures; deployments could use it for external validation.
        """
        self._controller._commit_hooks.append(hook)

    def remove_commit_hook(self, hook: Callable[["CompilationResult"], None]) -> None:
        if hook in self._controller._commit_hooks:
            self._controller._commit_hooks.remove(hook)
