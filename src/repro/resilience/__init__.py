"""The SDX resilience layer.

The paper's correctness story — "the data plane stays in sync with BGP"
(Figure 5a) — is only meaningful if the exchange degrades sanely
*during* failures.  This package supplies the machinery:

* :mod:`~repro.resilience.liveness` — hold/keepalive timers, backoff
  reconnection, graceful restart (RFC 4724);
* :mod:`~repro.resilience.damping` — route-flap damping (RFC 2439) in
  front of the fast-path compiler;
* :mod:`~repro.resilience.protection` — revised update error handling
  (RFC 7606): treat-as-withdraw, per-peer error counters, threshold
  session resets;
* :mod:`~repro.resilience.faults` — a deterministic, seedable
  fault-injection harness;
* :mod:`~repro.resilience.health` — the controller's health-report data
  model.

:class:`ResilienceCoordinator` wires the first three onto a live
:class:`~repro.core.controller.SDXController`; the controller exposes it
via ``controller.enable_resilience(...)`` and surfaces the aggregate
state through ``controller.ops.health()``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.bgp.route_server import BestPathChange
from repro.netutils.ip import IPv4Prefix
from repro.resilience.damping import DampingConfig, FlapDamper
from repro.resilience.faults import (
    CommitSabotage,
    FaultInjector,
    PoisonPill,
    PolicyPoisonError,
    SkewedClock,
)
from repro.resilience.health import HealthReport, PeerErrorCounters, QuarantineRecord
from repro.resilience.liveness import (
    LivenessConfig,
    PeerLiveness,
    SessionLivenessManager,
)
from repro.resilience.protection import ProtectionConfig, UpdateGuard, salvage_update
from repro.sim.clock import Simulator, TimerHandle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.bgp.messages import BGPUpdate
    from repro.core.controller import SDXController

__all__ = [
    "CommitSabotage",
    "DampingConfig",
    "FaultInjector",
    "FlapDamper",
    "HealthReport",
    "LivenessConfig",
    "PeerErrorCounters",
    "PeerLiveness",
    "PoisonPill",
    "PolicyPoisonError",
    "ProtectionConfig",
    "QuarantineRecord",
    "ResilienceCoordinator",
    "SessionLivenessManager",
    "SkewedClock",
    "UpdateGuard",
    "salvage_update",
]


class ResilienceCoordinator:
    """Liveness + damping + update protection wired onto one controller.

    The coordinator intercepts the controller's update stream: updates
    are validated by the :class:`UpdateGuard`, flap penalties are
    recorded per (peer, prefix), and best-path changes for suppressed
    prefixes are withheld from the fast-path engine until their penalty
    decays — at which point a single catch-up recompilation is
    scheduled on the clock.
    """

    def __init__(
        self,
        controller: "SDXController",
        # Simulator or anything duck-typing its scheduling surface —
        # the controller passes its runtime's TimerWheel unless given a
        # clock, so all timers share one virtual clock.
        clock: Optional[Simulator] = None,
        liveness: Optional[LivenessConfig] = None,
        damping: Optional[DampingConfig] = None,
        protection: Optional[ProtectionConfig] = None,
        reconnect_probe: Optional[Callable[[str], bool]] = None,
    ) -> None:
        self.controller = controller
        self.clock = clock if clock is not None else Simulator()
        server = controller.route_server
        self.guard = UpdateGuard(
            server, protection or ProtectionConfig(), on_message=self._heard
        )
        self.damper = FlapDamper(self.clock, damping or DampingConfig())
        self.liveness = SessionLivenessManager(
            server, self.clock, liveness or LivenessConfig(), reconnect_probe
        )
        self.liveness.watch_all()
        self._refresh_timers: Dict[IPv4Prefix, TimerHandle] = {}
        #: best-path changes withheld from the fast path by damping
        self.suppressed_changes = 0
        registry = getattr(controller, "telemetry", None)
        self._m_suppressed = (
            registry.counter(
                "sdx_damping_suppressed_total",
                "Best-path changes withheld from the fast path by flap damping",
            )
            if registry is not None
            else None
        )

    # -- update-plane entry points ------------------------------------------------

    def process_update(self, update: "BGPUpdate") -> List[BestPathChange]:
        """Record flap penalties, then validate and apply the update."""
        self._record_flaps(update)
        return self.guard.process_update(update)

    def process_wire(
        self, peer: str, data: bytes, time: float = 0.0
    ) -> List[BestPathChange]:
        """Decode and apply one wire message (malformed bytes never raise)."""
        return self.guard.process_wire(peer, data, time)

    def end_of_rib(self, peer: str) -> List[BestPathChange]:
        """Graceful-restart End-of-RIB: sweep routes the peer dropped."""
        return self.controller.route_server.end_of_rib(peer)

    def _heard(self, peer: str) -> None:
        self.liveness.heard_from(peer)

    def _record_flaps(self, update: "BGPUpdate") -> None:
        server = self.controller.route_server
        peer = update.peer
        for withdrawal in update.withdrawn:
            if server.route_from(peer, withdrawal.prefix) is not None:
                self.damper.record_withdraw(peer, withdrawal.prefix)
        for announcement in update.announced:
            prior = server.route_from(peer, announcement.prefix)
            if prior is not None:
                if prior.attributes != announcement.attributes:
                    self.damper.record_attribute_change(peer, announcement.prefix)
            elif self.damper.flap_count(peer, announcement.prefix):
                self.damper.record_readvertise(peer, announcement.prefix)

    # -- fast-path gating -----------------------------------------------------------

    def filter_changes(self, changes: List[BestPathChange]) -> List[BestPathChange]:
        """Drop changes for damped prefixes; schedule their catch-up."""
        kept: List[BestPathChange] = []
        for change in changes:
            if self.damper.is_prefix_suppressed(change.prefix):
                self.suppressed_changes += 1
                if self._m_suppressed is not None:
                    self._m_suppressed.inc()
                self._schedule_refresh(change.prefix)
            else:
                kept.append(change)
        return kept

    def _schedule_refresh(self, prefix: IPv4Prefix) -> None:
        timer = self._refresh_timers.get(prefix)
        if timer is not None and timer.active:
            return
        delay = self.damper.prefix_reuse_delay(prefix)
        self._refresh_timers[prefix] = self.clock.schedule_in(
            delay, lambda: self._reuse_check(prefix)
        )

    def _reuse_check(self, prefix: IPv4Prefix) -> None:
        if self.damper.is_prefix_suppressed(prefix):
            # Penalty grew while we slept (the route kept flapping).
            self._refresh_timers.pop(prefix, None)
            self._schedule_refresh(prefix)
            return
        self._refresh_timers.pop(prefix, None)
        self.controller.refresh_prefix(prefix)

    # -- reporting ---------------------------------------------------------------------

    def damped_routes(self):
        """(peer, prefix) pairs currently suppressed, sorted."""
        return self.damper.suppressed_routes()

    def __repr__(self) -> str:
        return (
            f"ResilienceCoordinator(clock={self.clock.now}, "
            f"damped={len(self.damper.suppressed_routes())})"
        )
