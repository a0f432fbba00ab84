"""Health-report data model for the SDX controller.

``controller.ops.health()`` aggregates what the resilience layer knows —
session states, quarantined participants, damped prefixes, per-peer
update-error counters — into one :class:`HealthReport`.  Operators of
real exchanges page on exactly this breakdown: *which* peer is flapping,
*whose* policy is broken, *what* traffic degraded to BGP defaults.

This module holds only plain data types so that every other layer can
import it without cycles.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Tuple

__all__ = ["HealthReport", "PeerErrorCounters", "QuarantineRecord"]


class QuarantineRecord(NamedTuple):
    """Why one participant was degraded to BGP-default forwarding."""

    participant: str
    error: str
    error_type: str
    compile_attempts: int = 1
    #: which defense quarantined them: "compile" (their policy failed to
    #: compile) or "guard" (their compiled policy misforwarded and the
    #: commit guard rolled the commit back)
    state: str = "compile"
    #: escalation counter — how many times this participant has been
    #: quarantined by the same defense (released-then-reoffended repeats)
    offenses: int = 1

    def __repr__(self) -> str:
        extra = f", {self.state}" + (
            f" x{self.offenses}" if self.offenses > 1 else ""
        )
        return (
            f"QuarantineRecord({self.participant!r}, "
            f"{self.error_type}: {self.error}{extra})"
        )


class PeerErrorCounters:
    """Per-peer RFC 7606 accounting: what went wrong on the update plane."""

    __slots__ = (
        "wire_errors",
        "validation_errors",
        "treat_as_withdraw",
        "session_resets",
        "last_error",
    )

    def __init__(self) -> None:
        self.wire_errors = 0
        self.validation_errors = 0
        self.treat_as_withdraw = 0
        self.session_resets = 0
        self.last_error: str = ""

    @property
    def total_errors(self) -> int:
        return self.wire_errors + self.validation_errors

    def snapshot(self) -> Mapping[str, int]:
        return {
            "wire_errors": self.wire_errors,
            "validation_errors": self.validation_errors,
            "treat_as_withdraw": self.treat_as_withdraw,
            "session_resets": self.session_resets,
        }

    def __repr__(self) -> str:
        return (
            f"PeerErrorCounters(wire={self.wire_errors}, "
            f"validation={self.validation_errors}, "
            f"treat_as_withdraw={self.treat_as_withdraw}, "
            f"resets={self.session_resets})"
        )


class HealthReport(NamedTuple):
    """One consistent snapshot of the exchange's operational state."""

    #: peer -> session state value ("established", "failed", ...)
    sessions: Mapping[str, str]
    #: participant -> why their policy is quarantined
    quarantined: Mapping[str, QuarantineRecord]
    #: (peer, prefix) pairs currently suppressed by flap damping
    damped: Tuple[Tuple[str, str], ...]
    #: peer -> number of stale (graceful-restart retained) routes
    stale_routes: Mapping[str, int]
    #: peer -> update-plane error counters
    update_errors: Mapping[str, Mapping[str, int]]
    #: prefixes currently served by fast-path override rules
    fast_path_prefixes: int
    #: total installed flow rules
    flow_rules: int
    #: lifetime resilience event counts (damping suppressions,
    #: quarantines, session transitions), sourced from telemetry
    events: Mapping[str, int] = {}
    #: the commit guard's bounded incident log (GuardIncident tuples:
    #: rollbacks with counterexamples, probe failures), oldest first
    incidents: Tuple = ()
    #: per-participant admission state (rejections, active backoff),
    #: only participants with any rejection history appear
    admission: Mapping[str, Mapping] = {}
    #: control-plane runtime state: the event-loop runtime's mode,
    #: queue depths, peak depth, rejection and in-flight counters
    runtime: Mapping[str, object] = {}

    @property
    def degraded(self) -> bool:
        """True when any participant is not getting full service."""
        return (
            bool(self.quarantined)
            or bool(self.damped)
            or any(state != "established" for state in self.sessions.values())
        )

    def summary(self) -> str:
        """A one-paragraph operator-facing digest."""
        down = sorted(
            peer for peer, state in self.sessions.items() if state != "established"
        )
        parts = [
            f"{len(self.sessions)} sessions ({len(self.sessions) - len(down)} up)",
            f"{len(self.quarantined)} quarantined",
            f"{len(self.damped)} damped prefixes",
            f"{self.flow_rules} flow rules",
        ]
        if down:
            parts.append("down: " + ", ".join(down))
        if self.quarantined:
            parts.append("quarantined: " + ", ".join(sorted(self.quarantined)))
        if self.incidents:
            parts.append(f"{len(self.incidents)} guard incidents")
        throttled = sorted(
            name
            for name, state in self.admission.items()
            if state.get("in_backoff")
        )
        if throttled:
            parts.append("throttled: " + ", ".join(throttled))
        return "; ".join(parts)
