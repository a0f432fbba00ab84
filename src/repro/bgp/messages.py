"""BGP message types exchanged between participants and the route server.

The SDX only needs UPDATE semantics (announce/withdraw); session
housekeeping (OPEN/KEEPALIVE/NOTIFICATION) is modelled by
:mod:`repro.bgp.session` at the state-machine level instead of the wire
level, which is all the paper's evaluation exercises.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional, Sequence, Tuple

from repro.bgp.attributes import RouteAttributes
from repro.netutils.ip import IPv4Prefix

__all__ = ["Announcement", "BGPUpdate", "Route", "Withdrawal"]


class Announcement:
    """One prefix announced with its path attributes.

    ``export_to`` optionally restricts which route-server peers may see
    the route (the standard IXP route-server export-control feature the
    paper leans on when AS B hides prefix ``p4`` from AS A); ``None``
    exports to everyone.
    """

    __slots__ = ("prefix", "attributes", "export_to")

    def __init__(
        self,
        prefix: "IPv4Prefix | str",
        attributes: RouteAttributes,
        export_to: Optional[Iterable[str]] = None,
    ) -> None:
        self.prefix = prefix if type(prefix) is IPv4Prefix else IPv4Prefix(prefix)
        self.attributes = attributes
        self.export_to: Optional[FrozenSet[str]] = (
            None if export_to is None else frozenset(export_to)
        )

    def exported_to(self, peer: str) -> bool:
        """True when this announcement may be re-advertised to ``peer``."""
        return self.export_to is None or peer in self.export_to

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Announcement):
            return NotImplemented
        return (
            self.prefix == other.prefix
            and self.attributes == other.attributes
            and self.export_to == other.export_to
        )

    def __hash__(self) -> int:
        return hash((self.prefix, self.attributes, self.export_to))

    def __repr__(self) -> str:
        scope = "" if self.export_to is None else f", export_to={sorted(self.export_to)}"
        return f"Announcement({self.prefix}, {self.attributes!r}{scope})"


class Withdrawal:
    """A previously announced prefix being withdrawn."""

    __slots__ = ("prefix",)

    def __init__(self, prefix: "IPv4Prefix | str") -> None:
        self.prefix = IPv4Prefix(prefix)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Withdrawal):
            return NotImplemented
        return self.prefix == other.prefix

    def __hash__(self) -> int:
        return hash(("Withdrawal", self.prefix))

    def __repr__(self) -> str:
        return f"Withdrawal({self.prefix})"


class BGPUpdate:
    """An UPDATE message from one peer: announcements plus withdrawals."""

    __slots__ = ("peer", "announced", "withdrawn", "time")

    def __init__(
        self,
        peer: str,
        announced: Sequence[Announcement] = (),
        withdrawn: Sequence[Withdrawal] = (),
        time: float = 0.0,
    ) -> None:
        self.peer = peer
        self.announced: Tuple[Announcement, ...] = tuple(announced)
        self.withdrawn: Tuple[Withdrawal, ...] = tuple(withdrawn)
        self.time = float(time)

    @property
    def prefixes(self) -> FrozenSet[IPv4Prefix]:
        """Every prefix this update touches."""
        touched = {a.prefix for a in self.announced}
        touched.update(w.prefix for w in self.withdrawn)
        return frozenset(touched)

    def __repr__(self) -> str:
        return (
            f"BGPUpdate(peer={self.peer!r}, announced={len(self.announced)}, "
            f"withdrawn={len(self.withdrawn)}, time={self.time})"
        )


class Route:
    """A route as stored in a RIB: a prefix, its attributes, and provenance."""

    __slots__ = ("prefix", "attributes", "learned_from", "export_to")

    def __init__(
        self,
        prefix: "IPv4Prefix | str",
        attributes: RouteAttributes,
        learned_from: str,
        export_to: Optional[FrozenSet[str]] = None,
    ) -> None:
        self.prefix = IPv4Prefix(prefix)
        self.attributes = attributes
        self.learned_from = learned_from
        self.export_to = export_to

    def exported_to(self, peer: str) -> bool:
        """True when the route server may re-advertise this route to ``peer``."""
        return self.export_to is None or peer in self.export_to

    @property
    def next_hop(self):
        return self.attributes.next_hop

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Route):
            return NotImplemented
        return (
            self.prefix == other.prefix
            and self.attributes == other.attributes
            and self.learned_from == other.learned_from
            and self.export_to == other.export_to
        )

    def __hash__(self) -> int:
        return hash((self.prefix, self.attributes, self.learned_from, self.export_to))

    def __repr__(self) -> str:
        return (
            f"Route({self.prefix} via {self.attributes.next_hop} "
            f"from {self.learned_from!r}, as_path=[{self.attributes.as_path}])"
        )
