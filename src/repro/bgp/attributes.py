"""BGP path attributes.

The SDX route server stores and ranks routes by the standard attribute
set; participants' SDX policies may additionally *query* attributes
(e.g. the AS-path regex matching of Section 3.2's
``RIB.filter('as_path', '.*43515$')``).
"""

from __future__ import annotations

import enum
import re
from typing import FrozenSet, Iterable, Optional, Tuple, Union

from repro.netutils.ip import IPv4Address

__all__ = ["ASPath", "Community", "Origin", "RouteAttributes", "community"]


class Origin(enum.IntEnum):
    """BGP ORIGIN attribute; lower is preferred in the decision process."""

    IGP = 0
    EGP = 1
    INCOMPLETE = 2


class ASPath:
    """An AS_PATH: the sequence of AS numbers a route traversed.

    Stored most-recent-first, as received (index 0 is the neighbor that
    sent the route; the last element is the origin AS).  Supports the
    regex queries SDX policies use, applied to the space-separated
    string form — ``.*43515$`` matches every path originated by AS 43515.
    """

    __slots__ = ("_asns",)

    def __init__(self, asns: Iterable[int] = ()) -> None:
        self._asns: Tuple[int, ...] = tuple(map(int, asns))
        if self._asns and not (0 < min(self._asns) and max(self._asns) < (1 << 32)):
            for asn in self._asns:
                if not 0 < asn < (1 << 32):
                    raise ValueError(f"AS number out of range: {asn}")

    @property
    def asns(self) -> Tuple[int, ...]:
        return self._asns

    @property
    def origin_as(self) -> Optional[int]:
        """The AS that originated the route (last path element)."""
        return self._asns[-1] if self._asns else None

    @property
    def first_as(self) -> Optional[int]:
        """The neighbor AS the route was learned from (first element)."""
        return self._asns[0] if self._asns else None

    def __len__(self) -> int:
        return len(self._asns)

    def prepend(self, asn: int, count: int = 1) -> "ASPath":
        """Return a new path with ``asn`` prepended ``count`` times."""
        return ASPath((asn,) * count + self._asns)

    def contains_loop(self, asn: int) -> bool:
        """True when ``asn`` already appears in the path (loop detection)."""
        return asn in self._asns

    def matches(self, pattern: "str | re.Pattern[str]") -> bool:
        """Regex search over the space-separated string form."""
        if isinstance(pattern, str):
            pattern = re.compile(pattern)
        return pattern.search(str(self)) is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ASPath):
            return NotImplemented
        return self._asns == other._asns

    def __hash__(self) -> int:
        return hash(("ASPath", self._asns))

    def __iter__(self):
        return iter(self._asns)

    def __str__(self) -> str:
        return " ".join(str(asn) for asn in self._asns)

    def __repr__(self) -> str:
        return f"ASPath({list(self._asns)!r})"


class Community(Tuple[int, int]):
    """A BGP community ``asn:value``, the usual route-server control knob."""

    def __new__(cls, asn: int, value: int) -> "Community":
        if not 0 <= asn < (1 << 16) or not 0 <= value < (1 << 16):
            raise ValueError(f"community parts out of range: {asn}:{value}")
        return super().__new__(cls, (asn, value))

    @property
    def asn(self) -> int:
        return self[0]

    @property
    def value(self) -> int:
        return self[1]

    @classmethod
    def parse(cls, text: str) -> "Community":
        asn_text, _, value_text = text.partition(":")
        return cls(int(asn_text), int(value_text))

    def __str__(self) -> str:
        return f"{self[0]}:{self[1]}"

    def __repr__(self) -> str:
        return f"Community({self[0]}:{self[1]})"


def community(value: Union[str, Tuple[int, int], Community]) -> Community:
    """Coerce ``"65000:120"`` or ``(65000, 120)`` into a :class:`Community`."""
    if isinstance(value, Community):
        return value
    if isinstance(value, str):
        return Community.parse(value)
    asn, val = value
    return Community(asn, val)


class RouteAttributes:
    """The per-route attribute bundle carried in BGP announcements."""

    __slots__ = ("as_path", "next_hop", "origin", "med", "local_pref", "communities")

    def __init__(
        self,
        as_path: Union[ASPath, Iterable[int]],
        next_hop: "IPv4Address | str | int",
        origin: Origin = Origin.IGP,
        med: int = 0,
        local_pref: int = 100,
        communities: Iterable[Union[str, Tuple[int, int], Community]] = (),
    ) -> None:
        # Immutable values given in their own type are shared, not copied.
        self.as_path = as_path if isinstance(as_path, ASPath) else ASPath(as_path)
        self.next_hop = (
            next_hop if type(next_hop) is IPv4Address else IPv4Address(next_hop)
        )
        self.origin = origin if type(origin) is Origin else Origin(origin)
        self.med = int(med)
        self.local_pref = int(local_pref)
        self.communities: FrozenSet[Community] = frozenset(map(community, communities))

    def replace(self, **updates) -> "RouteAttributes":
        """Return a copy with the given attributes replaced.

        The route server uses this to rewrite ``next_hop`` to a virtual
        next-hop without touching the rest of the route.
        """
        values = {
            "as_path": self.as_path,
            "next_hop": self.next_hop,
            "origin": self.origin,
            "med": self.med,
            "local_pref": self.local_pref,
            "communities": self.communities,
        }
        values.update(updates)
        return RouteAttributes(**values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RouteAttributes):
            return NotImplemented
        return (
            self.as_path == other.as_path
            and self.next_hop == other.next_hop
            and self.origin == other.origin
            and self.med == other.med
            and self.local_pref == other.local_pref
            and self.communities == other.communities
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.as_path,
                self.next_hop,
                self.origin,
                self.med,
                self.local_pref,
                self.communities,
            )
        )

    def __repr__(self) -> str:
        return (
            f"RouteAttributes(as_path=[{self.as_path}], next_hop={self.next_hop}, "
            f"origin={self.origin.name}, med={self.med}, local_pref={self.local_pref})"
        )
