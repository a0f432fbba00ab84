"""Topology providers: synthetic and data-driven exchange construction.

The ROADMAP's "Internet-realistic topology ingestion" item: instead of
inventing membership shapes with knobs, a :class:`TopologyProvider`
derives the exchange — IXP membership, per-AS prefix skew, multihoming
and the peering matrix — from *data*, and every provider yields the
same :class:`~repro.workloads.topology_gen.SyntheticIXP` record the
rest of the stack (experiments, scenario suites, benchmarks) already
consumes.

Two data formats are ingested, both as checked-in fixture snapshots
(no network access, mirroring the netsys-lab ``GMLDataProvider``
pattern):

* **CAIDA AS-relationship** (serial-1 ``as1|as2|rel`` lines, ``rel``
  -1 for provider→customer and 0 for peer-to-peer) paired with a
  ``.members`` census — aggregated from a pfx2as-style snapshot into
  ``asn|prefixes|ports`` rows.  The AS graph gives the peering matrix
  and multihoming (an AS's member providers re-announce its prefixes
  with a longer AS path); the census gives membership and the real
  prefix skew.
* **GML** graphs whose nodes carry ``asn`` / ``prefixes`` / ``ports``
  attributes and whose edges carry ``rel`` (``"p2c"``/``"p2p"``).

Data-driven construction is fully deterministic — no RNG anywhere —
so fixture digests are byte-stable across runs and processes (see ``tests/property/test_workload_determinism.py``).
"""

from __future__ import annotations

import os
import re
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

try:  # Protocol is typing-only; 3.9+ has it in typing
    from typing import Protocol
except ImportError:  # pragma: no cover - pre-3.8 fallback
    Protocol = object  # type: ignore[assignment]

from repro.bgp.attributes import RouteAttributes
from repro.bgp.messages import Announcement, BGPUpdate
from repro.ixp.topology import IXPConfig
from repro.netutils.ip import IPv4Prefix
from repro.workloads.prefixes import allocate_prefix_pool, skew_summary
from repro.workloads.topology_gen import (
    ASCategory,
    PORTS_PER_PARTICIPANT,
    SyntheticIXP,
    generate_ixp,
    peering_lan_ports,
)

__all__ = [
    "ASRelationshipProvider",
    "GMLProvider",
    "MemberRecord",
    "SyntheticProvider",
    "TopologyProvider",
    "available_fixtures",
    "fixture_path",
    "load_fixture",
]

#: Directory holding the checked-in fixture snapshots.
FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")

#: Prefix pools by census size: the /8 used everywhere else, widened to
#: a /7 for censuses beyond 65,536 /24s (the acceptance fixture carries
#: a 100k+ prefix table).
_POOL_SMALL = IPv4Prefix("10.0.0.0/8")
_POOL_LARGE = IPv4Prefix("10.0.0.0/7")


class TopologyProvider(Protocol):
    """Anything that can build a loaded exchange.

    The existing synthetic generator and the data-driven ingesters both
    satisfy this; experiment drivers accept any of them.
    """

    name: str

    def build(self) -> SyntheticIXP:  # pragma: no cover - protocol
        """Construct the exchange (deterministic per provider instance)."""
        ...


class SyntheticProvider:
    """The §6.1 synthetic generator behind the provider interface."""

    def __init__(
        self,
        participants: int,
        total_prefixes: int,
        seed: int = 0,
        **knobs,
    ) -> None:
        self.name = f"synthetic-{participants}x{total_prefixes}-s{seed}"
        self._participants = participants
        self._total_prefixes = total_prefixes
        self._seed = seed
        self._knobs = knobs

    def build(self) -> SyntheticIXP:
        return generate_ixp(
            self._participants, self._total_prefixes, seed=self._seed, **self._knobs
        )


class MemberRecord(NamedTuple):
    """One ``asn|prefixes|ports`` census row."""

    asn: int
    prefixes: int
    ports: int


def _parse_members(path: str) -> List[MemberRecord]:
    """Parse an ``asn|prefixes|ports`` census snapshot."""
    members: List[MemberRecord] = []
    seen: Set[int] = set()
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("|")
            if len(parts) != 3:
                raise ValueError(
                    f"{path}:{line_no}: expected 'asn|prefixes|ports', got {line!r}"
                )
            asn, prefixes, ports = (int(part) for part in parts)
            if asn in seen:
                raise ValueError(f"{path}:{line_no}: duplicate ASN {asn}")
            if prefixes < 0 or not 1 <= ports <= PORTS_PER_PARTICIPANT:
                raise ValueError(f"{path}:{line_no}: invalid census row {line!r}")
            seen.add(asn)
            members.append(MemberRecord(asn, prefixes, ports))
    if not members:
        raise ValueError(f"{path}: empty membership census")
    return members


def _parse_asrel(path: str) -> List[Tuple[int, int, int]]:
    """Parse CAIDA serial-1 AS-relationship rows ``as1|as2|rel``."""
    edges: List[Tuple[int, int, int]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("|")
            if len(parts) < 3:
                raise ValueError(
                    f"{path}:{line_no}: expected 'as1|as2|rel', got {line!r}"
                )
            as1, as2, rel = int(parts[0]), int(parts[1]), int(parts[2])
            if rel not in (-1, 0):
                raise ValueError(
                    f"{path}:{line_no}: relationship must be -1 (p2c) or 0 (p2p)"
                )
            edges.append((as1, as2, rel))
    return edges


class _DataTopology:
    """Shared data→exchange derivation for both fixture formats."""

    def __init__(
        self,
        name: str,
        members: Sequence[MemberRecord],
        p2c_edges: Sequence[Tuple[int, int]],  # (provider, customer)
        p2p_edges: Sequence[Tuple[int, int]],
        labels: Optional[Dict[int, str]] = None,
        vnh_pool: str = "172.16.0.0/12",
    ) -> None:
        self.name = name
        self._members = list(members)
        self._labels = dict(labels or {})
        member_asns = {record.asn for record in self._members}
        # Only edges between two members shape the exchange; off-IXP
        # neighbours in the raw graph are ignored.
        self._providers_of: Dict[int, List[int]] = {
            record.asn: [] for record in self._members
        }
        self._peers_of: Dict[int, Set[int]] = {
            record.asn: set() for record in self._members
        }
        for provider, customer in p2c_edges:
            if provider in member_asns and customer in member_asns:
                self._providers_of[customer].append(provider)
                self._peers_of[provider].add(customer)
                self._peers_of[customer].add(provider)
        for left, right in p2p_edges:
            if left in member_asns and right in member_asns:
                self._peers_of[left].add(right)
                self._peers_of[right].add(left)
        for providers in self._providers_of.values():
            providers.sort()
        self._vnh_pool = vnh_pool

    def _label(self, asn: int) -> str:
        return self._labels.get(asn, f"AS{asn}")

    def _categories(self) -> Dict[int, str]:
        """Classify members from the data, not from knobs.

        Transit: the AS provides transit to at least one other member
        (it has customer edges).  The remaining stubs split on their
        announced footprint: the top quartile of stub prefix counts is
        *content* (hosting/CDN-shaped heavy announcers), the rest
        *eyeball*.
        """
        customers_of: Dict[int, int] = {record.asn: 0 for record in self._members}
        for customer, providers in self._providers_of.items():
            for provider in providers:
                customers_of[provider] += 1
        stub_counts = sorted(
            record.prefixes
            for record in self._members
            if customers_of[record.asn] == 0
        )
        if stub_counts:
            threshold = stub_counts[(3 * len(stub_counts)) // 4]
        else:  # pragma: no cover - all-transit census
            threshold = 0
        categories: Dict[int, str] = {}
        for record in self._members:
            if customers_of[record.asn] > 0:
                categories[record.asn] = ASCategory.TRANSIT
            elif record.prefixes >= max(1, threshold):
                categories[record.asn] = ASCategory.CONTENT
            else:
                categories[record.asn] = ASCategory.EYEBALL
        return categories

    def build(self) -> SyntheticIXP:
        total = sum(record.prefixes for record in self._members)
        root = _POOL_SMALL if total <= 65536 else _POOL_LARGE
        pool = allocate_prefix_pool(total, root=root)
        config = IXPConfig(vnh_pool=self._vnh_pool, name=self.name)
        categories_by_asn = self._categories()

        categories: Dict[str, str] = {}
        announced: Dict[str, Tuple[IPv4Prefix, ...]] = {}
        updates: List[BGPUpdate] = []
        specs = {}
        for index, record in enumerate(self._members):
            label = self._label(record.asn)
            specs[record.asn] = config.add_participant(
                label,
                asn=record.asn,
                ports=peering_lan_ports(index, record.ports, name=label),
            )
            categories[label] = categories_by_asn[record.asn]

        cursor = 0
        secondary: Dict[str, List[Announcement]] = {}
        for record in self._members:
            label = self._label(record.asn)
            spec = specs[record.asn]
            mine = pool[cursor : cursor + record.prefixes]
            cursor += record.prefixes
            announced[label] = tuple(mine)
            primary: List[Announcement] = []
            for offset, prefix in enumerate(mine):
                port = spec.ports[offset % len(spec.ports)]
                primary.append(
                    Announcement(
                        prefix,
                        RouteAttributes(as_path=[record.asn], next_hop=port.address),
                    )
                )
            updates.append(BGPUpdate(label, announced=primary))
            # Multihoming straight from the relationship data: every
            # member *provider* of this AS re-announces its prefixes
            # with the provider's ASN prepended (the longer path keeps
            # the origin's own announcement preferred).
            for provider_asn in self._providers_of[record.asn]:
                provider_label = self._label(provider_asn)
                provider_spec = specs[provider_asn]
                backups = secondary.setdefault(provider_label, [])
                for offset, prefix in enumerate(mine):
                    port = provider_spec.ports[offset % len(provider_spec.ports)]
                    backups.append(
                        Announcement(
                            prefix,
                            RouteAttributes(
                                as_path=[provider_asn, record.asn],
                                next_hop=port.address,
                            ),
                        )
                    )
        for label in sorted(secondary):
            updates.append(BGPUpdate(label, announced=secondary[label]))

        peering = {
            self._label(record.asn): tuple(
                sorted(self._label(peer) for peer in self._peers_of[record.asn])
            )
            for record in self._members
        }
        return SyntheticIXP(
            config=config,
            categories=categories,
            announced=announced,
            updates=updates,
            seed=0,
            peering=peering,
        )

    def skew(self) -> Dict[str, float]:
        """The paper's two skew statistics, computed from the census."""
        return skew_summary([record.prefixes for record in self._members])


class ASRelationshipProvider(_DataTopology):
    """CAIDA AS-relationship + membership-census fixture ingestion.

    ``asrel_path`` holds serial-1 ``as1|as2|rel`` rows; ``members_path``
    the ``asn|prefixes|ports`` census aggregated from a pfx2as-style
    snapshot.  Membership, skew, classification, multihoming and the
    peering matrix all come from the two files.
    """

    def __init__(
        self, asrel_path: str, members_path: str, name: Optional[str] = None
    ) -> None:
        members = _parse_members(members_path)
        edges = _parse_asrel(asrel_path)
        p2c = [(as1, as2) for as1, as2, rel in edges if rel == -1]
        p2p = [(as1, as2) for as1, as2, rel in edges if rel == 0]
        super().__init__(
            name or os.path.splitext(os.path.basename(asrel_path))[0],
            members,
            p2c,
            p2p,
        )


# -- GML ----------------------------------------------------------------------

_GML_TOKEN = re.compile(r"\[|\]|\"[^\"]*\"|[^\s\[\]]+")


def _gml_parse(text: str):
    """A tolerant GML reader: nested ``key [ ... ]`` blocks into dicts.

    Repeated keys (``node``, ``edge``) accumulate into lists.  Scalars
    are int/float/str-typed by shape, quoted strings unquoted.
    """
    tokens = _GML_TOKEN.findall(text)
    position = 0

    def parse_block():
        nonlocal position
        block: Dict[str, object] = {}
        while position < len(tokens):
            token = tokens[position]
            if token == "]":
                position += 1
                return block
            key = token
            position += 1
            if position >= len(tokens):
                raise ValueError(f"GML: dangling key {key!r}")
            value_token = tokens[position]
            position += 1
            value: object
            if value_token == "[":
                value = parse_block()
            elif value_token.startswith('"'):
                value = value_token[1:-1]
            else:
                try:
                    value = int(value_token)
                except ValueError:
                    try:
                        value = float(value_token)
                    except ValueError:
                        value = value_token
            if key in block:
                existing = block[key]
                if isinstance(existing, list):
                    existing.append(value)
                else:
                    block[key] = [existing, value]
            else:
                block[key] = value
        return block

    document = parse_block()
    if "graph" not in document:
        raise ValueError("GML: no 'graph' block")
    return document["graph"]


def _as_list(value) -> List:
    if value is None:
        return []
    return value if isinstance(value, list) else [value]


class GMLProvider(_DataTopology):
    """GML fixture ingestion (netsys-lab ``GMLDataProvider`` style).

    Nodes must carry ``asn`` and ``prefixes`` (``ports`` defaults to 1,
    ``label`` to ``AS<asn>``); edges carry ``rel`` — ``"p2c"`` (source
    provides transit to target) or ``"p2p"`` (default).
    """

    def __init__(self, path: str, name: Optional[str] = None) -> None:
        with open(path, "r", encoding="utf-8") as handle:
            graph = _gml_parse(handle.read())
        nodes = _as_list(graph.get("node"))
        edges = _as_list(graph.get("edge"))
        if not nodes:
            raise ValueError(f"{path}: GML graph has no nodes")
        asn_of_id: Dict[int, int] = {}
        members: List[MemberRecord] = []
        labels: Dict[int, str] = {}
        for node in nodes:
            if "asn" not in node or "prefixes" not in node:
                raise ValueError(
                    f"{path}: node {node.get('id')!r} needs 'asn' and 'prefixes'"
                )
            asn = int(node["asn"])
            asn_of_id[int(node["id"])] = asn
            members.append(
                MemberRecord(asn, int(node["prefixes"]), int(node.get("ports", 1)))
            )
            if "label" in node:
                labels[asn] = str(node["label"])
        p2c: List[Tuple[int, int]] = []
        p2p: List[Tuple[int, int]] = []
        for edge in edges:
            source = asn_of_id[int(edge["source"])]
            target = asn_of_id[int(edge["target"])]
            rel = str(edge.get("rel", "p2p"))
            if rel == "p2c":
                p2c.append((source, target))
            elif rel == "p2p":
                p2p.append((source, target))
            else:
                raise ValueError(f"{path}: unknown edge rel {rel!r}")
        super().__init__(
            name or os.path.splitext(os.path.basename(path))[0],
            members,
            p2c,
            p2p,
            labels=labels,
        )


# -- fixture registry ---------------------------------------------------------


def fixture_path(filename: str) -> str:
    """Absolute path of a checked-in fixture file."""
    path = os.path.join(FIXTURE_DIR, filename)
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"no fixture {filename!r}; available: {', '.join(available_fixtures())}"
        )
    return path


def available_fixtures() -> Tuple[str, ...]:
    """Fixture basenames (one entry per topology, not per file)."""
    names = set()
    for entry in os.listdir(FIXTURE_DIR):
        base, ext = os.path.splitext(entry)
        if ext in (".gml", ".asrel"):
            names.add(base)
    return tuple(sorted(names))


def load_fixture(name: str) -> "TopologyProvider":
    """The provider for a checked-in fixture, dispatched on file type.

    ``<name>.gml`` wins when present; otherwise the CAIDA pair
    ``<name>.asrel`` + ``<name>.members`` is loaded.
    """
    gml = os.path.join(FIXTURE_DIR, f"{name}.gml")
    if os.path.exists(gml):
        return GMLProvider(gml, name=name)
    asrel = os.path.join(FIXTURE_DIR, f"{name}.asrel")
    if os.path.exists(asrel):
        return ASRelationshipProvider(
            asrel, fixture_path(f"{name}.members"), name=name
        )
    raise FileNotFoundError(
        f"no fixture {name!r}; available: {', '.join(available_fixtures())}"
    )
