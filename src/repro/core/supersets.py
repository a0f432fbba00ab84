"""Superset VMAC encoding: masked-match state reduction for the fabric.

The per-FEC scheme of Section 4.2 spends one opaque VMAC — and at least
one fabric rule — per forwarding-equivalence class.  The superset
encoding (the scheme iSDX later built on the same idea) instead makes
the destination MAC a structured attribute vector, so a single *masked*
rule (OpenFlow ``dl_dst/mask``) matches an entire family of classes:

.. code-block:: none

    47        40 39        30 29           18 17         8 7        0
    [  marker  ][ superset  ][  positions    ][ next hop  ][ serial  ]

* **marker** — one locally-administered octet (``0x06``) distinguishing
  superset VMACs from both the per-FEC fallback block (``0x02:a5``) and
  participant interface MACs; every masked rule pins it, so masked
  matches can never capture foreign traffic.
* **superset id** — reachability bitsets are grouped into *supersets*
  (a superset's roster is the union of the member sets it hosts); the
  id selects which roster the position field is interpreted against.
* **positions** — one bit per roster slot: bit ``p`` is set iff the
  participant at position ``p`` announced the class.  An outbound
  policy ``fwd(B)`` becomes one masked rule per superset hosting ``B``
  (marker + superset id + B's position bit).
* **next hop** — the id of the class's best-route next-hop participant;
  default forwarding collapses to one masked rule per live next hop.
* **serial** — disambiguates classes that share every attribute field,
  preserving the VNH↔VMAC bijection.  Masked rules never test it.

Rosters only ever *grow* (positions are stable), so a routing change
touches one class, not the whole encoding.  A full recomputation —
clearing every superset and bumping :attr:`SupersetEncoder.epoch` so
cached encodings can be invalidated — happens only when the id space
itself overflows.  Classes that cannot be encoded at all (too many
announcers for one roster, a spent serial space, an exhausted next-hop
id space) *spill*: they draw an opaque VMAC from the per-FEC fallback
allocator and are matched exactly, never masked — graceful degradation,
counted for telemetry.
"""

from __future__ import annotations

import os
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.fec import FECTable, PrefixGroup
from repro.core.transforms import (
    RankedRoutesFn,
    ReachableFn,
    _group_needs_dstip,
    default_exception_rules,
    default_rules_for_group,
    delivery_rules_for_group,
    vmacify_outbound,
)
from repro.ixp.topology import IXPConfig, ParticipantSpec
from repro.netutils.mac import MACAddress, MACAllocator, MACMask
from repro.policy.classifier import Action, Classifier, HeaderMatch, Rule
from repro.telemetry import MetricsRegistry

__all__ = [
    "MARKER_OCTET",
    "NEXTHOP_BITS",
    "POSITION_BITS",
    "SERIAL_BITS",
    "SUPERSET_BITS",
    "SupersetEncoder",
    "SupersetEncoding",
    "SupersetView",
    "default_delivery_classifier_superset",
    "default_forwarding_classifier_superset",
    "encoding_inputs",
    "vmac_mode_from_env",
    "vmacify_outbound_superset",
]

VMAC_MODES = ("fec", "superset")


def vmac_mode_from_env() -> str:
    """The ``REPRO_VMAC`` selection: ``fec`` (default) or ``superset``."""
    mode = os.environ.get("REPRO_VMAC", "fec").strip().lower() or "fec"
    if mode not in VMAC_MODES:
        raise ValueError(
            f"REPRO_VMAC={mode!r}: expected one of {', '.join(VMAC_MODES)}"
        )
    return mode

# -- bit budget ----------------------------------------------------------------
#
# 8 + 10 + 12 + 10 + 8 = 48: the whole destination MAC, nothing spare.
# The split trades roster width (12 announcers per superset) against id
# spaces (1024 supersets, 1023 next hops) — the shape of real IXP RIBs,
# where a prefix has a handful of announcers but an exchange has
# hundreds of members.

MARKER_OCTET = 0x06  # locally administered; 0x02:* blocks stay disjoint
SUPERSET_BITS = 10
POSITION_BITS = 12
NEXTHOP_BITS = 10
SERIAL_BITS = 8

_SERIAL_SHIFT = 0
_NEXTHOP_SHIFT = SERIAL_BITS
_POSITION_SHIFT = _NEXTHOP_SHIFT + NEXTHOP_BITS
_SUPERSET_SHIFT = _POSITION_SHIFT + POSITION_BITS
_MARKER_SHIFT = _SUPERSET_SHIFT + SUPERSET_BITS
assert _MARKER_SHIFT + 8 == 48, "VMAC attribute fields must fill 48 bits"

_MARKER_MASK = 0xFF << _MARKER_SHIFT
_SUPERSET_MASK = ((1 << SUPERSET_BITS) - 1) << _SUPERSET_SHIFT
_POSITION_FIELD_MASK = ((1 << POSITION_BITS) - 1) << _POSITION_SHIFT
_NEXTHOP_MASK = ((1 << NEXTHOP_BITS) - 1) << _NEXTHOP_SHIFT
_MARKER_VALUE = MARKER_OCTET << _MARKER_SHIFT

MAX_SUPERSETS = 1 << SUPERSET_BITS
MAX_SERIALS = 1 << SERIAL_BITS
#: next-hop id 0 is reserved for "no best route", so a masked next-hop
#: rule can never capture a class that has nowhere to go
MAX_NEXTHOPS = (1 << NEXTHOP_BITS) - 1


class SupersetEncoding(NamedTuple):
    """The attribute fields decoded from one superset VMAC."""

    superset_id: int
    position_mask: int
    nexthop_id: int
    serial: int


def encoding_inputs(
    fingerprint: Hashable,
) -> Tuple[FrozenSet[str], Optional[str]]:
    """Derive ``(announcers, best next hop)`` from a BGP fingerprint.

    The compiler's per-prefix fingerprint is the ranked tuple of
    ``(learned_from, next_hop, export_to)`` triples — exactly the
    information the encoder needs: who announced the class (the
    position bits) and whose route ranks first (the next-hop field).
    """
    triples: Sequence[Tuple] = fingerprint if isinstance(fingerprint, tuple) else ()
    members = frozenset(triple[0] for triple in triples)
    nexthop = triples[0][0] if triples else None
    return members, nexthop


class SupersetEncoder:
    """Allocates superset VMACs and the masked matchers that select them.

    The registry persists across compilations: rosters grow in place and
    issued encodings stay valid until :meth:`epoch <recompute>` changes.
    """

    def __init__(
        self,
        fallback: Optional[MACAllocator] = None,
        telemetry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._fallback = fallback if fallback is not None else MACAllocator()
        self._rosters: List[List[str]] = []
        self._roster_sets: List[Set[str]] = []
        self._positions: List[Dict[str, int]] = []
        self._nexthop_ids: Dict[str, int] = {}
        self._serials: Dict[Tuple[int, int, int], int] = {}
        #: bumped on every full recomputation; consumers caching
        #: encodings must discard entries from older epochs
        self.epoch = 0
        self.recomputes = 0
        self.spills = 0
        self._m_spills = self._m_recomputes = self._m_supersets = None
        if telemetry is not None:
            self._m_spills = telemetry.counter(
                "sdx_vmac_spills_total",
                "Classes that fell back to exact per-FEC VMACs",
            )
            self._m_recomputes = telemetry.counter(
                "sdx_superset_recomputes_total",
                "Full superset-registry recomputations",
            )
            self._m_supersets = telemetry.gauge(
                "sdx_supersets", "Live supersets in the encoder registry"
            )

    # -- registry ------------------------------------------------------------

    @property
    def superset_count(self) -> int:
        return len(self._rosters)

    def members_of(self, superset_id: int) -> Tuple[str, ...]:
        """The roster of one superset, in position order."""
        return tuple(self._rosters[superset_id])

    def position_of(self, superset_id: int, name: str) -> Optional[int]:
        """``name``'s position bit index inside one superset, if hosted."""
        if not 0 <= superset_id < len(self._positions):
            return None
        return self._positions[superset_id].get(name)

    def memberships(self, name: str) -> Tuple[Tuple[int, int], ...]:
        """Every ``(superset id, position)`` slot hosting ``name``."""
        found = []
        for superset_id, positions in enumerate(self._positions):
            position = positions.get(name)
            if position is not None:
                found.append((superset_id, position))
        return tuple(found)

    def nexthop_id(self, name: str) -> Optional[int]:
        """The id assigned to a next-hop participant, if any yet."""
        return self._nexthop_ids.get(name)

    def _assign_nexthop(self, name: str) -> Optional[int]:
        assigned = self._nexthop_ids.get(name)
        if assigned is not None:
            return assigned
        if len(self._nexthop_ids) >= MAX_NEXTHOPS:
            return None
        assigned = len(self._nexthop_ids) + 1  # 0 reserved: "no best route"
        self._nexthop_ids[name] = assigned
        return assigned

    def _new_superset(self, members: FrozenSet[str]) -> int:
        superset_id = len(self._rosters)
        roster = sorted(members)
        self._rosters.append(roster)
        self._roster_sets.append(set(roster))
        self._positions.append({name: index for index, name in enumerate(roster)})
        if self._m_supersets is not None:
            self._m_supersets.set(len(self._rosters))
        return superset_id

    def _extend(self, superset_id: int, members: FrozenSet[str]) -> None:
        roster = self._rosters[superset_id]
        roster_set = self._roster_sets[superset_id]
        positions = self._positions[superset_id]
        for name in sorted(members - roster_set):
            positions[name] = len(roster)
            roster.append(name)
            roster_set.add(name)

    def recompute(self) -> None:
        """Discard every superset and serial; start a new encoding epoch.

        Issued VMACs keep working in the data plane but no longer agree
        with the registry, so every consumer caching encodings must
        re-encode (the epoch bump is the signal).  Next-hop ids are
        *not* cleared — they are roster-independent and keeping them
        stable avoids churning the masked default-forwarding rules.
        """
        self._rosters = []
        self._roster_sets = []
        self._positions = []
        self._serials = {}
        self.epoch += 1
        self.recomputes += 1
        if self._m_recomputes is not None:
            self._m_recomputes.inc()
        if self._m_supersets is not None:
            self._m_supersets.set(0)

    def place(self, members: FrozenSet[str]) -> Optional[int]:
        """Find or make the superset hosting a reachability set.

        Preference order: an existing superset already covering the set;
        the best-overlapping superset whose roster can absorb it without
        exceeding the position width; a brand-new superset.  Only when
        the id space itself is full does the registry recompute.
        Returns ``None`` when the set is wider than one roster can be —
        the caller must spill.
        """
        if len(members) > POSITION_BITS:
            return None
        best = None
        best_overlap = -1
        for superset_id, roster_set in enumerate(self._roster_sets):
            if members <= roster_set:
                return superset_id
            if len(roster_set | members) <= POSITION_BITS:
                overlap = len(roster_set & members)
                if overlap > best_overlap:
                    best = superset_id
                    best_overlap = overlap
        if best is not None and best_overlap > 0:
            self._extend(best, members)
            return best
        if len(self._rosters) < MAX_SUPERSETS:
            # overlap-free sets get a fresh superset while ids last:
            # tight rosters keep position bits (and masks) meaningful
            return self._new_superset(members)
        if best is not None:
            self._extend(best, members)
            return best
        self.recompute()
        return self._new_superset(members)

    # -- encoding ------------------------------------------------------------

    def _spill(self) -> MACAddress:
        self.spills += 1
        if self._m_spills is not None:
            self._m_spills.inc()
        return self._fallback.allocate()

    def encode(
        self, members: FrozenSet[str], nexthop: Optional[str]
    ) -> MACAddress:
        """The VMAC for a class announced by ``members``, best via ``nexthop``.

        Every call returns a distinct address (the serial field, or the
        fallback allocator when the class spills), so reallocation after
        a change always forces routers to re-ARP.
        """
        if not members:
            return self._spill()
        superset_id = self.place(members)
        if superset_id is None:
            return self._spill()
        if nexthop is None:
            nexthop_id: Optional[int] = 0
        else:
            nexthop_id = self._assign_nexthop(nexthop)
            if nexthop_id is None:
                return self._spill()
        positions = self._positions[superset_id]
        position_mask = 0
        for name in members:
            position_mask |= 1 << positions[name]
        key = (superset_id, position_mask, nexthop_id)
        serial = self._serials.get(key, 0)
        if serial >= MAX_SERIALS:
            return self._spill()
        self._serials[key] = serial + 1
        value = (
            _MARKER_VALUE
            | (superset_id << _SUPERSET_SHIFT)
            | (position_mask << _POSITION_SHIFT)
            | (nexthop_id << _NEXTHOP_SHIFT)
            | serial
        )
        return MACAddress(value)

    @staticmethod
    def is_superset_vmac(address: "int | MACAddress") -> bool:
        """True when an address carries the superset marker octet."""
        return (int(address) >> _MARKER_SHIFT) == MARKER_OCTET

    @staticmethod
    def decode(address: "int | MACAddress") -> Optional[SupersetEncoding]:
        """The attribute fields of a superset VMAC; ``None`` for others."""
        value = int(address)
        if (value >> _MARKER_SHIFT) != MARKER_OCTET:
            return None
        return SupersetEncoding(
            superset_id=(value & _SUPERSET_MASK) >> _SUPERSET_SHIFT,
            position_mask=(value & _POSITION_FIELD_MASK) >> _POSITION_SHIFT,
            nexthop_id=(value & _NEXTHOP_MASK) >> _NEXTHOP_SHIFT,
            serial=value & ((1 << SERIAL_BITS) - 1),
        )

    # -- masked matchers ------------------------------------------------------

    def policy_match(self, superset_id: int, position: int) -> MACMask:
        """Matcher for *classes in this superset announced by position*.

        The outbound-policy rule shape: marker + superset id + one
        position bit; next-hop and serial bits are don't-care.
        """
        bit = 1 << (_POSITION_SHIFT + position)
        value = _MARKER_VALUE | (superset_id << _SUPERSET_SHIFT) | bit
        return MACMask(value, _MARKER_MASK | _SUPERSET_MASK | bit)

    def nexthop_match(self, name: str) -> Optional[MACMask]:
        """Matcher for *classes whose best route is via ``name``*.

        The default-forwarding rule shape: marker + next-hop id;
        superset, position, and serial bits are don't-care.  ``None``
        until the participant has been seen as a next hop.
        """
        nexthop_id = self._nexthop_ids.get(name)
        if nexthop_id is None:
            return None
        value = _MARKER_VALUE | (nexthop_id << _NEXTHOP_SHIFT)
        return MACMask(value, _MARKER_MASK | _NEXTHOP_MASK)

    def view(self) -> "SupersetView":
        """A read-only snapshot of the registry.

        Compile shards receive the view, never the live encoder: a shard
        is a pure function of its inputs, and the event-loop runtime can
        run a deferred-guard rollback (which rewinds the live registry)
        while a compilation is paused at a stage yield.  The snapshot
        carries the epoch so stale views are detectable.
        """
        return SupersetView(
            positions=tuple(dict(positions) for positions in self._positions),
            nexthop_ids=dict(self._nexthop_ids),
            epoch=self.epoch,
        )

    def __repr__(self) -> str:
        return (
            f"SupersetEncoder(supersets={len(self._rosters)}, "
            f"epoch={self.epoch}, spills={self.spills})"
        )


class SupersetView:
    """Frozen read surface of a :class:`SupersetEncoder` registry.

    Implements exactly the methods the superset-mode transformations
    consult (:meth:`position_of`, :meth:`policy_match`,
    :meth:`nexthop_id`, :meth:`nexthop_match`, :meth:`decode`), so the
    transforms accept either a live encoder or a view.
    """

    __slots__ = ("_positions", "_nexthop_ids", "epoch")

    def __init__(
        self,
        positions: Tuple[Dict[str, int], ...],
        nexthop_ids: Dict[str, int],
        epoch: int,
    ) -> None:
        self._positions = positions
        self._nexthop_ids = nexthop_ids
        self.epoch = epoch

    def position_of(self, superset_id: int, name: str) -> Optional[int]:
        if not 0 <= superset_id < len(self._positions):
            return None
        return self._positions[superset_id].get(name)

    def nexthop_id(self, name: str) -> Optional[int]:
        return self._nexthop_ids.get(name)

    is_superset_vmac = staticmethod(SupersetEncoder.is_superset_vmac)
    decode = staticmethod(SupersetEncoder.decode)

    def policy_match(self, superset_id: int, position: int) -> MACMask:
        bit = 1 << (_POSITION_SHIFT + position)
        value = _MARKER_VALUE | (superset_id << _SUPERSET_SHIFT) | bit
        return MACMask(value, _MARKER_MASK | _SUPERSET_MASK | bit)

    def nexthop_match(self, name: str) -> Optional[MACMask]:
        nexthop_id = self._nexthop_ids.get(name)
        if nexthop_id is None:
            return None
        value = _MARKER_VALUE | (nexthop_id << _NEXTHOP_SHIFT)
        return MACMask(value, _MARKER_MASK | _NEXTHOP_MASK)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SupersetView):
            return NotImplemented
        return (
            self.epoch == other.epoch
            and self._positions == other._positions
            and self._nexthop_ids == other._nexthop_ids
        )

    def __repr__(self) -> str:
        return f"SupersetView(supersets={len(self._positions)}, epoch={self.epoch})"


# -- superset-mode transformations ---------------------------------------------
#
# Masked counterparts of the Section 4.1 transformations in
# :mod:`repro.core.transforms`.  Each emits a masked rule only when it
# is provably equivalent to the exact per-class rules it replaces, and
# falls back to the exact shape otherwise — so both encodings always
# compile to the same forwarding function.


def _live_carriers(
    fec_table: FECTable, encoder: SupersetEncoder
) -> Tuple[Dict[Tuple[int, int], Set[int]], Dict[int, Optional[SupersetEncoding]]]:
    """Index the live encodings: which groups carry which position bits."""
    carriers: Dict[Tuple[int, int], Set[int]] = {}
    decodings: Dict[int, Optional[SupersetEncoding]] = {}
    for group in fec_table.affected_groups:
        encoding = encoder.decode(group.vnh.hardware)
        decodings[group.group_id] = encoding
        if encoding is None:
            continue
        for position in range(POSITION_BITS):
            if (encoding.position_mask >> position) & 1:
                carriers.setdefault((encoding.superset_id, position), set()).add(
                    group.group_id
                )
    return carriers, decodings


def vmacify_outbound_superset(
    classifier: Classifier,
    participants: FrozenSet[str],
    reachable: ReachableFn,
    fec_table: FECTable,
    encoder: SupersetEncoder,
) -> Classifier:
    """BGP-consistency filters as *masked* VMAC matches where possible.

    A rule forwarding to participant ``B`` compiles to one masked rule
    per superset hosting ``B`` — but only when the sender's eligible
    classes in that superset are exactly the live classes carrying
    ``B``'s position bit (otherwise a masked match would steer classes
    the sender may not reach, so those classes keep exact rules).
    Multicast and mixed virtual/physical rules keep the exact encoding.
    """
    carriers, decodings = _live_carriers(fec_table, encoder)
    by_id = {group.group_id: group for group in fec_table.affected_groups}
    rewritten: List[Rule] = []
    for rule in classifier.rules:
        virtual_actions = [
            action for action in rule.actions if action.output_port in participants
        ]
        if rule.is_drop or not virtual_actions:
            rewritten.append(rule)
            continue
        other_actions = [
            action for action in rule.actions if action.output_port not in participants
        ]
        if len(virtual_actions) > 1 or other_actions:
            rewritten.extend(
                vmacify_outbound(
                    Classifier([rule]), participants, reachable, fec_table
                ).rules
            )
            continue
        action = virtual_actions[0]
        target = action.output_port
        constraint = rule.match.constraint("dstip")
        eligible = reachable(target)
        if constraint is not None:
            eligible = frozenset(
                prefix for prefix in eligible if prefix.overlaps(constraint)
            )
        exact_groups: List[PrefixGroup] = []
        by_superset: Dict[int, Set[int]] = {}
        for group in fec_table.groups_covering(eligible):
            if not group.is_affected:
                continue
            encoding = decodings.get(group.group_id)
            if encoding is None:
                exact_groups.append(group)
            else:
                by_superset.setdefault(encoding.superset_id, set()).add(group.group_id)
        for superset_id in sorted(by_superset):
            selected = by_superset[superset_id]
            position = encoder.position_of(superset_id, target)
            if (
                position is not None
                and carriers.get((superset_id, position)) == selected
            ):
                scoped = rule.match.restrict(
                    "dstmac", encoder.policy_match(superset_id, position)
                )
                if scoped is not None:
                    rewritten.append(Rule(scoped, (action,)))
                continue
            exact_groups.extend(by_id[group_id] for group_id in selected)
        base_match = rule.match.without("dstip")
        for group in sorted(exact_groups, key=lambda group: group.group_id):
            scoped = base_match.restrict("dstmac", group.vnh.hardware)
            if scoped is None:
                continue
            if _group_needs_dstip(group, constraint):
                scoped = scoped.restrict("dstip", constraint)
                if scoped is None:
                    continue
            rewritten.append(Rule(scoped, (action,)))
    return Classifier(rewritten).optimized()


def default_forwarding_classifier_superset(
    config: IXPConfig,
    fec_table: FECTable,
    ranked_routes: RankedRoutesFn,
    encoder: SupersetEncoder,
) -> Classifier:
    """Default forwarding as one masked rule per live next hop.

    Classes whose encoded next-hop field agrees with their current best
    route are served by a single shared masked rule per next-hop
    participant; export-scoped exception rules (and any class that
    spilled or whose encoding is stale) keep the exact per-class shape,
    placed *above* the masked rules so exact always wins.
    """
    rules: List[Rule] = []
    masked: Dict[str, MACMask] = {}
    for group in fec_table.affected_groups:
        ranked = ranked_routes(group)
        if not ranked:
            continue
        top = ranked[0]
        encoding = encoder.decode(group.vnh.hardware)
        nexthop_id = encoder.nexthop_id(top.learned_from)
        if encoding is None or nexthop_id is None or encoding.nexthop_id != nexthop_id:
            rules.extend(default_rules_for_group(config, group, ranked))
            continue
        rules.extend(default_exception_rules(config, group, ranked))
        if top.learned_from not in masked:
            mask = encoder.nexthop_match(top.learned_from)
            if mask is not None:
                masked[top.learned_from] = mask
    for name in sorted(masked):
        rules.append(Rule(HeaderMatch(dstmac=masked[name]), (Action(port=name),)))
    for participant in config.participants():
        for port in participant.ports:
            rules.append(
                Rule(
                    HeaderMatch(dstmac=port.hardware),
                    (Action(port=participant.name),),
                )
            )
    return Classifier(rules)


def default_delivery_classifier_superset(
    participant: ParticipantSpec,
    fec_table: FECTable,
    ranked_routes: RankedRoutesFn,
    encoder: SupersetEncoder,
) -> Classifier:
    """Default delivery as one masked rule per (superset, own position).

    Valid only when every live class in a superset carrying the
    participant's position bit is delivered out the *same* interface;
    supersets where ports differ (multi-homing splits, stale bits,
    spilled classes) fall back to exact per-class delivery rules.
    """
    rules: List[Rule] = [
        Rule(HeaderMatch(dstmac=port.hardware), (Action(port=port.port_id),))
        for port in participant.ports
    ]
    if participant.is_remote:
        return Classifier(rules)
    by_id = {group.group_id: group for group in fec_table.affected_groups}
    exact_groups: List[PrefixGroup] = []
    per_superset: Dict[int, Dict[int, Optional[object]]] = {}
    for group in fec_table.affected_groups:
        ranked = ranked_routes(group)
        announcing = next(
            (route for route in ranked if route.learned_from == participant.name),
            None,
        )
        encoding = encoder.decode(group.vnh.hardware)
        if encoding is None:
            if announcing is not None:
                exact_groups.append(group)
            continue
        position = encoder.position_of(encoding.superset_id, participant.name)
        carried = position is not None and (encoding.position_mask >> position) & 1
        if not carried:
            if announcing is not None:
                # stale bits: the class predates this announcement
                exact_groups.append(group)
            continue
        port = None
        if announcing is not None:
            port = participant.port_for_address(announcing.next_hop)
        per_superset.setdefault(encoding.superset_id, {})[group.group_id] = port
    for superset_id in sorted(per_superset):
        entries = per_superset[superset_id]
        ports = set(entries.values())
        uniform = ports.pop() if len(ports) == 1 else None
        if uniform is not None:
            position = encoder.position_of(superset_id, participant.name)
            rules.append(
                Rule(
                    HeaderMatch(
                        dstmac=encoder.policy_match(superset_id, position)
                    ),
                    (Action(port=uniform.port_id, dstmac=uniform.hardware),),
                )
            )
            continue
        for group_id in sorted(entries):
            port = entries[group_id]
            if port is None:
                continue
            rules.append(
                Rule(
                    HeaderMatch(dstmac=by_id[group_id].vnh.hardware),
                    (Action(port=port.port_id, dstmac=port.hardware),),
                )
            )
    for group in exact_groups:
        rules.extend(
            delivery_rules_for_group(participant, group, ranked_routes(group))
        )
    return Classifier(rules)
