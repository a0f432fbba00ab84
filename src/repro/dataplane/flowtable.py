"""OpenFlow-style flow tables.

The SDX controller's output — a prioritized :class:`~repro.policy.classifier.Classifier`
— is installed into a :class:`FlowTable` as :class:`FlowRule` entries.
The table implements the matching semantics of an OpenFlow switch
(highest priority wins, ties broken by installation order) and keeps
per-rule packet counters, which the deployment experiments (Figure 5)
read to produce their traffic time series.

Lookup is a tuple-space search, the classifier design of Open vSwitch:
rules are grouped by which fields they constrain and how (their
*signature*), and each group is a hash table from masked header values
to the group's first rule in table order, so a lookup costs one probe
per distinct signature instead of one match test per rule.
"""

from __future__ import annotations

import hashlib
import itertools
import operator
import os
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.netutils.fields import FIELDS
from repro.netutils.mac import MACMask
from repro.policy.classifier import Action, Classifier, HeaderMatch, Rule
from repro.policy.packet import Packet

__all__ = [
    "FlowRule",
    "FlowTable",
    "FlowTableTransaction",
    "dataplane_mode_from_env",
]

DATAPLANE_MODES = ("single", "multitable")


def dataplane_mode_from_env() -> str:
    """``REPRO_DATAPLANE``: ``single`` (default) or ``multitable``.

    Single-table installs fully composed rules into table 0; multitable
    keeps stage-1 outbound-policy rules in table 0 with a ``goto`` into
    the merged stage-2 (delivery/VMAC) rules in table 1.
    """
    mode = os.environ.get("REPRO_DATAPLANE", "single").strip().lower() or "single"
    if mode not in DATAPLANE_MODES:
        raise ValueError(
            f"REPRO_DATAPLANE={mode!r}: expected one of {', '.join(DATAPLANE_MODES)}"
        )
    return mode

_rule_ids = itertools.count(1)
_priority = operator.attrgetter("priority")

_ALL_MAC_BITS = (1 << 48) - 1

#: One constrained field of a signature: (field, care-bit mask), where a
#: ``None`` mask means the packet value is compared whole (exact match).
SignatureField = Tuple[str, Optional[int]]

# Distinct signatures are few (one per field set × mask combination), so
# every rule shares one canonical tuple per signature.
_signatures: Dict[Tuple[SignatureField, ...], Tuple[SignatureField, ...]] = {}


def _index_key_of(match: HeaderMatch) -> Tuple[Tuple[SignatureField, ...], Tuple[Any, ...]]:
    """A match as (signature, key) for the tuple-space lookup index.

    The signature lists the constrained fields in name order, each with
    its mask.  IP and MAC fields are keyed as integers under a mask (a
    packet always carries them as addresses, so this is exact): an
    :class:`IPv4Prefix` becomes (network, prefix mask), a
    :class:`MACMask` its (value, mask) and a MAC address (value, all
    ones).  Every other field is compared whole.  A packet satisfies the
    match iff it carries every signature field and its values, masked
    the same way, equal ``key``.
    """
    signature: List[SignatureField] = []
    key: List[Any] = []
    for field, value in sorted(match.constraints.items()):
        packet_type = FIELDS[field].packet_type
        if packet_type == "ip":  # always an IPv4Prefix once normalised
            signature.append((field, int(value.netmask)))
            key.append(int(value.network))
        elif packet_type == "mac" and isinstance(value, MACMask):
            signature.append((field, value.mask))
            key.append(int(value.value))
        elif packet_type == "mac":
            signature.append((field, _ALL_MAC_BITS))
            key.append(int(value))
        else:
            signature.append((field, None))
            key.append(value)
    canonical = tuple(signature)
    return _signatures.setdefault(canonical, canonical), tuple(key)


class FlowRule:
    """One installed flow entry: priority + match + actions + counters.

    ``table`` places the entry in one stage of a multi-table layout
    (table 0 is the default, and the only one single-table layouts use);
    ``goto`` chains a matched packet — after this rule's actions are
    applied — into a later table, the OpenFlow ``goto_table``
    instruction.  Gotos must point strictly forward, which is what makes
    chained lookups loop-free by construction.
    """

    __slots__ = (
        "priority",
        "match",
        "actions",
        "cookie",
        "table",
        "goto",
        "rule_id",
        "packets",
        "bytes",
        "_signature",
        "_key",
    )

    def __init__(
        self,
        priority: int,
        match: HeaderMatch,
        actions: Iterable[Action] = (),
        cookie: Any = None,
        table: int = 0,
        goto: Optional[int] = None,
    ) -> None:
        self.priority = int(priority)
        self.match = match
        self.actions: FrozenSet[Action] = frozenset(actions)
        self.cookie = cookie
        self.table = int(table)
        if goto is not None and int(goto) <= self.table:
            raise ValueError(f"goto must point forward: table {table} -> {goto}")
        self.goto = int(goto) if goto is not None else None
        self.rule_id = next(_rule_ids)
        self.packets = 0
        self.bytes = 0
        # Signature and key of ``match`` for the lookup index, filled on
        # first indexing; valid for the rule's life (fields are immutable).
        self._signature: Optional[Tuple[SignatureField, ...]] = None
        self._key: Tuple[Any, ...] = ()

    @property
    def is_drop(self) -> bool:
        return not self.actions

    @property
    def identity(self) -> Tuple[str, str, Tuple[str, ...], int, str]:
        """Stable identity: (cookie, match, actions, table, goto).

        This is the delta reconciler's notion of sameness (it buckets on
        the values these strings render): a rule whose identity
        survives a recompilation is the *same* rule (its counters must
        survive), even when the priority tiling around it shifted — but
        priority is excluded: it is an attribute, not identity.  The
        canonical forms match :meth:`FlowTable.content_hash` row fields,
        so identity-equal rules at equal priorities hash identically.
        """
        return (
            repr(self.cookie),
            repr(self.match),
            tuple(sorted(repr(action) for action in self.actions)),
            self.table,
            repr(self.goto),
        )

    def count(self, packet_bytes: int = 0) -> None:
        """Record one packet hit against this rule."""
        self.packets += 1
        self.bytes += packet_bytes

    def __repr__(self) -> str:
        verdict = "drop" if self.is_drop else ", ".join(sorted(repr(a) for a in self.actions))
        stage = f"t{self.table}:" if self.table else ""
        chain = f" goto({self.goto})" if self.goto is not None else ""
        return f"FlowRule({stage}prio={self.priority}, {self.match!r} -> {verdict}{chain})"


class FlowTable:
    """A priority-ordered flow table with OpenFlow matching semantics.

    Besides the ordered rule list the table keeps two indexes: a cookie
    index (cookie → its rules, arrival order), maintained by every
    mutation, and a per-table lookup index (see :meth:`lookup`), dropped
    by every mutation and rebuilt by the next lookup.  Both require the
    fields of an installed rule to stay as installed (only
    :meth:`reprioritize` and a rollback change ``priority``) and cookies
    to be hashable.
    """

    def __init__(self) -> None:
        self._rules: List[FlowRule] = []
        self.misses = 0
        self._by_cookie: Dict[Any, Dict[FlowRule, None]] = {}
        # table -> lookup index (see _build_index); built lazily by
        # lookup, cleared by every mutation.
        self._index: Dict[int, Tuple[Tuple[Tuple[str, bool], ...], List]] = {}
        self._m_installs = self._m_removes = None
        self._m_commits = self._m_rollbacks = self._m_rules_gauge = None

    def attach_telemetry(self, registry) -> None:
        """Report install/remove churn and commit outcomes to ``registry``."""
        self._m_installs = registry.counter(
            "sdx_flowtable_installs_total", "Flow rules installed"
        )
        self._m_removes = registry.counter(
            "sdx_flowtable_removes_total", "Flow rules removed"
        )
        self._m_commits = registry.counter(
            "sdx_flowtable_commits_total", "Flow-table transactions committed"
        )
        self._m_rollbacks = registry.counter(
            "sdx_flowtable_rollbacks_total", "Flow-table transactions rolled back"
        )
        self._m_rules_gauge = registry.gauge(
            "sdx_flowtable_rules", "Flow rules currently installed"
        )
        self._m_rules_gauge.set(len(self._rules))

    def _count_churn(self, installed: int = 0, removed: int = 0) -> None:
        if self._m_installs is None:
            return
        if installed:
            self._m_installs.inc(installed)
        if removed:
            self._m_removes.inc(removed)
        self._m_rules_gauge.set(len(self._rules))

    # -- rule management --------------------------------------------------

    def install(self, rule: FlowRule) -> FlowRule:
        """Insert a rule, keeping the table sorted by descending priority.

        Among equal priorities, earlier-installed rules match first,
        mirroring hardware behaviour.
        """
        self._rules.insert(self._slot(rule.priority), rule)
        self._remember_cookie(rule)
        self._index.clear()
        self._count_churn(installed=1)
        return rule

    def _slot(self, priority: int) -> int:
        """Where a rule of ``priority`` goes: after every rule ≥ it.

        ``_rules`` is always sorted by descending priority with equal
        priorities in arrival order, so this is a binary search.  It
        reads ``rule.priority`` live rather than from a cached key list
        because a transaction rollback rewrites priorities in place.
        """
        rules = self._rules
        low, high = 0, len(rules)
        while low < high:
            middle = (low + high) // 2
            if rules[middle].priority >= priority:
                low = middle + 1
            else:
                high = middle
        return low

    def _position(self, rule: FlowRule) -> int:
        """Where an installed ``rule`` sits in ``_rules``.

        Binary search to the start of its priority's run, then a scan of
        the run.  Falls back to ``list.index``, which raises
        ``ValueError`` for a rule that is not installed.
        """
        rules = self._rules
        priority = rule.priority
        for position in range(self._slot(priority + 1), len(rules)):
            candidate = rules[position]
            if candidate is rule:
                return position
            if candidate.priority != priority:
                break
        return rules.index(rule)

    def _remember_cookie(self, rule: FlowRule) -> None:
        members = self._by_cookie.get(rule.cookie)
        if members is None:
            self._by_cookie[rule.cookie] = members = {}
        members[rule] = None

    def _forget_cookie(self, rule: FlowRule) -> None:
        members = self._by_cookie[rule.cookie]
        del members[rule]
        if not members:
            del self._by_cookie[rule.cookie]

    def install_classifier(
        self,
        classifier: Classifier,
        base_priority: int = 0,
        cookie: Any = None,
        table: int = 0,
        goto: Optional[int] = None,
    ) -> List[FlowRule]:
        """Install a compiled classifier as a block of flow rules.

        The classifier's rule order becomes strictly descending
        priorities starting at ``base_priority + len(classifier)``, so
        the block preserves first-match semantics and sits above any
        rules with priority <= ``base_priority``.  ``table``/``goto``
        place the whole block in one stage of a multi-table layout.
        """
        installed: List[FlowRule] = []
        top = base_priority + len(classifier.rules)
        for offset, rule in enumerate(classifier.rules):
            installed.append(
                self.install(
                    FlowRule(
                        top - offset,
                        rule.match,
                        rule.actions,
                        cookie=cookie,
                        table=table,
                        goto=goto,
                    )
                )
            )
        return installed

    def remove(self, rule: FlowRule) -> None:
        """Remove one installed rule; ``ValueError`` if it is not installed."""
        del self._rules[self._position(rule)]
        self._forget_cookie(rule)
        self._index.clear()
        self._count_churn(removed=1)

    def reprioritize(self, rule: FlowRule, priority: int) -> FlowRule:
        """Move an installed rule to a new priority, counters intact.

        The rule object is re-slotted (removed from its position and
        re-inserted under the normal ordering) rather than replaced, so
        its packet/byte counters keep accumulating — the whole point of
        a reprioritize over a remove+install.  Not counted as flow-table
        churn: no rule was installed or removed.
        """
        del self._rules[self._position(rule)]
        rule.priority = int(priority)
        self._rules.insert(self._slot(rule.priority), rule)
        # It arrives anew in its priority run, so also in its cookie's
        # arrival order (see rules_for_cookie).
        members = self._by_cookie[rule.cookie]
        del members[rule]
        members[rule] = None
        self._index.clear()
        return rule

    def remove_by_cookie(self, cookie: Any) -> int:
        """Remove every rule tagged with ``cookie``; returns the count."""
        doomed = self._by_cookie.pop(cookie, None)
        if not doomed:
            return 0
        for rule in doomed:
            del self._rules[self._position(rule)]
        self._index.clear()
        self._count_churn(removed=len(doomed))
        return len(doomed)

    def rules_for_cookie(self, cookie: Any) -> Tuple[FlowRule, ...]:
        """Every installed rule tagged with ``cookie``, priority order.

        Read from the cookie index, so the cost is the cookie's own rule
        count.  The index keeps each cookie's rules in arrival order and
        a reprioritized rule arrives anew, exactly as in the table's
        equal-priority runs, so a stable sort by descending priority
        reproduces table order.
        """
        return tuple(sorted(self._by_cookie.get(cookie, ()), key=_priority, reverse=True))

    def clear(self) -> None:
        removed = len(self._rules)
        self._rules.clear()
        self._by_cookie.clear()
        self._index.clear()
        if removed:
            self._count_churn(removed=removed)

    # -- transactions --------------------------------------------------------

    def checkpoint(self) -> Tuple[FlowRule, ...]:
        """An immutable snapshot of the current rule list.

        Rule objects are shared, not copied, so counters keep ticking;
        what :meth:`restore` brings back is the table's *membership and
        order*, which is exactly what a half-applied update corrupts.
        """
        return tuple(self._rules)

    def restore(self, checkpoint: Tuple[FlowRule, ...]) -> None:
        """Reset the table to a previously taken :meth:`checkpoint`."""
        self._rules = list(checkpoint)
        self._by_cookie.clear()
        for rule in self._rules:
            self._remember_cookie(rule)
        self._index.clear()
        if self._m_rules_gauge is not None:
            self._m_rules_gauge.set(len(self._rules))

    def transaction(self) -> "FlowTableTransaction":
        """Start a two-phase update; see :class:`FlowTableTransaction`."""
        return FlowTableTransaction(self)

    def content_hash(self) -> str:
        """Deterministic digest of (priority, match, actions, cookie) rows.

        Counters are deliberately excluded: two tables that forward
        identically hash identically, which is what the transactional
        rollback tests compare.
        """
        digest = hashlib.sha256()
        for rule in self._rules:
            row = (
                rule.priority,
                repr(rule.match),
                tuple(sorted(repr(action) for action in rule.actions)),
                repr(rule.cookie),
                rule.table,
                repr(rule.goto),
            )
            digest.update(repr(row).encode())
            digest.update(b"\x00")
        return digest.hexdigest()

    # -- matching ----------------------------------------------------------

    def lookup(self, packet: Packet, table: int = 0) -> Optional[FlowRule]:
        """The matching rule a switch would select in one table stage.

        Probes each signature's hash table once with the packet's masked
        values; the hit earliest in table order wins, which is exactly
        the first match of a linear scan.  A packet lacking one of a
        signature's fields cannot match any rule in it, and signatures
        whose first rule sits after the best hit so far are not probed.
        """
        index = self._index.get(table)
        if index is None:
            index = self._index[table] = self._build_index(table)
        fields, groups = index
        # Each header is read (and an address converted to its integer)
        # once per lookup, not once per signature.
        values = {}
        for field, masked in fields:
            value = packet.get(field)
            if value is not None:
                values[field] = int(value) if masked else value
        rules = self._rules
        best = len(rules)
        for first, signature, hits in groups:
            if first >= best:
                break
            key = []
            for field, mask in signature:
                value = values.get(field)
                if value is None:
                    break  # the packet lacks this field: no rule here matches
                key.append(value if mask is None else value & mask)
            else:
                position = hits.get(tuple(key))
                if position is not None and position < best:
                    best = position
        return rules[best] if best < len(rules) else None

    def _build_index(self, table: int) -> Tuple[Tuple[Tuple[str, bool], ...], List]:
        """``table``'s lookup index: (fields, groups).

        ``fields`` lists every (field, masked) pair the signatures use.
        ``groups`` holds one (first position, signature, hits) entry per
        signature in ascending first position, ``hits`` mapping each key
        to the table position of its first rule.
        """
        groups: Dict[Tuple[SignatureField, ...], Tuple[int, Dict]] = {}
        for position, rule in enumerate(self._rules):
            if rule.table != table:
                continue
            signature = rule._signature
            if signature is None:
                signature, rule._key = _index_key_of(rule.match)
                rule._signature = signature
            key = rule._key
            group = groups.get(signature)
            if group is None:
                groups[signature] = group = (position, {})
            hits = group[1]
            if key not in hits:
                hits[key] = position
        # A field is masked in every signature or in none (see _index_key_of).
        fields = {(field, mask is not None) for signature in groups for field, mask in signature}
        # Insertion order is already ascending first position.
        return (
            tuple(sorted(fields)),
            [(first, signature, hits) for signature, (first, hits) in groups.items()],
        )

    def _apply_chained(
        self, rule: FlowRule, packet: Packet, count: bool, packet_bytes: int
    ) -> FrozenSet[Packet]:
        """Apply one matched rule, following ``goto`` chains to the end.

        Each action's rewritten packet either egresses (no goto) or is
        re-matched in the goto table; a miss in a later table drops that
        copy, as an OpenFlow table-miss does.  Gotos point strictly
        forward (enforced at construction), so chains terminate.
        """
        if rule.goto is None:
            return frozenset(action.apply(packet) for action in rule.actions)
        outputs = []
        for action in rule.actions:
            staged = action.apply(packet)
            nxt = self.lookup(staged, rule.goto)
            if nxt is None:
                continue
            if count:
                nxt.count(packet_bytes)
            outputs.extend(self._apply_chained(nxt, staged, count, packet_bytes))
        return frozenset(outputs)

    def resolve(self, packet: Packet) -> Optional[Tuple[FlowRule, FrozenSet[Packet]]]:
        """Chained, counter-free resolution from table 0 to egress.

        Returns the first-stage rule the packet matched (the provenance
        anchor: its cookie names the policy segment that claimed the
        packet) together with the final output packets after every goto
        hop; ``None`` on a first-table miss.
        """
        rule = self.lookup(packet)
        if rule is None:
            return None
        return rule, self._apply_chained(rule, packet, count=False, packet_bytes=0)

    def process(self, packet: Packet, packet_bytes: int = 0) -> FrozenSet[Packet]:
        """Match, count, and apply actions; no match or drop returns ∅."""
        rule = self.lookup(packet)
        if rule is None:
            self.misses += 1
            return frozenset()
        rule.count(packet_bytes)
        return self._apply_chained(rule, packet, count=True, packet_bytes=packet_bytes)

    # -- introspection ------------------------------------------------------

    def rules(self) -> Tuple[FlowRule, ...]:
        return tuple(self._rules)

    def table_ids(self) -> Tuple[int, ...]:
        """The distinct table stages currently holding rules, ascending."""
        return tuple(sorted({rule.table for rule in self._rules}))

    def rules_in(self, table: int) -> Tuple[FlowRule, ...]:
        """Every rule in one table stage, priority order."""
        return tuple(rule for rule in self._rules if rule.table == table)

    def counters_by_cookie(self) -> Dict[Any, Tuple[int, int]]:
        """Aggregate (packets, bytes) per cookie."""
        totals: Dict[Any, Tuple[int, int]] = {}
        for rule in self._rules:
            packets, size = totals.get(rule.cookie, (0, 0))
            totals[rule.cookie] = (packets + rule.packets, size + rule.bytes)
        return totals

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[FlowRule]:
        return iter(self._rules)

    def __repr__(self) -> str:
        return f"FlowTable(rules={len(self._rules)}, misses={self.misses})"


class FlowTableTransaction:
    """Two-phase apply for a :class:`FlowTable`.

    Mutations between construction and :meth:`commit` happen in place
    (switches keep forwarding on the intermediate state, as hardware
    does), but :meth:`rollback` — or an exception inside the ``with``
    block — restores the entry snapshot, so an aborted update can never
    leave the table half-written::

        with table.transaction():
            table.remove_by_cookie(old)
            table.install_classifier(new_block, ...)
            # raising here restores the pre-transaction table
    """

    def __init__(self, table: FlowTable) -> None:
        self._table = table
        self._checkpoint = table.checkpoint()
        # Rule objects are shared with the live table and a delta patch
        # may reprioritize them in place, so membership alone is not a
        # sufficient snapshot: record each rule's priority too.
        self._priorities = tuple(rule.priority for rule in self._checkpoint)
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def checkpoint_digest(self) -> str:
        """Digest of the state :meth:`rollback` restores.

        Row-for-row identical to :meth:`FlowTable.content_hash` over the
        checkpoint membership at the *checkpointed* priorities, so after
        a rollback ``table.content_hash() == checkpoint_digest()`` iff
        the restore was byte-exact.  Computed lazily from the snapshot
        (no table hash on the commit hot path); the one state it cannot
        certify is a rule whose *fields* were mutated in place — which
        is why mutating installed rules' fields is forbidden everywhere
        (corrupt via remove + reinstall instead).
        """
        digest = hashlib.sha256()
        for rule, priority in zip(self._checkpoint, self._priorities):
            row = (
                priority,
                repr(rule.match),
                tuple(sorted(repr(action) for action in rule.actions)),
                repr(rule.cookie),
                rule.table,
                repr(rule.goto),
            )
            digest.update(repr(row).encode())
            digest.update(b"\x00")
        return digest.hexdigest()

    def commit(self) -> None:
        """Keep the mutations; the checkpoint is discarded."""
        if not self._closed and self._table._m_commits is not None:
            self._table._m_commits.inc()
        self._closed = True

    def rollback(self) -> None:
        """Restore the table to its state at transaction start.

        Reinstates membership, order, *and* the priorities captured at
        construction, so a rolled-back reprioritization leaves no trace
        (the post-rollback ``content_hash`` equals the pre-transaction
        one exactly).
        """
        if not self._closed:
            for rule, priority in zip(self._checkpoint, self._priorities):
                rule.priority = priority
            self._table.restore(self._checkpoint)
            self._closed = True
            if self._table._m_rollbacks is not None:
                self._table._m_rollbacks.inc()

    def __enter__(self) -> "FlowTableTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.rollback()
        else:
            self.commit()
