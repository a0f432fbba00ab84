"""OpenFlow-style flow tables.

The SDX controller's output — a prioritized :class:`~repro.policy.classifier.Classifier`
— is installed into a :class:`FlowTable` as :class:`FlowRule` entries.
The table implements the matching semantics of an OpenFlow switch
(highest priority wins, ties broken by installation order) and keeps
per-rule packet counters, which the deployment experiments (Figure 5)
read to produce their traffic time series.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

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
    """A priority-ordered flow table with OpenFlow matching semantics."""

    def __init__(self) -> None:
        self._rules: List[FlowRule] = []
        self.misses = 0
        # Lazy per-ingress-port candidate lists (the always-on commit
        # guard makes lookup a hot path); any mutation clears them.
        self._port_candidates: Dict[Any, List[FlowRule]] = {}
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
        self._port_candidates.clear()
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
        self._rules.remove(rule)
        self._port_candidates.clear()
        self._count_churn(removed=1)

    def reprioritize(self, rule: FlowRule, priority: int) -> FlowRule:
        """Move an installed rule to a new priority, counters intact.

        The rule object is re-slotted (removed from its position and
        re-inserted under the normal ordering) rather than replaced, so
        its packet/byte counters keep accumulating — the whole point of
        a reprioritize over a remove+install.  Not counted as flow-table
        churn: no rule was installed or removed.
        """
        self._rules.remove(rule)
        rule.priority = int(priority)
        self._rules.insert(self._slot(rule.priority), rule)
        self._port_candidates.clear()
        return rule

    def remove_by_cookie(self, cookie: Any) -> int:
        """Remove every rule tagged with ``cookie``; returns the count."""
        before = len(self._rules)
        self._rules = [rule for rule in self._rules if rule.cookie != cookie]
        removed = before - len(self._rules)
        if removed:
            self._port_candidates.clear()
            self._count_churn(removed=removed)
        return removed

    def rules_for_cookie(self, cookie: Any) -> Tuple[FlowRule, ...]:
        """Every installed rule tagged with ``cookie``, priority order.

        The verification oracle uses this to audit one provenance
        segment (a participant's policy block, a fast-path override)
        without scanning the whole table at each call site.
        """
        return tuple(rule for rule in self._rules if rule.cookie == cookie)

    def clear(self) -> None:
        removed = len(self._rules)
        self._rules.clear()
        self._port_candidates.clear()
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
        self._port_candidates.clear()
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
        """The matching rule a switch would select in one table stage."""
        for rule in self._candidates(table, packet.get("port")):
            if rule.match.matches(packet):
                return rule
        return None

    def _candidates(self, table: int, port: Any) -> List[FlowRule]:
        """Rules in ``table`` that could match a packet on ``port``, in order.

        ``port`` is an exact-match field, so the table partitions by it:
        a rule either names this port or leaves port unconstrained, and
        filtering preserves the priority order, making a scan over the
        partition equivalent to a scan over the full table.  A packet
        without a located port (``None``) can never satisfy a
        port-constrained rule, but every unconstrained rule is kept —
        those are exactly the ones that can match, and such packets are
        rare (pre-location tracing only).
        """
        key = (table, port)
        cached = self._port_candidates.get(key)
        if cached is None:
            if port is None:
                cached = [rule for rule in self._rules if rule.table == table]
            else:
                cached = [
                    rule
                    for rule in self._rules
                    if rule.table == table
                    and (
                        (constraint := rule.match.constraint("port")) is None
                        or constraint == port
                    )
                ]
            self._port_candidates[key] = cached
        return cached

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
