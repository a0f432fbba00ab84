"""Two-stage incremental compilation (Section 4.3.2).

When BGP best paths change, the SDX must react quickly but cannot
afford a full recompilation per update.  The paper's fast path:

* *assumes* a fresh VNH is needed for each changed prefix (skipping the
  FEC computation entirely);
* recompiles only the policy fragments that can touch that prefix;
* installs the result as higher-priority rules, leaving the (now
  partially stale) base table in place;

while the *background* stage periodically reruns the full compilation,
swapping in a minimal table and flushing the fast-path rules.  The
price of the fast path is extra rules in the switch — exactly what the
paper's Figure 9 counts — and its speed is what Figure 10 measures.
"""

from __future__ import annotations

import time
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.telemetry import SIZE_BUCKETS

from repro.bgp.messages import Route
from repro.bgp.route_server import BestPathChange
from repro.core.chaining import (
    ServiceChain,
    chain_continuation_rules,
    chain_entry_block,
)
from repro.core.fec import PrefixGroup
from repro.core.transforms import (
    default_rules_for_group,
    delivery_rules_for_group,
    isolate,
)
from repro.core.vmac import VirtualNextHop
from repro.dataplane.flowtable import FlowRule
from repro.dataplane.reconcile import is_base_cookie
from repro.netutils.ip import IPv4Prefix
from repro.netutils.mac import MACMask
from repro.policy.analysis import with_fallback
from repro.policy.classifier import Classifier, Rule, sequence_rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.controller import SDXController

__all__ = ["FastPathEngine", "FastPathUpdate"]

#: Priority floor for fast-path rule blocks: far above any base table.
FASTPATH_BASE_PRIORITY = 10_000_000


class FastPathUpdate(NamedTuple):
    """Outcome of fast-path handling for one prefix."""

    prefix: IPv4Prefix
    vnh: Optional[VirtualNextHop]
    rules_installed: int
    seconds: float


class FastPathEngine:
    """Per-prefix quick recompilation with deferred re-optimization."""

    def __init__(self, controller: "SDXController") -> None:
        self._controller = controller
        self._active: Dict[IPv4Prefix, Any] = {}  # prefix -> cookie
        self._vnhs: Dict[IPv4Prefix, VirtualNextHop] = {}  # prefix -> its VNH
        self._sequence = 0
        self._extra_rules = 0  # running count of installed fast-path rules
        telemetry = getattr(controller, "telemetry", None)
        self._m_seconds = self._m_rules = self._m_updates = None
        self._m_extra = self._m_prefixes = None
        if telemetry is not None:
            self._m_seconds = telemetry.histogram(
                "sdx_fastpath_seconds",
                "Per-prefix fast-path handling latency (Figure 10)",
                sample_window=8192,
            )
            self._m_rules = telemetry.histogram(
                "sdx_fastpath_rules_installed",
                "Rules installed per fast-path update",
                buckets=SIZE_BUCKETS,
            )
            self._m_updates = telemetry.counter(
                "sdx_fastpath_updates_total",
                "Fast-path invocations by outcome",
                labels=("outcome",),
            )
            self._m_extra = telemetry.gauge(
                "sdx_fastpath_extra_rules",
                "Fast-path override rules currently installed (Figure 9)",
            )
            self._m_prefixes = telemetry.gauge(
                "sdx_fastpath_active_prefixes",
                "Prefixes currently served by fast-path rules",
            )

    def _now(self) -> float:
        telemetry = getattr(self._controller, "telemetry", None)
        return telemetry.now() if telemetry is not None else time.perf_counter()

    def _sync_gauges(self) -> None:
        if self._m_extra is not None:
            self._m_extra.set(self._extra_rules)
            self._m_prefixes.set(len(self._active))

    @property
    def active_prefixes(self) -> FrozenSet[IPv4Prefix]:
        """Prefixes currently served by fast-path rules."""
        return frozenset(self._active)

    def active_vnhs(self) -> Dict[IPv4Prefix, VirtualNextHop]:
        """The per-prefix VNHs currently backing fast-path blocks.

        The verification invariants audit these against the allocator:
        every entry must still be allocated (and resolvable over ARP),
        and nothing else fast-path-shaped may linger in the pool.
        """
        return dict(self._vnhs)

    def additional_rules(self) -> int:
        """Extra (fast-path) rules in the switch right now — Figure 9's metric.

        Counted per active cookie from the table's cookie index, so the
        cost follows the fast-path state, not the table size.
        """
        table = self._controller.switch.table
        return sum(
            len(table.rules_for_cookie(cookie)) for cookie in set(self._active.values())
        )

    # -- update handling ----------------------------------------------------

    def handle_changes(self, changes: List[BestPathChange]) -> List[FastPathUpdate]:
        """Fast-path one burst of best-path changes (deduplicated by prefix)."""
        results: List[FastPathUpdate] = []
        seen: Dict[IPv4Prefix, None] = {}
        for change in changes:
            seen.setdefault(change.prefix)
        # One shared-table sweep for the whole burst: per-prefix pruning
        # would rescan the table once per change.
        self.prune_stale_delivery(seen)
        for prefix in seen:
            results.append(self.handle_prefix(prefix, prune=False))
        return results

    def handle_prefix(
        self, prefix: IPv4Prefix, prune: bool = True
    ) -> FastPathUpdate:
        """Recompile a single prefix's slice of the SDX policy.

        Allocates a fresh VNH unconditionally (the paper's shortcut),
        builds the prefix-restricted two-stage policy, installs it above
        the base table, and pushes the re-advertisement so that border
        routers start tagging traffic with the new VMAC.
        """
        controller = self._controller
        started = self._now()
        if prune:
            self.prune_stale_delivery((prefix,))
        self._remove_block(prefix)
        ranked = controller.route_server.ranked_routes(prefix)
        if not ranked:
            # Prefix fully withdrawn: routers lose the route; nothing to install.
            controller.readvertise_prefix(prefix, None)
            elapsed = self._now() - started
            self._observe(elapsed, 0, installed=False)
            return FastPathUpdate(prefix, None, 0, elapsed)
        vnh = controller.allocator.allocate()
        group = PrefixGroup(-1, frozenset((prefix,)), vnh)
        classifier = self._compile_prefix(prefix, group, ranked)
        self._sequence += 1
        cookie = ("fastpath", str(prefix), self._sequence)
        controller.switch.table.install_classifier(
            classifier,
            base_priority=FASTPATH_BASE_PRIORITY + 4096 * self._sequence,
            cookie=cookie,
        )
        self._active[prefix] = cookie
        self._vnhs[prefix] = vnh
        self._extra_rules += len(classifier)
        controller.readvertise_prefix(prefix, vnh.address)
        elapsed = self._now() - started
        self._observe(elapsed, len(classifier), installed=True)
        return FastPathUpdate(prefix, vnh, len(classifier), elapsed)

    def prune_stale_delivery(self, prefixes: Any) -> int:
        """Drop shared delivery-table rules strandable by these changes.

        The multi-table layout's merged VMAC table carries one delivery
        rule per (class, announcing participant) — keyed by BGP
        *feasibility* at compile time, not by what stage-0 actually
        targets.  A withdrawal between background recompilations can
        therefore strand a delivery rule whose participant no longer
        advertises any prefix of the class.  The composed single table
        has no analogue: delivery only materializes behind stage-1
        rules, and those filter infeasible targets per sender.

        Frames must not leave the fabric toward a router that never
        advertised their destination (it would discard or, worse,
        re-route them), so the fast path prunes such rules — a table-1
        miss drops the frame, exactly what composition would have
        produced.  Masked superset rules covering several classes are
        narrowed instead of dropped: surviving classes keep exact-match
        replacements at the same priority.  The next background
        recompilation rebuilds the table from live state either way.
        """
        controller = self._controller
        last = controller.last_compilation
        if last is None or not last.placements:
            return 0  # single-table layout: delivery is composition-owned
        changed = set(prefixes)
        tag_classes = {
            group.vnh.hardware: group.prefixes
            for group in last.fec_table.affected_groups
        }
        changed_tags = {
            vmac
            for vmac, owned in tag_classes.items()
            if not changed.isdisjoint(owned)
        }
        if not changed_tags:
            return 0
        server = controller.route_server
        port_owner = {
            port.port_id: spec.name
            for spec in controller.config.participants()
            for port in spec.ports
        }
        table = controller.switch.table

        def advertises(target: str, vmac: Any) -> bool:
            return any(
                server.route_from(target, p) is not None
                for p in tag_classes[vmac]
            )

        removals: List[FlowRule] = []
        replacements: List[FlowRule] = []
        for rule in table:
            if rule.table == 0 or rule.goto is not None:
                continue
            if not is_base_cookie(rule.cookie):
                continue
            tag = rule.match.constraint("dstmac")
            if isinstance(tag, MACMask) and not tag.is_exact:
                matched = [vmac for vmac in tag_classes if tag.matches(vmac)]
                if changed_tags.isdisjoint(matched):
                    continue
            elif tag in changed_tags:
                matched = [tag]
            else:
                continue
            targets = {
                port_owner[action.output_port]
                for action in rule.actions
                if action.output_port in port_owner
            }
            if not targets:
                continue
            valid = [
                vmac
                for vmac in matched
                if all(advertises(target, vmac) for target in targets)
            ]
            if len(valid) == len(matched):
                continue
            removals.append(rule)
            for vmac in valid:
                narrowed = rule.match.restrict("dstmac", vmac)
                if narrowed is not None:
                    replacements.append(
                        FlowRule(
                            rule.priority,
                            narrowed,
                            rule.actions,
                            cookie=rule.cookie,
                            table=rule.table,
                            goto=rule.goto,
                        )
                    )
        for rule in removals:
            table.remove(rule)
        for rule in replacements:
            table.install(rule)
        if removals and self._m_updates is not None:
            self._m_updates.inc(len(removals), outcome="pruned")
        return len(removals)

    def _observe(self, seconds: float, rules: int, installed: bool) -> None:
        self._sync_gauges()
        if self._m_seconds is None:
            return
        self._m_seconds.observe(seconds)
        self._m_rules.observe(rules)
        self._m_updates.inc(outcome="installed" if installed else "withdrawn")

    def flush(self) -> int:
        """Drop every fast-path block (after a background recompilation).

        Also releases the per-prefix VNHs: the background compilation
        has re-assigned every affected prefix a fresh FEC-level VNH, so
        the fast-path ones are dead weight in the pool.
        """
        removed = 0
        table = self._controller.switch.table
        allocator = self._controller.allocator
        for cookie in self._active.values():
            removed += table.remove_by_cookie(cookie)
        for vnh in self._vnhs.values():
            allocator.release(vnh.address)
        self._active.clear()
        self._vnhs.clear()
        self._extra_rules = 0
        self._sync_gauges()
        return removed

    def snapshot(self) -> Tuple[Dict[IPv4Prefix, Any], Dict[IPv4Prefix, VirtualNextHop], int, int]:
        """Capture the engine's bookkeeping for transactional rollback.

        The cookie map, VNH map, sequence counter, and extra-rule count
        are recorded — the flow rules themselves are covered by the flow
        table's own checkpoint.
        """
        return dict(self._active), dict(self._vnhs), self._sequence, self._extra_rules

    def restore(
        self,
        state: Tuple[Dict[IPv4Prefix, Any], Dict[IPv4Prefix, VirtualNextHop], int, int],
    ) -> None:
        """Reinstate bookkeeping captured by :meth:`snapshot`.

        VNHs released by an intervening :meth:`flush` are reclaimed in
        the allocator so the restored rules and re-advertisements keep
        resolving.
        """
        active, vnhs, sequence, extra_rules = state
        self._active = dict(active)
        self._vnhs = dict(vnhs)
        for vnh in vnhs.values():
            self._controller.allocator.reclaim(vnh)
        self._sequence = sequence
        self._extra_rules = extra_rules
        self._sync_gauges()

    # -- prefix-restricted compilation ------------------------------------------

    def _compile_prefix(
        self, prefix: IPv4Prefix, group: PrefixGroup, ranked: Tuple[Route, ...]
    ) -> Classifier:
        """The mini SDX classifier handling exactly this prefix's VMAC."""
        controller = self._controller
        config = controller.config
        vmac = group.vnh.hardware

        # Stage 1: participant policy fragments mentioning this prefix,
        # then the per-group default rules.
        stage1_rules: List[Rule] = []
        participant_names = frozenset(config.participant_names())
        for participant in config.participants():
            if participant.is_remote:
                continue
            raw = controller.raw_outbound_classifier(participant.name)
            if raw is None:
                continue
            loc_rib = controller.route_server.loc_rib(participant.name)
            feasible = loc_rib.feasible_next_hops(prefix)
            fragment: List[Rule] = []
            for rule in raw.rules:
                if rule.is_drop:
                    continue
                constraint = rule.match.constraint("dstip")
                if constraint is not None and not constraint.overlaps(prefix):
                    continue
                # Participant targets require BGP feasibility; chain and
                # physical-port targets pass through, mirroring
                # vmacify_outbound's treatment.
                targets = [
                    action
                    for action in rule.actions
                    if (
                        action.output_port in feasible
                        if action.output_port in participant_names
                        else action.output_port is not None
                    )
                ]
                if not targets:
                    continue
                scoped = rule.match.without("dstip").restrict("dstmac", vmac)
                if scoped is None:
                    continue
                if constraint is not None and not constraint.contains(prefix):
                    narrowed = scoped.restrict("dstip", constraint)
                    if narrowed is None:
                        continue
                    scoped = narrowed
                fragment.append(Rule(scoped, targets))
            if fragment:
                stage1_rules.extend(
                    isolate(Classifier(fragment), participant.port_ids).rules
                )
        # Mid-chain continuation for this VMAC must outrank the default
        # rule (which has no port constraint and would otherwise swallow
        # traffic returning from a middlebox hop).
        chains = list(controller.policy.chains().values())
        for continuation in chain_continuation_rules(chains):
            scoped = continuation.match.restrict("dstmac", vmac)
            if scoped is not None:
                stage1_rules.append(Rule(scoped, continuation.actions))
        stage1_rules.extend(default_rules_for_group(config, group, ranked))
        stage1 = Classifier(stage1_rules)

        # Stage 2: blocks are only needed for locations stage 1 can reach
        # — the participants some rule forwards to, plus chains and
        # physical ports targeted directly.  Building all ~N blocks per
        # update would make the fast path linear in the exchange size
        # for no benefit.
        targets = set()
        for rule in stage1.rules:
            for action in rule.actions:
                if action.output_port is not None:
                    targets.add(action.output_port)
        blocks: Dict[Any, Classifier] = {}
        port_ids = {port.port_id for port in config.physical_ports()}
        for target in targets:
            if isinstance(target, ServiceChain):
                blocks[target] = chain_entry_block(target)
                continue
            if target in port_ids:
                blocks[target] = controller.passthrough_block(target)
                continue
            if target not in config:
                continue
            participant = config.participant(target)
            inbound = controller.raw_inbound_classifier(participant.name)
            narrowed_rules: List[Rule] = []
            if inbound is not None:
                for rule in inbound.rules:
                    scoped = rule.match.restrict("dstmac", vmac)
                    if scoped is not None:
                        narrowed_rules.append(Rule(scoped, rule.actions))
            combined = with_fallback(
                controller.rewrite_delivery(Classifier(narrowed_rules)),
                Classifier(delivery_rules_for_group(participant, group, ranked)),
            )
            block = isolate(combined, [participant.name])
            if len(block):
                blocks[participant.name] = block

        rules: List[Rule] = []
        for rule in stage1.rules:
            rules.extend(
                sequence_rule(rule, lambda action: blocks.get(action.output_port))
            )
        return Classifier(rules).optimized()

    # -- plumbing -------------------------------------------------------------

    def _remove_block(self, prefix: IPv4Prefix) -> int:
        """Drop one prefix's block and release its superseded VNH."""
        cookie = self._active.pop(prefix, None)
        removed = 0
        if cookie is not None:
            removed = self._controller.switch.table.remove_by_cookie(cookie)
            self._extra_rules -= removed
        vnh = self._vnhs.pop(prefix, None)
        if vnh is not None:
            self._controller.allocator.release(vnh.address)
        return removed

    def __repr__(self) -> str:
        return f"FastPathEngine(active_prefixes={len(self._active)})"
