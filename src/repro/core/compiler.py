"""The SDX policy compiler (the left pipeline of Figure 3).

Given the participants' policies and the route server's current state,
:class:`SDXCompiler` produces the single flow-table policy for the
physical switch by running the Section 4.1 transformations with the
Section 4.2/4.3 optimizations:

1. compile each participant's policy ASTs to classifiers (memoized);
2. extract policy prefix groups and compute the FEC table + VNH/VMAC
   assignment (Section 4.2);
3. per participant: VMAC-encode the BGP reachability filters, seal the
   claimed flow space, and pin the result to the participant's ports;
4. build the shared default-forwarding block and per-participant
   delivery blocks;
5. compose the two stages of the virtual topology, consulting — for
   every forwarding action — only the block of the participant it
   targets (the "subset of participants" optimization).

Every optimization can be disabled through :class:`CompilationOptions`
for the ablation benchmarks.
"""

from __future__ import annotations

import time
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.bgp.messages import Route
from repro.bgp.route_server import RouteServer
from repro.core.chaining import (
    ServiceChain,
    chain_continuation_rules,
    chain_entry_block,
    validate_chains,
)
from repro.core.fec import FECTable, PrefixGroup, compute_fec_table
from repro.core.participant import SDXPolicySet
from repro.core.supersets import (
    SupersetEncoder,
    default_delivery_classifier_superset,
    default_forwarding_classifier_superset,
    encoding_inputs,
    vmacify_outbound_superset,
)
from repro.core.transforms import (
    concat_disjoint,
    default_delivery_classifier,
    default_forwarding_classifier,
    extract_policy_groups,
    isolate,
    rewrite_inbound_delivery,
    vmacify_outbound,
)
from repro.core.vmac import VirtualNextHopAllocator
from repro.ixp.topology import IXPConfig
from repro.netutils.ip import IPv4Address, IPv4Prefix
from repro.policy.analysis import with_fallback
from repro.policy.classifier import Action, Classifier, HeaderMatch, Rule, sequence_rule
from repro.policy.language import Policy
from repro.telemetry import MetricsRegistry

__all__ = [
    "CompilationOptions",
    "CompilationResult",
    "CompilationStats",
    "SDXCompiler",
]

_EMPTY = Classifier()


class CompilationOptions(NamedTuple):
    """Feature switches for the Section 4.3.1 optimizations (ablations)."""

    #: compose each forwarding action only with its target's block
    prune_targets: bool = True
    #: combine isolated per-participant blocks by concatenation instead
    #: of full parallel composition
    disjoint_concat: bool = True
    #: cache policy-AST compilations and reuse second-stage blocks
    memoize: bool = True


class CompilationStats(NamedTuple):
    """Where compile time went (Figure 8's measurement breakdown)."""

    policy_compile_seconds: float
    vnh_compute_seconds: float
    transform_seconds: float
    compose_seconds: float
    total_seconds: float
    policy_groups: int
    fec_groups: int
    rules: int


class CompilationResult(NamedTuple):
    """Everything a full compilation produces.

    ``segments`` partitions ``classifier`` (in order) by rule
    provenance: ``("policy", name)`` for a participant's composed
    policy block, ``("chains",)`` for service-chain continuations,
    ``("default",)`` for shared default forwarding — the basis for
    per-policy traffic accounting in the switch.
    """

    classifier: Classifier
    fec_table: FECTable
    stage1: Classifier
    stage2_blocks: Mapping[Any, Classifier]
    #: prefix -> VNH for policy-affected prefixes only; every other
    #: prefix is re-advertised with its best route's real next-hop
    advertised_next_hops: Mapping[IPv4Prefix, IPv4Address]
    stats: CompilationStats
    segments: Tuple[Tuple[Any, Classifier], ...] = ()
    #: multi-table layout: segment label -> (table id, goto table);
    #: empty means every segment lands in table 0 with no chaining
    placements: Mapping[Any, Tuple[int, Optional[int]]] = {}


class SDXCompiler:
    """Compiles participant policies + BGP state into one classifier."""

    def __init__(
        self,
        config: IXPConfig,
        route_server: RouteServer,
        options: CompilationOptions = CompilationOptions(),
        telemetry: Optional[MetricsRegistry] = None,
        vmac_mode: str = "fec",
        encoder: Optional["SupersetEncoder"] = None,
    ) -> None:
        self.config = config
        self.route_server = route_server
        self.options = options
        self.telemetry = telemetry
        #: "fec" (opaque per-class VMACs, exact matches) or "superset"
        #: (attribute-encoded VMACs, masked matches); superset requires
        #: an encoder — one is created on demand when none is supplied
        self.vmac_mode = vmac_mode
        if vmac_mode == "superset" and encoder is None:
            encoder = SupersetEncoder(telemetry=telemetry)
        self.encoder = encoder
        self._ast_cache: Dict[Policy, Classifier] = {}
        self._m_phase = self._m_total = self._m_compiles = None
        self._m_cache = self._m_rules = self._m_groups = None
        if telemetry is not None:
            self._m_phase = telemetry.histogram(
                "sdx_compile_phase_seconds",
                "Time spent per compilation phase",
                labels=("phase",),
            )
            self._m_total = telemetry.histogram(
                "sdx_compile_seconds", "End-to-end full compilation time"
            )
            self._m_compiles = telemetry.counter(
                "sdx_compilations_total", "Full compilation pipeline runs"
            )
            self._m_cache = telemetry.counter(
                "sdx_ast_cache_total",
                "Policy-AST compilation cache lookups",
                labels=("result",),
            )
            self._m_rules = telemetry.gauge(
                "sdx_compile_rules", "Flow rules emitted by the last compilation"
            )
            self._m_groups = telemetry.gauge(
                "sdx_compile_fec_groups", "FEC groups in the last compilation"
            )

    # -- small helpers ------------------------------------------------------

    def _now(self) -> float:
        """The telemetry time source, or wall clock when uninstrumented."""
        if self.telemetry is not None:
            return self.telemetry.now()
        return time.perf_counter()

    def _compile_ast(self, policy: Optional[Policy]) -> Classifier:
        if policy is None:
            return _EMPTY
        if not self.options.memoize:
            return policy.compile()
        cached = self._ast_cache.get(policy)
        if cached is None:
            if self._m_cache is not None:
                self._m_cache.inc(result="miss")
            cached = policy.compile()
            self._ast_cache[policy] = cached
        elif self._m_cache is not None:
            self._m_cache.inc(result="hit")
        return cached

    def _fingerprint(self, prefix: IPv4Prefix):
        """Hashable BGP-state summary (pass 2 of the FEC computation)."""
        return tuple(
            (route.learned_from, int(route.attributes.next_hop), route.export_to)
            for route in self.route_server.ranked_routes(prefix)
        )

    # -- VMAC-encoding dispatch ---------------------------------------------

    @property
    def _vmac_for_group(self):
        """The FEC-stage VMAC hook: attribute-encode in superset mode."""
        if self.vmac_mode != "superset":
            return None
        encoder = self.encoder

        def vmac_for_group(prefixes, fingerprint):
            return encoder.encode(*encoding_inputs(fingerprint))

        return vmac_for_group

    def _vmacify(self, classifier, participant_names, reachable, fec_table):
        if self.vmac_mode == "superset":
            return vmacify_outbound_superset(
                classifier, participant_names, reachable, fec_table, self.encoder
            )
        return vmacify_outbound(classifier, participant_names, reachable, fec_table)

    def _default_forwarding(self, fec_table, ranked_routes):
        if self.vmac_mode == "superset":
            return default_forwarding_classifier_superset(
                self.config, fec_table, ranked_routes, self.encoder
            )
        return default_forwarding_classifier(self.config, fec_table, ranked_routes)

    def _default_delivery(self, participant, fec_table, ranked_routes):
        if self.vmac_mode == "superset":
            return default_delivery_classifier_superset(
                participant, fec_table, ranked_routes, self.encoder
            )
        return default_delivery_classifier(participant, fec_table, ranked_routes)

    # -- main entry point -----------------------------------------------------

    def compile(
        self,
        policies: Mapping[str, SDXPolicySet],
        originated: Optional[Mapping[str, FrozenSet[IPv4Prefix]]] = None,
        allocator: Optional[VirtualNextHopAllocator] = None,
        chains: Iterable[ServiceChain] = (),
    ) -> CompilationResult:
        """Run the full pipeline.

        ``policies`` maps participant names to their policy sets;
        ``originated`` maps participants to prefixes they asked the SDX
        to originate (those are always assigned VNHs so senders can tag
        them).  ``allocator`` supplies VNH/VMAC pairs — the controller
        passes a fresh one on every full compilation.  ``chains`` are
        the registered service chains participants may ``fwd()`` into.
        """
        started = self._now()
        originated = originated or {}
        chains = list(chains)
        validate_chains(chains, self.config)
        chain_hop_ports = {hop for chain in chains for hop in chain.hops}
        if allocator is None:
            allocator = VirtualNextHopAllocator(self.config.vnh_pool)
        participant_names = frozenset(self.config.participant_names())

        # Phase A: policy ASTs -> classifiers.
        phase = self._now()
        out_raw: Dict[str, Classifier] = {}
        in_raw: Dict[str, Classifier] = {}
        for name in self.config.participant_names():
            policy_set = policies.get(name)
            if policy_set is None:
                continue
            if policy_set.outbound is not None:
                out_raw[name] = self._compile_ast(policy_set.outbound)
            if policy_set.inbound is not None:
                in_raw[name] = self._compile_ast(policy_set.inbound)
        policy_compile_seconds = self._now() - phase

        # Phase B: prefix groups + FEC table (VNH computation).
        phase = self._now()
        policy_groups: List[FrozenSet[IPv4Prefix]] = []
        for name, classifier in out_raw.items():
            reachable = self._reachable_fn(name)
            policy_groups.extend(
                extract_policy_groups(classifier, participant_names, reachable)
            )
        for name, prefixes in originated.items():
            if prefixes:
                policy_groups.append(frozenset(prefixes))
        fec_table = compute_fec_table(
            policy_groups, self._fingerprint, allocator, self._vmac_for_group
        )
        ranked_cache: Dict[int, Tuple[Route, ...]] = {}

        def ranked_routes(group: PrefixGroup) -> Tuple[Route, ...]:
            cached = ranked_cache.get(group.group_id)
            if cached is None:
                sample = next(iter(group.prefixes))
                cached = self.route_server.ranked_routes(sample)
                ranked_cache[group.group_id] = cached
            return cached

        vnh_compute_seconds = self._now() - phase

        # Phase C: per-participant transformed blocks, labelled with their
        # provenance so the controller can account traffic per policy.
        phase = self._now()
        labeled_blocks: List[Tuple[Any, Classifier]] = []
        for participant in self.config.participants():
            raw = out_raw.get(participant.name)
            if raw is None or participant.is_remote:
                continue
            vmacified = self._vmacify(
                raw,
                participant_names,
                self._reachable_fn(participant.name),
                fec_table,
            )
            sealed = with_fallback(vmacified, _EMPTY)
            labeled_blocks.append(
                (("policy", participant.name), isolate(sealed, participant.port_ids))
            )
        stage1_blocks = [block for _, block in labeled_blocks]
        default_block = self._default_forwarding(fec_table, ranked_routes)

        stage2_blocks: Dict[Any, Classifier] = {}
        for participant in self.config.participants():
            raw_in = in_raw.get(participant.name, _EMPTY)
            delivery_ready = rewrite_inbound_delivery(raw_in, self.config)
            combined = with_fallback(
                delivery_ready,
                self._default_delivery(participant, fec_table, ranked_routes),
            )
            stage2_blocks[participant.name] = isolate(combined, [participant.name])
        for port in self.config.physical_ports():
            if port.port_id in chain_hop_ports:
                # Chain hops keep the frame's VMAC: no MAC rewrite, the
                # appliance taps promiscuously and the preserved tag is
                # what resumes default forwarding after the last hop.
                egress = Action(port=port.port_id)
            else:
                egress = Action(port=port.port_id, dstmac=port.hardware)
            stage2_blocks[port.port_id] = Classifier(
                [Rule(HeaderMatch(port=port.port_id), (egress,))]
            )
        for chain in chains:
            stage2_blocks[chain] = chain_entry_block(chain)
        continuation = Classifier(chain_continuation_rules(chains))
        transform_seconds = self._now() - phase

        # Phase D: two-stage composition.  Stage-1 blocks are disjoint
        # and ordered, so composing them separately preserves both the
        # global rule order and each rule's provenance label.
        phase = self._now()
        labeled_blocks.append((("chains",), continuation))
        labeled_blocks.append((("default",), default_block))
        if self.options.disjoint_concat:
            stage1 = concat_disjoint([block for _, block in labeled_blocks])
            segments: List[Tuple[Any, Classifier]] = []
            for label, block in labeled_blocks:
                composed = self._compose(
                    block, stage2_blocks, in_raw, fec_table, ranked_routes
                )
                if len(composed):
                    segments.append((label, composed))
            final = concat_disjoint([segment for _, segment in segments])
        else:
            stage1 = _EMPTY
            for block in stage1_blocks + [continuation]:
                stage1 = stage1 + block
            stage1 = with_fallback(stage1, default_block)
            final = self._compose(stage1, stage2_blocks, in_raw, fec_table, ranked_routes)
            segments = [(("all",), final)]
        compose_seconds = self._now() - phase

        advertised = self._advertised_next_hops(fec_table)
        total = self._now() - started
        stats = CompilationStats(
            policy_compile_seconds=policy_compile_seconds,
            vnh_compute_seconds=vnh_compute_seconds,
            transform_seconds=transform_seconds,
            compose_seconds=compose_seconds,
            total_seconds=total,
            policy_groups=len(policy_groups),
            fec_groups=len(fec_table.affected_groups),
            rules=len(final),
        )
        self._record_stats(stats)
        return CompilationResult(
            classifier=final,
            fec_table=fec_table,
            stage1=stage1,
            stage2_blocks=stage2_blocks,
            advertised_next_hops=advertised,
            stats=stats,
            segments=tuple(segments),
        )

    def _record_stats(self, stats: CompilationStats) -> None:
        """Fold one compilation's phase breakdown into the registry."""
        if self.telemetry is None:
            return
        self._m_compiles.inc()
        self._m_phase.observe(stats.policy_compile_seconds, phase="ast")
        self._m_phase.observe(stats.vnh_compute_seconds, phase="fec")
        self._m_phase.observe(stats.transform_seconds, phase="transform")
        self._m_phase.observe(stats.compose_seconds, phase="compose")
        self._m_total.observe(stats.total_seconds)
        self._m_rules.set(stats.rules)
        self._m_groups.set(stats.fec_groups)

    # -- composition ----------------------------------------------------------

    def _compose(
        self,
        stage1: Classifier,
        stage2_blocks: Mapping[Any, Classifier],
        in_raw: Mapping[str, Classifier],
        fec_table: FECTable,
        ranked_routes,
    ) -> Classifier:
        """Sequentially compose the two virtual-topology stages.

        With ``prune_targets`` every stage-1 action consults only the
        block of the location it forwards to; otherwise the full
        concatenated second stage is scanned for every rule — the
        difference is exactly the paper's first 4.3.1 optimization.
        """
        if self.options.prune_targets:
            if self.options.memoize:
                resolve = stage2_blocks.get
            else:
                # Ablation: rebuild the target's block on every use, as a
                # compiler without sub-policy memoization would.
                def resolve(target: Any) -> Optional[Classifier]:
                    block = stage2_blocks.get(target)
                    if block is None:
                        return None
                    return Classifier(list(block.rules))

            rules: List[Rule] = []
            for rule in stage1.rules:
                rules.extend(
                    sequence_rule(rule, lambda action: resolve(action.output_port))
                )
            return Classifier(rules).optimized()
        ordered_blocks = [stage2_blocks[key] for key in sorted(stage2_blocks, key=str)]
        stage2 = concat_disjoint(ordered_blocks)
        return stage1 >> stage2

    # -- BGP plumbing ------------------------------------------------------------

    def _reachable_fn(self, participant: str):
        loc_rib = self.route_server.loc_rib(participant)
        cache: Dict[str, FrozenSet[IPv4Prefix]] = {}

        def reachable(target: str) -> FrozenSet[IPv4Prefix]:
            found = cache.get(target)
            if found is None:
                found = loc_rib.prefixes_via(target)
                cache[target] = found
            return found

        return reachable

    def _advertised_next_hops(
        self, fec_table: FECTable
    ) -> Dict[IPv4Prefix, IPv4Address]:
        """The VNH each policy-affected prefix is re-advertised with.

        The VNH is the same for every participant, and prefixes no
        policy touches need no entry: for them the route server "simply
        behaves like a normal route server" and re-advertises the best
        route's real next-hop.
        """
        return {
            prefix: group.vnh.address
            for group in fec_table.affected_groups
            for prefix in group.prefixes
        }
