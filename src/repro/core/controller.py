"""The SDX controller (Figure 3): route server + policy compiler + runtime.

:class:`SDXController` is the system's public face.  It owns

* the :class:`~repro.bgp.route_server.RouteServer` participants peer with,
* the :class:`~repro.core.compiler.SDXCompiler` pipeline,
* the physical :class:`~repro.dataplane.switch.SDNSwitch` and its flow table,
* the ARP responder that maps virtual next-hops to virtual MACs,
* the :class:`~repro.core.incremental.FastPathEngine` reacting to BGP updates,

and the bookkeeping that ties them together: participant registration,
policy storage, prefix origination, re-advertisement with VNH rewriting,
and pushing routes into attached border routers.

The public API is *faceted* (see :mod:`repro.core.facets`):
``controller.routing`` for the BGP side, ``controller.policy`` for
policy and chain management, ``controller.ops`` for health, metrics,
quarantine, and commit hooks.  The historical flat methods are gone —
the facets are the supported surface.

Every mutating call runs through ``controller.runtime``, one
:class:`~repro.runtime.runtime.ControlPlaneRuntime` whose cooperative
scheduler drives the update→compile→commit→verify path.  A single call
auto-drains and returns its result; ``runtime.pipelined()`` batches a
burst.

Typical use::

    controller = SDXController(config)
    a = controller.register_participant("A")
    ...
    a.set_policies(outbound=match(dstport=80) >> fwd("B"))
    controller.routing.process_update(update)  # BGP updates stream in
    controller.run_background_recompilation()  # periodic re-optimization
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.bgp.messages import Announcement
from repro.bgp.route_server import BestPathChange, RouteServer
from repro.core.compiler import CompilationResult, SDXCompiler
from repro.core.facets import OpsFacet, PolicyFacet, RoutingFacet
from repro.core.incremental import FastPathEngine, FastPathUpdate
from repro.core.participant import ParticipantHandle, SDXPolicySet
from repro.core.config import SDXConfig
from repro.core.supersets import SupersetEncoder
from repro.core.transforms import rewrite_inbound_delivery
from repro.core.vmac import VirtualNextHopAllocator
from repro.dataplane.arp import ARPService
from repro.dataplane.flowtable import FlowRule
from repro.dataplane.reconcile import ChurnStats, CommitReport
from repro.guard import (
    AdmissionConfig,
    AdmissionController,
    CommitGuard,
    GuardConfig,
)
from repro.dataplane.router import BorderRouter
from repro.dataplane.switch import SDNSwitch
from repro.ixp.topology import IXPConfig
from repro.netutils.ip import IPv4Address, IPv4Prefix
from repro.pipeline import CompilationPipeline
from repro.pipeline.stages import BASE_COOKIE, BASE_PRIORITY
from repro.policy.classifier import Action, Classifier, HeaderMatch, Rule
from repro.policy.packet import Packet
from repro.resilience.health import HealthReport, QuarantineRecord
from repro.runtime import ControlPlaneRuntime, RuntimeConfig
from repro.telemetry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.incremental import FastPathUpdate as _FastPathUpdate
    from repro.resilience import ResilienceCoordinator
    from repro.sim.clock import Simulator

__all__ = [
    "BASE_COOKIE",
    "BASE_PRIORITY",
    "ChurnStats",
    "CommitReport",
    "PacketTrace",
    "SDXController",
]


class PacketTrace(NamedTuple):
    """One forwarding decision, explained (see ``trace_packet``)."""

    packet: "Packet"
    in_port: str
    rule: Optional["FlowRule"]
    provenance: str
    outputs: FrozenSet["Packet"]

    @property
    def dropped(self) -> bool:
        return not self.outputs

    def egress_ports(self) -> FrozenSet[str]:
        """The fabric ports the traced packet would leave through."""
        return frozenset(
            out.get("port") for out in self.outputs if out.get("port") is not None
        )

    def __repr__(self) -> str:
        if self.rule is None:
            return f"PacketTrace(in={self.in_port}, no matching rule -> drop)"
        ports = ", ".join(sorted(map(str, self.egress_ports()))) or "drop"
        return (
            f"PacketTrace(in={self.in_port}, via={self.provenance}, "
            f"priority={self.rule.priority} -> {ports})"
        )

class SDXController:
    """Facade over the staged compilation pipeline (``repro.pipeline``).

    The controller owns registration, policy/chain/origination storage,
    and the public API; compilation, shard caching, BGP ingress
    batching, and fabric commits live in
    :class:`~repro.pipeline.pipeline.CompilationPipeline`.
    """

    def __init__(
        self,
        config: IXPConfig,
        fast_path_enabled: Optional[bool] = None,
        arp: Optional[ARPService] = None,
        ownership: Optional["OwnershipRegistry"] = None,
        route_server_asn: Optional[int] = None,
        guard: Optional[GuardConfig] = None,
        admission: Optional[AdmissionConfig] = None,
        vmac_mode: Optional[str] = None,
        dataplane_mode: Optional[str] = None,
        # only "eventloop" is valid; kept for callers that still pass it
        runtime_mode: Optional[str] = None,
        runtime_config: Optional[RuntimeConfig] = None,
        runtime_clock: Optional["Simulator"] = None,
        sdx: Optional[SDXConfig] = None,
    ) -> None:
        self.config = config
        self.ownership = ownership
        # Knob resolution happens in exactly one place: the per-knob
        # keyword arguments overlay onto the ``sdx`` config (explicit
        # argument wins), then every still-unset field resolves from
        # its REPRO_* environment variable, then its default.
        sdx = (sdx if sdx is not None else SDXConfig()).overlay(
            vmac_mode=vmac_mode,
            dataplane_mode=dataplane_mode,
            runtime_mode=runtime_mode,
            runtime_config=runtime_config,
            guard=guard,
            admission=admission,
            fast_path_enabled=fast_path_enabled,
        )
        #: the resolved knob set (no ``None`` left in the mode fields)
        self.sdx: SDXConfig = sdx.resolved()
        #: one registry per controller; every subsystem reports into it
        self.telemetry = MetricsRegistry()
        # With a route-server ASN, announcements may steer their export
        # scope via the standard (0, peer) / (rs, peer) communities.
        self.route_server = RouteServer(asn=route_server_asn)
        self.route_server.attach_telemetry(self.telemetry)
        #: VMAC encoding scheme: "fec" (one opaque VMAC per class) or
        #: "superset" (attribute-encoded VMACs, masked fabric rules)
        self.vmac_mode = self.sdx.vmac_mode
        #: dataplane layout: "single" (fully composed table 0) or
        #: "multitable" (stage-1 policy table chained into a stage-2
        #: VMAC table)
        self.dataplane_mode = self.sdx.dataplane_mode
        self.arp = arp if arp is not None else ARPService()
        self.allocator = VirtualNextHopAllocator(config.vnh_pool)
        self.arp.register(self.allocator.resolve)
        #: superset-mode VMAC registry (None in per-FEC mode).  Spilled
        #: classes draw from the allocator's own MAC source so spilled
        #: and fast-path per-prefix VMACs can never collide.
        self.superset_encoder: Optional[SupersetEncoder] = (
            SupersetEncoder(
                fallback=self.allocator.mac_source(), telemetry=self.telemetry
            )
            if self.vmac_mode == "superset"
            else None
        )
        self.compiler = SDXCompiler(
            config,
            self.route_server,
            telemetry=self.telemetry,
            vmac_mode=self.vmac_mode,
            encoder=self.superset_encoder,
        )
        self.switch = SDNSwitch(
            "sdx-fabric", ports=[port.port_id for port in config.physical_ports()]
        )
        self.switch.table.attach_telemetry(self.telemetry)
        self.fast_path = FastPathEngine(self)
        self._m_quarantines = self.telemetry.counter(
            "sdx_quarantine_total", "Participants quarantined during compilation"
        )
        self._m_vnh = self.telemetry.gauge(
            "sdx_vnh_allocated", "Live (VNH, VMAC) pairs in the allocator"
        )
        self._m_vnh_free = self.telemetry.gauge(
            "sdx_vnh_free", "Released VNH addresses awaiting reuse"
        )
        self._m_install_latency = self.telemetry.histogram(
            "sdx_update_install_seconds",
            "Update→install latency through the control plane",
            labels=("kind",),
            sample_window=4096,
        )
        self.fast_path_enabled = self.sdx.fast_path_enabled

        self._policies: Dict[str, SDXPolicySet] = {}
        self._chains: Dict[str, "ServiceChain"] = {}
        self._originated: Dict[str, Set[IPv4Prefix]] = {}
        self._handles: Dict[str, ParticipantHandle] = {}
        self._routers: Dict[str, BorderRouter] = {}
        self._last_result: Optional[CompilationResult] = None
        self._base_cookies: List[Tuple] = []
        #: prefix -> VNH for policy-affected prefixes (iSDX's
        #: ``prefix_2_VNH``); a prefix with no entry is re-advertised
        #: with its best route's real next-hop
        self._advertised: Dict[IPv4Prefix, IPv4Address] = {}
        self._fast_path_log: List[FastPathUpdate] = []
        self._quarantined: Dict[str, QuarantineRecord] = {}
        self._commit_hooks: List[Callable[[CompilationResult], None]] = []
        #: set by :meth:`enable_resilience`
        self.resilience: Optional["ResilienceCoordinator"] = None
        #: guarded commits (repro.guard): every fabric commit is followed
        #: by a budgeted sampled differential check inside the commit
        #: transaction; a mismatch rolls back, quarantines, and records
        #: an incident surfaced by ops.health().  None = unguarded.
        self.guard: Optional[CommitGuard] = (
            CommitGuard(self, self.sdx.guard) if self.sdx.guard is not None else None
        )
        #: the admission plane (repro.guard): per-participant rate limits
        #: and quotas enforced at the routing/policy facet entry points.
        #: None = unmetered.
        self.admission: Optional[AdmissionController] = (
            AdmissionController(self, self.sdx.admission)
            if self.sdx.admission is not None
            else None
        )

        #: faceted public API (see :mod:`repro.core.facets`): thin views
        #: over this controller's state — the supported surface
        self.routing = RoutingFacet(self)
        self.policy = PolicyFacet(self)
        self.ops = OpsFacet(self)

        #: the staged compilation engine (shard cache, ingress, committer)
        self.pipeline = CompilationPipeline(self)
        self._deferred_depth = 0
        self._deferred_pending = False

        #: the control-plane runtime every mutating facet call runs through
        self.runtime = ControlPlaneRuntime(
            self, config=self.sdx.runtime_config, clock=runtime_clock
        )

        for participant in config.participants():
            self.route_server.add_peer(participant.name, asn=participant.asn)
        self.route_server.subscribe(self._on_best_path_changes)

    # -- participant lifecycle ----------------------------------------------

    def register_participant(self, name: str) -> ParticipantHandle:
        """Hand out the control channel for a configured participant."""
        spec = self.config.participant(name)
        handle = self._handles.get(name)
        if handle is None:
            handle = ParticipantHandle(spec, self)
            self._handles[name] = handle
        return handle

    def attach_router(self, name: str, router: BorderRouter) -> None:
        """Wire a border router to receive this participant's advertisements."""
        self.config.participant(name)  # validates the name
        self._routers[name] = router
        self._push_routes_to(name)

    # -- compilation ----------------------------------------------------------------

    def compile(self) -> CommitReport:
        """Full (optimal) compilation: rebuild and reconcile the base table.

        Also flushes any fast-path blocks — this is the "background
        re-optimization" endpoint of Section 4.3.2.

        Compilation runs on the staged pipeline: only shards whose
        inputs changed are recompiled, and it is *fault-isolated* — a
        participant whose policy raises is quarantined (degraded to BGP
        default forwarding, with a recorded diagnosis) and the global
        compile proceeds without it.  Installation is *delta-reconciled* and
        *transactional*: only the minimal add/remove/reprioritize patch
        against the installed table is applied (unchanged rules keep
        their packet/byte counters), and a failure mid-commit rolls the
        fabric back to its exact pre-commit state rather than leaving
        it half-written.

        Returns the commit's :class:`CommitReport` — the added/removed/
        retained/reprioritized counts plus latency; unknown attributes
        delegate to the underlying
        :class:`~repro.core.compiler.CompilationResult`, so callers
        reading ``.segments`` / ``.fec_table`` / ``.stats`` are
        unaffected.

        An outside call submits a
        :class:`~repro.runtime.events.CompileEvent` and (auto-draining)
        returns the report; re-entrant calls — from inside the loop's
        own machinery — run the synchronous body directly.
        """
        if not self.runtime.active:
            return self.runtime.submit_compile()
        return self._install(self.pipeline.compile())

    def _maybe_compile(self, recompile: bool) -> None:
        """Mutator epilogue: compile now, or once at deferred-batch exit."""
        if not recompile:
            return
        if self._deferred_depth > 0:
            self._deferred_pending = True
            return
        if self.runtime.applying:
            # Mid-apply on the runtime's ingress task: request a compile
            # job for the compile/commit tasks instead of recursing into
            # a synchronous compilation from inside the event loop.
            self.runtime.request_compile()
            return
        self.compile()

    @contextmanager
    def deferred_recompilation(self):
        """Batch mutators into exactly one compilation.

        Inside the block, every ``set_policies`` / ``define_chain`` /
        ``release_quarantine`` call that would have recompiled defers
        instead; one compile runs when the outermost block exits
        cleanly.  On an exception nothing is compiled — the dirty state
        survives for the next explicit or background compilation.

        ::

            with controller.deferred_recompilation():
                for name, policy_set in workload.items():
                    controller.policy.set_policies(name, policy_set)
            # exactly one compile has run here
        """
        self._deferred_depth += 1
        try:
            yield self
        finally:
            self._deferred_depth -= 1
            if (
                self._deferred_depth == 0
                and self._deferred_pending
                and sys.exc_info()[0] is None
            ):
                self._deferred_pending = False
                self.compile()

    def _install(self, result: CompilationResult) -> CommitReport:
        """Delta-reconciled two-phase commit of a compilation.

        Delegates to the pipeline's
        :class:`~repro.pipeline.stages.FabricCommitter`: the target
        table is diffed against the installed one and only the patch is
        applied; any exception inside the transaction — including a
        registered commit hook raising — restores the flow table
        (membership, order, and priorities), the fast-path state, and
        the advertisement map to their pre-commit values, then
        propagates.
        """
        return self.pipeline.committer.install(result)

    def run_background_recompilation(self) -> CommitReport:
        """The periodic Section 4.3.2 re-optimization endpoint.

        When nothing is dirty — no policy, chain, or route change since
        the last successful commit and no fast-path overrides pending —
        the (expensive) compilation is skipped entirely and counted on
        the ``sdx_pipeline_noop_total`` telemetry counter; the cached
        result is re-reconciled transactionally, which the delta engine
        recognises as a no-op patch — every installed rule is retained
        and per-segment traffic counters keep accumulating.  Otherwise
        this is a full :meth:`compile`.  Either way the commit's
        :class:`CommitReport` is returned.
        """
        if (
            self._last_result is not None
            and self.pipeline.idle
            and not self.fast_path.active_prefixes
        ):
            self.pipeline.count_noop()
            return self._install(self._last_result)
        return self.compile()

    @property
    def last_compilation(self) -> Optional[CompilationResult]:
        return self._last_result

    # -- fast path plumbing ------------------------------------------------------------

    def _on_best_path_changes(self, changes: List[BestPathChange]) -> None:
        self.pipeline.note_route_changes(changes)
        if self.pipeline.ingress.batching:
            self.pipeline.ingress.collect(changes)
            return
        self._dispatch_fast_path(changes)

    def _dispatch_fast_path(self, changes: List[BestPathChange]) -> None:
        if not self.fast_path_enabled or self._last_result is None:
            return
        if self.resilience is not None:
            changes = self.resilience.filter_changes(changes)
            if not changes:
                return
        results = self.fast_path.handle_changes(changes)
        self._fast_path_log.extend(results)

    def refresh_prefix(self, prefix: "IPv4Prefix | str") -> "_FastPathUpdate":
        """Force one prefix through the fast path (damping catch-up)."""
        result = self.fast_path.handle_prefix(IPv4Prefix(prefix))
        self._fast_path_log.append(result)
        return result

    def raw_outbound_classifier(self, name: str) -> Optional[Classifier]:
        """The participant's compiled (untransformed) outbound policy."""
        policy_set = self._policies.get(name)
        if policy_set is None or policy_set.outbound is None:
            return None
        return self.compiler._compile_ast(policy_set.outbound)

    def raw_inbound_classifier(self, name: str) -> Optional[Classifier]:
        """The participant's compiled (untransformed) inbound policy."""
        policy_set = self._policies.get(name)
        if policy_set is None or policy_set.inbound is None:
            return None
        return self.compiler._compile_ast(policy_set.inbound)

    def rewrite_delivery(self, classifier: Classifier) -> Classifier:
        """Apply the physical-port MAC rewrite to an inbound classifier."""
        return rewrite_inbound_delivery(classifier, self.config)

    def passthrough_block(self, port_id: str) -> Classifier:
        """The stage-2 egress rule for one physical port.

        Chain-hop ports keep the frame's VMAC (no MAC rewrite) so that
        mid-chain and post-chain forwarding can still read the tag.
        """
        port = next(
            port for port in self.config.physical_ports() if port.port_id == port_id
        )
        if port_id in self.policy.chain_hop_ports():
            egress = Action(port=port.port_id)
        else:
            egress = Action(port=port.port_id, dstmac=port.hardware)
        return Classifier([Rule(HeaderMatch(port=port.port_id), (egress,))])

    # -- advertisements and router feeds -----------------------------------------------

    def advertisements(self, name: str) -> List[Announcement]:
        """Best routes re-advertised to ``name``, next-hops VNH-rewritten."""
        out: List[Announcement] = []
        for announcement in self.route_server.advertisements(name):
            rewritten = self._advertised.get(announcement.prefix)
            if rewritten is not None:
                out.append(
                    Announcement(
                        announcement.prefix,
                        announcement.attributes.replace(next_hop=rewritten),
                    )
                )
            else:
                out.append(announcement)
        return out

    def advertised_next_hop(
        self, name: str, prefix: IPv4Prefix
    ) -> Optional[IPv4Address]:
        """The next-hop ``name`` is told for one prefix (VNH-rewritten).

        Single-prefix equivalent of :meth:`advertisements` — the guard's
        per-commit probes ask about one (participant, prefix) pair at a
        time, and materializing the participant's whole re-advertisement
        list for each probe would dominate the verification budget.
        ``None`` means the prefix is not advertised to ``name``.
        """
        best = self.route_server.best_route(name, prefix)
        if best is None:
            return None
        rewritten = self._advertised.get(prefix)
        return rewritten if rewritten is not None else best.attributes.next_hop

    def readvertise_prefix(
        self, prefix: IPv4Prefix, vnh_address: Optional[IPv4Address]
    ) -> None:
        """Update one prefix's advertised next-hop everywhere (fast path).

        ``vnh_address`` of ``None`` falls back to each participant's
        best route's real next-hop (or withdraws the prefix from routers
        when no route remains).
        """
        if vnh_address is None:
            self._advertised.pop(prefix, None)
        else:
            self._advertised[prefix] = vnh_address
        for name, router in self._routers.items():
            best = self.route_server.best_route(name, prefix)
            if best is None:
                router.withdraw_route(prefix)
            else:
                router.install_route(
                    prefix,
                    vnh_address if vnh_address is not None else best.attributes.next_hop,
                )

    def _push_routes_to(self, name: str) -> None:
        router = self._routers.get(name)
        if router is None:
            return
        desired: Dict[IPv4Prefix, IPv4Address] = {}
        loc_rib = self.route_server.loc_rib(name)
        for prefix, route in loc_rib.items():
            desired[prefix] = self._advertised.get(prefix, route.attributes.next_hop)
        current = router.rib_snapshot()
        for prefix in current:
            if prefix not in desired:
                router.withdraw_route(prefix)
        for prefix, next_hop in desired.items():
            if current.get(prefix) != next_hop:
                router.install_route(prefix, next_hop)

    def _push_routes_to_all(self) -> None:
        for name in self._routers:
            self._push_routes_to(name)

    # -- resilience ---------------------------------------------------------------------

    def enable_resilience(
        self,
        clock: Optional["Simulator"] = None,
        **configs: Any,
    ) -> "ResilienceCoordinator":
        """Attach the resilience layer (liveness, damping, update guard).

        ``configs`` forwards to
        :class:`~repro.resilience.ResilienceCoordinator` (``liveness=``,
        ``damping=``, ``protection=``, ``reconnect_probe=``).  Updates
        then flow through the RFC 7606 guard, flap damping gates the
        fast path, and session hold/restart timers run on ``clock``.

        Resilience timers default onto the runtime's
        :class:`~repro.runtime.scheduler.TimerWheel`, so session
        liveness, damping decay, and admission retries all share one
        virtual clock that ``runtime.run_until`` advances.
        """
        from repro.resilience import ResilienceCoordinator

        explicit_clock = clock is not None
        self.resilience = ResilienceCoordinator(
            self, clock=clock if explicit_clock else self.runtime.timers, **configs
        )
        if explicit_clock:
            # Simulated deployments should report every duration on the
            # sim clock, so compile/fast-path timings and damping decay
            # share one time base.  Wall-clock runs (no explicit clock)
            # keep time.perf_counter; runtime-backed clocks follow the
            # runtime's own sim_time knob instead.
            sim = self.resilience.clock
            self.telemetry.set_time_source(lambda: sim.now)
        return self.resilience

    def _health_snapshot(self) -> HealthReport:
        """Backing implementation of ``controller.ops.health()``."""
        server = self.route_server
        sessions = {peer: server.session(peer).state.value for peer in server.peers()}
        stale = {
            peer: len(server.stale_prefixes(peer))
            for peer in server.peers()
            if server.stale_prefixes(peer)
        }
        damped: Tuple[Tuple[str, str], ...] = ()
        update_errors: Dict[str, Mapping[str, int]] = {}
        if self.resilience is not None:
            damped = tuple(
                (peer, str(prefix))
                for peer, prefix in self.resilience.damper.suppressed_routes()
            )
            update_errors = {
                peer: counters.snapshot()
                for peer, counters in self.resilience.guard.all_counters().items()
            }
        events = {
            "session_transitions": int(server._m_sessions.total())
            if server._m_sessions is not None
            else 0,
            "quarantines": int(self._m_quarantines.total()),
            "damping_suppressed": (
                self.resilience.suppressed_changes if self.resilience is not None else 0
            ),
        }
        if self.guard is not None:
            events["guard_rollbacks"] = int(self.guard._m_rollbacks.total())
        return HealthReport(
            sessions=sessions,
            quarantined=dict(self._quarantined),
            damped=damped,
            stale_routes=stale,
            update_errors=update_errors,
            fast_path_prefixes=len(self.fast_path.active_prefixes),
            flow_rules=len(self.switch.table),
            events=events,
            incidents=self.guard.incidents if self.guard is not None else (),
            admission=(
                self.admission.snapshot() if self.admission is not None else {}
            ),
            runtime=self.runtime.health_info(),
        )

    # -- telemetry -----------------------------------------------------------------------

    def _refresh_gauges(self) -> None:
        """Re-sample gauges whose sources are polled, not event-driven."""
        self._m_vnh.set(self.allocator.allocated)
        self._m_vnh_free.set(len(self.allocator._free))
        self.fast_path._sync_gauges()
        self.runtime.refresh_gauges()

    # -- diagnostics and accounting ------------------------------------------------------

    def table_size(self) -> int:
        """Total installed flow rules (base + fast path)."""
        return len(self.switch.table)

    def traffic_by_segment(self) -> Dict[Tuple, Tuple[int, int]]:
        """(packets, bytes) matched per base-table provenance segment.

        Keys mirror the compiler's segment labels:
        ``(BASE_COOKIE, "policy", name)``, ``(BASE_COOKIE, "default")``,
        ``(BASE_COOKIE, "chains")``.  IXPs bill and debug by exactly this
        breakdown: which participant's policy handled how much traffic.
        """
        totals = self.switch.table.counters_by_cookie()
        return {
            cookie: counts
            for cookie, counts in totals.items()
            if isinstance(cookie, tuple) and cookie and cookie[0] == BASE_COOKIE
        }

    def policy_traffic(self, name: str) -> Tuple[int, int]:
        """(packets, bytes) handled by ``name``'s policy rules since install."""
        return self.traffic_by_segment().get((BASE_COOKIE, "policy", name), (0, 0))

    def default_traffic(self) -> Tuple[int, int]:
        """(packets, bytes) that followed plain BGP default forwarding."""
        return self.traffic_by_segment().get((BASE_COOKIE, "default"), (0, 0))

    def trace_packet(self, packet: Packet, in_port: str) -> "PacketTrace":
        """Explain how the fabric would forward one packet (no counters).

        The ``ovs-appctl ofproto/trace`` of this SDX: reports the
        matched rule, its provenance (which participant's policy,
        default forwarding, a chain continuation, or a fast-path
        override), and the resulting output packets.
        """
        located = packet.modify(port=in_port, switch=self.switch.name)
        resolved = self.switch.table.resolve(located)
        if resolved is None:
            return PacketTrace(packet, in_port, None, "no-match", frozenset())
        rule, raw_outputs = resolved
        cookie = rule.cookie
        if isinstance(cookie, tuple) and cookie and cookie[0] == BASE_COOKIE:
            verdict = ":".join(str(part) for part in cookie[1:]) or "base"
        elif isinstance(cookie, tuple) and cookie and cookie[0] == "fastpath":
            verdict = f"fastpath:{cookie[1]}"
        else:
            verdict = str(cookie)
        outputs = frozenset(out.modify(switch=None) for out in raw_outputs)
        return PacketTrace(packet, in_port, rule, verdict, outputs)

    def __repr__(self) -> str:
        return (
            f"SDXController(participants={len(self.config)}, "
            f"rules={len(self.switch.table)})"
        )
