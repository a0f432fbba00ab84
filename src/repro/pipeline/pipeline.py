"""The staged compilation pipeline (the controller's engine room).

``CompilationPipeline`` replaces the monolithic ``compile()`` body of
the old ``SDXController`` with explicit stages:

1. **AST** — participant policy ASTs to classifiers (memoized in the
   compiler), quarantining any participant whose policy raises;
2. **FEC** — policy-group extraction (cached per participant), BGP
   fingerprinting, and the minimum-disjoint-subsets partition, with
   VNH *reconciliation*: a prefix group that survives a recompilation
   keeps its (VNH, VMAC) pair, so routers don't re-ARP and — more
   importantly — unchanged shards can reuse their cached blocks;
   superseded VNHs are released only after a successful fabric commit
   (a rolled-back commit leaves the old advertisements resolving);
3. **stage-2 build** — delivery, egress, and chain-entry blocks plus
   the default-forwarding block (cheap, rebuilt serially every pass);
4. **shards** — per-participant compile shards plus the shared
   ``chains``/``default`` segments, each revalidated against a
   signature (policy set, reachability map, covering FEC groups,
   consulted stage-2 blocks); only *dirty* shards are recompiled, in
   process and in plan order;
5. **assemble** — disjoint concatenation in configuration order,
   advertisement map, stats (fed to the legacy compile metrics so
   dashboards keep working).

A shard failure quarantines its participant and restarts the pass
(the FEC partition must be recomputed without the culprit's groups);
the shard itself names the culprit, so no probe compiles are needed.
Failures in the shared segments are unattributable and propagate.

The pipeline always composes with every §4.3.1 optimisation on; the
ablations (``CompilationOptions``) live only on a standalone
:class:`~repro.core.compiler.SDXCompiler`.  Fresh-cache compilations
are *byte-identical* to the reference ``SDXCompiler.compile``:
extraction runs in the same order, the partition enumerates buckets
with the same sort key, and new VNHs are allocated in the same
sequence.  Incremental compilations stay byte-identical to a reference
compile replaying the same VNH assignment (see
``tests/property/test_pipeline_equivalence.py``).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    Hashable,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.bgp.messages import Route
from repro.core.chaining import (
    ServiceChain,
    chain_continuation_rules,
    chain_entry_block,
    validate_chains,
)
from repro.core.compiler import CompilationResult, CompilationStats
from repro.core.fec import FECTable, PrefixGroup
from repro.core.participant import SDXPolicySet
from repro.core.supersets import (
    default_forwarding_classifier_superset,
    encoding_inputs,
)
from repro.core.transforms import (
    concat_disjoint,
    default_forwarding_classifier,
    extract_policy_groups,
    isolate,
)
from repro.core.vmac import VirtualNextHop, VirtualNextHopAllocator
from repro.netutils.ip import IPv4Address, IPv4Prefix
from repro.policy.classifier import Action, Classifier, HeaderMatch, Rule
from repro.resilience.health import QuarantineRecord

from repro.pipeline.events import (
    ChainsChanged,
    CommitApplied,
    CompileFinished,
    DirtyTracker,
    EventBus,
    PolicyChanged,
    QuarantineLifted,
    RoutesChanged,
)
from repro.pipeline.shards import (
    ParticipantRIBView,
    ShardResult,
    ShardTask,
    compile_delivery,
    policy_label,
    run_shard,
    segment_targets,
)
from repro.pipeline.stages import FabricCommitter, UpdateIngress

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.controller import SDXController

__all__ = ["CompilationPipeline"]

_EMPTY = Classifier()


class _ShardEntry(NamedTuple):
    """One shard's cached inputs-signature and outputs."""

    policy_set: Optional[SDXPolicySet]
    reachable: Optional[Dict[str, FrozenSet[IPv4Prefix]]]
    group_sig: Optional[FrozenSet]
    raw: Classifier
    target_blocks: Dict[Any, Optional[Classifier]]
    stage1_block: Classifier
    segment: Classifier
    #: superset mode only: (epoch, every affected group's (prefixes,
    #: VMAC)) — masked-rule validity depends on *other* participants'
    #: classes sharing a superset, so any encoding change dirties the
    #: shard; None in per-FEC mode
    encoding_sig: Optional[Tuple] = None


class _ExtractEntry(NamedTuple):
    """Cached policy-group extraction for one participant."""

    classifier: Classifier
    reachable: Dict[str, FrozenSet[IPv4Prefix]]
    groups: List[FrozenSet[IPv4Prefix]]


class CompilationPipeline:
    """Stages, shard cache, and scheduling for one controller."""

    def __init__(self, controller: "SDXController") -> None:
        self.controller = controller
        self.bus = EventBus()
        self.dirty = DirtyTracker()
        self.ingress = UpdateIngress(self)
        self.committer = FabricCommitter(self)

        #: shard label -> cached signature + blocks
        self._shard_cache: Dict[Tuple, _ShardEntry] = {}
        #: participant -> cached policy-group extraction
        self._extract_cache: Dict[str, _ExtractEntry] = {}
        #: frozenset(prefixes) -> VNH kept across compilations
        self._vnh_by_key: Dict[FrozenSet[IPv4Prefix], VirtualNextHop] = {}
        #: superset mode: frozenset(prefixes) -> (encoding inputs,
        #: encoder epoch) the kept VMAC was minted under; reuse is only
        #: sound while both still match (a stale attribute VMAC would
        #: steer masked rules wrongly)
        self._vnh_meta: Dict[FrozenSet[IPv4Prefix], Tuple[Tuple, int]] = {}
        #: VNHs superseded by a compile, released after its commit
        self._pending_release: List[VirtualNextHop] = []

        telemetry = controller.telemetry
        self._m_stage = telemetry.histogram(
            "sdx_pipeline_stage_seconds",
            "Time spent per pipeline stage",
            labels=("stage",),
        )
        self._m_shards = telemetry.counter(
            "sdx_shard_compiles_total",
            "Compile-shard executions (cache misses) per segment",
            labels=("participant",),
        )
        self._m_shard_cache = telemetry.counter(
            "sdx_shard_cache_total",
            "Compile-shard cache lookups",
            labels=("result",),
        )
        self._m_noop = telemetry.counter(
            "sdx_pipeline_noop_total",
            "Background recompilations skipped because nothing was dirty",
        )
        self._m_passes = telemetry.counter(
            "sdx_pipeline_passes_total",
            "Compilation passes (restarts after shard quarantine included)",
        )
        self._m_dirty = telemetry.gauge(
            "sdx_pipeline_dirty_participants",
            "Participants with policy changes awaiting recompilation",
        )

        self.bus.subscribe(PolicyChanged, self._on_policy_event)
        self.bus.subscribe(QuarantineLifted, self._on_policy_event)
        self.bus.subscribe(ChainsChanged, lambda event: self.dirty.mark_chains())
        self.bus.subscribe(RoutesChanged, lambda event: self.dirty.mark_routes())

    # -- event handling -----------------------------------------------------

    def _on_policy_event(self, event) -> None:
        self.dirty.mark_policy(event.participant)
        self._m_dirty.set(len(self.dirty.participants))

    def note_route_changes(self, changes) -> None:
        if changes:
            self.bus.publish(RoutesChanged(len(changes)))

    @property
    def idle(self) -> bool:
        """True when a recompilation would reproduce the last result."""
        return not self.dirty.any

    def count_noop(self) -> None:
        self._m_noop.inc()

    def live_vnh_addresses(self) -> FrozenSet[IPv4Address]:
        """Every VNH address the pipeline currently accounts for.

        The live FEC-group VNHs plus those superseded-but-unreleased
        until the next commit (:attr:`_pending_release`).  The
        verification layer's leak check compares the allocator against
        this set unioned with the fast path's per-prefix VNHs — any
        difference is a pool leak or a dangling reference.
        """
        addresses = {vnh.address for vnh in self._vnh_by_key.values()}
        addresses.update(vnh.address for vnh in self._pending_release)
        return frozenset(addresses)

    def on_committed(self, result: CompilationResult) -> List[VirtualNextHop]:
        """Commit checkpoint: clear dirty state, release superseded VNHs.

        Returns the VNHs released by this commit so a *deferred* guard
        verification can re-reserve them if the commit later proves bad
        (see ``CommitGuard.begin_deferred``).
        """
        self.dirty.clear()
        self._m_dirty.set(0)
        pending, self._pending_release = self._pending_release, []
        for vnh in pending:
            self.controller.allocator.release(vnh.address)
        self.bus.publish(CommitApplied(len(result.classifier)))
        return pending

    # -- main entry point ---------------------------------------------------

    def compile(self) -> CompilationResult:
        """Run the staged pipeline to completion.

        Synchronous driver over :meth:`compile_steps` (for re-entrant
        compiles inside the runtime): the stage markers are skipped and
        the generator runs to its return value.
        """
        steps = self.compile_steps()
        while True:
            try:
                next(steps)
            except StopIteration as stop:
                return stop.value

    def compile_steps(self):
        """Generator form of the compile loop, with explicit yield points.

        Yields ``("stage", name)`` after the ast, fec and stage-2 stages;
        :class:`~repro.runtime.ControlPlaneRuntime` uses these points to
        overlap guard verification of the previous commit (and general
        bookkeeping) with this compilation.  Nothing may mutate
        controller state at a yield point — the runtime only runs
        side-effect-free work under an in-flight pass, which is what
        keeps pipelined and auto-drained schedules byte-identical.  The
        compiled result is the generator's return value.
        """
        attempts = 0
        while True:
            attempts += 1
            self._m_passes.inc()
            result = yield from self._compile_pass_steps(attempts)
            if result is not None:
                return result

    # -- the staged pass ----------------------------------------------------

    def _compile_pass_steps(self, attempts: int):
        """One pass over all stages; returns None for "quarantined, restart"."""
        controller = self.controller
        compiler = controller.compiler
        config = controller.config
        started = compiler._now()

        active = {
            name: policy_set
            for name, policy_set in controller._policies.items()
            if name not in controller._quarantined
        }
        chains = list(controller._chains.values())
        validate_chains(chains, config)
        chain_hop_ports = {hop for chain in chains for hop in chain.hops}
        participant_names = frozenset(config.participant_names())

        # Stage 1: policy ASTs -> classifiers (fault isolated per participant).
        phase = compiler._now()
        out_raw: Dict[str, Classifier] = {}
        in_raw: Dict[str, Classifier] = {}
        for name in config.participant_names():
            policy_set = active.get(name)
            if policy_set is None:
                continue
            try:
                if policy_set.outbound is not None:
                    out_raw[name] = compiler._compile_ast(policy_set.outbound)
                if policy_set.inbound is not None:
                    in_raw[name] = compiler._compile_ast(policy_set.inbound)
            except Exception as exc:  # noqa: BLE001 - isolate the participant
                self._quarantine(name, type(exc).__name__, str(exc), attempts)
                active.pop(name, None)
                out_raw.pop(name, None)
                in_raw.pop(name, None)
        ast_seconds = compiler._now() - phase
        self._m_stage.observe(ast_seconds, stage="ast")
        yield ("stage", "ast")

        # Stage 2: prefix groups + FEC partition with VNH reconciliation.
        phase = compiler._now()
        reachable_maps: Dict[str, Dict[str, FrozenSet[IPv4Prefix]]] = {}
        policy_groups: List[FrozenSet[IPv4Prefix]] = []
        for name, classifier in out_raw.items():
            reachable = self._materialize_reachable(name, classifier, participant_names)
            reachable_maps[name] = reachable
            cached = self._extract_cache.get(name)
            if (
                cached is not None
                and cached.classifier == classifier
                and cached.reachable == reachable
            ):
                groups = cached.groups
            else:
                groups = extract_policy_groups(
                    classifier,
                    participant_names,
                    lambda target, _r=reachable: _r.get(target, frozenset()),
                )
                self._extract_cache[name] = _ExtractEntry(classifier, reachable, groups)
            policy_groups.extend(groups)
        originated = controller.routing.originated()
        for name, prefixes in originated.items():
            if prefixes:
                policy_groups.append(frozenset(prefixes))
        fec_table = self._reconcile_fec(
            policy_groups, compiler._fingerprint, controller.allocator
        )
        ranked_cache: Dict[int, Tuple[Route, ...]] = {}

        def ranked_routes(group: PrefixGroup) -> Tuple[Route, ...]:
            cached_routes = ranked_cache.get(group.group_id)
            if cached_routes is None:
                sample = next(iter(group.prefixes))
                cached_routes = controller.route_server.ranked_routes(sample)
                ranked_cache[group.group_id] = cached_routes
            return cached_routes

        fec_seconds = compiler._now() - phase
        self._m_stage.observe(fec_seconds, stage="fec")
        yield ("stage", "fec")

        # Encoding context for this pass.  The encoder view is a frozen
        # registry snapshot: shards read it without touching the live
        # encoder, which a deferred-guard rollback may rewind while the
        # runtime holds this pass at a stage yield.
        mode = controller.vmac_mode
        encoder = controller.superset_encoder
        encoder_view = encoder.view() if encoder is not None else None
        multitable = controller.dataplane_mode == "multitable"
        if mode == "superset":
            # Masked superset rules read *other* participants' encodings
            # (the carriers index), so shard-cache validity must cover
            # the whole encoding state, not just the shard's universe.
            encoding_sig = (
                encoder.epoch,
                frozenset(
                    (group.prefixes, group.vnh.hardware)
                    for group in fec_table.affected_groups
                ),
            )
        else:
            encoding_sig = None
        views = self._build_rib_views(reachable_maps, fec_table, ranked_routes)

        # Stage 3: second-stage blocks + shared stage-1 blocks (serial).
        phase = compiler._now()
        stage2_blocks, default_block, continuation, stage2_failures = (
            self._build_shared_blocks(
                in_raw,
                fec_table,
                ranked_routes,
                chains,
                chain_hop_ports,
                views,
                mode,
                encoder_view,
            )
        )
        stage2_seconds = compiler._now() - phase
        self._m_stage.observe(stage2_seconds, stage="stage2")
        yield ("stage", "stage2")
        if stage2_failures:
            for name, (error_type, message) in stage2_failures.items():
                self._quarantine(name, error_type, message, attempts)
            return None

        # Stage 4: shard scheduling — reuse cached blocks, compile the rest.
        phase = compiler._now()
        plan: List[Tuple[Tuple, Optional[ShardTask], Optional[_ShardEntry]]] = []
        for participant in config.participants():
            raw = out_raw.get(participant.name)
            if raw is None or participant.is_remote:
                continue
            label = policy_label(participant.name)
            entry = self._shard_cache.get(label)
            reachable = reachable_maps.get(participant.name, {})
            if entry is not None and self._policy_entry_valid(
                entry,
                active[participant.name],
                reachable,
                fec_table,
                stage2_blocks,
                encoding_sig,
            ):
                self._m_shard_cache.inc(result="hit")
                plan.append((label, None, entry))
            else:
                self._m_shard_cache.inc(result="miss")
                plan.append(
                    (
                        label,
                        ShardTask(
                            label=label,
                            participant=participant.name,
                            raw=raw,
                            port_ids=tuple(participant.port_ids),
                            participant_names=participant_names,
                            reachable=reachable,
                            fec_table=fec_table,
                            stage2_blocks=stage2_blocks,
                            rib_view=views.get(participant.name),
                            mode=mode,
                            encoder=encoder_view,
                            compose=not multitable,
                        ),
                        None,
                    )
                )
        for label, block in ((("chains",), continuation), (("default",), default_block)):
            entry = self._shard_cache.get(label)
            if entry is not None and self._shared_entry_valid(
                entry, block, stage2_blocks
            ):
                self._m_shard_cache.inc(result="hit")
                plan.append((label, None, entry))
            else:
                self._m_shard_cache.inc(result="miss")
                plan.append(
                    (
                        label,
                        ShardTask(
                            label=label,
                            participant=None,
                            raw=block,
                            port_ids=(),
                            participant_names=participant_names,
                            reachable={},
                            fec_table=fec_table,
                            stage2_blocks=stage2_blocks,
                            mode=mode,
                            encoder=encoder_view,
                            compose=not multitable,
                        ),
                        None,
                    )
                )

        shard_results = self._run_shards(
            [task for _, task, _ in plan if task is not None]
        )
        results_by_label: Dict[Tuple, ShardResult] = {
            result.label: result for result in shard_results
        }
        shard_seconds = compiler._now() - phase
        self._m_stage.observe(shard_seconds, stage="shards")

        # Shard failures: quarantine policy shards and restart the pass
        # (the FEC partition must be rebuilt without the culprit); shared
        # shard failures have no single author and propagate.
        failed_policies = False
        for result in shard_results:
            if result.error is None:
                continue
            error_type, message = result.error
            if result.participant is not None:
                self._quarantine(result.participant, error_type, message, attempts)
                failed_policies = True
            else:
                raise RuntimeError(
                    f"shared segment {result.label} failed to compile: "
                    f"{error_type}: {message}"
                )
        if failed_policies:
            return None

        # Stage 5: assemble segments in configuration order.
        phase = compiler._now()
        labeled_blocks: List[Tuple[Any, Classifier]] = []
        segments: List[Tuple[Any, Classifier]] = []
        shards_compiled = 0
        for label, task, entry in plan:
            if task is not None:
                result = results_by_label[label]
                entry = self._store_entry(
                    label, task, result, active, stage2_blocks, encoding_sig
                )
                shards_compiled += 1
                self._m_shards.inc(participant=label[1] if len(label) > 1 else label[0])
            labeled_blocks.append((label, entry.stage1_block))
            if len(entry.segment):
                segments.append((label, entry.segment))
        placements: Dict[Any, Tuple[int, Optional[int]]] = {}
        if multitable:
            # The uncomposed stage-1 segments live in table 0 and chain
            # into a single merged VMAC-matching table.  Chain-entry
            # blocks match ANY in composition (the composing rule
            # provides the context); merged into a shared table they
            # must be pinned to their own virtual location or they'd
            # swallow every table-1 miss.
            merged_stage2: List[Classifier] = []
            for target, block in stage2_blocks.items():
                if isinstance(target, ServiceChain):
                    block = isolate(block, [target])
                merged_stage2.append(block)
            vmac_segment = concat_disjoint(merged_stage2)
            for label, _ in segments:
                placements[label] = (0, 1)
            if len(vmac_segment):
                segments.append((("vmac",), vmac_segment))
                placements[("vmac",)] = (1, None)
        stage1 = concat_disjoint([block for _, block in labeled_blocks])
        final = concat_disjoint([segment for _, segment in segments])

        advertised = compiler._advertised_next_hops(fec_table)
        assemble_seconds = compiler._now() - phase
        self._m_stage.observe(assemble_seconds, stage="assemble")

        total = compiler._now() - started
        stats = CompilationStats(
            policy_compile_seconds=ast_seconds,
            vnh_compute_seconds=fec_seconds,
            transform_seconds=stage2_seconds,
            compose_seconds=shard_seconds + assemble_seconds,
            total_seconds=total,
            policy_groups=len(policy_groups),
            fec_groups=len(fec_table.affected_groups),
            rules=len(final),
        )
        compiler._record_stats(stats)
        self.bus.publish(
            CompileFinished(
                passes=attempts,
                shards_compiled=shards_compiled,
                shards_cached=len(plan) - shards_compiled,
            )
        )
        return CompilationResult(
            classifier=final,
            fec_table=fec_table,
            stage1=stage1,
            stage2_blocks=stage2_blocks,
            advertised_next_hops=advertised,
            stats=stats,
            segments=tuple(segments),
            placements=placements,
        )

    # -- stage helpers ------------------------------------------------------

    def _run_shards(self, tasks: List[ShardTask]) -> List[ShardResult]:
        """Compile the dirty shards, results in task order.

        Shards are independent (stage-1 blocks are port-isolated), so
        assembly must not depend on execution order;
        ``tests/property/test_pipeline_equivalence.py`` replaces this
        method with a shuffled-order executor to prove it.
        """
        return [run_shard(task) for task in tasks]

    def _materialize_reachable(
        self, name: str, classifier: Classifier, participant_names: FrozenSet[str]
    ) -> Dict[str, FrozenSet[IPv4Prefix]]:
        """The reachability map a shard needs: target -> exported prefixes.

        Materialized (rather than closed over the route server) so it can
        cross a process boundary and be compared for cache validation.
        """
        loc_rib = self.controller.route_server.loc_rib(name)
        reachable: Dict[str, FrozenSet[IPv4Prefix]] = {}
        for rule in classifier.rules:
            for action in rule.actions:
                target = action.output_port
                if target in participant_names and target not in reachable:
                    reachable[target] = loc_rib.prefixes_via(target)
        return reachable

    def _reconcile_fec(
        self,
        policy_groups: List[FrozenSet[IPv4Prefix]],
        fingerprint,
        allocator: VirtualNextHopAllocator,
    ) -> FECTable:
        """The Section 4.2 partition, reusing VNHs for surviving groups.

        Bucket enumeration replicates ``compute_fec_table`` exactly
        (same sort key, same order), so a fresh-cache compilation
        allocates the identical VNH sequence.  A group whose prefix set
        persists keeps its pair; vanished groups' pairs are queued for
        release at the next successful commit (never earlier: a rolled
        back commit must leave the old advertisements resolving).
        """
        signature_of: Dict[IPv4Prefix, List[int]] = {}
        for index, group in enumerate(policy_groups):
            for prefix in group:
                signature_of.setdefault(prefix, []).append(index)
        buckets: Dict[Tuple[FrozenSet[int], Hashable], set] = {}
        for prefix, indices in signature_of.items():
            key = (frozenset(indices), fingerprint(prefix))
            buckets.setdefault(key, set()).add(prefix)
        ordered = sorted(buckets.items(), key=lambda item: sorted(map(str, item[1])))

        encoder = self.controller.superset_encoder
        # encode() can trigger a full registry recomputation mid-pass
        # (superset id-space overflow), invalidating encodings reused
        # earlier in the same loop — rerun until the epoch is stable.
        # The second pass starts against an empty registry, so a bound
        # of a few attempts is structural, not a timeout.
        for _attempt in range(4):
            epoch_at_start = encoder.epoch if encoder is not None else 0
            groups: List[PrefixGroup] = []
            live_keys: Set[FrozenSet[IPv4Prefix]] = set()
            for group_id, ((_, bgp_fingerprint), prefixes) in enumerate(ordered):
                key = frozenset(prefixes)
                live_keys.add(key)
                vnh = self._vnh_by_key.get(key)
                if encoder is not None:
                    inputs = encoding_inputs(bgp_fingerprint)
                    meta = (inputs, encoder.epoch)
                    if vnh is not None and self._vnh_meta.get(key) != meta:
                        # The class's announcers/next-hop (or the whole
                        # encoding epoch) changed: the attribute bits in
                        # the old VMAC are stale.  Reallocate so routers
                        # re-ARP onto a correctly encoded address.
                        self._pending_release.append(self._vnh_by_key.pop(key))
                        vnh = None
                    if vnh is None:
                        hardware = encoder.encode(*inputs)
                        vnh = allocator.allocate(hardware)
                        self._vnh_by_key[key] = vnh
                        self._vnh_meta[key] = (inputs, encoder.epoch)
                elif vnh is None:
                    vnh = allocator.allocate()
                    self._vnh_by_key[key] = vnh
                groups.append(PrefixGroup(group_id, key, vnh))
            if encoder is None or encoder.epoch == epoch_at_start:
                break
        for key in list(self._vnh_by_key):
            if key not in live_keys:
                self._pending_release.append(self._vnh_by_key.pop(key))
                self._vnh_meta.pop(key, None)
        return FECTable(groups)

    def _build_rib_views(
        self, reachable_maps, fec_table, ranked_routes
    ) -> Dict[str, ParticipantRIBView]:
        """Materialize each participant's scoped RIB slice in one sweep.

        Exports come straight from the already-materialized reachability
        maps; the announced slices are carved out of the ranked routes of
        the affected FEC groups, bucketed by announcer.  O(groups·routes)
        total — each ranked list is walked once, not once per participant.
        """
        announced_by: Dict[str, Dict[FrozenSet[IPv4Prefix], List[Route]]] = {}
        for group in fec_table.affected_groups:
            for route in ranked_routes(group):
                announced_by.setdefault(route.learned_from, {}).setdefault(
                    group.prefixes, []
                ).append(route)
        views: Dict[str, ParticipantRIBView] = {}
        for name in self.controller.config.participant_names():
            views[name] = ParticipantRIBView(
                participant=name,
                exports=reachable_maps.get(name, {}),
                announced={
                    key: tuple(routes)
                    for key, routes in announced_by.get(name, {}).items()
                },
            )
        return views

    def _build_shared_blocks(
        self,
        in_raw,
        fec_table,
        ranked_routes,
        chains,
        chain_hop_ports,
        views,
        mode,
        encoder_view,
    ):
        """Stage-2 blocks plus the shared stage-1 blocks (legacy Phase C).

        Delivery blocks are now compiled participant-locally
        (:func:`compile_delivery` against each participant's RIB view);
        only the cross-participant blocks — egress ports, chain entries,
        default forwarding — are built centrally.
        """
        config = self.controller.config
        stage2_blocks: Dict[Any, Classifier] = {}
        failures: Dict[str, Tuple[str, str]] = {}
        for participant in config.participants():
            try:
                stage2_blocks[participant.name] = compile_delivery(
                    participant,
                    views[participant.name],
                    in_raw.get(participant.name, _EMPTY),
                    config,
                    fec_table,
                    mode,
                    encoder_view,
                )
            except Exception as exc:  # noqa: BLE001 - isolate the participant
                failures[participant.name] = (type(exc).__name__, str(exc))
        for port in config.physical_ports():
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
        if mode == "superset":
            default_block = default_forwarding_classifier_superset(
                config, fec_table, ranked_routes, encoder_view
            )
        else:
            default_block = default_forwarding_classifier(
                config, fec_table, ranked_routes
            )
        continuation = Classifier(chain_continuation_rules(chains))
        return stage2_blocks, default_block, continuation, failures

    def _policy_entry_valid(
        self, entry, policy_set, reachable, fec_table, stage2_blocks, encoding_sig
    ) -> bool:
        if entry.policy_set != policy_set:
            return False
        if entry.reachable != reachable:
            return False
        if entry.encoding_sig != encoding_sig:
            return False
        if entry.group_sig != self._group_signature(fec_table, reachable):
            return False
        return self._target_blocks_valid(entry, stage2_blocks)

    def _shared_entry_valid(self, entry, raw_block, stage2_blocks) -> bool:
        if entry.raw != raw_block:
            return False
        return self._target_blocks_valid(entry, stage2_blocks)

    @staticmethod
    def _target_blocks_valid(entry: _ShardEntry, stage2_blocks) -> bool:
        for target, block in entry.target_blocks.items():
            if stage2_blocks.get(target) != block:
                return False
        return True

    @staticmethod
    def _group_signature(fec_table: FECTable, reachable) -> FrozenSet:
        """The FEC groups a shard's reachable universe can touch.

        (prefix set, VNH) pairs — group ids deliberately excluded: ids
        renumber as unrelated buckets come and go, but relative order
        among surviving groups is stable (both follow the same
        sorted-prefix-string key), so equal signatures imply the
        recompiled block would be byte-identical.
        """
        universe: Set[IPv4Prefix] = set()
        for eligible in reachable.values():
            universe.update(eligible)
        return frozenset(
            (group.prefixes, group.vnh)
            for group in fec_table.groups_covering(universe)
        )

    def _store_entry(
        self, label, task: ShardTask, result: ShardResult, active, stage2_blocks,
        encoding_sig=None,
    ) -> _ShardEntry:
        if task.compose:
            targets = segment_targets(result.stage1_block)
            target_blocks = {target: stage2_blocks.get(target) for target in targets}
        else:
            # Multi-table: the segment never embeds stage-2 blocks, so
            # their churn can't stale it — the merged VMAC table is
            # rebuilt from fresh blocks every pass regardless.
            target_blocks = {}
        entry = _ShardEntry(
            policy_set=active.get(task.participant) if task.participant else None,
            reachable=dict(task.reachable) if task.participant else None,
            group_sig=(
                self._group_signature(task.fec_table, task.reachable)
                if task.participant
                else None
            ),
            raw=task.raw,
            target_blocks=target_blocks,
            stage1_block=result.stage1_block,
            segment=result.segment,
            encoding_sig=encoding_sig if task.participant else None,
        )
        self._shard_cache[label] = entry
        return entry

    def _quarantine(
        self,
        name: str,
        error_type: str,
        message: str,
        attempts: int,
        state: str = "compile",
        offenses: int = 1,
    ) -> None:
        controller = self.controller
        controller._quarantined[name] = QuarantineRecord(
            participant=name,
            error=message,
            error_type=error_type,
            compile_attempts=attempts,
            state=state,
            offenses=offenses,
        )
        controller._m_quarantines.inc()
        # The culprit's cached shard is stale by definition — for a
        # guard quarantine it compiled fine but *misforwarded*, so the
        # cache entry is exactly what must not be replayed.
        self._shard_cache.pop(policy_label(name), None)
