"""Compile shards: participant-local compilation units.

A *shard* is one participant's self-contained controller (or a shared
segment), producing one provenance segment of the final flow table:

* ``("policy", name)`` — a participant's outbound policy, VMAC-encoded
  against the current FEC table, sealed, pinned to the participant's
  ports, and composed with the second stage;
* ``("chains",)`` — the service-chain continuation block, composed;
* ``("default",)`` — the shared default-forwarding block, composed.

A policy shard never reads the route server: it compiles against a
:class:`ParticipantRIBView` — a materialized snapshot of exactly the
slice of BGP state the participant is entitled to see (its peers'
export-filtered routes, plus the ranked routes it announced itself,
for delivery).  The central pipeline retains only the cross-participant
authorities — the FEC partition, VNH/VMAC allocation, ARP — and the
final rule merge.

:func:`run_shard` is a *pure function* of its :class:`ShardTask`: it
reads no controller state, which is what lets the pipeline run shards
in any order or replay them from cache.  Failures never escape — they
come back in ``ShardResult.error`` so the scheduler can decide between
quarantining a participant (policy shards) and aborting the compilation
(shared shards).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Tuple

from repro.bgp.messages import Route
from repro.core.fec import FECTable, PrefixGroup
from repro.core.supersets import (
    default_delivery_classifier_superset,
    vmacify_outbound_superset,
)
from repro.core.transforms import (
    default_delivery_classifier,
    isolate,
    rewrite_inbound_delivery,
    vmacify_outbound,
)
from repro.ixp.topology import IXPConfig, ParticipantSpec
from repro.netutils.ip import IPv4Prefix
from repro.policy.analysis import with_fallback
from repro.policy.classifier import Classifier, Rule, sequence_rule

__all__ = [
    "ParticipantRIBView",
    "ShardResult",
    "ShardTask",
    "compile_delivery",
    "label_participant",
    "policy_label",
    "run_shard",
    "segment_targets",
]

_EMPTY = Classifier()


class ParticipantRIBView(NamedTuple):
    """One participant's scoped, materialized slice of BGP state.

    This is everything a participant-local compilation is entitled to
    read: what its peers export *to it* (the BGP-consistency filters of
    its outbound policy) and the ranked routes *it announced* (its
    delivery rules).  Views are plain data, comparable for shard-cache
    validation, and are built by the central pipeline, which remains
    the RIB/ARP authority.
    """

    participant: str
    #: peer -> the peer's export-filtered prefixes, as seen by this
    #: participant (``loc_rib(participant).prefixes_via(peer)``)
    exports: Mapping[str, FrozenSet[IPv4Prefix]]
    #: FEC prefix-set -> the ranked routes this participant announced
    #: for that class (group ids renumber between passes; prefix sets
    #: are the stable key)
    announced: Mapping[FrozenSet[IPv4Prefix], Tuple[Route, ...]]

    def reachable(self, target: str) -> FrozenSet[IPv4Prefix]:
        """The prefixes this participant may steer toward ``target``."""
        return self.exports.get(target, frozenset())

    def ranked_routes(self, group: PrefixGroup) -> Tuple[Route, ...]:
        """The announced-route slice for one FEC (delivery's input)."""
        return self.announced.get(group.prefixes, ())


def policy_label(name: str) -> Tuple[str, str]:
    """The shard/segment label of one participant's policy block.

    The same tuple keys the pipeline's shard cache and — prefixed with
    the base cookie — tags the segment's flow rules, which is what lets
    the commit guard trace a counterexample's provenance back to a
    cache entry to drop and a participant to quarantine.
    """
    return ("policy", name)


def label_participant(label: Tuple) -> Optional[str]:
    """The participant behind a shard/segment label, if it has one."""
    if len(label) >= 2 and label[0] == "policy":
        return label[1]
    return None


class ShardTask(NamedTuple):
    """Everything one shard compilation reads (nothing else)."""

    #: provenance label: ("policy", name) / ("chains",) / ("default",)
    label: Tuple
    #: participant name for policy shards, None for shared shards
    participant: Optional[str]
    #: policy shards: the raw compiled outbound classifier;
    #: shared shards: the already-built stage-1 block (composed as-is)
    raw: Classifier
    #: physical ports the stage-1 block is pinned to (policy shards)
    port_ids: Tuple[str, ...]
    #: every configured participant name (virtual-location universe)
    participant_names: FrozenSet[str]
    #: target -> prefixes reachable via target (policy shards); mirrors
    #: ``rib_view.exports`` — kept flat for cache-signature comparison
    reachable: Mapping[str, FrozenSet[IPv4Prefix]]
    #: the FEC partition this compilation runs against
    fec_table: Optional[FECTable]
    #: the full second-stage block map (consulted per forwarding action)
    stage2_blocks: Mapping[Any, Classifier]
    #: the participant's scoped RIB snapshot (policy shards)
    rib_view: Optional[ParticipantRIBView] = None
    #: VMAC encoding scheme this shard compiles under
    mode: str = "fec"
    #: superset mode: the encoder registry snapshot (a SupersetView),
    #: frozen so a rollback at a compile-task yield cannot move it
    encoder: Optional[Any] = None
    #: False in the multi-table layout: the stage-1 block *is* the
    #: segment (table 0, goto stage 2) and composition is skipped
    compose: bool = True


class ShardResult(NamedTuple):
    """One shard's outputs (or its failure)."""

    label: Tuple
    participant: Optional[str]
    #: the (possibly transformed) stage-1 block, for ``result.stage1``
    stage1_block: Optional[Classifier]
    #: the composed segment (may be empty)
    segment: Optional[Classifier]
    #: (exception type name, message) when the shard failed
    error: Optional[Tuple[str, str]]


def _compose(stage1_block: Classifier, stage2_blocks: Mapping[Any, Classifier]) -> Classifier:
    """Sequential composition with target pruning (Section 4.3.1).

    Identical to the legacy compiler's ``_compose`` on the default
    options: every stage-1 action consults only the second-stage block
    of the location it forwards to.
    """
    rules: List[Rule] = []
    for rule in stage1_block.rules:
        rules.extend(
            sequence_rule(rule, lambda action: stage2_blocks.get(action.output_port))
        )
    return Classifier(rules).optimized()


def run_shard(task: ShardTask) -> ShardResult:
    """Compile one shard; exceptions are captured, never raised."""
    try:
        if task.label[0] == "policy":
            if task.rib_view is not None:
                reachable = task.rib_view.reachable
            else:
                reachable_map = task.reachable

                def reachable(target: str) -> FrozenSet[IPv4Prefix]:
                    return reachable_map.get(target, frozenset())

            if task.mode == "superset":
                vmacified = vmacify_outbound_superset(
                    task.raw,
                    task.participant_names,
                    reachable,
                    task.fec_table,
                    task.encoder,
                )
            else:
                vmacified = vmacify_outbound(
                    task.raw, task.participant_names, reachable, task.fec_table
                )
            sealed = with_fallback(vmacified, _EMPTY)
            stage1_block = isolate(sealed, task.port_ids)
        else:
            stage1_block = task.raw
        if task.compose:
            segment = _compose(stage1_block, task.stage2_blocks)
        else:
            # Multi-table layout: the stage-1 block is installed as-is
            # (table 0) and chains into the merged stage-2 table.
            segment = stage1_block
        return ShardResult(task.label, task.participant, stage1_block, segment, None)
    except Exception as exc:  # noqa: BLE001 - shard faults are data
        return ShardResult(
            task.label, task.participant, None, None, (type(exc).__name__, str(exc))
        )


def compile_delivery(
    spec: ParticipantSpec,
    view: ParticipantRIBView,
    inbound: Classifier,
    config: IXPConfig,
    fec_table: FECTable,
    mode: str = "fec",
    encoder: Optional[Any] = None,
) -> Classifier:
    """One participant's second-stage block, from its own RIB view.

    The participant-local half of ``defP``: the inbound policy (with
    physical-port forwards rewritten to set interface MACs) sealed over
    default delivery, pinned to the participant's virtual switch.
    Everything it reads about BGP comes from ``view.announced`` — the
    routes this participant announced — so a shard can build it without
    the route server.
    """
    delivery_ready = rewrite_inbound_delivery(inbound, config)
    if mode == "superset":
        default = default_delivery_classifier_superset(
            spec, fec_table, view.ranked_routes, encoder
        )
    else:
        default = default_delivery_classifier(spec, fec_table, view.ranked_routes)
    combined = with_fallback(delivery_ready, default)
    return isolate(combined, [spec.name])


def segment_targets(stage1_block: Classifier) -> FrozenSet[Any]:
    """The second-stage locations a stage-1 block's composition consults."""
    targets = set()
    for rule in stage1_block.rules:
        for action in rule.actions:
            if action.output_port is not None:
                targets.add(action.output_port)
    return frozenset(targets)
