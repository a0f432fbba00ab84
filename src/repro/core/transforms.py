"""The four policy transformations of Section 4.1, at classifier level.

The paper compiles participant policies "through a sequence of
syntactic transformations": isolation, BGP-consistency augmentation,
default forwarding, and virtual-topology composition.  We perform them
on compiled classifiers rather than policy ASTs — the two views are
equivalent (classifiers *are* the normal form of the policy algebra),
and the classifier view lets the Section 4.2 state-reduction rewrite
(destination-prefix matches → VMAC matches) happen in the same pass
that inserts the BGP reachability filters.

Terminology used throughout:

* a *virtual location* is a participant name (``"B"``): the packet has
  been handed to B's virtual switch but not yet placed on a wire;
* a *physical location* is a fabric port id (``"B1"``).
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.bgp.messages import Route
from repro.core.fec import FECTable, PrefixGroup
from repro.ixp.topology import IXPConfig, ParticipantSpec
from repro.netutils.ip import IPv4Prefix
from repro.policy.classifier import Action, Classifier, HeaderMatch, Rule

__all__ = [
    "concat_disjoint",
    "default_delivery_classifier",
    "default_exception_rules",
    "default_forwarding_classifier",
    "default_rules_for_group",
    "delivery_rules_for_group",
    "extract_policy_groups",
    "isolate",
    "passthrough_classifier",
    "rewrite_inbound_delivery",
    "vmacify_outbound",
]

ReachableFn = Callable[[str], FrozenSet[IPv4Prefix]]
RankedRoutesFn = Callable[[PrefixGroup], Tuple[Route, ...]]


# -- transformation 1: isolation ----------------------------------------------


def isolate(classifier: Classifier, locations: Sequence[Any]) -> Classifier:
    """Restrict a policy to packets located at one of ``locations``.

    This is the paper's automatic ``match(port=...)`` augmentation: an
    outbound policy is pinned to the participant's physical ports, an
    inbound policy to its virtual switch.  Rules already carrying a
    conflicting port constraint vanish.
    """
    rules: List[Rule] = []
    for rule in classifier.rules:
        for location in locations:
            scoped = rule.match.restrict("port", location)
            if scoped is not None:
                rules.append(Rule(scoped, rule.actions))
    return Classifier(rules).optimized()


# -- transformation 2 + state reduction: BGP filters as VMAC matches -----------


def extract_policy_groups(
    classifier: Classifier,
    participants: FrozenSet[str],
    reachable: ReachableFn,
) -> List[FrozenSet[IPv4Prefix]]:
    """Pass 1 of the FEC computation: the prefix sets a policy overrides.

    For every forwarding action targeting a participant ``N``, the
    overridden set is the portion of ``N``'s exported prefixes that the
    rule's destination constraint can select.
    """
    groups: Dict[FrozenSet[IPv4Prefix], None] = {}
    for rule in classifier.rules:
        constraint = rule.match.constraint("dstip")
        for action in rule.actions:
            target = action.output_port
            if target not in participants:
                continue
            eligible = reachable(target)
            if constraint is not None:
                eligible = frozenset(
                    prefix for prefix in eligible if prefix.overlaps(constraint)
                )
            if eligible:
                groups.setdefault(eligible)
    return list(groups)


def _group_needs_dstip(group: PrefixGroup, constraint: Optional[IPv4Prefix]) -> bool:
    """Keep the dstip constraint when it is finer than the group's prefixes.

    A packet tagged with the group's VMAC has a destination inside one
    of the group's prefixes; the constraint is redundant exactly when it
    covers every such prefix.
    """
    if constraint is None:
        return False
    return not all(constraint.contains(prefix) for prefix in group.prefixes)


def vmacify_outbound(
    classifier: Classifier,
    participants: FrozenSet[str],
    reachable: ReachableFn,
    fec_table: FECTable,
) -> Classifier:
    """Apply BGP-consistency filters, encoded as VMAC matches.

    Every rule that forwards to a participant ``N`` is replaced by one
    rule per forwarding-equivalence class it may legitimately steer —
    matching the class's VMAC instead of (typically) the destination
    prefix.  This is simultaneously Section 4.1's "enforcing consistency
    with BGP advertisements" and Section 4.2's data-plane state
    reduction.  Rules forwarding only to physical locations pass through
    unchanged.
    """
    rewritten: List[Rule] = []
    for rule in classifier.rules:
        if rule.is_drop:
            rewritten.append(rule)
            continue
        virtual_actions = [
            action for action in rule.actions if action.output_port in participants
        ]
        other_actions = [
            action for action in rule.actions if action.output_port not in participants
        ]
        if not virtual_actions:
            rewritten.append(rule)
            continue
        constraint = rule.match.constraint("dstip")
        groups_for_action: Dict[Action, List[PrefixGroup]] = {}
        ordered_groups: Dict[int, PrefixGroup] = {}
        for action in virtual_actions:
            eligible = reachable(action.output_port)
            if constraint is not None:
                eligible = frozenset(
                    prefix for prefix in eligible if prefix.overlaps(constraint)
                )
            groups = [
                group
                for group in fec_table.groups_covering(eligible)
                if group.is_affected
            ]
            groups_for_action[action] = groups
            for group in groups:
                ordered_groups.setdefault(group.group_id, group)
        base_match = rule.match.without("dstip")
        for group_id in sorted(ordered_groups):
            group = ordered_groups[group_id]
            actions: Set[Action] = {
                action
                for action in virtual_actions
                if group in groups_for_action[action]
            }
            actions.update(other_actions)
            scoped = base_match.restrict("dstmac", group.vnh.hardware)
            if scoped is None:
                continue
            if _group_needs_dstip(group, constraint):
                scoped = scoped.restrict("dstip", constraint)
                if scoped is None:
                    continue
            rewritten.append(Rule(scoped, actions))
        if other_actions:
            # Packets whose destination is not deliverable through any
            # virtual target still receive the physical-location copies.
            rewritten.append(Rule(rule.match, other_actions))
    return Classifier(rewritten).optimized()


# -- transformation 3: default forwarding via the best BGP route --------------


def _best_for(ranked: Tuple[Route, ...], participant: str) -> Optional[Route]:
    """The decision-process outcome for one participant, from the ranking."""
    for route in ranked:
        if route.learned_from != participant and route.exported_to(participant):
            return route
    return None


def default_exception_rules(
    config: IXPConfig, group: PrefixGroup, ranked: Tuple[Route, ...]
) -> List[Rule]:
    """Port-scoped exceptions to one FEC's shared default rule.

    When the top route carries an export scope, participants outside it
    get exception rules steering along their own best route; these sit
    above the shared (sender-independent) rule regardless of whether
    that rule matches the class exactly or by attribute mask.
    """
    rules: List[Rule] = []
    if not ranked:
        return rules
    top = ranked[0]
    if top.export_to is None:
        return rules
    for participant in config.participants():
        if participant.name == top.learned_from or participant.is_remote:
            continue
        best = _best_for(ranked, participant.name)
        if best is None or best is top:
            continue
        for port in participant.ports:
            rules.append(
                Rule(
                    HeaderMatch(port=port.port_id, dstmac=group.vnh.hardware),
                    (Action(port=best.learned_from),),
                )
            )
    return rules


def default_rules_for_group(
    config: IXPConfig, group: PrefixGroup, ranked: Tuple[Route, ...]
) -> List[Rule]:
    """First-stage default rules steering one FEC along BGP best routes.

    Usually a single sender-independent rule: the FEC's VMAC forwards to
    the globally best next-hop participant.  When the top route carries
    an export scope, participants outside it get port-scoped exception
    rules (their own best route), placed above the shared rule.
    """
    rules: List[Rule] = []
    if not ranked:
        return rules
    top = ranked[0]
    rules.extend(default_exception_rules(config, group, ranked))
    rules.append(
        Rule(
            HeaderMatch(dstmac=group.vnh.hardware),
            (Action(port=top.learned_from),),
        )
    )
    return rules


def delivery_rules_for_group(
    participant: ParticipantSpec, group: PrefixGroup, ranked: Tuple[Route, ...]
) -> List[Rule]:
    """Second-stage delivery rules for one FEC at one announcing participant.

    Traffic tagged with the group's VMAC that reaches the participant's
    virtual switch leaves through the port whose interface announced the
    class, with the destination MAC rewritten to that interface's
    physical address.  Remote announcers produce no rules — their
    inbound policy must claim the traffic.
    """
    announcing_route = next(
        (route for route in ranked if route.learned_from == participant.name),
        None,
    )
    if announcing_route is None:
        return []
    port = participant.port_for_address(announcing_route.next_hop)
    if port is None:
        return []
    return [
        Rule(
            HeaderMatch(dstmac=group.vnh.hardware),
            (Action(port=port.port_id, dstmac=port.hardware),),
        )
    ]


def default_forwarding_classifier(
    config: IXPConfig,
    fec_table: FECTable,
    ranked_routes: RankedRoutesFn,
) -> Classifier:
    """The shared ``def`` policy: send unclaimed traffic along BGP best routes.

    Because every participant's router tags packets with the MAC that
    encodes its own best route (a VMAC for policy-affected classes, the
    announcing interface's physical MAC otherwise), default forwarding
    is almost entirely *sender-independent*:

    * one rule per affected FEC, matching the class VMAC and forwarding
      to the class's globally best next-hop participant — plus, where
      export scoping makes some participant's best route differ,
      per-port exception rules placed above the shared rule;
    * one rule per foreign physical port MAC, forwarding to the owning
      participant — this covers every unaffected (pure-BGP) prefix.
    """
    rules: List[Rule] = []
    for group in fec_table.affected_groups:
        rules.extend(default_rules_for_group(config, group, ranked_routes(group)))
    for participant in config.participants():
        for port in participant.ports:
            rules.append(
                Rule(
                    HeaderMatch(dstmac=port.hardware),
                    (Action(port=participant.name),),
                )
            )
    return Classifier(rules)


def default_delivery_classifier(
    participant: ParticipantSpec,
    fec_table: FECTable,
    ranked_routes: RankedRoutesFn,
) -> Classifier:
    """The participant's default delivery policy (second half of ``defP``).

    Places packets on the participant's physical ports: physical-MAC
    tagged traffic goes straight out the matching port; VMAC-tagged
    (policy-diverted or default) traffic is delivered out the port whose
    interface announced the class, with the destination MAC rewritten to
    that interface's physical address so the router accepts the frame.
    """
    rules: List[Rule] = []
    for port in participant.ports:
        rules.append(
            Rule(HeaderMatch(dstmac=port.hardware), (Action(port=port.port_id),))
        )
    if participant.is_remote:
        return Classifier(rules)
    for group in fec_table.affected_groups:
        rules.extend(delivery_rules_for_group(participant, group, ranked_routes(group)))
    return Classifier(rules)


# -- inbound policy delivery rewriting ------------------------------------------


def rewrite_inbound_delivery(classifier: Classifier, config: IXPConfig) -> Classifier:
    """Rewrite physical-port forwards to also set the interface MAC.

    An inbound policy says ``fwd("B1")``; the frame that leaves the
    fabric must carry B1's interface MAC or B's router will discard it.
    The paper performs the same rewrite inside its default policies; we
    extend it to every explicitly selected physical port.
    """
    port_macs = {port.port_id: port.hardware for port in config.physical_ports()}
    rules: List[Rule] = []
    for rule in classifier.rules:
        actions: List[Action] = []
        for action in rule.actions:
            target = action.output_port
            if target in port_macs and action.get("dstmac") is None:
                actions.append(action.then(Action(dstmac=port_macs[target])))
            else:
                actions.append(action)
        rules.append(Rule(rule.match, actions))
    return Classifier(rules)


# -- transformation 4 helpers: composition plumbing -----------------------------


def concat_disjoint(classifiers: Iterable[Classifier]) -> Classifier:
    """Union of classifiers known to claim pairwise-disjoint flow spaces.

    This is the Section 4.3.1 optimization "most SDX policies are
    disjoint": after isolation each participant's policy matches on its
    own ports, so parallel composition degenerates to concatenation —
    no cross-product rules are ever needed.
    """
    rules: List[Rule] = []
    for classifier in classifiers:
        rules.extend(classifier.rules)
    return Classifier(rules)


def passthrough_classifier(config: IXPConfig) -> Classifier:
    """Second-stage rules that let physically-located packets egress.

    Outbound policies may target a physical port directly (the
    middlebox-steering idiom ``fwd("E1")``); such packets arrive at the
    second composition stage already placed, and these rules emit them
    with the destination MAC of the receiving interface.
    """
    rules: List[Rule] = []
    for port in config.physical_ports():
        rules.append(
            Rule(
                HeaderMatch(port=port.port_id),
                (Action(port=port.port_id, dstmac=port.hardware),),
            )
        )
    return Classifier(rules)
