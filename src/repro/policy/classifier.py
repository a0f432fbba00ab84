"""Prioritized rule lists — the compile target of the policy language.

A :class:`Classifier` is an ordered list of :class:`Rule` objects, each
pairing a :class:`HeaderMatch` with a set of :class:`Action` rewrites.
This is exactly the intermediate representation the Pyretic runtime
lowers policies into before emitting OpenFlow rules, and it is the
object whose *size* the paper's Figures 7 and 9 measure.

The two composition algorithms implemented here (parallel and
sequential rule-level composition with action commutation) follow
Monsanto et al., "Composing Software-Defined Networks" (NSDI 2013).
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.netutils.fields import (
    FIELDS,
    match_value_covers,
    match_values_intersect,
    normalize_match_value,
    normalize_packet_value,
    value_satisfies_match,
)
from repro.netutils.mac import MACMask
from repro.policy.packet import Packet

__all__ = ["Action", "Classifier", "HeaderMatch", "Rule", "sequence_rule"]


class HeaderMatch:
    """A conjunction of per-field constraints (an OpenFlow-style match).

    An empty :class:`HeaderMatch` matches every packet.  IP-field
    constraints are CIDR prefixes; all other fields match exactly.
    """

    __slots__ = ("_constraints", "_hash")

    ANY: "HeaderMatch"

    def __init__(self, constraints: Optional[Mapping[str, Any]] = None, **kwargs: Any) -> None:
        merged: Dict[str, Any] = {}
        if constraints:
            merged.update(constraints)
        merged.update(kwargs)
        normalized: Dict[str, Any] = {}
        for field, value in merged.items():
            if field not in FIELDS:
                raise ValueError(f"unknown header field {field!r}")
            normalized[field] = normalize_match_value(field, value)
        self._constraints = normalized
        self._hash: Optional[int] = None

    @property
    def constraints(self) -> Mapping[str, Any]:
        """Read-only view of the per-field constraints."""
        return dict(self._constraints)

    @property
    def is_universal(self) -> bool:
        """True when the match constrains nothing (matches all packets)."""
        return not self._constraints

    def fields(self) -> FrozenSet[str]:
        """The set of constrained field names."""
        return frozenset(self._constraints)

    def constraint(self, field: str) -> Any:
        """The constraint on one field, or ``None`` when unconstrained."""
        return self._constraints.get(field)

    def matches(self, packet: Packet) -> bool:
        """True when ``packet`` satisfies every constraint."""
        for field, constraint in self._constraints.items():
            if not value_satisfies_match(field, packet.get(field), constraint):
                return False
        return True

    def intersect(self, other: "HeaderMatch") -> Optional["HeaderMatch"]:
        """The conjunction of two matches, or ``None`` when unsatisfiable."""
        constraints = dict(self._constraints)
        for field, value in other._constraints.items():
            if field in constraints:
                merged = match_values_intersect(field, constraints[field], value)
                if merged is None:
                    return None
                constraints[field] = merged
            else:
                constraints[field] = value
        return HeaderMatch(constraints)

    def covers(self, other: "HeaderMatch") -> bool:
        """True when every packet matching ``other`` also matches ``self``."""
        for field, general in self._constraints.items():
            if field not in other._constraints:
                return False
            if not match_value_covers(field, general, other._constraints[field]):
                return False
        return True

    def disjoint_from(self, other: "HeaderMatch") -> bool:
        """True when no packet can satisfy both matches.

        Conservative: returns False whenever an overlap cannot be ruled
        out from the per-field constraints alone.
        """
        return self.intersect(other) is None

    def restrict(self, field: str, value: Any) -> Optional["HeaderMatch"]:
        """Shorthand for intersecting with a single-field match."""
        return self.intersect(HeaderMatch({field: value}))

    def without(self, *fields: str) -> "HeaderMatch":
        """Copy of this match with the given field constraints removed."""
        return HeaderMatch(
            {f: v for f, v in self._constraints.items() if f not in fields}
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeaderMatch):
            return NotImplemented
        return self._constraints == other._constraints

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._constraints.items()))
        return self._hash

    def __repr__(self) -> str:
        if not self._constraints:
            return "HeaderMatch(*)"
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._constraints.items()))
        return f"HeaderMatch({inner})"


HeaderMatch.ANY = HeaderMatch()


class Action:
    """A header rewrite: a partial map of fields to new values.

    The special ``port`` field sets the packet's output location, so
    ``Action(port="B1")`` is a plain forward and ``Action()`` is the
    identity (emit unchanged).  A rule whose action *set* is empty drops.
    """

    __slots__ = ("_updates", "_hash")

    IDENTITY: "Action"

    def __init__(self, updates: Optional[Mapping[str, Any]] = None, **kwargs: Any) -> None:
        merged: Dict[str, Any] = {}
        if updates:
            merged.update(updates)
        merged.update(kwargs)
        normalized: Dict[str, Any] = {}
        for field, value in merged.items():
            if field not in FIELDS:
                raise ValueError(f"unknown header field {field!r}")
            normalized[field] = normalize_packet_value(field, value)
        self._updates = normalized
        self._hash: Optional[int] = None

    @property
    def updates(self) -> Mapping[str, Any]:
        """Read-only view of the field assignments."""
        return dict(self._updates)

    @property
    def is_identity(self) -> bool:
        return not self._updates

    @property
    def output_port(self) -> Any:
        """The port this action sends to, or ``None`` if it keeps the location."""
        return self._updates.get("port")

    def get(self, field: str, default: Any = None) -> Any:
        return self._updates.get(field, default)

    def apply(self, packet: Packet) -> Packet:
        """Apply the rewrites to ``packet``, returning the new packet."""
        if not self._updates:
            return packet
        return packet.modify(**self._updates)

    def then(self, later: "Action") -> "Action":
        """Compose sequentially: apply ``self`` first, then ``later``.

        Later assignments override earlier ones field-by-field.
        """
        merged = dict(self._updates)
        merged.update(later._updates)
        return Action(merged)

    def commute_match(self, match: "HeaderMatch") -> Optional["HeaderMatch"]:
        """Pull ``match`` backwards through this rewrite.

        Returns the weakest pre-condition ``m`` such that a packet
        satisfies ``m`` iff applying this action to it yields a packet
        satisfying ``match`` — or ``None`` when no packet can reach
        ``match`` through this action.
        """
        surviving: Dict[str, Any] = {}
        for field, constraint in match.constraints.items():
            if field in self._updates:
                if not value_satisfies_match(field, self._updates[field], constraint):
                    return None
                # constraint is guaranteed by the rewrite: drop it.
            else:
                surviving[field] = constraint
        return HeaderMatch(surviving)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Action):
            return NotImplemented
        return self._updates == other._updates

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._updates.items()))
        return self._hash

    def __repr__(self) -> str:
        if not self._updates:
            return "Action(identity)"
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._updates.items()))
        return f"Action({inner})"


Action.IDENTITY = Action()


class Rule:
    """One prioritized entry: when ``match`` fires, emit one packet per action."""

    __slots__ = ("match", "actions")

    def __init__(self, match: HeaderMatch, actions: Iterable[Action] = ()) -> None:
        self.match = match
        self.actions: FrozenSet[Action] = frozenset(actions)

    @property
    def is_drop(self) -> bool:
        return not self.actions

    def eval(self, packet: Packet) -> FrozenSet[Packet]:
        """Apply the rule's actions to a packet known to match."""
        return frozenset(action.apply(packet) for action in self.actions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rule):
            return NotImplemented
        return self.match == other.match and self.actions == other.actions

    def __hash__(self) -> int:
        return hash((self.match, self.actions))

    def __repr__(self) -> str:
        if self.is_drop:
            return f"Rule({self.match!r} -> drop)"
        acts = ", ".join(repr(a) for a in sorted(self.actions, key=repr))
        return f"Rule({self.match!r} -> [{acts}])"


_IP_FIELDS = frozenset({"srcip", "dstip"})


class _PrefixShadowIndex:
    """Coverage index over matches sharing one IP-bearing field set.

    Answers "does any added match cover this one?" for
    :meth:`Classifier.optimized` without scanning the added matches.  An
    added match covers a later one iff its exact fields are equal and
    each of its prefixes contains the later one's, so matches are stored
    under (exact values) → (prefix lengths) → (the prefixes); a probe is
    one lookup on the exact values, then one per length combination
    stored under them, with the later match's prefixes truncated to
    those lengths.

    A :class:`MACMask` value covers by bit mask, not by equality, so
    matches carrying one stay on ``masked`` and are tested with
    :meth:`HeaderMatch.covers`.  Only the superset VMAC encoding
    produces them, and only its policy rules that also constrain an IP
    field land here.

    The fast path builds one of these per field set of every ~16-rule
    classifier it compiles, so ``add`` and ``covers`` avoid generator
    frames; construction cost, not lookup, is what shows there.
    """

    __slots__ = ("exact_fields", "ip_fields", "entries", "masked")

    def __init__(self, fields: FrozenSet[str]) -> None:
        self.ip_fields = tuple(fields & _IP_FIELDS)
        self.exact_fields = tuple(fields - _IP_FIELDS)
        self.entries: Dict[Tuple[Any, ...], Dict[Tuple[int, ...], set]] = {}
        self.masked: List[HeaderMatch] = []

    def add(self, match: HeaderMatch) -> None:
        constraints = match._constraints
        exact = tuple([constraints[field] for field in self.exact_fields])
        if MACMask in map(type, exact):
            self.masked.append(match)
            return
        prefixes = tuple([constraints[field] for field in self.ip_fields])
        lengths = tuple([prefix.length for prefix in prefixes])
        by_lengths = self.entries.get(exact)
        if by_lengths is None:
            by_lengths = self.entries[exact] = {}
        stored = by_lengths.get(lengths)
        if stored is None:
            by_lengths[lengths] = {prefixes}
        else:
            stored.add(prefixes)

    def covers(self, match: HeaderMatch) -> bool:
        """True when some added match covers ``match`` (a superset of this
        index's fields)."""
        constraints = match._constraints
        by_lengths = self.entries.get(
            tuple([constraints[field] for field in self.exact_fields])
        )
        if by_lengths:
            prefixes = [constraints[field] for field in self.ip_fields]
            for lengths, stored in by_lengths.items():
                truncated = []
                for length, prefix in zip(lengths, prefixes):
                    if length > prefix.length:
                        break
                    truncated.append(prefix.supernet(length))
                else:
                    if tuple(truncated) in stored:
                        return True
        return any(earlier.covers(match) for earlier in self.masked)


class Classifier:
    """An ordered rule list with Pyretic composition semantics.

    Rules are checked top-down; the first matching rule's actions apply
    and later rules are ignored.  A packet matching no rule is dropped.

    Classifiers compose::

        c1 + c2    # parallel: union of both outputs
        c1 >> c2   # sequential: feed c1's outputs into c2
    """

    __slots__ = ("rules",)

    def __init__(self, rules: Iterable[Rule] = ()) -> None:
        self.rules: List[Rule] = list(rules)

    # -- interpretation ------------------------------------------------

    def first_match(self, packet: Packet) -> Optional[Rule]:
        """The highest-priority rule matching ``packet``, if any."""
        for rule in self.rules:
            if rule.match.matches(packet):
                return rule
        return None

    def eval(self, packet: Packet) -> FrozenSet[Packet]:
        """Interpret the classifier on one packet."""
        rule = self.first_match(packet)
        if rule is None:
            return frozenset()
        return rule.eval(packet)

    # -- composition ---------------------------------------------------

    def __add__(self, other: "Classifier") -> "Classifier":
        """Parallel composition: a packet's output is the union of both sides.

        Cross rules (pairwise intersections) come first in (i, j) order,
        followed by each side's own rules to cover packets the other side
        misses entirely.
        """
        crossed: List[Rule] = []
        for r1 in self.rules:
            for r2 in other.rules:
                overlap = r1.match.intersect(r2.match)
                if overlap is not None:
                    crossed.append(Rule(overlap, r1.actions | r2.actions))
        combined = crossed + self.rules + other.rules
        return Classifier(combined).optimized()

    def __rshift__(self, other: "Classifier") -> "Classifier":
        """Sequential composition: outputs of ``self`` are processed by ``other``."""
        out: List[Rule] = []
        for r1 in self.rules:
            out.extend(sequence_rule(r1, lambda action: other))
        return Classifier(out).optimized()

    # -- optimization ---------------------------------------------------

    def optimized(self) -> "Classifier":
        """Remove rules that can never fire (single-rule shadow elimination).

        A rule is dead when an earlier single rule's match covers it.
        This mirrors the shadow-elimination pass Pyretic applies before
        installing rules, and it is what keeps composed rule tables near
        the minimal size the paper reports.

        Matches are bucketed by their constrained field set: an earlier
        match can only cover a later one when its fields are a subset of
        the later match's fields.  Within a bucket whose fields all
        compare exactly (no CIDR prefixes), coverage degenerates to
        equality of the later match's restriction — a hash lookup.
        Buckets constraining ``srcip``/``dstip`` keep a
        :class:`_PrefixShadowIndex`: the exact fields are one hash
        lookup and each IP field is probed once per prefix length the
        bucket holds, so the pass stays near-linear whatever the table
        size and every dead rule is found.
        """
        kept: List[Rule] = []
        # field-set -> hash set of matches (exact-only fields) or a
        #              prefix index (the set constrains an IP field)
        buckets: Dict[FrozenSet[str], Union[set, _PrefixShadowIndex]] = {}
        for rule in self.rules:
            match = rule.match
            fields = match.fields()
            covered = False
            for bucket_fields, bucket in buckets.items():
                if not bucket_fields <= fields:
                    continue
                if isinstance(bucket, _PrefixShadowIndex):
                    covered = bucket.covers(match)
                elif bucket_fields == fields:
                    covered = match in bucket
                else:
                    constraints = match._constraints
                    probe = HeaderMatch(
                        {field: constraints[field] for field in bucket_fields}
                    )
                    covered = probe in bucket
                if covered:
                    break
            if covered:
                continue
            kept.append(rule)
            bucket = buckets.get(fields)
            if bucket is None:
                bucket = _PrefixShadowIndex(fields) if fields & _IP_FIELDS else set()
                buckets[fields] = bucket
            bucket.add(match)
        # Trailing drop rules are implicit (no-match means drop).
        while kept and kept[-1].is_drop and kept[-1].match.is_universal:
            kept.pop()
        return Classifier(kept)

    # -- plumbing --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __getitem__(self, index: int) -> Rule:
        return self.rules[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Classifier):
            return NotImplemented
        return self.rules == other.rules

    def __repr__(self) -> str:
        body = "\n  ".join(repr(rule) for rule in self.rules)
        return f"Classifier(\n  {body}\n)" if self.rules else "Classifier(empty)"


def _parallel_partial(
    left: List[Tuple[HeaderMatch, FrozenSet[Action]]],
    right: List[Tuple[HeaderMatch, FrozenSet[Action]]],
) -> List[Tuple[HeaderMatch, FrozenSet[Action]]]:
    """Parallel-union of two *partial* rule lists (no implicit drop)."""
    crossed: List[Tuple[HeaderMatch, FrozenSet[Action]]] = []
    for match1, actions1 in left:
        for match2, actions2 in right:
            overlap = match1.intersect(match2)
            if overlap is not None:
                crossed.append((overlap, actions1 | actions2))
    return crossed + left + right


def sequence_rule(
    rule: Rule,
    downstream_for: "Callable[[Action], Optional[Classifier]]",
) -> List[Rule]:
    """Compose a single rule with per-action downstream classifiers.

    ``downstream_for`` maps each of the rule's actions to the classifier
    its output should flow through (``None`` meaning drop).  Plain
    sequential composition passes a constant function; the SDX compiler
    passes a per-output-port index, which skips the rules of every
    participant the action cannot reach — the Section 4.3.1
    "most policies concern a subset of the participants" optimization.

    The produced rule list is *total* over ``rule.match`` (it ends in an
    explicit drop) so that packets matching ``rule`` never leak to rules
    that sat below it in the upstream classifier.
    """
    if rule.is_drop:
        return [rule]

    per_action: List[List[Tuple[HeaderMatch, FrozenSet[Action]]]] = []
    for action in rule.actions:
        branch: List[Tuple[HeaderMatch, FrozenSet[Action]]] = []
        downstream = downstream_for(action)
        for r2 in downstream.rules if downstream is not None else ():
            precondition = action.commute_match(r2.match)
            if precondition is None:
                continue
            scoped = rule.match.intersect(precondition)
            if scoped is None:
                continue
            merged = frozenset(action.then(a2) for a2 in r2.actions)
            branch.append((scoped, merged))
        per_action.append(branch)

    combined = per_action[0]
    for branch in per_action[1:]:
        combined = _parallel_partial(combined, branch)

    rules = [Rule(match, actions) for match, actions in combined]
    rules.append(Rule(rule.match, ()))  # seal the region: matched upstream, dropped downstream
    return rules
