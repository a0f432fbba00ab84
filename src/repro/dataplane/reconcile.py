"""Rule-level delta reconciliation for fabric commits.

The SDX paper's data-plane economy argument (FEC/VMAC grouping, the
two-stage incremental pipeline) is that switch state stays small and
*updates stay cheap*.  Wiping every base cookie and reinstalling the
full classifier on each commit — what the committer did before this
module — betrays that argument twice over: an edit to one participant's
policy rewrites the entire table, and every per-rule packet/byte
counter (the basis of per-policy accounting) resets with it.

This module diffs the *target* flow table a compilation implies against
the *installed* one and produces a minimal patch:

* **identity** — a rule is the same rule iff its (cookie, match,
  actions) triple is unchanged; priority is an *attribute* of an
  installed rule, not part of its identity.  Canonical forms mirror
  :meth:`~repro.dataplane.flowtable.FlowTable.content_hash` exactly, so
  "same identity + same priority" implies "same digest row".
* **diff** — rules present in both sides at the same priority are
  *retained* untouched (counters keep accumulating); identical rules
  whose priority shifted (a neighbouring segment grew or shrank, moving
  the priority tiling) are *reprioritized* in place, again preserving
  counters; everything else becomes an add or a remove.
* **patch application** — removes, then moves, then adds, inside the
  caller's :class:`~repro.dataplane.flowtable.FlowTableTransaction`.
  Because base-table priorities are globally unique (segments tile
  contiguous priority ranges), the patched table is byte-identical —
  same :meth:`content_hash` — to a full wipe-and-reinstall.

:class:`CommitReport` is the typed outcome the controller returns from
``compile()`` / ``run_background_recompilation()``: the add/remove/
retain/reprioritize counts plus the commit latency, delegating every
other attribute to the underlying
:class:`~repro.core.compiler.CompilationResult` so existing callers
keep reading ``.segments``, ``.fec_table``, ``.stats`` untouched.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.dataplane.flowtable import FlowRule, FlowTable
from repro.policy.classifier import Action, Classifier, HeaderMatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.compiler import CompilationResult
    from repro.guard.commits import GuardReport

__all__ = [
    "BASE_COOKIE",
    "BASE_PRIORITY",
    "ChurnStats",
    "CommitReport",
    "RuleSpec",
    "TablePatch",
    "diff",
    "is_base_cookie",
    "target_specs",
]

#: Cookie tagging the base (fully optimized) rule block in the switch.
BASE_COOKIE = "sdx-base"
#: Priority floor of the base block.
BASE_PRIORITY = 1000

RuleIdentity = Tuple[str, str, Tuple[str, ...], int, str]
IdentityKey = Tuple[Any, HeaderMatch, FrozenSet[Action], int, Optional[int]]

#: Segment placement in the multi-table layout: label -> (table, goto).
Placement = Tuple[int, Optional[int]]


def is_base_cookie(cookie: Any) -> bool:
    """True for cookies the reconciler owns (base-table segments)."""
    return isinstance(cookie, tuple) and bool(cookie) and cookie[0] == BASE_COOKIE


class RuleSpec(NamedTuple):
    """One desired flow entry: what a compilation wants installed."""

    priority: int
    match: HeaderMatch
    actions: FrozenSet[Action]
    cookie: Any
    table: int = 0
    goto: Optional[int] = None

    @property
    def identity(self) -> RuleIdentity:
        """Priority-independent identity; see :meth:`FlowRule.identity`."""
        return (
            repr(self.cookie),
            repr(self.match),
            tuple(sorted(repr(action) for action in self.actions)),
            self.table,
            repr(self.goto),
        )


def target_specs(
    segments: Sequence[Tuple[Any, Classifier]],
    base_priority: int = BASE_PRIORITY,
    base_cookie: Any = BASE_COOKIE,
    placements: Optional[Dict[Any, Placement]] = None,
) -> List[RuleSpec]:
    """The full desired base table for ``segments``, priorities tiled.

    Replicates the committer's historical layout exactly: segment order
    fixes relative priority (earlier segments sit above later ones),
    and within a segment the classifier's rule order becomes strictly
    descending priorities.  The resulting priorities are globally
    unique — they tile ``base_priority + 1 .. base_priority + total`` —
    which is what makes patched-table ordering deterministic even when
    ``placements`` scatters segments across table stages (per-stage
    lookup only sees its own slice of the tiling, still in order).
    """
    placements = placements or {}
    specs: List[RuleSpec] = []
    remaining = sum(len(block) for _, block in segments)
    for label, block in segments:
        cookie = (base_cookie, *label)
        table, goto = placements.get(label, (0, None))
        top = base_priority + remaining
        for offset, rule in enumerate(block.rules):
            specs.append(
                RuleSpec(
                    top - offset,
                    rule.match,
                    frozenset(rule.actions),
                    cookie,
                    table,
                    goto,
                )
            )
        remaining -= len(block)
    return specs


class TablePatch:
    """A minimal edit script turning the installed table into the target.

    ``retained`` counts rules left completely untouched; ``moves`` are
    (installed rule, new priority) pairs — same identity, shifted
    priority — whose counters survive; ``adds``/``removes`` are genuine
    churn.  Apply inside a transaction: :meth:`apply` mutates the table
    in place and the transaction's checkpoint (membership *and*
    priorities) makes a mid-patch failure fully reversible.
    """

    __slots__ = ("adds", "removes", "moves", "retained")

    def __init__(
        self,
        adds: List[RuleSpec],
        removes: List[FlowRule],
        moves: List[Tuple[FlowRule, int]],
        retained: int,
    ) -> None:
        self.adds = adds
        self.removes = removes
        self.moves = moves
        self.retained = retained

    @property
    def churn(self) -> int:
        """Rule install/remove operations this patch will perform."""
        return len(self.adds) + len(self.removes)

    @property
    def is_noop(self) -> bool:
        return not (self.adds or self.removes or self.moves)

    def apply(self, table: FlowTable) -> None:
        """Mutate ``table`` into the target (call inside a transaction)."""
        for rule in self.removes:
            table.remove(rule)
        for rule, priority in self.moves:
            table.reprioritize(rule, priority)
        for spec in self.adds:
            table.install(
                FlowRule(
                    spec.priority,
                    spec.match,
                    spec.actions,
                    cookie=spec.cookie,
                    table=spec.table,
                    goto=spec.goto,
                )
            )

    def __repr__(self) -> str:
        return (
            f"TablePatch(adds={len(self.adds)}, removes={len(self.removes)}, "
            f"moves={len(self.moves)}, retained={self.retained})"
        )


def _identity_key(entry: "FlowRule | RuleSpec") -> IdentityKey:
    """The hashable values behind ``entry.identity``, priority excluded."""
    return (entry.cookie, entry.match, entry.actions, entry.table, entry.goto)


def diff(current: Iterable[FlowRule], target: Iterable[RuleSpec]) -> TablePatch:
    """Compute the minimal patch from installed rules to desired specs.

    Matching is per identity bucket: exact-priority pairs retain first,
    then leftover installed rules pair with leftover specs in priority
    order (reprioritize), and only the unmatched tails become removes
    and adds.  Deterministic for any input order.

    Buckets are keyed on the identity *values* (see :func:`_identity_key`),
    which partition rules exactly as the ``identity`` properties'
    canonical strings do without rendering five ``repr()`` per rule on
    every commit.
    """
    current_by_id: Dict[IdentityKey, List[FlowRule]] = {}
    for rule in current:
        current_by_id.setdefault(_identity_key(rule), []).append(rule)
    target_by_id: Dict[IdentityKey, List[RuleSpec]] = {}
    for spec in target:
        target_by_id.setdefault(_identity_key(spec), []).append(spec)

    adds: List[RuleSpec] = []
    removes: List[FlowRule] = []
    moves: List[Tuple[FlowRule, int]] = []
    retained = 0
    for identity, specs in target_by_id.items():
        installed = current_by_id.pop(identity, [])
        by_priority: Dict[int, List[FlowRule]] = {}
        for rule in installed:
            by_priority.setdefault(rule.priority, []).append(rule)
        unmatched_specs: List[RuleSpec] = []
        for spec in specs:
            bucket = by_priority.get(spec.priority)
            if bucket:
                bucket.pop()
                retained += 1
            else:
                unmatched_specs.append(spec)
        unmatched_rules = [rule for bucket in by_priority.values() for rule in bucket]
        unmatched_rules.sort(key=lambda rule: rule.priority)
        unmatched_specs.sort(key=lambda spec: spec.priority)
        paired = min(len(unmatched_rules), len(unmatched_specs))
        for rule, spec in zip(unmatched_rules[:paired], unmatched_specs[:paired]):
            moves.append((rule, spec.priority))
        adds.extend(unmatched_specs[paired:])
        removes.extend(unmatched_rules[paired:])
    for leftover in current_by_id.values():
        removes.extend(leftover)
    return TablePatch(adds, removes, moves, retained)


class CommitReport:
    """Typed outcome of one fabric commit.

    Carries the reconciliation counts (``added`` / ``removed`` /
    ``retained`` / ``reprioritized``) and the commit latency in
    ``seconds``, with the :class:`CompilationResult` behind the commit
    in ``result``.  Unknown attributes delegate to ``result``, so code
    written against ``compile()``'s historical return type
    (``report.segments``, ``report.fec_table``, ``report.stats``, …)
    keeps working unchanged.
    """

    __slots__ = (
        "added",
        "removed",
        "retained",
        "reprioritized",
        "seconds",
        "result",
        "verified",
    )

    def __init__(
        self,
        added: int,
        removed: int,
        retained: int,
        reprioritized: int,
        seconds: float,
        result: "CompilationResult",
        verified: Optional["GuardReport"] = None,
    ) -> None:
        self.added = added
        self.removed = removed
        self.retained = retained
        self.reprioritized = reprioritized
        self.seconds = seconds
        self.result = result
        #: the commit guard's sampled-check report (None when no guard
        #: is attached or the check was skipped as a no-op re-commit)
        self.verified = verified

    @property
    def churn(self) -> int:
        """Rules actually installed or removed by this commit."""
        return self.added + self.removed

    def __getattr__(self, name: str) -> Any:
        # Only reached for attributes not in __slots__: delegate to the
        # compilation result for backward compatibility.
        return getattr(object.__getattribute__(self, "result"), name)

    def __repr__(self) -> str:
        return (
            f"CommitReport(added={self.added}, removed={self.removed}, "
            f"retained={self.retained}, reprioritized={self.reprioritized}, "
            f"seconds={self.seconds:.6f})"
        )


class ChurnStats(NamedTuple):
    """Cumulative reconciliation counters since controller start.

    Exposed via ``controller.ops.churn()`` so benchmarks and operator
    tooling read structured numbers instead of parsing
    ``metrics_text()``.
    """

    commits: int
    added: int
    removed: int
    retained: int
    reprioritized: int
    last: Optional[CommitReport]
