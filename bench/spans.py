"""Span recorder and the rebinding that times the SDX layers from outside.

The benchmark touches no file under ``src/``.  A traced run rebinds the
public entry point of each layer *on the controller instance the
harness built* (an instance attribute shadows the class's method, so
every internal ``controller.x.method(...)`` call goes through the
wrapper) and records one span per call: name, start, end, parent, and
the id of the root operation that caused it.  Spans stay in memory and
are written out when the run ends.  A layer's *self time* is its span's
duration minus its direct children's, so the layers of one operation
plus its unattributed remainder sum to the operation's wall time.

An untraced run passes :data:`NO_TRACE` through the same code paths:
nothing is rebound and nothing is recorded.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

#: (attribute owner path on the controller, method, span name).  Module
#: names are the layers; the names below appear verbatim in the trace.
CONTROLLER_SPANS = (
    ("route_server", "load", "bgp.load"),
    ("route_server", "process_update", "bgp.process_update"),
    ("fast_path", "handle_changes", "core.fastpath.handle"),
    ("fast_path", "prune_stale_delivery", "core.fastpath.prune"),
    ("fast_path", "flush", "core.fastpath.flush"),
    ("pipeline.committer", "install", "pipeline.install"),
    ("guard", "check_commit", "guard.verify"),
    ("guard", "begin_deferred", "guard.verify"),
    ("guard", "verify_snapshot", "guard.verify"),
    ("runtime", "drain", "runtime.drain"),
    ("switch.table", "resolve", "dataplane.lookup"),
)


class Span:
    """One timed call.  ``root`` is the id of the operation it belongs to."""

    __slots__ = ("id", "parent", "root", "name", "start", "end", "children_s")

    def __init__(self, span_id: int, parent: Optional["Span"], name: str, start: float):
        self.id = span_id
        self.parent = parent.id if parent is not None else None
        self.root = parent.root if parent is not None else span_id
        self.name = name
        self.start = start
        self.end = start
        self.children_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s

    def to_json(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "parent": self.parent,
            "root": self.root,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "self_s": self.self_s,
        }


class _NoTrace:
    """The untraced pass: same call shape, no recording, no rebinding."""

    enabled = False

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield

    def instrument(self, controller: Any) -> None:
        pass

    def restore(self) -> None:
        pass


NO_TRACE = _NoTrace()


class Recorder:
    """In-memory span recorder for one single-threaded run."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.spans: List[Span] = []
        self._cells: Dict[str, List[int]] = {}
        self._stack: List[Span] = []
        self._rebound: List[tuple] = []  # shared rebindings first, then one controller's
        self._shared = 0

    # -- recording ------------------------------------------------------------

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, self._clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self._clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        if self._stack:
            self._stack[-1].children_s += span.duration

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span around every call."""

        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return wrapper

    def timed_generator(self, name: str, genfn: Callable) -> Callable:
        """A generator function with a span around every *resumption*.

        ``CompilationPipeline.compile_steps`` yields back to the event
        loop between stages; the time it is suspended belongs to
        whichever task ran meanwhile, not to the compiler.
        """

        def wrapper(*args, **kwargs):
            inner = genfn(*args, **kwargs)
            try:
                while True:
                    span = self.begin(name)
                    try:
                        token = next(inner)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        self.end(span)
                    yield token
            finally:
                inner.close()

        return wrapper

    def counted(self, name: str, fn: Callable[[Any], Any]) -> Callable[[Any], Any]:
        """One-argument ``fn`` with a call counter and no span.

        For a call made millions of times per compile: a span, or even
        ``*args`` packing (0.4 us against 0.05 us), would inflate the
        layer it sits in by more than a tenth.
        """
        cell = self._cells.setdefault(name, [0])

        def wrapper(arg):
            cell[0] += 1
            return fn(arg)

        return wrapper

    @property
    def counts(self) -> Dict[str, int]:
        return {name: cell[0] for name, cell in self._cells.items()}

    # -- rebinding ------------------------------------------------------------

    def rebind(self, owner: Any, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        """Shadow ``owner.attr`` with ``wrap(original)``; undone by :meth:`restore`."""
        shadowed = attr in vars(owner)
        self._rebound.append((owner, attr, shadowed, vars(owner).get(attr)))
        setattr(owner, attr, wrap(getattr(owner, attr)))

    def instrument(self, controller: Any) -> None:
        """Rebind every layer entry point of one controller instance.

        One controller is live at a time: the previous one's rebinding is
        undone first, so the recorder does not keep retired controllers
        (and their RIBs) alive.
        """
        self._undo(self._shared)
        for path, attr, name in CONTROLLER_SPANS:
            owner = controller
            for part in path.split("."):
                owner = getattr(owner, part)
            if owner is not None:  # guard / runtime are optional subsystems
                self.rebind(owner, attr, lambda fn, _n=name: self.timed(_n, fn))
        self.rebind(
            controller.pipeline,
            "compile_steps",
            lambda fn: self.timed_generator("pipeline.compile", fn),
        )
        self.rebind(
            controller.route_server,
            "ranked_routes",
            lambda fn: self.counted("bgp.ranked_routes", fn),
        )

    def instrument_shared(self) -> None:
        """Rebind the two entry points that are not reachable per instance.

        Operator dunders are looked up on the type, and the invariant
        sweep is a module-level function the checker imported by name.
        """
        import repro.verify.checker as checker
        from repro.policy.classifier import Classifier

        for dunder in ("__rshift__", "__add__"):
            self.rebind(Classifier, dunder, lambda fn: self.timed("policy.compose", fn))
        self.rebind(
            checker,
            "check_all_invariants",
            lambda fn: self.timed("verify.invariants", fn),
        )
        self._shared = len(self._rebound)

    def restore(self) -> None:
        """Undo every rebinding, newest first."""
        self._undo(0)
        self._shared = 0

    def _undo(self, keep: int) -> None:
        while len(self._rebound) > keep:
            owner, attr, shadowed, original = self._rebound.pop()
            if shadowed:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- accounting -----------------------------------------------------------

    def self_seconds(self) -> Dict[str, float]:
        """Summed self time per span name."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.self_s
        return totals

    def self_samples(self, name: str) -> List[float]:
        return [span.self_s for span in self.spans if span.name == name]

    def roots(self) -> List[Span]:
        return [span for span in self.spans if span.parent is None]

    def unattributed_share(self) -> float:
        """Share of the operations' wall time that no layer span claimed."""
        roots = self.roots()
        wall = sum(span.duration for span in roots)
        return sum(span.self_s for span in roots) / wall if wall else 0.0

    def overhead_seconds(self) -> float:
        """Estimated cost of the recording itself — a floor.

        Spans and counted calls recorded, times the per-call cost of each,
        measured right now on a probe rebound the way the layers are (an
        instance method reached through another object's attribute).  In
        a tight loop a wrapper is cheaper than among the real callers'
        cache misses (0.05 us against ~0.3 us per counted call), so
        ``run.py`` prints the paired traced/untraced figure next to it.
        """
        probe = _Probe()
        caller = _Probe(probe)
        rounds = 20_000
        scratch = Recorder(self._clock)
        bare = caller.loop_seconds(rounds, self._clock)
        scratch.rebind(probe, "identity", lambda fn: scratch.timed("probe", fn))
        per_span = caller.loop_seconds(rounds, self._clock) - bare
        scratch.restore()
        scratch.rebind(probe, "identity", lambda fn: scratch.counted("probe", fn))
        per_count = caller.loop_seconds(rounds, self._clock) - bare
        scratch.restore()
        calls = len(self.spans) * per_span + sum(self.counts.values()) * per_count
        return max(0.0, calls / rounds)

    def to_json(self) -> Dict[str, Any]:
        return {
            "spans": [span.to_json() for span in self.spans],
            "counts": self.counts,
        }


class _Probe:
    """Calibration stand-in for a layer object and for its caller."""

    def __init__(self, target: Optional["_Probe"] = None) -> None:
        self._target = target

    def identity(self, arg: Any) -> Any:
        return arg

    def loop_seconds(self, rounds: int, clock: Callable[[], float]) -> float:
        started = clock()
        for _ in range(rounds):
            self._target.identity(None)
        return clock() - started


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], percent: int) -> float:
    """The ``percent``-th percentile (``statistics.quantiles``, n=100)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]
