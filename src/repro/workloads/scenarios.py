"""Churn-replay scenarios: failure storms replayed through the controller.

The synthetic trace generator (:mod:`repro.workloads.update_gen`)
reproduces the *steady-state* churn statistics of §4.3.2; operators
care at least as much about the pathological episodes those statistics
average away.  This module builds three of them as deterministic,
seed-parameterised traces in the same ``UpdateTrace`` shape, so they
replay through exactly the update→compile→commit path the benchmarks
exercise:

* **failover-storm** — a heavy announcer's BGP session dies: every
  prefix it announces is withdrawn in rapid bursts, background churn
  keeps arriving from other members, and the session comes back with a
  full re-announcement wave.  Repeatable for multiple waves (flapping
  sessions).
* **stuck-routes** — a transit member leaks announcements for prefixes
  other members own (a ghost/hijack episode), the exchange carries the
  extra routes for a while, and the cleanup withdrawals arrive *late*,
  after the victims have already re-announced — the ordering that left
  stuck routes in early route-server deployments.
* **correlated-withdrawal** — members sharing an upstream lose it at
  once: correlated withdrawal waves land in the same burst across many
  sessions, then the re-announcements come back staggered, one member
  per burst.

Every generated trace satisfies the :func:`~repro.workloads.update_gen.validate_trace`
contract (no ghost withdrawals, no self-superseding same-burst
updates, monotone timestamps) — the scenarios compose withdrawals and
re-announcements against the exchange's *actual* table, which is
exactly what the generator bugfix this suite rides with makes
possible.

:func:`replay` drives a trace burst-by-burst into a controller (either
runtime), sampling the PR-5 verification oracle every few bursts so a
run asserts end-to-end dataplane correctness, not just liveness::

    ixp = load_fixture("ixp_small").build()
    controller = ...  # SDXController over ixp.config, routes loaded
    trace = build_scenario_trace(ixp, ScenarioSpec("smoke", "failover-storm", seed=3))
    report = replay(controller, trace.updates, verify_every=4)
    assert report.ok

``python -m repro.workloads.scenarios`` wraps that loop for the
``make churn-replay`` smoke gate.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.bgp.attributes import RouteAttributes
from repro.bgp.messages import Announcement, BGPUpdate, Withdrawal
from repro.netutils.ip import IPv4Prefix
from repro.workloads.topology_gen import SyntheticIXP
from repro.workloads.update_gen import UpdateTrace, validate_trace

__all__ = [
    "SCENARIO_KINDS",
    "ReplayReport",
    "ScenarioSpec",
    "build_scenario_trace",
    "correlated_withdrawal",
    "failover_storm",
    "replay",
    "segment_bursts",
    "stuck_routes",
]

#: a gap above this starts a new arrival burst (generated inter-burst
#: gaps are >= 2 s; intra-burst spacing stays well under 1 s)
BURST_GAP_SECONDS = 1.0

SCENARIO_KINDS = ("failover-storm", "stuck-routes", "correlated-withdrawal")


class ScenarioSpec(NamedTuple):
    """A named, seeded, JSON-able description of one churn scenario.

    ``params`` tunes the builder (wave counts, burst sizes, victim
    selection); everything is plain data so specs serialize with
    :func:`repro.workloads.serialization.dumps_scenario` and replay
    identically elsewhere.
    """

    name: str
    kind: str
    seed: int = 0
    params: Dict[str, object] = {}

    def param(self, key: str, default):
        return self.params.get(key, default)


class ReplayReport(NamedTuple):
    """What happened when a scenario trace ran through a controller."""

    scenario: str
    events: int
    bursts: int
    commits: int
    verify_passes: int
    probes_checked: int
    mismatches: int
    violations: int
    seconds: float

    @property
    def ok(self) -> bool:
        """True when the oracle found no divergence and no violation."""
        return self.mismatches == 0 and self.violations == 0

    def summary(self) -> str:
        verdict = "ok" if self.ok else "FAIL"
        return (
            f"[{verdict}] {self.scenario}: {self.events} updates in "
            f"{self.bursts} bursts -> {self.commits} commits; "
            f"{self.verify_passes} verify passes "
            f"({self.probes_checked} probes, {self.mismatches} mismatches, "
            f"{self.violations} violations) in {self.seconds:.2f}s"
        )


# -- trace-building machinery -------------------------------------------------


class _Table:
    """The per-(peer, prefix) announcement state the builders mutate.

    Seeded from ``ixp.updates`` so every withdrawal a scenario emits
    targets a route that really is on the table at that instant —
    the invariant :func:`validate_trace` enforces.
    """

    def __init__(self, ixp: SyntheticIXP) -> None:
        self.attrs: Dict[Tuple[str, IPv4Prefix], RouteAttributes] = {}
        self.live: Set[Tuple[str, IPv4Prefix]] = set()
        for update in ixp.updates:
            for announcement in update.announced:
                key = (update.peer, announcement.prefix)
                self.attrs[key] = announcement.attributes
                self.live.add(key)
            for withdrawal in update.withdrawn:
                self.live.discard((update.peer, withdrawal.prefix))

    def live_prefixes(self, peer: str) -> List[IPv4Prefix]:
        """This peer's currently-announced prefixes, deterministic order."""
        return sorted(
            (prefix for owner, prefix in self.live if owner == peer), key=str
        )

    def withdraw(self, peer: str, prefix: IPv4Prefix, time: float) -> BGPUpdate:
        key = (peer, prefix)
        if key not in self.live:
            raise ValueError(f"{peer} does not announce {prefix}: ghost withdrawal")
        self.live.discard(key)
        return BGPUpdate(peer, withdrawn=[Withdrawal(prefix)], time=time)

    def announce(
        self,
        peer: str,
        prefix: IPv4Prefix,
        time: float,
        attributes: Optional[RouteAttributes] = None,
    ) -> BGPUpdate:
        key = (peer, prefix)
        if attributes is None:
            attributes = self.attrs[key]
        self.attrs[key] = attributes
        self.live.add(key)
        return BGPUpdate(
            peer, announced=[Announcement(prefix, attributes)], time=time
        )


class _Clock:
    """Monotone scenario time: small intra-burst steps, >1 s burst gaps."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self.now = 0.0

    def step(self) -> float:
        """Advance within the current burst."""
        self.now += self._rng.uniform(0.005, 0.15)
        return self.now

    def next_burst(self) -> float:
        """Open a new burst (gap always exceeds BURST_GAP_SECONDS)."""
        self.now += self._rng.uniform(2.0, 8.0)
        return self.now


def _perturbed(rng: random.Random, attributes: RouteAttributes) -> RouteAttributes:
    """A best-path change: same origin/next-hop, jittered middle of the path."""
    path = list(attributes.as_path.asns)
    if len(path) >= 2:
        path = [path[0], 63500 + rng.randrange(400)] + path[-1:]
    return RouteAttributes(as_path=path, next_hop=attributes.next_hop)


def _background_churn(
    table: _Table,
    clock: _Clock,
    rng: random.Random,
    exclude: Set[str],
    count: int,
    out: List[BGPUpdate],
    touched: Set[Tuple[str, IPv4Prefix]],
) -> None:
    """Sprinkle ``count`` unrelated best-path changes into the open burst.

    ``touched`` is the burst's already-emitted (peer, prefix) set; the
    churn skips those so the burst stays free of self-superseding
    updates.
    """
    candidates = sorted(
        (key for key in table.live if key[0] not in exclude and key not in touched),
        key=lambda key: (key[0], str(key[1])),
    )
    if not candidates:
        return
    for key in rng.sample(candidates, min(count, len(candidates))):
        peer, prefix = key
        attributes = _perturbed(rng, table.attrs[key])
        out.append(table.announce(peer, prefix, clock.step(), attributes))
        touched.add(key)


def _heaviest_announcers(ixp: SyntheticIXP, count: int) -> List[str]:
    names = sorted(
        ixp.announced, key=lambda name: (-len(ixp.announced[name]), name)
    )
    return names[:count]


# -- the three scenario builders ----------------------------------------------


def failover_storm(ixp: SyntheticIXP, spec: ScenarioSpec) -> UpdateTrace:
    """A heavy announcer's session flaps: full withdraw, churn, full restore.

    Params: ``victim`` (participant name; default the heaviest
    announcer), ``waves`` (session flaps, default 2), ``burst_size``
    (withdrawals per burst, default 50), ``churn_per_burst``
    (background best-path changes mixed into each burst, default 3).
    """
    rng = random.Random(spec.seed)
    table = _Table(ixp)
    clock = _Clock(rng)
    victim = str(spec.param("victim", _heaviest_announcers(ixp, 1)[0]))
    waves = int(spec.param("waves", 2))
    burst_size = int(spec.param("burst_size", 50))
    churn = int(spec.param("churn_per_burst", 3))

    updates: List[BGPUpdate] = []
    bursts = 0
    for _ in range(waves):
        victim_prefixes = table.live_prefixes(victim)
        # Session down: withdraw everything, burst_size at a time.
        for start in range(0, len(victim_prefixes), burst_size):
            clock.next_burst()
            bursts += 1
            touched: Set[Tuple[str, IPv4Prefix]] = set()
            for prefix in victim_prefixes[start : start + burst_size]:
                updates.append(table.withdraw(victim, prefix, clock.step()))
                touched.add((victim, prefix))
            _background_churn(table, clock, rng, {victim}, churn, updates, touched)
        # Session back up: re-announce everything (perturbed paths —
        # the restarted router re-learns routes, it does not replay them).
        for start in range(0, len(victim_prefixes), burst_size):
            clock.next_burst()
            bursts += 1
            touched = set()
            for prefix in victim_prefixes[start : start + burst_size]:
                attributes = _perturbed(rng, table.attrs[(victim, prefix)])
                updates.append(
                    table.announce(victim, prefix, clock.step(), attributes)
                )
                touched.add((victim, prefix))
            _background_churn(table, clock, rng, {victim}, churn, updates, touched)
    return UpdateTrace(
        updates=updates,
        active_prefixes=tuple(sorted({p for u in updates for p in u.prefixes}, key=str)),
        burst_count=bursts,
        duration=clock.now,
    )


def stuck_routes(ixp: SyntheticIXP, spec: ScenarioSpec) -> UpdateTrace:
    """A transit leaks other members' prefixes; cleanup withdrawals lag.

    The *hijacker* announces ``leak_count`` prefixes that other members
    own (longer AS path — a classic route leak).  The victims withdraw
    and re-announce their own routes while the leak is live; only
    afterwards do the hijacker's withdrawals trickle in, late, the way
    stuck routes drain in practice.

    Params: ``hijacker`` (default: second-heaviest announcer),
    ``leak_count`` (default 40), ``burst_size`` (default 20),
    ``victim_flaps`` (victims that flap mid-episode, default 10).
    """
    rng = random.Random(spec.seed)
    table = _Table(ixp)
    clock = _Clock(rng)
    heavies = _heaviest_announcers(ixp, 2)
    hijacker = str(spec.param("hijacker", heavies[-1]))
    leak_count = int(spec.param("leak_count", 40))
    burst_size = int(spec.param("burst_size", 20))
    victim_flaps = int(spec.param("victim_flaps", 10))

    spec_ports = ixp.config.participant(hijacker).ports
    if not spec_ports:
        raise ValueError(f"hijacker {hijacker!r} has no physical port")
    # Multihomed prefixes are live under several owners; leak each
    # prefix once, attributed to its lexically-first announcer.
    owner_of: Dict[IPv4Prefix, str] = {}
    for owner, prefix in sorted(table.live, key=lambda key: (str(key[1]), key[0])):
        if owner != hijacker and (hijacker, prefix) not in table.live:
            owner_of.setdefault(prefix, owner)
    foreign = sorted(owner_of.items(), key=lambda item: str(item[0]))
    leaked = [
        (owner, prefix)
        for prefix, owner in rng.sample(foreign, min(leak_count, len(foreign)))
    ]
    hijacker_asn = ixp.config.participant(hijacker).asn

    updates: List[BGPUpdate] = []
    bursts = 0
    # Phase 1 — the leak: hijacker announces foreign prefixes.
    for start in range(0, len(leaked), burst_size):
        clock.next_burst()
        bursts += 1
        for owner, prefix in leaked[start : start + burst_size]:
            origin = table.attrs[(owner, prefix)].as_path.origin_as
            port = spec_ports[rng.randrange(len(spec_ports))]
            attributes = RouteAttributes(
                as_path=[hijacker_asn, 63900 + rng.randrange(90), origin],
                next_hop=port.address,
            )
            updates.append(table.announce(hijacker, prefix, clock.step(), attributes))
    # Phase 2 — victims flap their own routes while the leak is live.
    victims = sorted({owner for owner, _ in leaked})[:victim_flaps]
    for victim in victims:
        clock.next_burst()
        bursts += 1
        mine = [prefix for owner, prefix in leaked if owner == victim]
        for prefix in mine:
            updates.append(table.withdraw(victim, prefix, clock.step()))
        clock.next_burst()
        bursts += 1
        for prefix in mine:
            attributes = _perturbed(rng, table.attrs[(victim, prefix)])
            updates.append(table.announce(victim, prefix, clock.step(), attributes))
    # Phase 3 — the late cleanup: hijacker finally withdraws the leak.
    for start in range(0, len(leaked), burst_size):
        clock.next_burst()
        bursts += 1
        for _, prefix in leaked[start : start + burst_size]:
            updates.append(table.withdraw(hijacker, prefix, clock.step()))
    return UpdateTrace(
        updates=updates,
        active_prefixes=tuple(sorted({p for u in updates for p in u.prefixes}, key=str)),
        burst_count=bursts,
        duration=clock.now,
    )


def correlated_withdrawal(ixp: SyntheticIXP, spec: ScenarioSpec) -> UpdateTrace:
    """Members sharing an upstream lose it together; recovery staggers.

    Each wave withdraws a correlated slice of several members' prefixes
    *in the same burst* (the upstream failed for all of them at once),
    then the re-announcements come back one member per burst.

    Params: ``members`` (count of affected sessions, default 6),
    ``waves`` (default 2), ``slice_size`` (prefixes withdrawn per
    member per wave, default 15).
    """
    rng = random.Random(spec.seed)
    table = _Table(ixp)
    clock = _Clock(rng)
    member_count = int(spec.param("members", 6))
    waves = int(spec.param("waves", 2))
    slice_size = int(spec.param("slice_size", 15))
    members = _heaviest_announcers(ixp, member_count)

    updates: List[BGPUpdate] = []
    bursts = 0
    for _ in range(waves):
        # The shared upstream dies: one burst, every member withdraws.
        clock.next_burst()
        bursts += 1
        lost: Dict[str, List[IPv4Prefix]] = {}
        for member in members:
            mine = table.live_prefixes(member)
            if not mine:
                continue
            lost[member] = rng.sample(mine, min(slice_size, len(mine)))
            for prefix in lost[member]:
                updates.append(table.withdraw(member, prefix, clock.step()))
        # Staggered recovery: each member re-announces in its own burst.
        for member in sorted(lost):
            clock.next_burst()
            bursts += 1
            for prefix in lost[member]:
                attributes = _perturbed(rng, table.attrs[(member, prefix)])
                updates.append(table.announce(member, prefix, clock.step(), attributes))
    return UpdateTrace(
        updates=updates,
        active_prefixes=tuple(sorted({p for u in updates for p in u.prefixes}, key=str)),
        burst_count=bursts,
        duration=clock.now,
    )


_BUILDERS = {
    "failover-storm": failover_storm,
    "stuck-routes": stuck_routes,
    "correlated-withdrawal": correlated_withdrawal,
}


def build_scenario_trace(ixp: SyntheticIXP, spec: ScenarioSpec) -> UpdateTrace:
    """Build (and validate) the trace for one scenario spec."""
    try:
        builder = _BUILDERS[spec.kind]
    except KeyError:
        raise ValueError(
            f"unknown scenario kind {spec.kind!r}; choose from {SCENARIO_KINDS}"
        ) from None
    trace = builder(ixp, spec)
    validate_trace(ixp, trace.updates)
    return trace


# -- the replay driver --------------------------------------------------------


def segment_bursts(
    updates: Sequence[BGPUpdate], gap: float = BURST_GAP_SECONDS
) -> List[List[BGPUpdate]]:
    """Re-segment a timestamped trace into its arrival bursts."""
    bursts: List[List[BGPUpdate]] = []
    current: List[BGPUpdate] = []
    last: Optional[float] = None
    for update in updates:
        if current and last is not None and update.time - last > gap:
            bursts.append(current)
            current = []
        current.append(update)
        last = update.time
    if current:
        bursts.append(current)
    return bursts


def replay(
    controller,
    updates: Sequence[BGPUpdate],
    scenario: str = "trace",
    verify_every: int = 4,
    probes: int = 32,
    seed: int = 0,
    burst_gap: float = BURST_GAP_SECONDS,
    recompile_every: int = 0,
) -> ReplayReport:
    """Drive a trace through a controller, sampling the verify oracle.

    Each burst feeds the controller's runtime through one
    ``pipelined()`` block; per-event handles re-raise any runtime error.

    Every ``verify_every`` bursts — and once more at the end — the
    PR-5 differential checker runs ``probes`` router-faithful packets
    plus the structural invariant sweep against the *quiesced* fabric
    (the oracle call drains the runtime first by going through the
    facet).  The report accumulates its mismatch/violation counts;
    ``report.ok`` is the scenario's pass/fail verdict.

    Steady churn rides the fast path and never reconciles the full
    table; ``recompile_every`` > 0 forces a full (guarded, delta-
    reconciled) compilation every that many bursts — the §4.3.2
    background re-optimization — so a replay also exercises the
    commit/rollback machinery mid-storm.
    """
    import time as _time

    runtime = controller.runtime
    bursts = segment_bursts(updates, gap=burst_gap)
    commits_before = controller.ops.churn().commits
    events = 0
    verify_passes = 0
    probes_checked = 0
    mismatches = 0
    violations = 0
    started = _time.perf_counter()

    def _verify(pass_index: int) -> None:
        nonlocal verify_passes, probes_checked, mismatches, violations
        report = controller.ops.verify(
            probes=probes, seed=seed + pass_index, invariants=True
        )
        verify_passes += 1
        probes_checked += report.checked
        mismatches += len(report.mismatches)
        violations += len(report.violations)

    for index, burst in enumerate(bursts):
        with runtime.pipelined():
            handles = [controller.routing.process_update(update) for update in burst]
        for handle in handles:
            if handle.error is not None:
                raise handle.error
        events += len(burst)
        if recompile_every and (index + 1) % recompile_every == 0:
            controller.compile()
        if verify_every and (index + 1) % verify_every == 0:
            _verify(index + 1)
    _verify(0)  # final full-trace check, always

    return ReplayReport(
        scenario=scenario,
        events=events,
        bursts=len(bursts),
        commits=controller.ops.churn().commits - commits_before,
        verify_passes=verify_passes,
        probes_checked=probes_checked,
        mismatches=mismatches,
        violations=violations,
        seconds=_time.perf_counter() - started,
    )


# -- CLI (the `make churn-replay` smoke gate) ---------------------------------


def _main(argv=None):
    import argparse

    from repro.core.config import SDXConfig
    from repro.core.controller import SDXController
    from repro.workloads.policy_gen import generate_policies
    from repro.workloads.providers import SyntheticProvider, available_fixtures, load_fixture

    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads.scenarios",
        description="replay a churn scenario through a controller, "
        "sampling the verification oracle",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--fixture",
        default="ixp_small",
        help=f"checked-in topology fixture (one of {available_fixtures()})",
    )
    source.add_argument(
        "--synthetic",
        metavar="PARTICIPANTS,PREFIXES",
        help="use the synthetic generator instead of a fixture",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        choices=SCENARIO_KINDS,
        help="scenario kind (repeatable; default: failover-storm)",
    )
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--verify-every", type=int, default=4)
    parser.add_argument("--probes", type=int, default=32)
    parser.add_argument(
        "--victim",
        metavar="NAME",
        help="failover-storm victim participant (default: the heaviest "
        "announcer — on Internet-scale fixtures pick a mid-tier member, "
        "or the storm replays a transit's entire table)",
    )
    parser.add_argument(
        "--recompile-every",
        type=int,
        default=5,
        help="force a full guarded compile every N bursts (0 disables)",
    )
    options = parser.parse_args(argv)

    if options.synthetic:
        participants, prefixes = (int(x) for x in options.synthetic.split(","))
        provider = SyntheticProvider(participants, prefixes, seed=options.seed)
    else:
        provider = load_fixture(options.fixture)
    ixp = provider.build()
    sdx = SDXConfig.from_env()
    print(
        f"topology {provider.name}: {len(ixp.config)} members, "
        f"{sum(len(v) for v in ixp.announced.values())} prefixes; "
        f"vmac={sdx.vmac_mode} dataplane={sdx.dataplane_mode}"
    )
    failures = 0
    for kind in options.scenario or ["failover-storm"]:
        controller = SDXController(ixp.config, sdx=sdx)
        controller.route_server.load(ixp.updates)
        workload = generate_policies(ixp, seed=options.seed + 1)
        with controller.deferred_recompilation():
            for name, policy_set in workload.policies.items():
                controller.policy.set_policies(name, policy_set)
        params = (
            {"victim": options.victim}
            if options.victim and kind == "failover-storm"
            else {}
        )
        spec = ScenarioSpec(
            name=f"{kind}@{provider.name}", kind=kind, seed=options.seed, params=params
        )
        trace = build_scenario_trace(ixp, spec)
        report = replay(
            controller,
            trace.updates,
            scenario=spec.name,
            verify_every=options.verify_every,
            probes=options.probes,
            seed=options.seed,
            recompile_every=options.recompile_every,
        )
        print(report.summary())
        if not report.ok:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    import sys

    sys.exit(_main())
