"""Shared scaffolding for the evaluation experiments (Section 6).

Every figure/table module builds on :func:`build_scenario` (a loaded
synthetic exchange) and the small report helpers here, so that the
benchmark harness, the CLI (``python -m repro.experiments``), and the
integration tests all exercise identical code paths.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Sequence, Tuple

from repro.bgp.route_server import RouteServer
from repro.core.compiler import CompilationOptions, SDXCompiler
from repro.core.controller import SDXController
from repro.core.participant import SDXPolicySet
from repro.netutils.ip import IPv4Prefix
from repro.policy.language import fwd, match, parallel
from repro.workloads.policy_gen import PolicyWorkload, generate_policies
from repro.workloads.topology_gen import SyntheticIXP, generate_ixp

__all__ = [
    "Scenario",
    "build_scenario",
    "format_table",
    "print_table",
    "scaling_policies",
]

_APP_PORTS = (80, 443, 8080, 1935)


class Scenario(NamedTuple):
    """A loaded exchange ready for compilation experiments."""

    ixp: SyntheticIXP
    route_server: RouteServer
    workload: PolicyWorkload

    def compiler(
        self,
        options: CompilationOptions = CompilationOptions(),
        telemetry=None,
    ) -> SDXCompiler:
        """A compiler over this scenario.

        Pass a :class:`~repro.telemetry.MetricsRegistry` to time the
        compile through the telemetry layer (what the Figure 8 driver
        does) instead of leaving it uninstrumented.
        """
        return SDXCompiler(
            self.ixp.config, self.route_server, options, telemetry=telemetry
        )

    def controller(self, **kwargs) -> SDXController:
        """A full controller with this scenario's routes already loaded.

        The workload's policies are installed inside one
        :meth:`~repro.core.controller.SDXController.deferred_recompilation`
        batch, so construction costs exactly one compilation no matter
        how many participants carry policies.
        """
        controller = SDXController(self.ixp.config, **kwargs)
        controller.route_server.load(self.ixp.updates)
        with controller.deferred_recompilation():
            for name, policy_set in self.workload.policies.items():
                controller.policy.set_policies(name, policy_set)
        return controller


def build_scenario(
    participants: int,
    prefixes: int,
    seed: int = 0,
    policy_seed: int = 1,
    with_policies: bool = True,
) -> Scenario:
    """Generate and load a synthetic exchange with the §6.1 policy mix."""
    ixp = generate_ixp(participants=participants, total_prefixes=prefixes, seed=seed)
    route_server = RouteServer()
    for name in ixp.participant_names:
        route_server.add_peer(name)
    route_server.load(ixp.updates)
    workload = (
        generate_policies(ixp, seed=policy_seed)
        if with_policies
        else PolicyWorkload({}, {"eyeball": [], "transit": [], "content": []}, 0)
    )
    return Scenario(ixp, route_server, workload)


def scaling_policies(
    ixp: SyntheticIXP,
    policy_prefixes: int,
    seed: int = 11,
    chunk_size: int = 5,
    senders: int = 10,
) -> Dict[str, SDXPolicySet]:
    """Policies sized to hit a target number of prefix groups.

    The Figure 7/8 experiments are parameterized by *prefix groups*, not
    raw prefixes; this helper applies destination-specific policies to
    ``policy_prefixes`` prefixes in disjoint chunks of ``chunk_size``,
    which the FEC computation then turns into roughly
    ``policy_prefixes / chunk_size`` groups.  Each chunk belongs to one
    announcing target and is claimed by a round-robin sender.
    """
    rng = random.Random(seed)
    names = list(ixp.participant_names)
    # Targets: the heaviest announcers (their prefixes form the pool).
    targets = sorted(names, key=lambda name: -len(ixp.announced.get(name, ())))
    pool: List[Tuple[str, IPv4Prefix]] = []
    for target in targets:
        for prefix in ixp.announced.get(target, ()):
            pool.append((target, prefix))
            if len(pool) >= policy_prefixes:
                break
        if len(pool) >= policy_prefixes:
            break

    sender_pool = [name for name in names if name not in set(targets[:3])][:senders]
    if not sender_pool:
        sender_pool = names[:senders]
    clauses: Dict[str, List] = {name: [] for name in sender_pool}
    index = 0
    while index < len(pool):
        target = pool[index][0]
        chunk: List[IPv4Prefix] = []
        while index < len(pool) and pool[index][0] == target and len(chunk) < chunk_size:
            chunk.append(pool[index][1])
            index += 1
        sender = rng.choice([s for s in sender_pool if s != target] or sender_pool)
        port = _APP_PORTS[rng.randrange(len(_APP_PORTS))]
        clauses[sender].append(match(dstip=set(chunk), dstport=port) >> fwd(target))

    policies: Dict[str, SDXPolicySet] = {}
    for sender, parts in clauses.items():
        if parts:
            policies[sender] = SDXPolicySet(outbound=parallel(*parts))
    return policies


# -- plain-text reporting -----------------------------------------------------


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned plain-text table (the benches print these)."""
    rendered = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * width for width in widths),
    ]
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    print(f"\n== {title} ==")
    print(format_table(headers, rows))
