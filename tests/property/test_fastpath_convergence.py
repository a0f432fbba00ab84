"""Convergence law: fast-path state forwards exactly as a cold compile.

Section 4.3.2's fast path installs per-prefix override blocks above a
stale base table, and leaves a prefix no policy can reach to the base
table's default forwarding by real MAC.  Whatever it did, the fabric it
leaves behind must forward every packet exactly as the table that
``flush()`` + ``compile()`` builds from the same routes and policies.

Each case drives seeded random announce/withdraw bursts, mixing
prefixes outbound policy reaches with prefixes it cannot, then probes
every sender port toward every touched prefix and compares, probe by
probe, the fast-path fabric, the recompiled fabric, and the reference
interpreter (``repro.verify.interpreter``), which reads only policy
ASTs and RIB state.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import pytest

from repro import RouteAttributes, SDXController
from repro.core.chaining import ServiceChain
from repro.netutils.ip import IPv4Prefix
from repro.policy import fwd, match
from repro.policy.packet import Packet
from repro.verify.checker import DifferentialChecker, Probe
from repro.verify.interpreter import ReferenceInterpreter
from repro.workloads.policy_gen import generate_policies
from repro.workloads.providers import load_fixture

from tests.conftest import (
    install_figure1_policies,
    load_figure1_routes,
    make_figure1_config,
)

MODES = [
    ("fec", "single"),
    ("fec", "multitable"),
    ("superset", "single"),
    ("superset", "multitable"),
]
_DSTPORTS = (80, 443, 8080, 22)
_SRCIPS = ("50.0.0.1", "200.9.9.9")


def _figure1(vmac_mode: str, dataplane_mode: str) -> Tuple[SDXController, List[IPv4Prefix]]:
    controller = SDXController(
        make_figure1_config(), vmac_mode=vmac_mode, dataplane_mode=dataplane_mode
    )
    load_figure1_routes(controller)
    install_figure1_policies(controller)
    # p5 and the two fresh /16s start out announced by A alone, which
    # A's policy cannot steer: unreached until B or C announces them.
    universe = sorted(controller.route_server.sorted_prefixes()) + [
        IPv4Prefix("10.6.0.0/16"),
        IPv4Prefix("10.7.0.0/16"),
    ]
    return controller, universe


def _figure1_chain(
    vmac_mode: str, dataplane_mode: str
) -> Tuple[SDXController, List[IPv4Prefix]]:
    """Figure 1 plus a middlebox member; A steers SSH through its chain."""
    config = make_figure1_config()
    config.add_participant(
        "MB",
        65005,
        [
            ("FW1", "172.0.0.51", "08:00:27:00:00:51"),
            ("DPI1", "172.0.0.52", "08:00:27:00:00:52"),
        ],
    )
    controller = SDXController(config, vmac_mode=vmac_mode, dataplane_mode=dataplane_mode)
    load_figure1_routes(controller)
    chain = ServiceChain("scrub", hops=["FW1", "DPI1"])
    controller.policy.define_chain(chain)
    install_figure1_policies(controller, recompile=False)
    controller.register_participant("A").set_policies(
        outbound=(match(dstport=80) >> fwd("B"))
        + (match(dstport=443) >> fwd("C"))
        + (match(dstport=22, dstip="10.0.0.0/14") >> fwd(chain)),
    )
    universe = sorted(controller.route_server.sorted_prefixes()) + [
        IPv4Prefix("10.6.0.0/16")
    ]
    return controller, universe


@pytest.fixture(scope="module")
def ixp_small():
    return load_fixture("ixp_small").build()


def _ixp_small(ixp, vmac_mode: str, dataplane_mode: str, rng: random.Random):
    controller = SDXController(
        ixp.config, vmac_mode=vmac_mode, dataplane_mode=dataplane_mode
    )
    controller.route_server.load(ixp.updates)
    with controller.deferred_recompilation():
        for name, policy_set in generate_policies(ixp, seed=21).policies.items():
            controller.policy.set_policies(name, policy_set)
    universe = rng.sample(list(controller.route_server.sorted_prefixes()), 24)
    return controller, sorted(universe) + [IPv4Prefix("198.18.0.0/24")]


def _random_bursts(
    controller: SDXController, universe, rng: random.Random, exclude=()
) -> None:
    """Seeded announce/withdraw bursts, each pipelined or one call at a time."""
    config = controller.config
    members = [
        spec for spec in config.participants() if spec.ports and spec.name not in exclude
    ]
    server = controller.route_server
    for _burst in range(8):
        calls = []
        for _ in range(rng.randint(1, 5)):
            prefix = rng.choice(universe)
            holders = [spec for spec in members if server.route_from(spec.name, prefix)]
            if holders and rng.random() < 0.4:
                spec = rng.choice(holders)
                calls.append((controller.routing.withdraw, (spec.name, prefix)))
                continue
            spec = rng.choice(members)
            attributes = RouteAttributes(
                as_path=[spec.asn] + [65100 + rng.randrange(4)] * rng.randint(0, 2),
                next_hop=rng.choice(spec.ports).address,
            )
            calls.append((controller.routing.announce, (spec.name, prefix, attributes)))
        if rng.random() < 0.5:
            with controller.runtime.pipelined():
                for call, args in calls:
                    call(*args)
        else:
            for call, args in calls:
                call(*args)


def _forwarding(controller: SDXController, universe) -> Dict[Tuple, Tuple]:
    """(compiled, expected) deliveries for every admissible probe."""
    interpreter = ReferenceInterpreter(controller)
    checker = DifferentialChecker(controller)
    observed = {}
    for port in controller.config.physical_ports():
        sender = controller.config.owner_of_port(port.port_id).name
        for prefix in universe:
            if not interpreter.can_probe(sender, prefix):
                continue
            tag = interpreter.tag(sender, prefix)
            for dstport in _DSTPORTS:
                for srcip in _SRCIPS:
                    packet = Packet(
                        dstip=prefix.host(7),
                        dstmac=tag,
                        dstport=dstport,
                        srcport=30000,
                        srcip=srcip,
                    )
                    probe = Probe(sender, port.port_id, prefix, packet)
                    observed[(port.port_id, prefix, dstport, srcip)] = (
                        checker.compiled_deliveries(probe),
                        interpreter.expected_deliveries(sender, prefix, packet),
                    )
    return observed


def _assert_converges(
    controller: SDXController, universe, mixed: bool = True, unmodelled=()
) -> None:
    """Fast path == recompile == interpreter, probe by probe.

    ``mixed`` requires both outcomes among the updates; probes entering
    at an ``unmodelled`` port skip the interpreter comparison.
    """
    outcomes = controller.telemetry.get("sdx_fastpath_updates_total")
    assert outcomes.value(outcome="installed") > 0, "no reached prefix was updated"
    if mixed:
        assert outcomes.value(outcome="unaffected") > 0, "no unreached prefix was updated"

    fast = _forwarding(controller, universe)
    controller.fast_path.flush()
    controller.compile()
    cold = _forwarding(controller, universe)

    assert fast.keys() == cold.keys()
    assert fast
    for key, (fast_out, expected) in fast.items():
        cold_out, cold_expected = cold[key]
        assert cold_out == fast_out, (key, cold_out, fast_out)
        if key[0] in unmodelled:
            continue
        assert cold_expected == expected, key
        assert fast_out == expected, (key, fast_out, expected)


@pytest.mark.parametrize("vmac_mode,dataplane_mode", MODES)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_figure1_bursts_converge(vmac_mode, dataplane_mode, seed):
    rng = random.Random(seed)
    controller, universe = _figure1(vmac_mode, dataplane_mode)
    _random_bursts(controller, universe, rng)
    _assert_converges(controller, universe)


@pytest.mark.parametrize("vmac_mode,dataplane_mode", MODES)
@pytest.mark.parametrize("seed", [5, 6])
def test_ixp_small_bursts_converge(ixp_small, vmac_mode, dataplane_mode, seed):
    rng = random.Random(seed)
    controller, universe = _ixp_small(ixp_small, vmac_mode, dataplane_mode, rng)
    _random_bursts(controller, universe, rng)
    _assert_converges(controller, universe)


@pytest.mark.parametrize("vmac_mode,dataplane_mode", MODES)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_figure1_chain_bursts_converge(vmac_mode, dataplane_mode, seed):
    rng = random.Random(seed)
    controller, universe = _figure1_chain(vmac_mode, dataplane_mode)
    _random_bursts(controller, universe, rng, exclude=("MB",))
    # a registered chain keeps every update on a per-prefix block
    _assert_converges(controller, universe, mixed=False, unmodelled=("FW1", "DPI1"))
