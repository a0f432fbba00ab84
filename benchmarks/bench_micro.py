"""Micro-benchmarks for the hot kernels under the macro experiments.

Not a paper artifact — these locate where compile time goes (classifier
composition, MDS, trie lookups, route-server updates) and guard against
performance regressions in the substrate.
"""

import random

import pytest

from repro.bgp.attributes import RouteAttributes
from repro.bgp.messages import Announcement, BGPUpdate
from repro.bgp.route_server import RouteServer
from repro.core.fec import minimum_disjoint_subsets
from repro.netutils.ip import IPv4Address, IPv4Prefix, PrefixTrie
from repro.policy import Packet, fwd, match


def test_policy_compilation_speed(benchmark):
    policy = None
    for port in (80, 443, 8080, 1935, 8443):
        clause = match(dstport=port) >> fwd(f"P{port}")
        policy = clause if policy is None else policy + clause
    result = benchmark(policy.compile)
    assert len(result) == 5


def test_classifier_sequential_composition(benchmark):
    stage1 = None
    for port in range(20):
        clause = match(dstport=port) >> fwd(f"mid{port % 4}")
        stage1 = clause if stage1 is None else stage1 + clause
    stage2 = None
    for index in range(4):
        clause = match(port=f"mid{index}") >> fwd(f"out{index}")
        stage2 = clause if stage2 is None else stage2 + clause
    c1, c2 = stage1.compile(), stage2.compile()
    result = benchmark(lambda: c1 >> c2)
    assert len(result) >= 20


def test_prefix_trie_longest_match(benchmark):
    rng = random.Random(3)
    trie = PrefixTrie()
    for index in range(10_000):
        trie[IPv4Prefix((10 << 24) + index * 256, 24)] = index
    probes = [IPv4Address((10 << 24) + rng.randrange(10_000 * 256)) for _ in range(100)]

    def lookup_all():
        return [trie.longest_match(address) for address in probes]

    results = benchmark(lookup_all)
    assert all(result is not None for result in results)


def test_route_server_update_throughput(benchmark):
    server = RouteServer()
    for index in range(50):
        server.add_peer(f"AS{index}")
    updates = []
    rng = random.Random(5)
    for index in range(500):
        peer = f"AS{rng.randrange(50)}"
        prefix = IPv4Prefix((10 << 24) + index * 256, 24)
        updates.append(
            BGPUpdate(
                peer,
                announced=[
                    Announcement(
                        prefix,
                        RouteAttributes(as_path=[64512 + index % 100], next_hop="172.0.0.1"),
                    )
                ],
            )
        )

    def load():
        fresh = RouteServer()
        for index in range(50):
            fresh.add_peer(f"AS{index}")
        return fresh.load(updates)

    assert benchmark(load) == 500


def test_mds_signature_throughput(benchmark):
    rng = random.Random(7)
    universe = [IPv4Prefix((10 << 24) + i * 256, 24) for i in range(5000)]
    sets = [
        frozenset(rng.sample(universe, rng.randint(100, 1000))) for _ in range(40)
    ]
    groups = benchmark(lambda: minimum_disjoint_subsets(sets))
    assert groups


def test_flow_table_matching(benchmark):
    from repro.dataplane.flowtable import FlowRule, FlowTable
    from repro.policy.classifier import Action, HeaderMatch

    table = FlowTable()
    for index in range(500):
        table.install(
            FlowRule(index, HeaderMatch(dstport=index), (Action(port="out"),))
        )
    packet = Packet(dstport=250)
    rule = benchmark(lambda: table.lookup(packet))
    assert rule is not None


def test_flow_table_lookup_policy_dense_shape(benchmark):
    # Shaped like the policy-dense fabric: ~4k rules over 150 ingress
    # ports x exact VMACs, with and without a transport port, plus
    # source-prefix rules of mixed lengths and per-VMAC delivery rules.
    # A lookup probes about a dozen signatures, not the single one of
    # test_flow_table_matching.
    from repro.dataplane.flowtable import FlowRule, FlowTable
    from repro.netutils.mac import MACAddress
    from repro.policy.classifier import Action, HeaderMatch

    rng = random.Random(7)
    table = FlowTable()
    ports = [f"P{index}" for index in range(150)]
    vmacs = [MACAddress(0x02A5_0000_0000 + index) for index in range(40)]
    out = (Action(port="out"),)
    priority = 100_000
    for port in ports:
        for vmac in rng.sample(vmacs, 8):
            for extra in ({"dstport": rng.choice((22, 80, 443))}, {}):
                table.install(FlowRule(priority, HeaderMatch(port=port, dstmac=vmac, **extra), out))
                priority -= 1
        for _ in range(10):
            source = IPv4Prefix(rng.getrandbits(32), rng.choice((8, 16, 24)))
            table.install(
                FlowRule(priority, HeaderMatch(dstmac=rng.choice(vmacs), srcip=source), out)
            )
            priority -= 1
    for vmac in vmacs:
        table.install(FlowRule(priority, HeaderMatch(dstmac=vmac), out))
    assert 3_900 <= len(table) <= 4_200
    packets = [
        Packet(
            port=rng.choice(ports),
            dstmac=rng.choice(vmacs),
            srcip=IPv4Address(rng.getrandbits(32)),
            dstip="10.0.0.1",
            dstport=rng.choice((22, 80, 443, 8080)),
        )
        for _ in range(64)
    ]
    rules = list(table)

    def first_match(packet):
        return next((rule for rule in rules if rule.match.matches(packet)), None)

    assert [table.lookup(packet) for packet in packets] == [
        first_match(packet) for packet in packets
    ]
    hits = benchmark(lambda: [table.lookup(packet) for packet in packets])
    assert all(hit is not None for hit in hits)


def test_fastpath_additional_rules_cookie_index(benchmark):
    # Regression guard: additional_rules() sums the per-cookie counts of
    # the table's cookie index, so its cost follows the active fast-path
    # cookies and never visits the 2000 base-table rules below.  (Its
    # first form rebuilt set(self._active.values()) for every table
    # entry, turning a whole-table scan quadratic.)
    from types import SimpleNamespace

    from repro.core.incremental import FastPathEngine
    from repro.dataplane.flowtable import FlowRule, FlowTable
    from repro.policy.classifier import Action, HeaderMatch

    table = FlowTable()
    controller = SimpleNamespace(switch=SimpleNamespace(table=table))
    engine = FastPathEngine(controller)
    for index in range(400):
        prefix = IPv4Prefix((10 << 24) + index * 256, 24)
        cookie = ("fastpath", str(prefix), index)
        engine._active[prefix] = cookie
        for _ in range(3):
            table.install(
                FlowRule(index, HeaderMatch(dstport=index % 500), cookie=cookie)
            )
    for index in range(2000):  # base-table rules the scan must skip
        table.install(
            FlowRule(index, HeaderMatch(dstport=index % 500), cookie="base")
        )
    assert benchmark(engine.additional_rules) == 1200


def test_telemetry_overhead_under_five_percent():
    # The acceptance budget for the telemetry layer: instrumenting the
    # route server may not cost more than 5% on the update hot path.
    # Min-of-repeats on both sides squeezes out scheduler noise.
    import time

    from repro.telemetry import MetricsRegistry

    rng = random.Random(11)
    updates = []
    for index in range(600):
        peer = f"AS{rng.randrange(50)}"
        prefix = IPv4Prefix((10 << 24) + index * 256, 24)
        updates.append(
            BGPUpdate(
                peer,
                announced=[
                    Announcement(
                        prefix,
                        RouteAttributes(
                            as_path=[64512 + index % 100], next_hop="172.0.0.1"
                        ),
                    )
                ],
            )
        )

    def run_updates(registry):
        # process_update is the system's per-update hot path (decision
        # process + change notification), which is what the 5% budget
        # is defined against.
        server = RouteServer()
        for index in range(50):
            server.add_peer(f"AS{index}")
        if registry is not None:
            server.attach_telemetry(registry)
        for update in updates:
            server.process_update(update)

    def best_of(make_registry, repeats=7):
        times = []
        for _ in range(repeats):
            registry = make_registry()
            started = time.perf_counter()
            run_updates(registry)
            times.append(time.perf_counter() - started)
        return min(times)

    bare = best_of(lambda: None)
    instrumented = best_of(MetricsRegistry)
    bare = min(bare, best_of(lambda: None))  # interleave to dodge thermal drift
    assert instrumented <= bare * 1.05 + 5e-4, (
        f"telemetry overhead too high: {instrumented:.6f}s vs {bare:.6f}s bare"
    )


# -- compile-shard scaling (staged pipeline) ----------------------------------
#
# How per-participant shard compilation scales with exchange size.
# Shard work is made heavy enough (dense destination-specific policies
# over many prefix groups) that it dominates the recompile.


def _sharded_controller(participants):
    from repro.core.controller import SDXController
    from repro.experiments.common import build_scenario, scaling_policies

    scenario = build_scenario(
        participants=participants,
        prefixes=participants * 25,
        seed=participants,
        with_policies=False,
    )
    controller = SDXController(scenario.ixp.config)
    controller.route_server.load(scenario.ixp.updates)
    policies = scaling_policies(
        scenario.ixp, participants * 12, chunk_size=2, senders=participants
    )
    with controller.deferred_recompilation():
        for name, policy_set in policies.items():
            controller.policy.set_policies(name, policy_set)
    return controller


def _recompile_all_shards(controller):
    controller.pipeline._shard_cache.clear()
    return controller.compile()


@pytest.mark.parametrize("participants", [2, 8, 32])
def test_compile_shard_scaling_serial(benchmark, participants):
    controller = _sharded_controller(participants)
    result = benchmark.pedantic(
        _recompile_all_shards, args=(controller,), rounds=3, warmup_rounds=1
    )
    assert result.segments


# -- fabric reconciliation churn (delta committer) ------------------------------
#
# The payoff of rule-level delta reconciliation: editing one participant
# out of N recompiles in O(changed segment), not O(table).  The churn
# counters (controller.ops.churn()) make the claim measurable — the
# benchmark asserts the edit installed strictly fewer rules than the
# table holds and reports the retained fraction.


def test_fabric_reconciliation_churn(benchmark):
    from _report import report

    from repro.experiments.common import build_scenario
    from repro.workloads.policy_gen import generate_policies

    participants = 16
    scenario = build_scenario(
        participants=participants, prefixes=participants * 25, seed=3
    )
    controller = scenario.controller()
    table_total = len(controller.switch.table)
    alternate = generate_policies(scenario.ixp, seed=555)
    edited = next(
        name for name in alternate.policies if name in scenario.workload.policies
    )
    toggle = {"flip": False}

    def edit_one_participant():
        # Alternate between two policy sets so every round is a real edit.
        toggle["flip"] = not toggle["flip"]
        policy_set = (
            alternate.policies[edited]
            if toggle["flip"]
            else scenario.workload.policies[edited]
        )
        controller.policy.set_policies(edited, policy_set)
        return controller.ops.last_commit()

    last = benchmark.pedantic(edit_one_participant, rounds=5, warmup_rounds=1)
    stats = controller.ops.churn()
    per_commit_added = stats.added / max(1, stats.commits - 1)  # first build excluded
    report(
        f"reconciliation churn: edit 1/{participants} participants  "
        f"table {table_total} rules  "
        f"last commit added {last.added} removed {last.removed} "
        f"retained {last.retained} moved {last.reprioritized}  "
        f"commit {last.seconds * 1000:.1f} ms"
    )
    assert last.added < table_total, "single-participant edit rewrote the table"
    assert last.retained + last.reprioritized > 0
    assert per_commit_added < table_total
