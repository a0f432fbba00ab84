"""Compilation benchmark: superset-VMAC compression at AMS-IX scale.

Section 5.3's case for the superset encoding is a state argument: with
attribute-carrying VMACs, one masked match covers every forwarding
class that shares an announcer roster, so fabric rule count tracks the
number of *rosters* instead of the number of *FEC groups*.  This
benchmark measures that claim directly at the paper's headline scale —
300 participants and 100,000 prefixes — by compiling one synthetic
exchange twice, once per VMAC encoding, and comparing fabric size and
compile latency.

The route table is constructed (not sampled) so the group/roster split
is controlled: ``ROSTERS`` distinct announcer pairs, each appearing in
``VARIANTS`` BGP-attribute variants with disjoint export scopes.  Every
variant is a separate forwarding-equivalence class — the per-FEC
encoder must spend exact-match rules on each — while all variants of a
roster share superset positions, so the superset encoder covers them
with the same masked rules and a serial byte.  Outbound policies are
the §6.1 port-based mix aimed at the popular announcers, which is
where per-FEC rule expansion actually hurts.

Run standalone to (re)generate the checked-in baseline::

    PYTHONPATH=src python benchmarks/bench_compile.py --emit benchmarks/BENCH_compile.json

or as the CI regression gate, which fails when the compression ratio
falls below the 5x floor or the (deterministic) fabric sizes drift
from the baseline::

    PYTHONPATH=src python benchmarks/bench_compile.py --check benchmarks/BENCH_compile.json
"""

import argparse
import json
import sys
import time

from _report import emit

from repro.bgp.attributes import RouteAttributes
from repro.bgp.messages import Announcement, BGPUpdate
from repro.bgp.route_server import RouteServer
from repro.core.compiler import SDXCompiler
from repro.core.participant import SDXPolicySet
from repro.ixp.topology import IXPConfig
from repro.netutils.ip import IPv4Prefix
from repro.policy.language import fwd, match, parallel
from repro.workloads.prefixes import allocate_prefix_pool

PARTICIPANTS = 300
PREFIXES = 100_000
#: /24 pool wide enough for the 100k-prefix census (10.0.0.0/8 caps at 65,536).
PREFIX_POOL_ROOT = IPv4Prefix("10.0.0.0/7")

#: Heavily-announced targets the §6.1 policies aim at; every roster
#: pairs one of these with a unique filler participant.
POPULAR = 16
ROSTERS = 160
#: BGP-attribute variants per roster: each gets its own export scope,
#: hence its own fingerprint, hence its own FEC group.
VARIANTS = 12
SENDERS = 40
CLAUSES_PER_SENDER = 2
APP_PORTS = (80, 443)

#: Measured compile rounds per encoding (p50/p99 come from these).
MEASURE_ROUNDS = 3

#: The acceptance floor: superset must install at least 5x fewer
#: fabric rules than per-FEC at this scale.
COMPRESSION_FLOOR = 5.0


def _participant_name(index):
    return f"AS{index + 1:03d}"


def build_exchange():
    """The controlled-roster exchange: config, loaded RIB, policies."""
    config = IXPConfig(vnh_pool="172.16.0.0/12")
    for index in range(PARTICIPANTS):
        name = _participant_name(index)
        host = index * 4 + 1
        address = f"172.{(host >> 16) & 0x0F}.{(host >> 8) & 0xFF}.{host & 0xFF}"
        hardware = f"08:00:27:{(index >> 8) & 0xFF:02x}:{index & 0xFF:02x}:01"
        config.add_participant(
            name, asn=65001 + index, ports=[(f"{name}-p1", address, hardware)]
        )

    names = [_participant_name(index) for index in range(PARTICIPANTS)]
    populars = names[:POPULAR]
    fillers = names[POPULAR:]
    everyone = frozenset(names)

    # Announcements: class c = (roster r, variant v).  Roster r pairs
    # popular[r % POPULAR] (primary, shorter AS path) with filler[r]
    # (backup).  Variant v shrinks the export scope by one bystander
    # filler — enough to split the BGP fingerprint without changing
    # what any policy participant can reach.
    pool = allocate_prefix_pool(PREFIXES, root=PREFIX_POOL_ROOT)
    classes = ROSTERS * VARIANTS
    announcements = {name: [] for name in names}
    for index, prefix in enumerate(pool):
        roster, variant = divmod(index % classes, VARIANTS)
        primary = config.participant(populars[roster % POPULAR])
        backup = config.participant(fillers[roster])
        scope = everyone - {fillers[ROSTERS + variant]}
        origin_as = 64512 + roster
        announcements[primary.name].append(
            Announcement(
                prefix,
                RouteAttributes(
                    as_path=[primary.asn, origin_as],
                    next_hop=primary.ports[0].address,
                ),
                export_to=scope,
            )
        )
        announcements[backup.name].append(
            Announcement(
                prefix,
                RouteAttributes(
                    as_path=[backup.asn, 64700, origin_as],
                    next_hop=backup.ports[0].address,
                ),
                export_to=scope,
            )
        )

    route_server = RouteServer()
    for name in names:
        route_server.add_peer(name, asn=config.participant(name).asn)
    loaded = time.perf_counter()
    route_server.load(
        BGPUpdate(name, announced=batch)
        for name, batch in announcements.items()
        if batch
    )
    load_seconds = time.perf_counter() - loaded

    # §6.1 port-based outbound mix: senders deflect application ports
    # toward the popular announcers, round-robin.
    policies = {}
    senders = fillers[ROSTERS + VARIANTS : ROSTERS + VARIANTS + SENDERS]
    for rank, sender in enumerate(senders):
        clauses = [
            match(dstport=APP_PORTS[clause]) >> fwd(
                populars[(rank * CLAUSES_PER_SENDER + clause) % POPULAR]
            )
            for clause in range(CLAUSES_PER_SENDER)
        ]
        policies[sender] = SDXPolicySet(outbound=parallel(*clauses))
    return config, route_server, policies, load_seconds


def _percentile(samples, fraction):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


def measure_mode(vmac_mode, config, route_server, policies):
    """Compile ``MEASURE_ROUNDS`` times under one encoding; summarize."""
    latencies = []
    result = None
    for _ in range(MEASURE_ROUNDS):
        compiler = SDXCompiler(config, route_server, vmac_mode=vmac_mode)
        started = time.perf_counter()
        result = compiler.compile(policies)
        latencies.append(time.perf_counter() - started)
    p50 = _percentile(latencies, 0.50)
    return {
        "rules": len(result.classifier),
        "fec_groups": len(result.fec_table.affected_groups),
        "compile_p50_ms": p50 * 1e3,
        "compile_p99_ms": _percentile(latencies, 0.99) * 1e3,
        "rules_per_sec": len(result.classifier) / p50 if p50 else None,
    }


def run_benchmark():
    config, route_server, policies, load_seconds = build_exchange()
    modes = {}
    for vmac_mode in ("fec", "superset"):
        modes[vmac_mode] = measure_mode(vmac_mode, config, route_server, policies)
    ratio = modes["fec"]["rules"] / modes["superset"]["rules"]
    return {
        "workload": {
            "participants": PARTICIPANTS,
            "prefixes": PREFIXES,
            "rosters": ROSTERS,
            "variants_per_roster": VARIANTS,
            "popular_targets": POPULAR,
            "senders": SENDERS,
            "clauses_per_sender": CLAUSES_PER_SENDER,
            "rib_load_seconds": load_seconds,
        },
        "modes": modes,
        "compression": {"ratio": ratio, "floor": COMPRESSION_FLOOR},
    }


def print_result(result):
    workload = result["workload"]
    print(
        f"\n== Compile scaling: {workload['participants']} participants, "
        f"{workload['prefixes']:,} prefixes "
        f"({workload['rosters']} rosters x {workload['variants_per_roster']} variants) =="
    )
    for vmac_mode in ("fec", "superset"):
        mode = result["modes"][vmac_mode]
        print(
            f"  {vmac_mode:>8}: {mode['rules']:>6} fabric rules over "
            f"{mode['fec_groups']} groups, compile p50 {mode['compile_p50_ms']:,.0f} ms / "
            f"p99 {mode['compile_p99_ms']:,.0f} ms, {mode['rules_per_sec']:,.0f} rules/s"
        )
    compression = result["compression"]
    print(
        f"== Compression: {compression['ratio']:.1f}x fewer rules with supersets "
        f"(floor {compression['floor']:.0f}x) =="
    )


def check_against_baseline(result, baseline):
    """CI gate: the compression floor, and no silent fabric-size drift.

    Compilation is deterministic, so rule counts are gated exactly — a
    changed count is a behavioral change that must re-emit the
    baseline, not noise.  Latencies are printed but never gated; CI
    machines are too variable for wall-clock ceilings.
    """
    failures = []
    ratio = result["compression"]["ratio"]
    floor = baseline["compression"]["floor"]
    status = "ok" if ratio >= floor else "REGRESSED"
    print(f"  compression ratio: measured {ratio:.2f} vs floor {floor:.2f} {status}")
    if ratio < floor:
        failures.append("compression_ratio")
    for vmac_mode in ("fec", "superset"):
        measured = result["modes"][vmac_mode]["rules"]
        reference = baseline["modes"][vmac_mode]["rules"]
        status = "ok" if measured == reference else "DRIFTED"
        print(f"  {vmac_mode} fabric rules: measured {measured} vs baseline {reference} {status}")
        if measured != reference:
            failures.append(f"{vmac_mode}_rules")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_compile.py",
        description="superset-vs-per-FEC compilation benchmark (300p / 100k prefixes)",
    )
    parser.add_argument(
        "--emit", metavar="PATH", help="write the result JSON (the baseline file)"
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="compare against a baseline JSON; exit 1 below the 5x floor or on rule drift",
    )
    options = parser.parse_args(argv)

    result = run_benchmark()
    print_result(result)
    if options.emit:
        with open(options.emit, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline written to {options.emit}")
    if options.check:
        with open(options.check) as handle:
            baseline = json.load(handle)
        print(f"\n== Compression gate vs {options.check} ==")
        failures = check_against_baseline(result, baseline)
        if failures:
            print(f"FAIL: compile benchmark regressed: {', '.join(failures)}")
            return 1
        print("gate passed")
    return 0


# -- pytest-benchmark wrapper (make bench) ----------------------------------


def test_superset_compression_at_scale(benchmark):
    result = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
    emit(lambda: print_result(result))
    # the ISSUE acceptance floor: >= 5x fewer fabric rules at 300/100k
    assert result["compression"]["ratio"] >= COMPRESSION_FLOOR
    # both encodings compiled the same forwarding classes
    assert (
        result["modes"]["fec"]["fec_groups"]
        == result["modes"]["superset"]["fec_groups"]
    )


if __name__ == "__main__":
    sys.exit(main())
