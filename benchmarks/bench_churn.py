"""Churn-replay benchmark: Internet-scale fixture, correctness-gated.

The workload-ingestion tentpole's acceptance run: the checked-in
``amsix2014`` fixture (Table 1 scale — 160 members, >100k prefixes,
paper-calibrated announcement skew derived from the data, not knobs)
replays the two heaviest churn scenarios end-to-end through a single
controller under the event-loop runtime:

* a **failover storm** — a mid-tier transit's session dies, its whole
  table (primaries and the backup routes it carries as a transit)
  drains in bursts, then returns with path-prepended re-announcements;
* a **correlated withdrawal** — a shared upstream failure pulls
  overlapping prefix slices from the six heaviest members in the same
  bursts, with staggered per-member recovery.

The PR-5 differential oracle samples router-faithful probes plus the
structural invariant sweep throughout, and periodic full guarded
compilations exercise the §4.3.2 background re-optimization mid-storm.

Unlike the latency/compile benchmarks, the gate here is *correctness*,
not speed: zero probe mismatches and zero invariant violations, plus
byte-deterministic workload shape (same members, prefixes, events, and
bursts as the checked-in baseline — the generators are seed-stable
across processes and hash seeds).  Throughput numbers are reported for
information only; they never fail the gate.

Run standalone to (re)generate the checked-in baseline::

    PYTHONPATH=src python benchmarks/bench_churn.py --emit benchmarks/BENCH_churn.json

or as the CI regression gate::

    PYTHONPATH=src python benchmarks/bench_churn.py --check benchmarks/BENCH_churn.json
"""

import argparse
import json
import sys
import time

from _report import emit

from repro.core.config import SDXConfig
from repro.core.controller import SDXController
from repro.guard import GuardConfig
from repro.runtime import RuntimeConfig
from repro.workloads.policy_gen import generate_policies
from repro.workloads.providers import load_fixture
from repro.workloads.scenarios import ScenarioSpec, build_scenario_trace, replay

FIXTURE = "amsix2014"
SEED = 11
PROBE_BUDGET = 16  # the commit guard's probe pass on every forced compile
PROBES = 24  # oracle probes per mid-replay verification pass
VERIFY_EVERY = 4  # bursts between verification passes
RECOMPILE_EVERY = 8  # bursts between forced full (guarded) compilations

#: The failover-storm victim: a mid-tier transit, so the storm is heavy
#: (hundreds of routes, both primary and backup) without replaying the
#: top announcer's 58k-route table through the Python fast path.
VICTIM = "AS7018"

SCENARIOS = (
    ScenarioSpec(
        name="failover-storm",
        kind="failover-storm",
        seed=SEED,
        params={"victim": VICTIM, "waves": 1, "burst_size": 120, "churn_per_burst": 4},
    ),
    ScenarioSpec(
        name="correlated-withdrawal",
        kind="correlated-withdrawal",
        seed=SEED + 1,
        params={"members": 6, "waves": 2, "slice_size": 40},
    ),
)


def _skew(ixp):
    """Announcement-share skew, Table 1 style: top 1% vs bottom 90%."""
    counts = sorted((len(v) for v in ixp.announced.values()), reverse=True)
    total = sum(counts)
    top = max(1, round(0.01 * len(counts)))
    bottom = round(0.10 * len(counts))
    return {
        "top_1pct_share": sum(counts[:top]) / total,
        "bottom_90pct_share": sum(counts[bottom:]) / total,
    }


def _controller(ixp):
    controller = SDXController(
        ixp.config,
        sdx=SDXConfig(
            runtime_config=RuntimeConfig(coalesce=True),
            guard=GuardConfig(probe_budget=PROBE_BUDGET, seed=SEED),
        ),
    )
    controller.route_server.load(ixp.updates)
    workload = generate_policies(ixp, seed=SEED + 1)
    with controller.deferred_recompilation():
        for name, policy_set in workload.policies.items():
            controller.policy.set_policies(name, policy_set)
    return controller


def run_benchmark():
    started = time.perf_counter()
    ixp = load_fixture(FIXTURE).build()
    build_seconds = time.perf_counter() - started

    started = time.perf_counter()
    controller = _controller(ixp)
    compile_seconds = time.perf_counter() - started

    scenarios = {}
    for spec in SCENARIOS:
        trace = build_scenario_trace(ixp, spec)
        report = replay(
            controller,
            trace.updates,
            scenario=spec.name,
            verify_every=VERIFY_EVERY,
            probes=PROBES,
            seed=SEED,
            recompile_every=RECOMPILE_EVERY,
        )
        scenarios[spec.name] = {
            "events": report.events,
            "bursts": report.bursts,
            "commits": report.commits,
            "verify_passes": report.verify_passes,
            "probes_checked": report.probes_checked,
            "mismatches": report.mismatches,
            "violations": report.violations,
            "seconds": report.seconds,
            "updates_per_sec": report.events / report.seconds,
        }
    return {
        "workload": {
            "fixture": FIXTURE,
            "seed": SEED,
            "participants": len(ixp.config),
            "prefixes": sum(len(v) for v in ixp.announced.values()),
            "skew": _skew(ixp),
            "victim": VICTIM,
        },
        "setup": {
            "build_seconds": build_seconds,
            "initial_compile_seconds": compile_seconds,
            "initial_rules": len(controller.switch.table),
        },
        "scenarios": scenarios,
    }


def print_result(result):
    workload = result["workload"]
    setup = result["setup"]
    skew = workload["skew"]
    print(
        f"\n== Churn replay on {workload['fixture']}: "
        f"{workload['participants']} members, {workload['prefixes']:,} "
        f"prefixes (top 1% announce {skew['top_1pct_share']:.0%}, "
        f"bottom 90% {skew['bottom_90pct_share']:.1%}) =="
    )
    print(
        f"  setup: fixture {setup['build_seconds']:.1f} s, initial compile "
        f"{setup['initial_compile_seconds']:.1f} s "
        f"({setup['initial_rules']:,} rules)"
    )
    for name, row in result["scenarios"].items():
        verdict = (
            "clean"
            if row["mismatches"] == 0 and row["violations"] == 0
            else f"{row['mismatches']} mismatches, {row['violations']} violations"
        )
        print(
            f"  {name}: {row['events']} updates in {row['bursts']} bursts, "
            f"{row['commits']} commits, {row['verify_passes']} verify passes "
            f"({row['probes_checked']} probes): {verdict}; "
            f"{row['updates_per_sec']:,.0f} updates/s"
        )


def check_against_baseline(result, baseline):
    """CI gate: zero incorrectness, identical deterministic workload shape.

    Timing is machine-dependent and stays informational; the failure
    conditions are (a) any probe mismatch or invariant violation and
    (b) the replayed workload drifting from the baseline's shape — the
    fixture ingestion and scenario builders are seed-deterministic, so
    any drift means a silent generator or provider change.
    """
    failures = []
    for name, row in result["scenarios"].items():
        for metric in ("mismatches", "violations"):
            status = "ok" if row[metric] == 0 else "FAIL"
            print(f"  {name}.{metric}: {row[metric]} {status}")
            if row[metric] != 0:
                failures.append(f"{name}.{metric}")
    shape = [
        ("workload", "participants"),
        ("workload", "prefixes"),
    ] + [("scenarios", name, key) for name in result["scenarios"] for key in ("events", "bursts")]
    for path in shape:
        measured, reference = result, baseline
        for key in path:
            measured = measured[key]
            reference = reference[key]
        label = ".".join(path)
        status = "ok" if measured == reference else "DRIFTED"
        print(f"  {label}: measured {measured} vs baseline {reference} {status}")
        if measured != reference:
            failures.append(label)
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_churn.py",
        description="Internet-scale churn replay, gated on correctness",
    )
    parser.add_argument(
        "--emit", metavar="PATH", help="write the result JSON (the baseline file)"
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="compare against a baseline JSON; exit 1 on any mismatch, "
        "invariant violation, or workload-shape drift",
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
        print(f"\n== Churn gate vs {options.check} ==")
        failures = check_against_baseline(result, baseline)
        if failures:
            print(f"FAIL: churn gate: {', '.join(failures)}")
            return 1
        print("gate passed")
    return 0


# -- pytest-benchmark wrapper (make bench) ----------------------------------


def test_churn_replay(benchmark):
    result = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
    emit(lambda: print_result(result))
    for row in result["scenarios"].values():
        assert row["mismatches"] == 0
        assert row["violations"] == 0
        assert row["verify_passes"] >= 1 and row["probes_checked"] > 0


if __name__ == "__main__":
    sys.exit(main())
