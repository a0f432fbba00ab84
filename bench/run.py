"""The SDX control-loop benchmark: one command, every metric, checked.

    python3 bench/run.py                      # every workload, untraced then traced
    python3 bench/run.py --workload churn-fastpath --seed 7 --seconds 16 --trace 0

With ``--workload`` it runs one pass in this process and prints each
metric by name with its unit, then one JSON object on the last line
(``correct``, ``attempted``, ``failed``, ``metrics``): the end-to-end
metrics when ``--trace 0``, the per-layer metrics when ``--trace 1``.
Without it, it runs every workload in a process of its own — untraced,
then traced — checks that both passes installed byte-identical fabrics
with identical exact counts, and writes the collected results to
``--out`` for ``bench/compare.py``.

The program under test is imported from ``src/`` of the checkout the
command runs in; nothing under ``src/`` is edited or generated.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def result_path(workload: str, trace: int) -> str:
    return os.path.join(OUT_DIR, f"{workload}.{'traced' if trace else 'untraced'}.json")


def timed_wall_s(result: Dict[str, Any]) -> float:
    return sum(result["timed_s"].values())


def print_metrics(result: Dict[str, Any]) -> None:
    print(
        f"== {result['workload']} seed={result['seed']} "
        f"{'traced' if result['trace'] else 'untraced'}: "
        f"{timed_wall_s(result):.1f} s timed, samples {result['samples']}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    counts = result["counts"]
    print(
        f"  failed_ops_share {result['failed']}/{result['attempted']}; "
        f"fabric {counts['table_hash'][:16]} ({counts['fabric_rules']} rules); "
        f"topology {result['digests']['topology'][:16]} trace {result['digests']['trace'][:16]}"
    )


def run_one(options: argparse.Namespace) -> int:
    """One pass of one workload in this process (what the driver calls)."""
    from workloads import run_workload, workload_named

    contract = load_contract()
    workload = workload_named(options.workload).scaled(options.seconds)
    result, recorder = run_workload(workload, options.seed, trace=bool(options.trace))

    expected = contract["per_layer" if options.trace else "end_to_end"]
    if sorted(result["metrics"]) != sorted(entry["name"] for entry in expected):
        raise RuntimeError("metrics measured differ from the ones BENCHMARK.json names")

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(result_path(workload.name, options.trace), "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    if options.trace:
        with open(
            os.path.join(OUT_DIR, f"{workload.name}.trace.json"), "w", encoding="utf-8"
        ) as handle:
            json.dump(recorder.to_json(), handle)

    print_metrics(result)
    print(
        json.dumps(
            {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0


def run_all(options: argparse.Namespace) -> int:
    """Every workload, ``--repeat`` times: untraced, then traced."""
    contract = load_contract()
    collected: Dict[str, Any] = {
        "seed": options.seed,
        "seconds": options.seconds,
        "workloads": {},
    }
    problems: List[str] = []
    for entry in contract["workloads"]:
        name = entry["name"]
        runs: List[Dict[str, Any]] = []
        for _ in range(options.repeat):
            passes = {}
            for trace in (0, 1):
                command = [
                    sys.executable,
                    os.path.join(BENCH_DIR, "run.py"),
                    "--workload", name,
                    "--seed", str(options.seed),
                    "--seconds", str(options.seconds),
                    "--trace", str(trace),
                ]  # fmt: skip
                completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
                if completed.returncode != 0:
                    print(completed.stdout)
                    raise RuntimeError(f"{name} (trace {trace}) exited {completed.returncode}")
                print("\n".join(completed.stdout.splitlines()[:-1]))
                with open(result_path(name, trace), encoding="utf-8") as handle:
                    passes[trace] = json.load(handle)
            untraced, traced = passes[0], passes[1]
            for label, result in (("untraced", untraced), ("traced", traced)):
                if not result["correct"]:
                    problems.append(
                        f"{name} {label}: {result['failed']} of "
                        f"{result['attempted']} operations failed"
                    )
            if untraced["counts"] != traced["counts"] or untraced["digests"] != traced["digests"]:
                problems.append(f"{name}: traced and untraced passes disagree on exact counts")
            overhead = timed_wall_s(traced) / timed_wall_s(untraced) - 1.0
            print(f"  trace.overhead_share (paired, traced wall / untraced wall - 1) {overhead:.4f}")
            runs.append(
                {
                    "end_to_end": untraced["metrics"],
                    "per_layer": traced["metrics"],
                    "attempted": untraced["attempted"],
                    "failed": untraced["failed"],
                    "counts": untraced["counts"],
                    "digests": untraced["digests"],
                    "samples": untraced["samples"],
                    "trace_overhead_paired_share": overhead,
                }
            )
        collected["workloads"][name] = runs

    os.makedirs(os.path.dirname(os.path.abspath(options.out)), exist_ok=True)
    with open(options.out, "w", encoding="utf-8") as handle:
        json.dump(collected, handle, indent=1, sort_keys=True)
    print(f"\nresults written to {options.out}")
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


def main(argv=None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(prog="python3 bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one pass of this workload in-process")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1, help="full sets to run (no --workload)")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "results.json"))
    options = parser.parse_args(argv)

    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"bench/run.py: no program to measure: {source}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    return run_one(options) if options.workload else run_all(options)


if __name__ == "__main__":
    sys.exit(main())
