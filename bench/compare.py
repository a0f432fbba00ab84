"""Compare two result sets written by ``bench/run.py --out``.

    python3 bench/compare.py A.json B.json

A is the parent, B the change.  For every workload and every end-to-end
metric it prints both medians, B's change relative to A, the bound from
``BENCHMARK.json`` and a verdict:

* ``worse``  — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better by more than A's own run-to-run
  spread (distance between the quartiles of A's runs; never claimed from
  a single run of A);
* ``within`` — neither;
* ``unresolved`` — either side's spread is wider than the bound, so the
  medians decide nothing — unless every run of one side beats every run
  of the other, which is then reported as better or worse.

Exit status 1 on any ``worse``, or if B fails a larger share of its
operations than A.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median (0 for n < 2)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(statistics.median(values))


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Tuple[str, float]:
    """(verdict, B's median relative to A's, signed so that positive is worse)."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / abs(med_a)
    if max(spread(a), spread(b)) > bound:
        if all(sign * y < sign * x for x in a for y in b):
            return "better", worse_by
        if all(sign * y > sign * x for x in a for y in b) and worse_by > bound:
            return "worse", worse_by
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if len(a) > 1 and -worse_by > spread(a):
        return "better", worse_by
    return "within", worse_by


def failed_share(runs: List[Dict[str, Any]]) -> float:
    return sum(run["failed"] for run in runs) / sum(run["attempted"] for run in runs)


def compare(
    contract: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any]
) -> Tuple[List[str], bool]:
    """The report lines and whether the comparison passes."""
    lines: List[str] = []
    passed = True
    for entry in contract["workloads"]:
        name = entry["name"]
        runs_a, runs_b = a["workloads"][name], b["workloads"][name]
        lines.append(f"== {name} (A: {len(runs_a)} runs, B: {len(runs_b)} runs)")
        lines.append(
            f"  {'metric':28s} {'A median':>12s} {'B median':>12s} {'B vs A':>8s} "
            f"{'bound':>6s}  verdict"
        )
        for metric in contract["end_to_end"]:
            key = metric["name"]
            values_a = [run["end_to_end"][key]["value"] for run in runs_a]
            values_b = [run["end_to_end"][key]["value"] for run in runs_b]
            outcome, worse_by = verdict(values_a, values_b, metric["better"], metric["bound"])
            change = worse_by if metric["better"] == "lower" else -worse_by
            lines.append(
                f"  {key:28s} {statistics.median(values_a):12.4f} "
                f"{statistics.median(values_b):12.4f} {change:+8.1%} "
                f"{metric['bound']:6.0%}  {outcome} ({metric['unit']}, {metric['better']} is better)"
            )
            passed = passed and outcome != "worse"
        share_a, share_b = failed_share(runs_a), failed_share(runs_b)
        outcome = "worse" if share_b > share_a else "within"
        lines.append(f"  {'failed_ops_share':28s} {share_a:12.6f} {share_b:12.6f}  {outcome}")
        passed = passed and outcome != "worse"
        if any(x["counts"] != runs_a[0]["counts"] for x in runs_a + runs_b) and a.get(
            "seed"
        ) == b.get("seed"):
            lines.append("  note: exact counts (fabric hash, rules, updates) differ between runs")
    return lines, passed


def main(argv=None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if len(arguments) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    loaded = []
    for path in arguments:
        with open(path, encoding="utf-8") as handle:
            loaded.append(json.load(handle))
    lines, passed = compare(contract, *loaded)
    print("\n".join(lines))
    print("PASS" if passed else "FAIL: a metric got worse by more than its bound")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
