"""Ablations of the Section 4.3.1 optimizations and the MDS algorithm.

Not a paper figure, but DESIGN.md commits to quantifying the design
choices the paper argues for qualitatively:

* ``prune_targets`` — compose each forwarding action only with its
  target's second-stage block ("most policies concern a subset of the
  participants");
* ``disjoint_concat`` — concatenate isolated per-participant blocks
  instead of running full parallel composition ("most SDX policies are
  disjoint");
* ``memoize`` — reuse compiled sub-policies ("many policy idioms appear
  more than once");
* signature-based MDS vs the naive pairwise-refinement algorithm.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, NamedTuple, Sequence, Tuple

from repro.core.compiler import CompilationOptions
from repro.core.fec import (
    minimum_disjoint_subsets,
    minimum_disjoint_subsets_naive,
)
from repro.experiments.common import build_scenario, print_table, scaling_policies

__all__ = ["AblationResult", "run_compiler_ablation", "run_mds_ablation"]


class AblationResult(NamedTuple):
    """Per-configuration compile time and rule count."""

    rows: List[Tuple[str, float, int]]

    def print(self, title: str) -> None:
        """Render the ablation rows as an aligned table."""
        print_table(
            title,
            ["configuration", "compile (s)", "flow rules"],
            [(name, f"{seconds:.2f}", rules) for name, seconds, rules in self.rows],
        )


_CONFIGS: Dict[str, CompilationOptions] = {
    "all optimizations": CompilationOptions(),
    "no target pruning": CompilationOptions(prune_targets=False),
    "no disjoint concat": CompilationOptions(disjoint_concat=False),
    "no memoization": CompilationOptions(memoize=False),
}


def run_compiler_ablation(
    participants: int = 60,
    policy_prefixes: int = 400,
    seed: int = 12,
) -> AblationResult:
    """Compile the same workload under each optimization configuration.

    Disabled optimizations must not change the *result* (the emitted
    rule behaviour), only the cost — the integration tests assert
    equivalence on small instances.
    """
    scenario = build_scenario(
        participants=participants,
        prefixes=max(participants * 20, 500),
        seed=seed,
        with_policies=False,
    )
    policies = scaling_policies(scenario.ixp, policy_prefixes, seed=seed + 1)
    rows: List[Tuple[str, float, int]] = []
    for name, options in _CONFIGS.items():
        compiler = scenario.compiler(options)
        started = time.perf_counter()
        result = compiler.compile(policies)
        rows.append((name, time.perf_counter() - started, result.stats.rules))
    return AblationResult(rows)


class MDSAblationResult(NamedTuple):
    """Signature vs naive MDS timings per input-family size."""

    rows: List[Tuple[int, float, float, int]]

    def print(self) -> None:
        """Render the MDS comparison as an aligned table."""
        print_table(
            "MDS ablation — signature algorithm vs naive pairwise refinement",
            ["input sets", "signature (s)", "naive (s)", "groups"],
            [
                (sets, f"{fast:.4f}", f"{slow:.4f}", groups)
                for sets, fast, slow, groups in self.rows
            ],
        )


def run_mds_ablation(
    set_counts: Sequence[int] = (5, 10, 15, 20),
    universe: int = 400,
    seed: int = 13,
) -> MDSAblationResult:
    """Time both MDS implementations on random overlapping set families.

    The naive algorithm is quadratic in the number of *output* groups
    per refinement round, so the instances here are kept small; the
    signature algorithm handles the paper-scale inputs in
    :mod:`repro.experiments.figure6` directly.
    """
    rng = random.Random(seed)
    rows: List[Tuple[int, float, float, int]] = []
    for count in set_counts:
        sets = [
            frozenset(rng.sample(range(universe), rng.randint(20, universe // 4)))
            for _ in range(count)
        ]
        started = time.perf_counter()
        fast_groups = minimum_disjoint_subsets(sets)
        fast_time = time.perf_counter() - started
        started = time.perf_counter()
        slow_groups = minimum_disjoint_subsets_naive(sets)
        slow_time = time.perf_counter() - started
        if {frozenset(g) for g in fast_groups} != {frozenset(g) for g in slow_groups}:
            raise AssertionError("MDS implementations disagree")
        rows.append((count, fast_time, slow_time, len(fast_groups)))
    return MDSAblationResult(rows)
