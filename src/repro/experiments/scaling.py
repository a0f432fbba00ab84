"""Shared sweep behind Figures 7 and 8 (rules and compile time vs groups).

The paper parameterizes both figures by the number of prefix groups,
"selected based on our analysis of the prefix groups that might appear
in a typical IXP" (Figure 6).  We drive the group count through
:func:`~repro.experiments.common.scaling_policies` — destination-
specific policies over a controlled number of prefixes — then run the
full compiler and record, per sweep point:

* the resulting number of prefix groups (x-axis of both figures),
* the emitted flow-rule count (Figure 7's y-axis),
* the wall-clock compilation time (Figure 8's y-axis).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

from repro.experiments.common import build_scenario, print_table, scaling_policies
from repro.telemetry import MetricsRegistry

__all__ = ["ScalingPoint", "ScalingResult", "run_sweep"]

DEFAULT_PARTICIPANTS = (100, 200, 300)
DEFAULT_POLICY_PREFIXES = (250, 500, 1000, 2000, 4000)


class ScalingPoint(NamedTuple):
    """One sweep point: measured groups, rules, and compile cost."""

    participants: int
    policy_prefixes: int
    prefix_groups: int
    flow_rules: int
    compile_seconds: float
    vnh_seconds: float


class ScalingResult(NamedTuple):
    """All sweep points; filter per participant count with ``series``."""

    points: List[ScalingPoint]

    def series(self, participants: int) -> List[ScalingPoint]:
        return [p for p in self.points if p.participants == participants]

    def print_figure7(self) -> None:
        """Render the Figure 7 view (rules vs groups)."""
        print_table(
            "Figure 7 — flow rules vs prefix groups (linear growth expected)",
            ["participants", "prefix groups", "flow rules", "rules/group"],
            [
                (
                    p.participants,
                    p.prefix_groups,
                    p.flow_rules,
                    f"{p.flow_rules / max(p.prefix_groups, 1):.1f}",
                )
                for p in self.points
            ],
        )

    def print_figure8(self) -> None:
        """Render the Figure 8 view (compile time vs groups)."""
        print_table(
            "Figure 8 — compilation time vs prefix groups (superlinear expected)",
            ["participants", "prefix groups", "compile (s)", "VNH compute (s)"],
            [
                (
                    p.participants,
                    p.prefix_groups,
                    f"{p.compile_seconds:.2f}",
                    f"{p.vnh_seconds:.3f}",
                )
                for p in self.points
            ],
        )


def run_sweep(
    participants_sweep: Sequence[int] = DEFAULT_PARTICIPANTS,
    policy_prefix_sweep: Sequence[int] = DEFAULT_POLICY_PREFIXES,
    prefixes_per_participant: int = 30,
    seed: int = 5,
) -> ScalingResult:
    """Run the compile sweep behind Figures 7 and 8."""
    points: List[ScalingPoint] = []
    for participants in participants_sweep:
        scenario = build_scenario(
            participants=participants,
            prefixes=max(participants * prefixes_per_participant, 1000),
            seed=seed,
            with_policies=False,
        )
        for policy_prefixes in policy_prefix_sweep:
            policies = scaling_policies(
                scenario.ixp, policy_prefixes=policy_prefixes, seed=seed + 1
            )
            # One registry per sweep point: the point's numbers are the
            # telemetry totals, so the driver and a production scrape
            # report identical figures.
            telemetry = MetricsRegistry()
            compiler = scenario.compiler(telemetry=telemetry)
            compiler.compile(policies)
            points.append(
                ScalingPoint(
                    participants=participants,
                    policy_prefixes=policy_prefixes,
                    prefix_groups=int(telemetry.get("sdx_compile_fec_groups").value()),
                    flow_rules=int(telemetry.get("sdx_compile_rules").value()),
                    compile_seconds=telemetry.get("sdx_compile_seconds").total(),
                    vnh_seconds=telemetry.get("sdx_compile_phase_seconds").total(
                        phase="fec"
                    ),
                )
            )
    return ScalingResult(points)
