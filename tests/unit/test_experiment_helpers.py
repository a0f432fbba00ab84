"""Unit tests for experiment-support helpers."""

import pytest

from repro.experiments.common import (
    Scenario,
    build_scenario,
    format_table,
    scaling_policies,
)
from repro.experiments.figure5 import Figure5aResult
from repro.experiments.scaling import ScalingPoint, ScalingResult


class TestBuildScenario:
    def test_scenario_components_consistent(self):
        scenario = build_scenario(participants=15, prefixes=200, seed=9)
        assert len(scenario.ixp.participant_names) == 15
        assert len(scenario.route_server.all_prefixes()) == 200
        assert scenario.workload.policies  # §6.1 mix installed something

    def test_without_policies(self):
        scenario = build_scenario(participants=10, prefixes=100, with_policies=False)
        assert scenario.workload.policies == {}

    def test_controller_factory_loads_routes_and_policies(self):
        scenario = build_scenario(participants=10, prefixes=100, seed=9)
        controller = scenario.controller()
        assert len(controller.route_server.all_prefixes()) == 100
        assert controller.policy.policies().keys() == scenario.workload.policies.keys()


class TestScalingPolicies:
    def test_policy_prefix_budget_respected(self):
        scenario = build_scenario(participants=12, prefixes=300, with_policies=False)
        policies = scaling_policies(scenario.ixp, policy_prefixes=40, chunk_size=5)
        # every clause names at most chunk_size prefixes
        total = 0
        for policy_set in policies.values():
            classifier = policy_set.outbound.compile()
            for rule in classifier.rules:
                constraint = rule.match.constraints.get("dstip")
                if constraint is not None:
                    total += 1
        assert total > 0

    def test_deterministic(self):
        scenario = build_scenario(participants=12, prefixes=300, with_policies=False)
        a = scaling_policies(scenario.ixp, policy_prefixes=40, seed=3)
        b = scaling_policies(scenario.ixp, policy_prefixes=40, seed=3)
        assert a == b


class TestResultHelpers:
    def test_scaling_result_series_filter(self):
        points = [
            ScalingPoint(100, 10, 12, 100, 1.0, 0.1),
            ScalingPoint(200, 10, 15, 150, 2.0, 0.2),
            ScalingPoint(100, 20, 25, 220, 3.0, 0.3),
        ]
        result = ScalingResult(points)
        assert [p.prefix_groups for p in result.series(100)] == [12, 25]
        assert [p.prefix_groups for p in result.series(200)] == [15]

    def test_figure5a_rates_at_steps(self):
        series = {
            "via-A": [(1.0, 3.0), (2.0, 2.0)],
            "via-B": [(1.0, 0.0), (2.0, 1.0)],
        }
        result = Figure5aResult(series, policy_time=1.5, withdrawal_time=3.0)
        assert result.rates_at(1.2) == {"via-A": 3.0, "via-B": 0.0}
        assert result.rates_at(2.5) == {"via-A": 2.0, "via-B": 1.0}
        assert result.rates_at(0.5) == {"via-A": 0.0, "via-B": 0.0}

    def test_format_table_handles_mixed_types(self):
        text = format_table(["name", "value"], [("x", 1), ("longer-name", 2.5)])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "longer-name" in lines[3]
