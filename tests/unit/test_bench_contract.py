"""The names ``bench/`` reaches into ``src/`` by, checked in tier-1.

The benchmark's traced pass times layers from outside: it rebinds the
entry points listed in ``bench/spans.py:CONTROLLER_SPANS`` on a live
controller and reads the ``sdx_*`` series in
``bench/workloads.py:_COUNTERS``.  A rename under ``src/`` would break
that pass only when someone next runs the benchmark; these tests read
the two tables (without importing or touching ``bench/``) and fail here
instead.
"""

import ast
import os

import pytest

from repro.core.config import SDXConfig
from repro.core.controller import SDXController
from repro.experiments.common import build_scenario
from repro.guard import GuardConfig
from repro.runtime import RuntimeConfig

BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "bench",
)


def bench_literal(filename: str, name: str):
    """The literal assigned to module-level ``name`` in a bench source file."""
    with open(os.path.join(BENCH_DIR, filename), encoding="utf-8") as handle:
        module = ast.parse(handle.read())
    for node in module.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{filename} no longer assigns {name}")


@pytest.fixture(scope="module")
def controller() -> SDXController:
    """Built and compiled the way ``bench/workloads.py`` cold-starts one,
    then edited once so the shard cache has served a hit."""
    scenario = build_scenario(participants=6, prefixes=24, seed=1, policy_seed=2)
    controller = SDXController(
        scenario.ixp.config,
        sdx=SDXConfig(
            runtime_mode="eventloop",
            runtime_config=RuntimeConfig(coalesce=True),
            guard=GuardConfig(probe_budget=16, seed=1),
        ),
    )
    controller.route_server.load(scenario.ixp.updates)
    with controller.deferred_recompilation():
        for name, policy_set in scenario.workload.policies.items():
            controller.policy.set_policies(name, policy_set)
    name, policy_set = next(iter(scenario.workload.policies.items()))
    controller.policy.set_policies(name, policy_set)
    assert controller.last_compilation is not None
    return controller


def test_every_timed_entry_point_resolves_and_rebinds(controller):
    """``Recorder.rebind`` shadows ``owner.attr`` in the instance's own
    ``vars()``: the owner must exist, the attribute must be callable,
    and the instance must accept (and give back) the shadow."""
    entry_points = [
        (path, attr) for path, attr, _ in bench_literal("spans.py", "CONTROLLER_SPANS")
    ] + [("pipeline", "compile_steps"), ("route_server", "ranked_routes")]
    for path, attr in entry_points:
        owner = controller
        for part in path.split("."):
            owner = getattr(owner, part)
        assert owner is not None, f"controller.{path} is not configured"
        original = getattr(owner, attr)
        assert callable(original), f"{path}.{attr}"
        assert attr not in vars(owner)
        shadow = lambda *args, **kwargs: None  # noqa: E731
        setattr(owner, attr, shadow)
        try:
            assert getattr(owner, attr) is shadow
        finally:
            delattr(owner, attr)
        assert getattr(owner, attr) == original


def test_advertised_next_hops_is_sized(controller):
    assert len(controller.last_compilation.advertised_next_hops) > 0


def test_every_counter_series_is_registered(controller):
    snapshot = controller.ops.metrics()
    for key, (metric, labels) in bench_literal("workloads.py", "_COUNTERS").items():
        assert metric in snapshot, f"{key}: {metric} is not registered"
        if labels:
            assert any(
                all(series["labels"].get(k) == v for k, v in labels.items())
                for series in snapshot[metric]["series"]
            ), f"{key}: {metric} has no series labelled {labels}"
