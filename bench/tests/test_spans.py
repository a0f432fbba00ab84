"""Span accounting: self-time arithmetic, generator spans, nesting, undo."""

import pytest

import repro.verify.checker as checker
from repro.policy.classifier import Classifier

from spans import NO_TRACE, Recorder
from workloads import Workload, run_workload


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_is_duration_minus_direct_children():
    clock = FakeClock()
    rec = Recorder(clock)
    with rec.span("op.burst") as root:
        clock.advance(1.0)  # harness time no layer claims
        with rec.span("runtime.drain") as drain:
            clock.advance(2.0)
            with rec.span("bgp.process_update") as update:
                clock.advance(3.0)
                with rec.span("core.fastpath.handle"):
                    clock.advance(4.0)
            clock.advance(0.5)
    assert root.duration == pytest.approx(10.5)
    assert root.self_s == pytest.approx(1.0)
    assert drain.self_s == pytest.approx(2.5)
    assert update.self_s == pytest.approx(3.0)
    assert update.root == drain.root == root.id and update.parent == drain.id
    # Layers plus the unattributed remainder sum to the root's wall time.
    assert sum(rec.self_seconds().values()) == pytest.approx(root.duration)
    assert rec.unattributed_share() == pytest.approx(1.0 / 10.5)


def test_out_of_order_close_is_an_error():
    rec = Recorder(FakeClock())
    outer = rec.begin("a")
    rec.begin("b")
    with pytest.raises(RuntimeError):
        rec.end(outer)


def test_generator_span_counts_only_time_between_resumptions():
    clock = FakeClock()
    rec = Recorder(clock)
    closed = []

    def compile_steps():
        try:
            clock.advance(1.0)
            yield ("stage", "ast")
            clock.advance(2.0)
            yield ("stage", "fec")
            clock.advance(4.0)
            return "result"
        finally:
            closed.append(True)

    steps = rec.timed_generator("pipeline.compile", compile_steps)()
    tokens = []
    with rec.span("runtime.drain") as drain:
        while True:
            try:
                tokens.append(next(steps))
            except StopIteration as stop:
                value = stop.value
                break
            clock.advance(10.0)  # another task runs while the compiler is suspended
    assert tokens == [("stage", "ast"), ("stage", "fec")] and value == "result"
    assert closed == [True]
    assert rec.self_seconds()["pipeline.compile"] == pytest.approx(7.0)
    assert drain.self_s == pytest.approx(20.0)
    assert len(rec.self_samples("pipeline.compile")) == 3

    abandoned = rec.timed_generator("pipeline.compile", compile_steps)()
    next(abandoned)
    abandoned.close()  # the runtime aborts a compile this way
    assert closed == [True, True]


def test_counted_wrapper_records_calls_without_spans():
    rec = Recorder(FakeClock())
    double = rec.counted("bgp.ranked_routes", lambda x: 2 * x)
    assert [double(2), double(3)] == [4, 6]
    assert rec.counts == {"bgp.ranked_routes": 2} and rec.spans == []


TINY = Workload(
    "tiny",
    "ixp_small through the same functions with tiny counts",
    "ixp_small",
    cold_starts=2,
    edits=2,
    bursts=12,
    recompile_every=6,
)


def test_traced_run_nests_under_the_event_loop_and_attributes_its_time():
    originals = (Classifier.__rshift__, Classifier.__add__, checker.check_all_invariants)
    result, rec = run_workload(TINY, seed=5, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert result["counts"]["recompiles"] == 2 and result["counts"]["compiles_in_replay"] == 2

    by_id = {span.id: span for span in rec.spans}
    roots = {span.name for span in rec.roots()}
    assert roots == {"op.cold_start", "op.policy_edit", "op.burst", "op.recompile", "op.oracle"}

    def ancestors(span):
        while span.parent is not None:
            span = by_id[span.parent]
            yield span.name

    for name in ("pipeline.compile", "pipeline.install", "bgp.process_update"):
        spans = [span for span in rec.spans if span.name == name]
        assert spans, name
        assert all("runtime.drain" in ancestors(span) for span in spans), name
    # Deferred guard checks run on the loop's verify task, not inside install.
    assert any(
        span.name == "guard.verify" and by_id[span.parent].name == "runtime.drain"
        for span in rec.spans
    )
    assert any(
        span.name == "core.fastpath.flush" and by_id[span.parent].name == "pipeline.install"
        for span in rec.spans
    )

    total = sum(span.duration for span in rec.roots())
    assert sum(rec.self_seconds().values()) == pytest.approx(total)
    assert result["metrics"]["layers.unattributed_share"]["value"] < 0.05

    # The rebinding is undone: shared entry points are the originals again.
    assert originals == (
        Classifier.__rshift__,
        Classifier.__add__,
        checker.check_all_invariants,
    )


def test_instance_rebinding_is_undone():
    from repro.core.controller import SDXController
    from repro.workloads.providers import load_fixture

    config = load_fixture("ixp_small").build().config
    retired = SDXController(config, runtime_mode="eventloop")
    controller = SDXController(config, runtime_mode="eventloop")
    rec = Recorder()
    rec.instrument_shared()
    rec.instrument(retired)
    rec.instrument(controller)  # releases the retired controller, keeps the shared ones
    assert "load" not in vars(retired.route_server)
    assert Classifier.__add__.__name__ == "wrapper"
    assert "load" in vars(controller.route_server) and "drain" in vars(controller.runtime)
    rec.restore()
    assert Classifier.__add__.__name__ == "__add__"
    for owner in (
        controller.route_server,
        controller.fast_path,
        controller.pipeline,
        controller.pipeline.committer,
        controller.runtime,
        controller.switch.table,
    ):
        assert not any(callable(value) and value.__name__ == "wrapper" for value in vars(owner).values())
    assert controller.route_server.load.__func__ is type(controller.route_server).load


def test_untraced_pass_installs_the_same_fabric():
    traced, _ = run_workload(TINY, seed=5, trace=True)
    untraced, rec = run_workload(TINY, seed=5, trace=False)
    assert rec is NO_TRACE
    assert untraced["counts"] == traced["counts"]
    assert untraced["digests"] == traced["digests"]
    assert set(untraced["metrics"]) != set(traced["metrics"])
