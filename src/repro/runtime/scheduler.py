"""Deterministic cooperative scheduling: timer wheel + task round-robin.

Two pieces, both layered on :class:`repro.sim.clock.Simulator` rather
than threads, so a replay with the same seed and event trace schedules
*identically*:

* :class:`TimerWheel` — the runtime's single timer surface.  It
  duck-types the ``Simulator`` scheduling API (``now`` /
  ``schedule`` / ``schedule_in`` / ``schedule_every``), which is
  exactly the surface :mod:`repro.resilience` already programs against,
  so session liveness, flap damping, and admission retries all share
  one wheel and one virtual clock.

* :class:`CooperativeScheduler` — resumes each registered task
  generator once per :meth:`step`, in registration order, forever.
  Tasks yield small tokens: ``("idle",)`` (nothing to do) or
  ``("worked",)`` (made progress).  The fixed resume order is what
  makes interleaving deterministic: there is no readiness race to win,
  only a rotation to take a turn in.  Non-idle slices are timed onto the
  ``sdx_runtime_task_seconds`` histogram.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.sim.clock import Simulator, TimerHandle

__all__ = ["CooperativeScheduler", "TimerWheel"]


class TimerWheel:
    """The runtime's timer surface, backed by a shared sim clock."""

    __slots__ = ("_clock",)

    def __init__(self, clock: Simulator) -> None:
        self._clock = clock

    @property
    def clock(self) -> Simulator:
        return self._clock

    @property
    def now(self) -> float:
        return self._clock.now

    def schedule(self, at: float, callback: Callable[[], None]) -> TimerHandle:
        return self._clock.schedule(at, callback)

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        return self._clock.schedule_in(delay, callback)

    def schedule_every(self, interval: float, callback, **kwargs) -> TimerHandle:
        return self._clock.schedule_every(interval, callback, **kwargs)

    def next_event_time(self) -> Optional[float]:
        return self._clock.next_event_time()

    def run_until(self, end: float) -> None:
        self._clock.run_until(end)

    def __repr__(self) -> str:
        return f"TimerWheel(now={self._clock.now})"


class _Task:
    __slots__ = ("name", "gen", "retired")

    def __init__(self, name: str, gen) -> None:
        self.name = name
        self.gen = gen
        self.retired = False


class CooperativeScheduler:
    """Fixed-order round-robin over long-lived task generators."""

    def __init__(self, histogram=None, now: Optional[Callable[[], float]] = None):
        self._tasks: List[_Task] = []
        self._m_task = histogram
        self._now = now if now is not None else (lambda: 0.0)

    def add(self, name: str, gen) -> None:
        """Register a task; resume order is registration order, always."""
        self._tasks.append(_Task(name, gen))

    @property
    def task_names(self) -> Tuple[str, ...]:
        return tuple(task.name for task in self._tasks)

    def step(self) -> bool:
        """Resume every live task once; True if any task made progress."""
        progressed = False
        for task in self._tasks:
            if task.retired:
                continue
            started = self._now()
            try:
                token = next(task.gen)
            except StopIteration:
                task.retired = True
                continue
            if token[0] == "idle":
                continue
            if self._m_task is not None:
                self._m_task.observe(self._now() - started, task=task.name)
            progressed = True
        return progressed

    def __repr__(self) -> str:
        return f"CooperativeScheduler(tasks={list(self.task_names)})"
