"""repro.runtime — deterministic event-loop control-plane runtime.

Every controller drives its control plane through one
:class:`~repro.runtime.runtime.ControlPlaneRuntime`
(``controller.runtime``): facet calls enqueue typed events onto a
bounded ingress queue and a cooperative scheduler pipelines the
update→compile→commit→verify path.  Single calls auto-drain and return
their result; ``runtime.pipelined()`` unlocks burst mode.  Tune it with
``SDXController(runtime_config=RuntimeConfig(...))``.
"""

from __future__ import annotations

from repro.runtime.events import Submission
from repro.runtime.queues import BoundedQueue, QueueOverflow
from repro.runtime.runtime import CompileJob, ControlPlaneRuntime, RuntimeConfig
from repro.runtime.scheduler import CooperativeScheduler, TimerWheel

__all__ = [
    "BoundedQueue",
    "CompileJob",
    "ControlPlaneRuntime",
    "CooperativeScheduler",
    "QueueOverflow",
    "RuntimeConfig",
    "Submission",
    "TimerWheel",
]
