"""repro.runtime — deterministic event-loop control-plane runtime.

Two runtime modes drive the same control-plane bodies:

* ``inline`` (default) — every facet call runs its ``_apply_*`` body
  synchronously, compile included, exactly as before this package
  existed.
* ``eventloop`` — facet calls enqueue typed events onto a bounded
  ingress queue and a cooperative scheduler pipelines the
  update→compile→commit→verify path (see
  :class:`~repro.runtime.runtime.ControlPlaneRuntime`).  Single calls
  auto-drain and return the same results; ``runtime.pipelined()``
  unlocks burst mode.

Select with ``SDXController(runtime_mode=...)`` or the
``REPRO_RUNTIME`` environment variable.
"""

from __future__ import annotations

import os
from typing import Mapping, Optional

from repro.runtime.events import Submission
from repro.runtime.queues import BoundedQueue, QueueOverflow
from repro.runtime.runtime import CompileJob, ControlPlaneRuntime, RuntimeConfig
from repro.runtime.scheduler import CooperativeScheduler, TimerWheel

__all__ = [
    "RUNTIME_MODES",
    "BoundedQueue",
    "CompileJob",
    "ControlPlaneRuntime",
    "CooperativeScheduler",
    "QueueOverflow",
    "RuntimeConfig",
    "Submission",
    "TimerWheel",
    "runtime_mode_from_env",
]

#: the two sanctioned control-plane runtime modes
RUNTIME_MODES = ("inline", "eventloop")


def runtime_mode_from_env(env: Optional[Mapping[str, str]] = None) -> str:
    """Resolve the runtime mode from ``REPRO_RUNTIME`` (default inline)."""
    source = os.environ if env is None else env
    mode = source.get("REPRO_RUNTIME", "inline").strip().lower() or "inline"
    if mode not in RUNTIME_MODES:
        raise ValueError(
            f"REPRO_RUNTIME must be one of {RUNTIME_MODES}, got {mode!r}"
        )
    return mode
