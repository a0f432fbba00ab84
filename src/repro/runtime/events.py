"""Typed control-plane events and their in-flight submission records.

Every mutating facet entry point has an event class here whose
``apply(controller)`` runs the module-level ``_apply_*`` body of
:mod:`repro.core.facets` — pipelined and auto-drained submissions
differ only in *when* that body runs, never in what it does, which is
the heart of the byte-identical determinism argument.

A :class:`Submission` is the caller-visible handle: enqueue time (for
the ``sdx_update_install_seconds`` latency histogram), completion flag,
result or error, and the admission-retry count.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = [
    "ChainDefineEvent",
    "ChainRemoveEvent",
    "CompileEvent",
    "OriginateEvent",
    "PolicyEvent",
    "ReleaseQuarantineEvent",
    "Submission",
    "UpdateEvent",
    "WithdrawOriginationEvent",
]


def _facets():
    # Imported lazily: repro.core.controller imports repro.runtime at
    # module level, so a module-level facets import here would close an
    # import cycle through the repro.core package __init__.
    from repro.core import facets

    return facets


class Submission:
    """One enqueued control-plane event and its eventual outcome."""

    __slots__ = (
        "event",
        "enqueued_at",
        "done",
        "result",
        "error",
        "completed_at",
        "retries",
    )

    def __init__(self, event, enqueued_at: float) -> None:
        self.event = event
        self.enqueued_at = enqueued_at
        self.done = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.completed_at: Optional[float] = None
        self.retries = 0

    def __repr__(self) -> str:
        state = "done" if self.done else "pending"
        if self.error is not None:
            state = f"failed:{type(self.error).__name__}"
        return f"Submission({self.event!r}, {state})"


class _Event:
    """Base: kind label + repr; subclasses provide ``apply``."""

    kind = "event"
    #: the submission's result should be the compile job's CommitReport
    returns_report = False

    def apply(self, controller):  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class UpdateEvent(_Event):
    """A BGP UPDATE from a participant (``routing.process_update``)."""

    kind = "update"

    def __init__(self, update) -> None:
        self.update = update

    def apply(self, controller):
        return _facets()._apply_process_update(controller, self.update)

    def __repr__(self) -> str:
        return f"UpdateEvent({self.update!r})"


class PolicyEvent(_Event):
    """A policy-set install/replace/clear (``policy.set_policies``)."""

    kind = "policy"

    def __init__(self, name, policy_set, recompile: bool = True) -> None:
        self.name = name
        self.policy_set = policy_set
        self.recompile = recompile

    def apply(self, controller):
        return _facets()._apply_set_policies(
            controller, self.name, self.policy_set, recompile=self.recompile
        )

    def __repr__(self) -> str:
        return f"PolicyEvent({self.name!r}, recompile={self.recompile})"


class OriginateEvent(_Event):
    """SDX route origination (``routing.originate``)."""

    kind = "originate"

    def __init__(self, name, prefix) -> None:
        self.name = name
        self.prefix = prefix

    def apply(self, controller):
        return _facets()._apply_originate(controller, self.name, self.prefix)


class WithdrawOriginationEvent(_Event):
    """Withdraw a previously originated prefix."""

    kind = "originate"

    def __init__(self, name, prefix) -> None:
        self.name = name
        self.prefix = prefix

    def apply(self, controller):
        return _facets()._apply_withdraw_origination(
            controller, self.name, self.prefix
        )


class ChainDefineEvent(_Event):
    """Service-chain registration (``policy.define_chain``)."""

    kind = "chain"

    def __init__(self, chain, recompile: bool = False) -> None:
        self.chain = chain
        self.recompile = recompile

    def apply(self, controller):
        return _facets()._apply_define_chain(
            controller, self.chain, recompile=self.recompile
        )


class ChainRemoveEvent(_Event):
    """Service-chain removal (``policy.remove_chain``)."""

    kind = "chain"

    def __init__(self, name, recompile: bool = False) -> None:
        self.name = name
        self.recompile = recompile

    def apply(self, controller):
        return _facets()._apply_remove_chain(
            controller, self.name, recompile=self.recompile
        )


class ReleaseQuarantineEvent(_Event):
    """Operator re-admission of a quarantined participant."""

    kind = "ops"

    def __init__(self, name, recompile: bool = True) -> None:
        self.name = name
        self.recompile = recompile

    def apply(self, controller):
        return _facets()._apply_release_quarantine(
            controller, self.name, recompile=self.recompile
        )


class CompileEvent(_Event):
    """An explicit full compilation (``controller.compile()``).

    ``apply`` only *requests* the compile job — the runtime's compile
    and commit tasks do the work — and the submission's result is the
    job's :class:`~repro.dataplane.reconcile.CommitReport`.  A
    ``background`` job (``run_background_recompilation``) re-commits
    the last result instead when nothing is dirty by the time the
    compile task reaches it.
    """

    kind = "compile"
    returns_report = True

    def __init__(self, background: bool = False) -> None:
        self.background = background

    def apply(self, controller):
        controller.runtime.request_compile(background=self.background)
        return None

    def __repr__(self) -> str:
        return f"CompileEvent(background={self.background})"
