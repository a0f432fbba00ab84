"""``SDXConfig`` — the one place controller knobs are resolved.

The controller grew one keyword argument and one ``REPRO_*`` variable
per PR until the facade had twelve kwargs and five environment knobs
resolved ad hoc across four modules.  :class:`SDXConfig` consolidates
them: a frozen dataclass holding every tunable the controller accepts,
with a single resolution rule applied uniformly to every field —

    **explicit argument > environment variable > built-in default.**

``None`` in a field means *unset*; :meth:`SDXConfig.resolved` replaces
every unset field with its environment selection (when the knob has
one) or its default, validating as it goes.  :meth:`SDXConfig.from_env`
is the fully-resolved environment snapshot.

Primary construction form::

    controller = SDXController(config, sdx=SDXConfig(vmac_mode="superset"))

The legacy per-knob keyword arguments on :class:`SDXController` are
thin shims that overlay onto the ``sdx`` value, so existing call sites
keep working unchanged and obey the same precedence.

The :data:`KNOBS` table is the machine-readable registry behind both
the resolution and the README knob table — ``python -m
repro.core.config`` regenerates the markdown.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Mapping, NamedTuple, Optional, Tuple

from repro.core.supersets import VMAC_MODES
from repro.dataplane.flowtable import DATAPLANE_MODES
from repro.guard import AdmissionConfig, GuardConfig
from repro.runtime import RuntimeConfig

__all__ = ["KNOBS", "Knob", "SDXConfig", "knob_table_markdown"]

_TRUTHY = ("1", "true", "yes", "on")
_FALSY = ("0", "false", "no", "off")


class Knob(NamedTuple):
    """One controller tunable: its field, env var, default, and doc."""

    field: str
    env: Optional[str]  # None: constructor-only (no environment form)
    default: Any
    values: str  # rendered value set, default first (for the README table)
    doc: str


#: Every controller knob, in README-table order.  ``resolved`` walks
#: this registry; the markdown generator renders it.
KNOBS: Tuple[Knob, ...] = (
    Knob(
        "vmac_mode",
        "REPRO_VMAC",
        "fec",
        "`fec`, `superset`",
        "VMAC encoding: opaque per-FEC addresses matched exactly, or the "
        "§5.3 attribute-carrying superset layout matched with masks "
        '(see "VMAC encoding modes" in `docs/internals.md`)',
    ),
    Knob(
        "dataplane_mode",
        "REPRO_DATAPLANE",
        "single",
        "`single`, `multitable`",
        "Fabric layout: both pipeline stages composed into one flow "
        "table, or stage-1 rules in table 0 chaining (`goto`) to "
        "delivery rules in table 1",
    ),
    Knob(
        "runtime_mode",
        None,
        "eventloop",
        "`eventloop`",
        "Control-plane execution: the one value is the deterministic "
        "cooperative event loop every controller runs (see "
        '"Control-plane runtime" in `docs/internals.md`); kept only so '
        "existing callers passing it keep working",
    ),
    Knob(
        "fast_path_enabled",
        "REPRO_FASTPATH",
        True,
        "`1`, `0`",
        "The §4.3.2 incremental fast path reacting to BGP best-path "
        "changes between full compilations",
    ),
    Knob(
        "runtime_config",
        None,
        None,
        "`RuntimeConfig(...)`",
        "Event-loop runtime tuning (queue capacity, burst coalescing, "
        "deferred guard, admission retry); `None` keeps the defaults",
    ),
    Knob(
        "guard",
        None,
        None,
        "`GuardConfig(...)`",
        "Guarded commits: budgeted per-commit differential verification "
        "with byte-exact rollback; `None` commits unguarded",
    ),
    Knob(
        "admission",
        None,
        None,
        "`AdmissionConfig(...)`",
        "Per-participant admission plane (rate limits, rule budgets, "
        "escalating backoff); `None` admits everything",
    ),
)

_KNOBS_BY_FIELD = {knob.field: knob for knob in KNOBS}
#: the value sets of the string-valued knobs
_CHOICES = {
    "vmac_mode": VMAC_MODES,
    "dataplane_mode": DATAPLANE_MODES,
    "runtime_mode": ("eventloop",),
}


def _parse_choice(knob: Knob, raw: str) -> str:
    mode = raw.strip().lower() or str(knob.default)
    choices = _CHOICES[knob.field]
    if mode not in choices:
        raise ValueError(
            f"{knob.env}={raw!r}: expected one of {', '.join(choices)}"
        )
    return mode


def _parse_bool(knob: Knob, raw: str) -> bool:
    value = raw.strip().lower()
    if not value:
        return bool(knob.default)
    if value in _TRUTHY:
        return True
    if value in _FALSY:
        return False
    raise ValueError(
        f"{knob.env}={raw!r}: expected one of "
        f"{', '.join(_TRUTHY)} / {', '.join(_FALSY)}"
    )


@dataclasses.dataclass(frozen=True)
class SDXConfig:
    """Every :class:`~repro.core.controller.SDXController` tunable.

    Fields left ``None`` (the dataclass default) are *unset* and fall
    through to the environment and then the built-in default at
    :meth:`resolved` time; a field given explicitly always wins.  The
    instance is frozen, so a resolved config can be shared across the
    many controllers of a :class:`~repro.federation.FederatedExchange`
    without one exchange's knobs drifting from another's.
    """

    #: ``fec`` or ``superset`` (``REPRO_VMAC``)
    vmac_mode: Optional[str] = None
    #: ``single`` or ``multitable`` (``REPRO_DATAPLANE``)
    dataplane_mode: Optional[str] = None
    #: ``eventloop``, the only control-plane runtime (no environment
    #: form); removable once no caller passes it
    runtime_mode: Optional[str] = None
    #: event-loop runtime tuning (``None`` = the defaults)
    runtime_config: Optional[RuntimeConfig] = None
    #: guarded-commit configuration (``None`` = unguarded)
    guard: Optional[GuardConfig] = None
    #: admission-plane configuration (``None`` = unmetered)
    admission: Optional[AdmissionConfig] = None
    #: the §4.3.2 incremental fast path (``REPRO_FASTPATH``)
    fast_path_enabled: Optional[bool] = None

    def __post_init__(self) -> None:
        # Validate explicit values eagerly so a typo fails at the call
        # site that made it, not at some later resolution.
        for field, choices in _CHOICES.items():
            value = getattr(self, field)
            if value is not None and value not in choices:
                raise ValueError(
                    f"{field}={value!r}: expected one of {', '.join(choices)}"
                )
        if self.runtime_config is not None and not isinstance(
            self.runtime_config, RuntimeConfig
        ):
            raise ValueError(
                f"runtime_config={self.runtime_config!r}: expected a "
                "RuntimeConfig or None"
            )
        if self.guard is not None and not isinstance(self.guard, GuardConfig):
            raise ValueError(
                f"guard={self.guard!r}: expected a GuardConfig or None"
            )
        if self.admission is not None and not isinstance(
            self.admission, AdmissionConfig
        ):
            raise ValueError(
                f"admission={self.admission!r}: expected an AdmissionConfig or None"
            )
        if self.fast_path_enabled is not None and not isinstance(
            self.fast_path_enabled, bool
        ):
            raise ValueError(
                f"fast_path_enabled={self.fast_path_enabled!r}: expected a bool"
            )

    # -- resolution ----------------------------------------------------------

    @classmethod
    def from_env(cls, env: Optional[Mapping[str, str]] = None) -> "SDXConfig":
        """The fully-resolved environment snapshot (every knob set)."""
        return cls().resolved(env)

    def overlay(self, **overrides: Any) -> "SDXConfig":
        """A copy with the given (non-``None``) fields replaced.

        This is the legacy-kwarg shim: ``SDXController(vmac_mode=...)``
        overlays onto whatever ``sdx`` config was passed, keeping the
        explicit-argument precedence uniform between the two forms.
        """
        changed = {
            field: value for field, value in overrides.items() if value is not None
        }
        unknown = set(changed) - set(_KNOBS_BY_FIELD)
        if unknown:
            raise TypeError(f"unknown SDXConfig field(s): {sorted(unknown)}")
        return dataclasses.replace(self, **changed) if changed else self

    def resolved(self, env: Optional[Mapping[str, str]] = None) -> "SDXConfig":
        """Fill every unset field from the environment, then defaults.

        The returned config has no ``None`` left in the mode fields,
        and every environment value is validated with the knob's name
        in the error message.  Defaults come from
        :data:`KNOBS`.  Idempotent.
        """
        source = os.environ if env is None else env
        filled = {}
        for knob in KNOBS:
            if getattr(self, knob.field) is not None:
                continue
            raw = None if knob.env is None else source.get(knob.env)
            if raw is None:
                filled[knob.field] = knob.default
            elif knob.field in _CHOICES:
                filled[knob.field] = _parse_choice(knob, raw)
            else:
                filled[knob.field] = _parse_bool(knob, raw)
        return dataclasses.replace(self, **filled)

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{field.name}={getattr(self, field.name)!r}"
            for field in dataclasses.fields(self)
            if getattr(self, field.name) is not None
        )
        return f"SDXConfig({shown})"


# -- README knob-table generation ---------------------------------------------


def knob_table_markdown() -> str:
    """The README knob table, rendered from :data:`KNOBS`.

    ``python -m repro.core.config`` prints this; the README section is
    pasted from the output so the docs cannot drift from the registry.
    """
    lines = [
        "| Knob | `SDXConfig` field | Values (default first) | Selects |",
        "| --- | --- | --- | --- |",
    ]
    for knob in KNOBS:
        env = f"`{knob.env}`" if knob.env is not None else "—"
        lines.append(
            f"| {env} | `{knob.field}` | {knob.values} | {knob.doc} |"
        )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - doc generator entry point
    print(knob_table_markdown())
