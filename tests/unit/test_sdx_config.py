"""SDXConfig: per-knob precedence (argument > env > default) and errors."""

from __future__ import annotations

import dataclasses

import pytest

from repro import IXPConfig, SDXConfig, SDXController
from repro.core.config import KNOBS, knob_table_markdown
from repro.guard import AdmissionConfig, GuardConfig
from repro.runtime import RuntimeConfig


def make_config() -> IXPConfig:
    config = IXPConfig(vnh_pool="172.16.0.0/16")
    config.add_participant("A", 65001, [("A1", "172.0.0.1", "08:00:27:00:00:01")])
    return config


# Every choice-valued knob: (field, env var, default, the other value).
CHOICE_KNOBS = [
    ("vmac_mode", "REPRO_VMAC", "fec", "superset"),
    ("dataplane_mode", "REPRO_DATAPLANE", "single", "multitable"),
]


@pytest.mark.parametrize("field,env,default,other", CHOICE_KNOBS)
class TestChoicePrecedence:
    def test_default_when_nothing_set(self, field, env, default, other):
        assert getattr(SDXConfig().resolved(env={}), field) == default

    def test_env_beats_default(self, field, env, default, other):
        assert getattr(SDXConfig().resolved(env={env: other}), field) == other

    def test_explicit_field_beats_env(self, field, env, default, other):
        config = SDXConfig(**{field: default})
        assert getattr(config.resolved(env={env: other}), field) == default

    def test_legacy_kwarg_beats_sdx_field(self, field, env, default, other):
        overlaid = SDXConfig(**{field: default}).overlay(**{field: other})
        assert getattr(overlaid, field) == other

    def test_unset_kwarg_keeps_sdx_field(self, field, env, default, other):
        overlaid = SDXConfig(**{field: other}).overlay(**{field: None})
        assert getattr(overlaid, field) == other

    def test_invalid_env_value_names_the_variable(self, field, env, default, other):
        with pytest.raises(ValueError) as excinfo:
            SDXConfig().resolved(env={env: "bogus"})
        message = str(excinfo.value)
        assert env in message and "bogus" in message
        assert default in message and other in message  # lists the choices

    def test_invalid_explicit_value_names_the_field(self, field, env, default, other):
        with pytest.raises(ValueError) as excinfo:
            SDXConfig(**{field: "bogus"})
        message = str(excinfo.value)
        assert field in message and "bogus" in message
        assert default in message and other in message


class TestFastPathPrecedence:
    def test_default_is_enabled(self):
        assert SDXConfig().resolved(env={}).fast_path_enabled is True

    @pytest.mark.parametrize("raw,expected", [
        ("0", False), ("false", False), ("no", False), ("off", False),
        ("1", True), ("true", True), ("YES", True), ("On", True),
    ])
    def test_env_parsing(self, raw, expected):
        resolved = SDXConfig().resolved(env={"REPRO_FASTPATH": raw})
        assert resolved.fast_path_enabled is expected

    def test_explicit_beats_env(self):
        resolved = SDXConfig(fast_path_enabled=True).resolved(
            env={"REPRO_FASTPATH": "0"}
        )
        assert resolved.fast_path_enabled is True

    def test_invalid_env_value_names_the_variable(self):
        with pytest.raises(ValueError, match="REPRO_FASTPATH"):
            SDXConfig().resolved(env={"REPRO_FASTPATH": "maybe"})

    def test_non_bool_explicit_value_rejected(self):
        with pytest.raises(ValueError, match="fast_path_enabled"):
            SDXConfig(fast_path_enabled="yes")


class TestObjectKnobs:
    @pytest.mark.parametrize("field,good", [
        ("runtime_config", RuntimeConfig()),
        ("guard", GuardConfig()),
        ("admission", AdmissionConfig()),
    ])
    def test_value_carried_through_resolution(self, field, good):
        assert getattr(SDXConfig(**{field: good}).resolved(env={}), field) is good

    @pytest.mark.parametrize("field", ["runtime_config", "guard", "admission"])
    def test_wrong_type_names_the_field(self, field):
        with pytest.raises(ValueError, match=field):
            SDXConfig(**{field: "bogus"})

    def test_overlay_rejects_unknown_fields(self):
        with pytest.raises(TypeError, match="probe_budget"):
            SDXConfig().overlay(probe_budget=8)


class TestResolutionMechanics:
    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SDXConfig().vmac_mode = "superset"

    def test_resolved_is_idempotent(self):
        once = SDXConfig().resolved(env={"REPRO_VMAC": "superset"})
        again = once.resolved(env={"REPRO_VMAC": "fec"})
        assert again.vmac_mode == "superset"
        assert again == once

    def test_from_env_snapshot(self):
        snapshot = SDXConfig.from_env({"REPRO_VMAC": "superset"})
        assert snapshot.vmac_mode == "superset"
        assert snapshot.runtime_mode == "eventloop"
        assert snapshot.dataplane_mode == "single"
        assert snapshot.fast_path_enabled is True

    def test_repr_shows_only_set_fields(self):
        assert repr(SDXConfig(vmac_mode="superset")) == (
            "SDXConfig(vmac_mode='superset')"
        )

    def test_env_defaults_come_from_the_registry(self):
        resolved = SDXConfig.from_env({})
        for knob in KNOBS:
            assert getattr(resolved, knob.field) == knob.default, knob.field

    def test_runtime_mode_has_one_value_and_no_env_form(self):
        assert SDXConfig().resolved(env={"REPRO_RUNTIME": "inline"}).runtime_mode == (
            "eventloop"
        )
        with pytest.raises(ValueError, match="expected one of eventloop"):
            SDXConfig(runtime_mode="inline")

    def test_registry_covers_every_field(self):
        fields = {field.name for field in dataclasses.fields(SDXConfig)}
        assert {knob.field for knob in KNOBS} == fields

    def test_knob_table_lists_every_knob(self):
        table = knob_table_markdown()
        for knob in KNOBS:
            assert f"`{knob.field}`" in table
            if knob.env is not None:
                assert f"`{knob.env}`" in table


class TestControllerPrecedence:
    """End-to-end: the controller resolves through the same path."""

    def test_env_reaches_the_controller(self, monkeypatch):
        monkeypatch.setenv("REPRO_VMAC", "superset")
        controller = SDXController(make_config())
        assert controller.vmac_mode == "superset"
        assert controller.sdx.vmac_mode == "superset"

    def test_sdx_config_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VMAC", "superset")
        controller = SDXController(make_config(), sdx=SDXConfig(vmac_mode="fec"))
        assert controller.vmac_mode == "fec"

    def test_legacy_kwarg_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DATAPLANE", "multitable")
        controller = SDXController(make_config(), dataplane_mode="single")
        assert controller.dataplane_mode == "single"

    def test_legacy_kwarg_beats_sdx_config(self):
        controller = SDXController(
            make_config(),
            vmac_mode="superset",
            sdx=SDXConfig(vmac_mode="fec"),
        )
        assert controller.vmac_mode == "superset"

    def test_guard_and_admission_flow_through_sdx(self):
        controller = SDXController(
            make_config(),
            sdx=SDXConfig(
                guard=GuardConfig(probe_budget=4),
                admission=AdmissionConfig(policy_edits_per_sec=1.0),
            ),
        )
        assert controller.guard is not None
        assert controller.admission is not None

    def test_invalid_env_fails_construction(self, monkeypatch):
        monkeypatch.setenv("REPRO_VMAC", "bogus")
        with pytest.raises(ValueError, match="REPRO_VMAC"):
            SDXController(make_config())
