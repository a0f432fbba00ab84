"""Determinism properties: same seed → byte-identical workloads.

Two layers of the guarantee, each pinned separately:

* **repeat-run** — calling a generator or provider twice in one
  process yields byte-identical serialized documents;
* **cross-process / cross-PYTHONHASHSEED** — hash randomization must
  not leak into generated topologies, traces, or fixture ingestion
  (``IPv4Prefix.__hash__`` is salt-dependent, so any iteration over an
  un-sorted prefix set would break this).
"""

import hashlib
import os
import subprocess
import sys

import pytest

from repro.workloads.providers import SyntheticProvider, load_fixture
from repro.workloads.serialization import (
    dumps_topology,
    dumps_trace,
    loads_topology,
    loads_trace,
)
from repro.workloads.topology_gen import generate_ixp
from repro.workloads.update_gen import generate_update_trace

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")

#: Executed in a fresh interpreter per hash seed: digests of every
#: generator output whose byte-stability the suite guarantees.
_DIGEST_SCRIPT = """
import hashlib
from repro.workloads.providers import load_fixture
from repro.workloads.scenarios import ScenarioSpec, build_scenario_trace
from repro.workloads.serialization import dumps_topology, dumps_trace
from repro.workloads.topology_gen import generate_ixp
from repro.workloads.update_gen import generate_update_trace

def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()

ixp = generate_ixp(20, 120, seed=5)
print("ixp", digest(dumps_topology(ixp)))
trace = generate_update_trace(ixp, bursts=30, seed=6)
print("trace", digest(dumps_trace(trace)))
fixture = load_fixture("ixp_small").build()
print("fixture", digest(dumps_topology(fixture)))
spec = ScenarioSpec("d", "failover-storm", seed=7)
print("scenario", digest(dumps_trace(build_scenario_trace(fixture, spec))))
"""


class TestRepeatRunIdentity:
    def test_synthetic_topology(self):
        assert dumps_topology(generate_ixp(15, 90, seed=4)) == dumps_topology(
            generate_ixp(15, 90, seed=4)
        )

    def test_update_trace(self):
        ixp = generate_ixp(10, 60, seed=4)
        first = generate_update_trace(ixp, bursts=40, seed=9)
        second = generate_update_trace(ixp, bursts=40, seed=9)
        assert dumps_trace(first) == dumps_trace(second)

    def test_providers(self):
        for provider in (
            SyntheticProvider(12, 70, seed=2),
            load_fixture("ixp_small"),
        ):
            assert dumps_topology(provider.build()) == dumps_topology(
                provider.build()
            )

    def test_round_trip_is_stable(self):
        ixp = generate_ixp(10, 60, seed=4)
        text = dumps_topology(ixp)
        assert dumps_topology(loads_topology(text)) == text
        trace = generate_update_trace(ixp, bursts=20, seed=9)
        text = dumps_trace(trace)
        assert dumps_trace(loads_trace(text)) == text


class TestCrossProcessIdentity:
    def _digests(self, hash_seed):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = str(hash_seed)
        env["PYTHONPATH"] = _SRC
        output = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return dict(line.split() for line in output.splitlines())

    def test_hash_randomization_does_not_leak(self):
        first = self._digests(1)
        second = self._digests(20140817)
        assert first == second
        assert set(first) == {"ixp", "trace", "fixture", "scenario"}

