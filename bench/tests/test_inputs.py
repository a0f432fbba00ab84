"""Input pinning: checked-in census files, valid traces, hash-seed-stable digests."""

import json
import os
import subprocess
import sys

import derive
from conftest import BENCH_DIR, ROOT

from repro.workloads.update_gen import validate_trace
from workloads import BURST_TAIL_MAX, WORKLOADS, build_inputs

#: a tenth of the calibrated size: same generators, same shapes, quick
SMALL = [workload.scaled(2) for workload in WORKLOADS]


def test_checked_in_census_files_match_derive():
    for divisor in derive.DIVISORS:
        with open(derive.census_path(divisor), encoding="utf-8") as handle:
            assert handle.read() == derive.derive(divisor), divisor


def test_contract_names_the_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    assert [(w["name"], w["why"]) for w in contract["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]
    assert contract["paths"] == ["bench"]


def test_generated_traces_are_valid_and_keep_table_1_shape():
    for workload in SMALL:
        inputs = build_inputs(workload, seed=3)
        updates = [update for burst in inputs.bursts for update in burst]
        validate_trace(inputs.ixp, updates)  # build_inputs did; pinned here
        assert len(inputs.bursts) == workload.bursts
        assert len(inputs.edits) == workload.edits
        # A prefix costs at most two updates; the ingress queue holds 1024.
        assert max(len(burst) for burst in inputs.bursts) <= 2 * BURST_TAIL_MAX < 1024
        small = sum(1 for burst in inputs.bursts if len(burst) <= 6)
        assert small >= 0.7 * len(inputs.bursts)


_DIGEST_SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
from workloads import WORKLOADS, build_inputs
out = {{}}
for workload in WORKLOADS:
    inputs = build_inputs(workload.scaled(2), seed=3)
    out[workload.name] = [
        inputs.digests,
        len(inputs.bursts),
        sum(len(burst) for burst in inputs.bursts),
        [name for name, _ in inputs.edits],
    ]
print(json.dumps(out, sort_keys=True))
"""


def test_digests_and_counts_do_not_depend_on_the_hash_seed():
    script = _DIGEST_SCRIPT.format(src=os.path.join(ROOT, "src"), bench=BENCH_DIR)
    outputs = set()
    for hash_seed in ("0", "1", "4242"):
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            stdout=subprocess.PIPE,
            text=True,
            check=True,
        )
        outputs.add(completed.stdout)
    assert len(outputs) == 1
    assert set(json.loads(outputs.pop())) == {workload.name for workload in WORKLOADS}
