"""compare.py verdicts and exit status."""

import json

import compare

CONTRACT = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.10},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.10},
    ],
}


def results(latencies, rates, failed=0):
    return {
        "seed": 1,
        "workloads": {
            "w": [
                {
                    "end_to_end": {
                        "latency_ms": {"value": latency, "unit": "ms"},
                        "rate": {"value": rate, "unit": "1/s"},
                    },
                    "attempted": 100,
                    "failed": failed,
                    "counts": {},
                }
                for latency, rate in zip(latencies, rates)
            ]
        },
    }


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [x * 1.02 for x in steady], "lower", 0.10)[0] == "within"
    assert compare.verdict(steady, [x * 1.20 for x in steady], "lower", 0.10)[0] == "worse"
    assert compare.verdict(steady, [x * 0.80 for x in steady], "lower", 0.10)[0] == "better"
    assert compare.verdict(steady, [x * 0.80 for x in steady], "higher", 0.10)[0] == "worse"
    noisy = [80.0, 100.0, 120.0, 90.0, 110.0]
    assert compare.verdict(noisy, [x * 1.05 for x in noisy], "lower", 0.10)[0] == "unresolved"
    assert compare.verdict(noisy, [x * 0.5 for x in noisy], "lower", 0.10)[0] == "better"
    assert compare.verdict(noisy, [x * 2.0 for x in noisy], "lower", 0.10)[0] == "worse"
    assert compare.verdict([100.0], [100.0], "lower", 0.0)[0] == "within"
    assert compare.verdict([100.0], [90.0], "lower", 0.10)[0] == "within"  # one run proves no gain
    assert compare.verdict([100.0], [120.0], "lower", 0.10)[0] == "worse"


def test_report_passes_and_fails():
    parent = results([100.0, 101.0, 99.0], [50.0, 50.5, 49.5])
    same, ok = compare.compare(CONTRACT, parent, parent)
    assert ok and all("worse" not in line.split("verdict")[-1] for line in same[2:])
    slower = results([100.0, 101.0, 99.0], [40.0, 40.5, 39.5])
    lines, ok = compare.compare(CONTRACT, parent, slower)
    assert not ok and any("rate" in line and "worse" in line for line in lines)
    failing = results([100.0, 101.0, 99.0], [50.0, 50.5, 49.5], failed=1)
    lines, ok = compare.compare(CONTRACT, parent, failing)
    assert not ok and any("failed_ops_share" in line and "worse" in line for line in lines)


def test_main_exit_status(tmp_path):
    parent = tmp_path / "a.json"
    change = tmp_path / "b.json"
    full = json.load(open(compare.os.path.join(compare.ROOT, "BENCHMARK.json")))
    run = {
        "end_to_end": {m["name"]: {"value": 10.0, "unit": m["unit"]} for m in full["end_to_end"]},
        "attempted": 10,
        "failed": 0,
        "counts": {},
    }
    worse = json.loads(json.dumps(run))
    worse["end_to_end"]["cold_start_s"]["value"] = 20.0
    names = [w["name"] for w in full["workloads"]]
    parent.write_text(json.dumps({"seed": 1, "workloads": {n: [run] for n in names}}))
    change.write_text(json.dumps({"seed": 1, "workloads": {n: [worse] for n in names}}))
    assert compare.main([str(parent), str(parent)]) == 0
    assert compare.main([str(parent), str(change)]) == 1
    assert compare.main([str(parent)]) == 2
