"""tools/bench_pairs.py, run end to end at tiny scale with the repository
as both sides, with one traced run per side."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_two_alternating_pairs(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), "--parent", str(ROOT),
         "--change", str(ROOT), "--workload", "wide_tracking", "--seeds", "1-2",
         "--seconds", "0.3", "--scale", "tiny", "--trace", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert set(report["environment"]) >= {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}
    entry = report["workloads"]["wide_tracking"]
    pairs = entry["pairs"]
    assert [p["seed"] for p in pairs] == [1, 2]
    assert [p["order"] for p in pairs] == [["parent", "change"], ["change", "parent"]]
    for pair in pairs:
        for side in ("parent", "change"):
            assert pair[side]["correct"] and pair[side]["failed"] == 0
            assert pair[side]["attempted"] >= 1
    assert entry["failed_share"] == {"parent": 0.0, "change": 0.0}
    assert "failed share: parent 0.0, change 0.0\n" in proc.stdout
    named = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in named["end_to_end"]]
    assert list(entry["summary"]) == names
    for name in names:
        s = entry["summary"][name]
        assert s["pairs"] == 2 and 0 <= s["change_wins"] <= 2
        assert s["parent"]["q1"] <= s["parent"]["median"] <= s["parent"]["q3"]
        assert name in proc.stdout
    traced = entry["trace"]
    assert traced["seed"] == 1
    layers = [m["name"] for m in named["per_layer"]]
    for side in ("parent", "change"):
        assert traced[side]["correct"] and traced[side]["failed"] == 0
        assert list(traced[side]["metrics"]) == layers
    iterations = [traced[side]["metrics"]["solver.iterations"] for side in ("parent", "change")]
    assert iterations[0] == iterations[1] > 0
    table = proc.stdout.split("per-layer, one --trace 1 run per side at seed 1\n", 1)[1]
    for name in layers:
        assert "\n" + name + " " in table
