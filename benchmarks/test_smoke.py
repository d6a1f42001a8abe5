"""Smoke test of the benchmark itself, at tiny input sizes.

Every workload, untraced and traced, must print a final JSON line with
every metric BENCHMARK.json names, in its unit, with all output checks
passing; the full report must carry every end-to-end metric the
benchmark documents. `hardrank_spectra` is not in BENCHMARK.json (see
README.md) but runs the same way. Run from the repository root:

    python3 -m pytest benchmarks/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "benchmarks" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("study_uniform", "wide_tracking", "hardrank_spectra")
REPORTED = {
    "setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
    "admm_ms_per_iter": "ms", "iters_per_solve": "count", "converged_frac": "1",
    "mean_norm_dist": "1", "failed_frac": "1", "peak_rss_mb": "MB",
}


def run(cwd, workload, trace, run_py=RUN):
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_every_named_metric(workload, trace):
    out = run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in named
    }
    assert all(isinstance(m["value"], (int, float)) for m in last["metrics"].values())

    stem = "%s-seed3-trace%d" % (workload, trace)
    report = json.loads((ROOT / "benchmarks" / "results" / ("%s.json" % stem)).read_text())
    assert report["environment"]["nproc"] >= 1
    if trace:
        spans = json.loads((ROOT / "benchmarks" / "results" / ("spans-%s.json" % stem)).read_text())
        ops = {s[4] for s in spans["spans"]}
        assert ops == {"setup"} | set(range(len(ops) - 1))
    else:
        assert {n: m["unit"] for n, m in report["metrics"].items()} == REPORTED


def test_gated_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = run(tmp_path, "hardrank_spectra", 0, tmp_path / "benchmarks" / "run.py")
    assert out.returncode != 0
    assert "correct" not in out.stdout
