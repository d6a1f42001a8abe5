"""A/B comparison of two checkouts on one benchmark workload.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W \
        --seeds A-B --seconds S [--scale full|tiny] [--out FILE]

Runs each checkout's own benchmarks/run.py, one run per side for each
seed, alternately: the first pair runs the parent first, and the order
flips on every pair, so machine drift does not favour one side. Each run
is a fresh process. Prints, per end-to-end metric that BENCHMARK.json
names, each side's median and quartiles and how many pairs the change
won (ties count for neither), plus each run's `correct` and `failed`.

A gain holds, by the benchmark's rule, when the change wins at least
nine tenths of the pairs and the medians differ by more than the
parent's interquartile range; a metric is flagged when the change's
median is worse than the parent's by more than its BENCHMARK.json
bound.

The report, with the environment and the BLAS thread variables, is
written to FILE (default BENCH.json at the repository root). Each
workload has its own entry, so runs of several workloads collect in one
file. Standard library only.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def seed_range(text):
    lo, _, hi = text.partition("-")
    lo, hi = int(lo), int(hi or lo)
    if hi < lo:
        raise argparse.ArgumentTypeError("empty seed range %r" % text)
    return list(range(lo, hi + 1))


def run_side(checkout, args, seed):
    """One benchmark run; its last stdout line is run.py's JSON summary."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--scale", args.scale]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line.split(": ", 1)[1]) for line in lines
                if line.startswith("environment: ")), None)
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        summary = {"correct": False, "failed": None, "metrics": {}}
    return {
        "seed": seed,
        "exit": proc.returncode,
        "correct": summary["correct"] and proc.returncode == 0,
        "failed": summary["failed"],
        "metrics": {name: m["value"] for name, m in summary["metrics"].items()},
        "stderr_tail": proc.stderr.strip().splitlines()[-3:] if proc.returncode else [],
    }, env


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(pairs, metric):
    """Medians, quartiles and change wins of one metric over the pairs."""
    name, lower = metric["name"], metric["better"] == "lower"
    both = [(p["parent"]["metrics"].get(name), p["change"]["metrics"].get(name)) for p in pairs]
    both = [(a, b) for a, b in both if a is not None and b is not None]
    if not both:
        return {"pairs": 0}
    parent, change = [a for a, _ in both], [b for _, b in both]
    pq, cq = quartiles(parent), quartiles(change)
    wins = sum((b < a) if lower else (b > a) for a, b in both)
    worse = (cq[1] - pq[1]) if lower else (pq[1] - cq[1])
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "pairs": len(both),
        "parent": {"median": pq[1], "q1": pq[0], "q3": pq[2]},
        "change": {"median": cq[1], "q1": cq[0], "q3": cq[2]},
        "ratio": cq[1] / pq[1] if pq[1] else None,
        "change_wins": wins,
        "gain": wins >= 0.9 * len(both) and -worse > pq[2] - pq[0],
        "worse_than_bound": worse > metric["bound"] * abs(pq[1]),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, required=True, help="A-B, inclusive")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH.json")
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for checkout in sides.values():
        if not (checkout / "benchmarks" / "run.py").is_file():
            raise SystemExit("bench_pairs.py: no benchmarks/run.py under %s" % checkout)
    metrics = json.loads((sides["parent"] / "BENCHMARK.json").read_text())["end_to_end"]

    pairs, env = [], None
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "order": list(order)}
        for side in order:
            pair[side], run_env = run_side(sides[side], args, seed)
            env = run_env or env
            r = pair[side]
            print("pair %d seed %d %-6s correct=%s failed=%s %s" % (
                i + 1, seed, side, r["correct"], r["failed"],
                " ".join("%s=%.6g" % (n, v) for n, v in r["metrics"].items() if v is not None)),
                flush=True)
        pairs.append(pair)

    summary = {m["name"]: compare(pairs, m) for m in metrics}
    print("%-12s %29s %29s %6s %5s" % ("metric", "parent median [q1, q3]",
                                       "change median [q1, q3]", "ratio", "wins"))
    for name, c in summary.items():
        if not c["pairs"]:
            print("%-12s n/a" % name)
            continue
        p, ch = c["parent"], c["change"]
        print("%-12s %10.5g [%7.5g, %7.5g] %10.5g [%7.5g, %7.5g] %6.3f %2d/%-2d%s%s" % (
            name, p["median"], p["q1"], p["q3"], ch["median"], ch["q1"], ch["q3"],
            c["ratio"] or float("nan"), c["change_wins"], c["pairs"],
            "  gain" if c["gain"] else "", "  WORSE THAN BOUND" if c["worse_than_bound"] else ""))

    report = json.loads(args.out.read_text()) if args.out.is_file() else {}
    report["environment"] = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "benchmark": env,
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }
    report.setdefault("workloads", {})[args.workload] = {
        "seeds": args.seeds, "seconds": args.seconds, "scale": args.scale,
        "sides": {side: path.name for side, path in sides.items()},
        "summary": summary, "pairs": pairs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
