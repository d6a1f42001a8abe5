"""rankrelax benchmark: one caller runs one workload as a closed loop.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

The caller starts each operation after the previous one returns. With
--trace 0 it runs units until S seconds have passed and reports the
end-to-end metrics; with --trace 1 it runs a fixed list of units, each
once untraced and once traced, and reports per-layer metrics from the
spans.
The last line of standard output is one JSON object with the metrics
BENCHMARK.json names; the full report, the environment and (when
traced) the spans are written under benchmarks/results/.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_ROUNDS = {"full": 9, "tiny": 2}
# standard percentiles tried for the tail, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def load_program():
    """Put the checkout's sources and test oracles first on the path."""
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "rankrelax" / "__init__.py").is_file() or not (tests / "oracles.py").is_file():
        raise SystemExit("run.py: no rankrelax sources and oracles under %s" % ROOT)
    sys.path[:0] = [str(src), str(tests), str(BENCH)]


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def timed_setups(wl, rounds):
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    return times


def run_unit(wl, Op, i):
    """One unit; an exception fails each of its operations and is printed."""
    try:
        return wl.unit(i)
    except Exception:
        traceback.print_exc()
        return [Op(None, False) for _ in range(wl.ops_per_unit)]


def run_timed(wl, Op, seconds):
    """Closed loop: the next unit starts when the previous one returns."""
    ops, i = [], 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        ops += run_unit(wl, Op, i)
        i += 1
    return ops, time.perf_counter() - t0


def run_traced(wl, Op, tracer):
    """Each unit of the fixed list runs untraced and traced, in alternating
    order, so machine drift does not read as tracing overhead."""
    with tracer.installed(), tracer.op("setup", name="setup"):
        wl.setup()
    ops, traced, wall = [], [], {False: 0.0, True: 0.0}
    for i in range(wl.trace_units):
        for on in (False, True) if i % 2 == 0 else (True, False):
            t0 = time.perf_counter()
            if on:
                with tracer.installed(), tracer.op(i):
                    traced += run_unit(wl, Op, i)
            else:
                ops += run_unit(wl, Op, i)
            wall[on] += time.perf_counter() - t0
    return ops, traced, wall[False], wall[True]


def tail(ms):
    """Highest standard percentile with at least 10 samples beyond it."""
    for p in TAIL_PERCENTILES:
        if len(ms) * (1.0 - p / 100.0) >= 10:
            return p, float(np.percentile(ms, p))
    return None, None


def end_to_end(ops, elapsed, setup_times, peak_rss_mb):
    """Every end-to-end metric as (value, unit); value None where undefined."""
    ms = [o.ms for o in ops if o.ms is not None]
    solves = [o for o in ops if o.iters is not None]
    iters = sum(o.iters for o in solves)
    dists = [o.dist for o in solves if o.dist is not None]
    p, tail_ms = tail(ms)
    r = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(ms) / elapsed, "1/s"),
        "op_ms_p50": (statistics.median(ms) if ms else None, "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "admm_ms_per_iter": (sum(o.ms for o in solves) / iters if iters else None, "ms"),
        "iters_per_solve": (iters / len(solves) if solves else None, "count"),
        "converged_frac": (statistics.fmean(o.converged for o in solves) if solves else None, "1"),
        "mean_norm_dist": (statistics.fmean(dists) if dists else None, "1"),
        "failed_frac": (sum(not o.ok for o in ops) / len(ops), "1"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {"op_ms_tail": "p%g of %d ops" % (p, len(ms)) if p else "fewer than 40 ops"}
    return r, notes


def per_layer(tracer, ops, wall_untraced, wall_traced):
    layers = tracer.layers()

    def calls(name):
        return layers[name][0] if name in layers else 0

    def self_ms(name):
        return layers[name][1] * 1e3 if name in layers else 0.0

    spectra = calls("proximal.prox_spectrum") + calls("envelope.maximizing_spectrum")
    r = {
        "linalg.svd.in_prox.calls": (calls("linalg.svd.in_prox"), "count"),
        "linalg.svd.in_prox.self_ms": (self_ms("linalg.svd.in_prox"), "ms"),
        "linalg.svd.in_objective.calls": (calls("linalg.svd.in_objective"), "count"),
        "linalg.svd.in_objective.self_ms": (self_ms("linalg.svd.in_objective"), "ms"),
        "linalg.compose.self_ms": (self_ms("linalg.compose"), "ms"),
        "proximal.prox_spectrum.calls": (calls("proximal.prox_spectrum"), "count"),
        "proximal.prox_spectrum.self_ms": (self_ms("proximal.prox_spectrum"), "ms"),
        "envelope.maximizing_spectrum.calls": (calls("envelope.maximizing_spectrum"), "count"),
        "envelope.maximizing_spectrum.self_ms": (self_ms("envelope.maximizing_spectrum"), "ms"),
        "blockmax.piece_argmax.calls": (calls("blockmax.piece_argmax"), "count"),
        "blockmax.resolves_per_spectrum": (
            calls("blockmax.piece_argmax") / spectra if spectra else 0.0, "count"),
        "solver.solve_objective.self_ms": (self_ms("solver.solve_objective"), "ms"),
        "solver.data_update.self_ms": (self_ms("solver.data_update"), "ms"),
        "solver.admm_complete.self_ms": (self_ms("solver.admm_complete"), "ms"),
        "solver.iterations": (sum(o.iters for o in ops if o.iters is not None), "count"),
        "bench.gen_instance.self_ms": (self_ms("bench.gen_instance"), "ms"),
        "bench.mask.self_ms": (self_ms("bench.mask"), "ms"),
        "bench.instance_weights.self_ms": (self_ms("bench.instance_weights"), "ms"),
        "bench.run_sweep.self_ms": (self_ms("bench.run_sweep"), "ms"),
        "trace.overhead_pct": (100.0 * (wall_traced - wall_untraced) / wall_untraced, "%"),
    }
    # shares of the traced units' time, for checking the stated predictions
    op_ms = layers["op"][2] * 1e3
    linalg = sum(self_ms(n) for n in ("linalg.svd.in_prox", "linalg.svd.in_objective", "linalg.compose"))
    pav = sum(self_ms(n) for n in (
        "proximal.prox_spectrum", "envelope.maximizing_spectrum", "blockmax.piece_argmax"))
    objective = layers["solver.solve_objective"][2] * 1e3 if "solver.solve_objective" in layers else 0.0
    shares = {
        "linalg_pct": 100.0 * linalg / op_ms,
        "pav_pct": 100.0 * pav / op_ms,
        "solve_objective_incl_pct": 100.0 * objective / op_ms,
        "layers": {n: {"calls": c, "self_ms": s * 1e3, "incl_ms": t * 1e3}
                   for n, (c, s, t) in sorted(layers.items())},
    }
    return r, shares


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs, for the benchmark's smoke test")
    args = ap.parse_args(argv)
    load_program()
    from tracing import Tracer
    from workloads import WORKLOADS, Op

    named = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        raise SystemExit("run.py: unknown workload %r" % args.workload)
    wl = WORKLOADS[args.workload](args.seed, args.scale)
    env = environment()
    RESULTS.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)

    setup_times = timed_setups(wl, SETUP_ROUNDS[args.scale])
    extra = {}
    if args.trace:
        tracer = Tracer()
        try:
            ops, traced, wall_u, wall_t = run_traced(wl, Op, tracer)
        finally:
            tracer.write(RESULTS / ("spans-%s.json" % stem), workload=args.workload, seed=args.seed)
        report, extra["shares"] = per_layer(tracer, traced, wall_u, wall_t)
        ops += traced + wl.oracle_ops()
        section = "per_layer"
    else:
        ops, elapsed = run_timed(wl, Op, args.seconds)
        # read before the untimed oracle checks, whose grids are large
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ops += wl.oracle_ops()
        report, extra["notes"] = end_to_end(ops, elapsed, setup_times, peak_rss_mb)
        section = "end_to_end"
    failed = sum(not o.ok for o in ops)

    print("%s seed %d: %d ops by one closed-loop caller" % (args.workload, args.seed, len(ops)))
    print("environment: " + json.dumps(env))
    for name, val in report.items():
        print("  %-40s %s" % (name, "n/a" if val[0] is None else "%.6g %s" % val))
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "environment": env,
        "setup_rounds_s": setup_times, "attempted": len(ops), "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in report.items()},
        **extra,
    }
    (RESULTS / ("%s.json" % stem)).write_text(json.dumps(full, indent=1))
    metrics = {m["name"]: {"value": report[m["name"]][0], "unit": report[m["name"]][1]}
               for m in named[section]}
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
