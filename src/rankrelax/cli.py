"""Command-line front end: synth, complete, sweep, prox subcommands.

Matrices travel as headerless CSV (one row per line); values are
printed with 17 significant digits so save/load round-trips are exact.
Exit codes: 0 success, 1 usage error, 2 numeric or I/O failure.
"""

import argparse
import sys

import numpy as np

from .bench import (
    ExperimentSpec,
    gen_instance,
    instance_weights,
    run_sweep,
    write_results_csv,
)
from .penalty import preset
from .proximal import prox_Rh
from .solver import AdmmConfig, MaskedObservations, admm_complete

__all__ = ["run", "main", "load_matrix", "save_matrix"]


def load_matrix(path):
    """Read a headerless CSV matrix; ragged or non-numeric input raises."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise ValueError("%s:%d: non-numeric token" % (path, lineno)) from exc
    if not rows:
        raise ValueError("%s: empty matrix file" % path)
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("%s: ragged rows" % path)
    return np.asarray(rows, dtype=float)


def save_matrix(x, path):
    np.savetxt(path, np.atleast_2d(x), delimiter=",", fmt="%.17g")


def _floats(text):
    """A comma-separated list of numbers, as a tuple."""
    return tuple(float(t) for t in text.split(","))


def _build_weights(args, m):
    if args.penalty == "rh":
        if args.mu is None:
            raise ValueError("--penalty rh requires --mu")
        return instance_weights(m, args.mu)
    # preset rejects a missing mu, rank or weight vector
    kind = "hard_rank" if args.penalty == "hardrank" else args.penalty
    return preset(kind, min(m.shape), mu=args.mu, weights=args.weights, rank=args.rank)


def _cmd_synth(args):
    spec = ExperimentSpec(
        rows=args.rows,
        cols=args.cols,
        rank=args.rank,
        noise_sigma=args.sigma,
        seed=args.seed,
    )
    m0, m = gen_instance(spec, 0)
    save_matrix(m, args.out)
    if args.gt:
        save_matrix(m0, args.gt)
    return 0


def _cmd_complete(args):
    m = load_matrix(args.matrix)
    mask = load_matrix(args.mask) if args.mask else np.ones_like(m)
    obs = MaskedObservations(m=m, w=mask)
    weights = _build_weights(args, m)
    cfg = AdmmConfig(
        rho=args.rho,
        max_iters=args.max_iters,
        primal_tol=args.primal_tol,
        rel_obj_tol=args.rel_obj_tol,
    )
    x, diag = admm_complete(obs, weights, cfg)
    save_matrix(x, args.out)
    # the last trace entry is the objective of the returned iterate
    print(
        "objective %.9g after %d iterations (converged=%s, stop=%s)"
        % (diag.objective_trace[-1], diag.iterations, diag.converged, diag.stop_reason)
    )
    return 0


def _cmd_sweep(args):
    spec = ExperimentSpec(
        rows=args.rows,
        cols=args.cols,
        rank=args.rank,
        noise_sigma=args.sigma,
        pattern=args.pattern,
        missing_fractions=args.fractions,
        instances=args.instances,
        mu_grid=args.mu_grid,
        seed=args.seed,
    )
    records = run_sweep(spec)
    write_results_csv(records, args.out)
    return 0


def _cmd_prox(args):
    n = load_matrix(args.matrix)
    weights = _build_weights(args, n)
    x = prox_Rh(n, weights, args.tau)
    save_matrix(x, args.out)
    return 0


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the CLI contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _add_penalty_flags(p):
    p.add_argument(
        "--penalty",
        required=True,
        choices=["nuclear", "wnnm", "rmu", "hardrank", "rh"],
    )
    p.add_argument("--mu", type=float)
    p.add_argument("--rank", type=int)
    p.add_argument("--weights", type=_floats, help="comma-separated wnnm weights")


def _add_instance_flags(p):
    spec = ExperimentSpec()
    p.add_argument("--rows", type=int, default=spec.rows)
    p.add_argument("--cols", type=int, default=spec.cols)
    p.add_argument("--rank", type=int, default=spec.rank)
    p.add_argument("--sigma", type=float, default=spec.noise_sigma)
    p.add_argument("--seed", type=int, default=spec.seed)
    return spec


def _build_parser():
    parser = _Parser(prog="rankrelax")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic instance")
    _add_instance_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--gt", help="optional ground-truth output path")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("complete", help="solve a masked completion problem")
    p.add_argument("--matrix", required=True)
    p.add_argument("--mask", help="0/1 CSV mask; defaults to fully observed")
    _add_penalty_flags(p)
    cfg = AdmmConfig()
    p.add_argument("--rho", type=float, default=cfg.rho)
    p.add_argument("--max-iters", type=int, default=cfg.max_iters)
    p.add_argument("--primal-tol", type=float, default=cfg.primal_tol)
    p.add_argument("--rel-obj-tol", type=float, default=cfg.rel_obj_tol)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("sweep", help="run a benchmark sweep and write CSV")
    spec = _add_instance_flags(p)
    p.add_argument("--pattern", choices=["uniform", "tracking"], default=spec.pattern)
    p.add_argument("--fractions", type=_floats, default=spec.missing_fractions)
    p.add_argument("--instances", type=int, default=spec.instances)
    p.add_argument(
        "--mu-grid", type=_floats, default=spec.mu_grid, help="comma-separated mu values"
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("prox", help="apply the penalty prox to a matrix file")
    p.add_argument("--matrix", required=True)
    p.add_argument("--tau", type=float, required=True)
    _add_penalty_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_prox)

    return parser


def run(argv):
    """Dispatch a subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main():
    raise SystemExit(run(sys.argv[1:]))
