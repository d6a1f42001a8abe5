"""Synthetic missing-data benchmark: generators, masks, metrics, sweeps.

Reproduces the synthetic study: low-rank ground truth plus Gaussian
noise, uniform or tracking-style missing-data masks, and a sweep over
the penalty strength mu with weights built from the measured spectrum,
a_i = sqrt(mu) / (sigma_i(M) + eps) and b_i = mu / (sigma_i(M) + eps),
eps = WEIGHT_EPS.
"""

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import check_matrix, svd
from .penalty import make_weights
from .solver import AdmmConfig, MaskedObservations, admm_complete

__all__ = [
    "ExperimentSpec",
    "ResultRecord",
    "gen_instance",
    "mask_uniform",
    "mask_tracking",
    "normalized_distance",
    "datafit",
    "instance_weights",
    "run_sweep",
    "write_results_csv",
]

# default mu grid: log-spaced 1e-3 .. 10, alternating 1x / 3x steps
DEFAULT_MU_GRID = (1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0)

# keeps instance_weights finite at a zero singular value
WEIGHT_EPS = 1e-6


@dataclass(frozen=True)
class ExperimentSpec:
    rows: int = 32
    cols: int = 512
    rank: int = 4
    noise_sigma: float = 0.1
    pattern: str = "uniform"
    missing_fractions: tuple = (0.0, 0.2, 0.4, 0.6)
    instances: int = 20
    mu_grid: tuple = DEFAULT_MU_GRID
    seed: int = 0

    def __post_init__(self):
        if not all(isinstance(n, (int, np.integer)) for n in (self.rows, self.cols, self.rank)):
            raise ValueError("rows, cols and rank must be integers")
        if self.rank < 1 or self.rank > min(self.rows, self.cols):
            raise ValueError("rank must be in [1, min(rows, cols)]")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError("noise_sigma must be finite and non-negative")
        if self.pattern not in ("uniform", "tracking"):
            raise ValueError("pattern must be 'uniform' or 'tracking'")
        if any(not 0 <= f < 1 for f in self.missing_fractions):
            raise ValueError("missing fractions must lie in [0, 1)")
        if not isinstance(self.instances, (int, np.integer)) or self.instances < 1:
            raise ValueError("instances must be a positive integer")
        if any(not (math.isfinite(mu) and mu > 0) for mu in self.mu_grid):
            raise ValueError("mu grid entries must be positive and finite")


@dataclass(frozen=True)
class ResultRecord:
    method: str
    pattern: str
    missing_fraction: float
    mu: float
    instances: int
    mean_norm_dist: float
    mean_datafit: float
    best: bool = field(default=False, compare=False)
    # per instance, in instance order: ADMM iterations and stop reason
    iterations: tuple = ()
    stop_reasons: tuple = ()


def gen_instance(spec, instance_index):
    """Ground truth m0 = L R^T and noisy measurements m, seeded per instance."""
    rng = np.random.default_rng((spec.seed, instance_index))
    left = rng.standard_normal((spec.rows, spec.rank))
    right = rng.standard_normal((spec.cols, spec.rank))
    m0 = left @ right.T
    m = m0 + spec.noise_sigma * rng.standard_normal((spec.rows, spec.cols))
    return m0, m


def mask_uniform(rows, cols, fraction, seed):
    """Binary mask with exactly round(fraction*rows*cols) zeros, uniform positions."""
    if not 0 <= fraction < 1:
        raise ValueError("fraction must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    total = rows * cols
    n_missing = int(round(fraction * total))
    mask = np.ones(total)
    mask[rng.choice(total, size=n_missing, replace=False)] = 0.0
    return mask.reshape(rows, cols)


def mask_tracking(rows, cols, fraction, seed):
    """Structured mask: per column one contiguous observed row interval.

    Mimics tracking failures where each point is visible over a single
    frame window. Window lengths are drawn around the target mean, then
    adjusted so the total observed count matches the target exactly;
    every column keeps at least one observation.

    The random stream is fixed: `cols` normal draws for the lengths;
    then one `integers(cols)` draw per rebalance step, which picks a
    column and moves its length one towards the target unless that
    would leave [1, rows] (the step is still taken); then one
    `integers(rows - length + 1)` draw per column, in column order, for
    the window's start. The draws are made in whole-array calls, which
    numpy serves element by element from the same stream as one scalar
    call each, so the mask is that of the one-draw-at-a-time loop.
    """
    if not 0 <= fraction < 1:
        raise ValueError("fraction must lie in [0, 1)")
    target = int(round((1.0 - fraction) * rows * cols))
    if target < cols:
        raise ValueError("missing fraction too high: a column would be empty")
    rng = np.random.default_rng(seed)
    mean_len = target / cols
    lengths = np.clip(
        np.rint(rng.normal(mean_len, rows / 6.0, size=cols)).astype(int), 1, rows
    )
    # rebalance to hit the target count exactly. Steps are drawn in
    # batches of at least cols, since steps that land on a column at its
    # bound would otherwise shrink the batches to single draws; where the
    # target is reached inside a batch, the stream is rewound and only
    # the steps taken are drawn again
    sizes = lengths.tolist()
    diff = target - sum(sizes)
    step = 1 if diff > 0 else -1
    while diff != 0:
        state = rng.bit_generator.state
        batch = rng.integers(cols, size=max(abs(diff), cols)).tolist()
        for taken, j in enumerate(batch, 1):
            if 1 <= sizes[j] + step <= rows:
                sizes[j] += step
                diff -= step
                if diff == 0:
                    break
        if taken < len(batch):
            rng.bit_generator.state = state
            rng.integers(cols, size=taken)
    lengths = np.array(sizes)
    starts = rng.integers(rows - lengths + 1)
    frames = np.arange(rows)[:, None]
    return ((frames >= starts) & (frames < starts + lengths)).astype(float)


def normalized_distance(x, m0):
    """Frobenius distance to ground truth, relative to its norm."""
    x = check_matrix(x)
    m0 = check_matrix(m0, x.shape)
    denom = np.linalg.norm(m0)
    if denom == 0:
        raise ValueError("ground truth is zero; metric undefined")
    return float(np.linalg.norm(x - m0) / denom)


def datafit(x, obs):
    """Frobenius norm (not squared) of the masked residual."""
    x = check_matrix(x, obs.m.shape)
    return float(np.linalg.norm(obs.w * (x - obs.m)))


def instance_weights(m, mu):
    """Penalty weights from the measured spectrum for a given strength mu."""
    s = svd(m, compute_uv=False) + WEIGHT_EPS
    return make_weights(np.sqrt(mu) / s, mu / s)


def _make_mask(spec, fraction, instance_index):
    seed = (spec.seed, instance_index, 1)
    if spec.pattern == "uniform":
        return mask_uniform(spec.rows, spec.cols, fraction, seed)
    return mask_tracking(spec.rows, spec.cols, fraction, seed)


def run_sweep(spec, cfg=None):
    """Solve every (fraction, mu, instance) cell and aggregate records.

    Per fraction, the record with the lowest mean normalized distance is
    flagged as best. Each record also keeps its cells' iteration counts
    and stop reasons, so a capped solve shows even where the mean hides
    it. Fully deterministic given spec.seed.
    """
    if cfg is None:
        cfg = AdmmConfig(rho=1.5, max_iters=300, primal_tol=1e-6, rel_obj_tol=1e-9)
    records = []
    for fraction in spec.missing_fractions:
        per_mu = []
        for mu in spec.mu_grid:
            dists, fits, iters, reasons = [], [], [], []
            for idx in range(spec.instances):
                m0, m = gen_instance(spec, idx)
                mask = _make_mask(spec, fraction, idx)
                obs = MaskedObservations(m=m, w=mask)
                weights = instance_weights(m, mu)
                x, diag = admm_complete(obs, weights, cfg)
                dists.append(normalized_distance(x, m0))
                fits.append(datafit(x, obs))
                iters.append(diag.iterations)
                reasons.append(diag.stop_reason)
            per_mu.append(
                ResultRecord(
                    method="rh",
                    pattern=spec.pattern,
                    missing_fraction=fraction,
                    mu=mu,
                    instances=spec.instances,
                    mean_norm_dist=float(np.mean(dists)),
                    mean_datafit=float(np.mean(fits)),
                    iterations=tuple(iters),
                    stop_reasons=tuple(reasons),
                )
            )
        best = min(range(len(per_mu)), key=lambda i: per_mu[i].mean_norm_dist)
        per_mu[best] = replace(per_mu[best], best=True)
        records.extend(per_mu)
    return records


def write_results_csv(records, path):
    """Write sweep records with the fixed header, 6 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "method",
                "pattern",
                "missing_fraction",
                "mu",
                "instances",
                "mean_norm_dist",
                "mean_datafit",
            ]
        )
        for r in records:
            writer.writerow(
                [
                    r.method,
                    r.pattern,
                    "%.6g" % r.missing_fraction,
                    "%.6g" % r.mu,
                    r.instances,
                    "%.6g" % r.mean_norm_dist,
                    "%.6g" % r.mean_datafit,
                ]
            )
