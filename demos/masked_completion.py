"""Recover a low-rank matrix from partial noisy observations with ADMM.

Builds a rank-2 ground truth, hides 30% of the entries, adds noise, and
solves the relaxed completion problem with spectrum-adaptive weights.
Prints the recovery error against the naive fill-with-zeros baseline.
"""

import numpy as np

from rankrelax import (
    AdmmConfig,
    MaskedObservations,
    admm_complete,
    instance_weights,
    mask_uniform,
    normalized_distance,
    svd,
)


def main():
    rng = np.random.default_rng(7)
    rows, cols, rank = 20, 60, 2

    m0 = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    m = m0 + 0.1 * rng.standard_normal((rows, cols))
    mask = mask_uniform(rows, cols, 0.3, seed=7)
    obs = MaskedObservations(m=m * mask, w=mask)

    weights = instance_weights(m, mu=3.0)
    cfg = AdmmConfig(rho=1.5, max_iters=500, primal_tol=1e-8, rel_obj_tol=1e-11)
    x, diag = admm_complete(obs, weights, cfg)

    print("observed fraction: %.0f%%" % (100 * mask.mean()))
    print("iterations: %d (stopped on %s)" % (diag.iterations, diag.stop_reason))
    print("top singular values of estimate:", np.round(svd(x).spectrum[:4], 3))
    print("normalized distance, zero fill : %.4f"
          % normalized_distance(m * mask, m0))
    print("normalized distance, recovered : %.4f" % normalized_distance(x, m0))


if __name__ == "__main__":
    main()
