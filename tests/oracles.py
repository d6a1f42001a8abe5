"""Independent brute-force oracles used to check closed-form solvers.

These evaluate the raw objective definitions on grids or in closed form
and never call the breakpoint or block-merging code they are checking.
"""

import numpy as np

from rankrelax._blockmax import peak_below
from rankrelax.linalg import check_matrix, compose, svd
from rankrelax.penalty import check_spectrum
from rankrelax.proximal import prox_spectrum


def envelope_terms(s_grid, sx, a, b):
    """Per-index envelope objective values, shape (k, n_grid)."""
    s = s_grid[None, :]
    r2 = np.maximum(s - a[:, None], 0.0) ** 2
    return (
        np.minimum(b[:, None], r2)
        - (s - sx[:, None]) ** 2
        + s**2
        - r2
    )


def prox_terms(s_grid, sy, a, b, rho):
    """Per-index prox objective values, shape (k, n_grid)."""
    c = (rho + 1.0) / rho
    s = s_grid[None, :]
    r2 = np.maximum(s - a[:, None], 0.0) ** 2
    return (
        np.minimum(b[:, None], r2)
        - c * (s - sy[:, None]) ** 2
        + s**2
        - r2
    )


def monotone_grid_best(terms):
    """Best objective over non-increasing grid selections.

    Dynamic program over the shared grid: processing indices last to
    first, each level adds its own values to the running prefix-max of
    the levels below, which enforces s_i >= s_{i+1}.
    """
    acc = terms[-1].copy()
    for i in range(terms.shape[0] - 2, -1, -1):
        acc = terms[i] + np.maximum.accumulate(acc)
    return float(acc.max())


def scalar_envelope(x, a, b, z_grid):
    """1D relaxed penalty value at scalar x by grid maximization over z."""
    r2 = np.maximum(z_grid - a, 0.0) ** 2
    vals = np.minimum(b, r2) + z_grid**2 - (x - z_grid) ** 2 - r2
    return float(vals.max())


def fenchel_conjugate(y, x0, w):
    """Conjugate of the penalty-plus-quadratic objective at a dual matrix y.

    With Z = y/2 + x0 the value is
    sum [sigma_i(Z) - a_i]_+^2 - ||x0||_F^2 - sum min(b_i, [sigma_i(Z) - a_i]_+^2).
    """
    y = check_matrix(y)
    x0 = check_matrix(x0, y.shape)
    sz = check_spectrum(svd(y / 2.0 + x0, compute_uv=False), w)
    r2 = np.maximum(sz - w.a, 0.0) ** 2
    return float(np.sum(r2) - np.sum(x0**2) - np.sum(np.minimum(w.b, r2)))


def two_factor_prox(f, w, tau):
    """prox_Rh at the matrix whose SVD is f, mapped back through both of
    its factors: (u diag(sx) v^T, sx).

    The prox spectrum comes from prox_spectrum, and sx from it as
    prox_Rh computes it, since at tau near 1 the map back amplifies the
    last bit of (rho+1)*s by 1/rho; only the map back is independent.
    """
    rho = tau - 1.0
    s = f.spectrum
    sx = (peak_below(s, (rho + 1.0) / rho) - prox_spectrum(s, w, rho)) / rho
    return compose(f.u, sx, f.v), sx


def mask_tracking_loop(rows, cols, fraction, seed):
    """bench.mask_tracking as one random draw at a time: the reference
    whose mask the whole-array version must reproduce byte for byte."""
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
    # rebalance draws to hit the target count exactly
    diff = target - int(lengths.sum())
    while diff != 0:
        j = int(rng.integers(cols))
        if diff > 0 and lengths[j] < rows:
            lengths[j] += 1
            diff -= 1
        elif diff < 0 and lengths[j] > 1:
            lengths[j] -= 1
            diff += 1
    mask = np.zeros((rows, cols))
    for j in range(cols):
        start = int(rng.integers(rows - lengths[j] + 1))
        mask[start : start + lengths[j], j] = 1.0
    return mask


def nuclear_gap(x, obs, mu):
    """Relative duality gap (F(X) - D(L)) / F(X) of masked nuclear-norm
    completion, F(X) = mu*||X||_* + ||W.(X - M)||_F^2: the solver's
    objective under the "nuclear" preset (a_i = mu/2, b_i = 0).

    For a binary W, D(L) = -<L, W.M> - ||L||_F^2 / 4 <= min F for every L
    supported on W with ||L||_2 <= mu. The dual point is L = 2 W.(X - M),
    scaled by min(1, mu / ||L||_2), so the gap is >= 0 for every X and 0
    exactly at the minimizer, where no scaling is needed (the subgradient
    condition of Mazumder, Hastie & Tibshirani 2010). A zero F(X), where
    the gap is zero too, returns the absolute gap.
    """
    x = check_matrix(x, obs.m.shape)
    lam = 2.0 * obs.w * (x - obs.m)
    f = mu * np.linalg.svd(x, compute_uv=False).sum() + np.sum(lam**2) / 4.0
    norm = np.linalg.norm(lam, 2)
    if norm > mu:
        lam *= mu / norm
    d = -np.sum(lam * obs.w * obs.m) - np.sum(lam**2) / 4.0
    return (f - d) / f if f > 0 else f - d
