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
