"""Proximal operators of the relaxed penalty.

The prox subproblem is the envelope's spectral maximization with a
stronger quadratic: the c = (rho+1)/rho member of the family solved in
`_blockmax`, with the per-index objective

    min(b_i, [s - a_i]_+^2) - ((rho+1)/rho) * (s - sy_i)^2 + s^2 - [s - a_i]_+^2,

concave whenever rho > 0. The per-index maximizer splits into three
regimes depending on where sy_i falls relative to a_i and sqrt(b_i); the
regimes agree at their boundaries, so the map is continuous in sy.
"""

import numpy as np

from ._blockmax import coefficients, monotone_argmax
from .linalg import check_matrix, compose, svd
from .penalty import check_spectrum


__all__ = ["prox_spectrum", "prox_envelope", "prox_Rh"]


def _case_maximizers(sy, a, root_b, rho):
    # the three regimes of the per-index maximizer, on the capped sqrt(b)
    upper = a / (rho + 1.0) + root_b
    lower = (a + root_b) / (1.0 + rho)
    return np.where(
        sy > upper,
        a * rho / (rho + 1.0) + sy,
        np.where(sy >= lower, a + root_b, (1.0 + rho) * sy),
    )


def prox_spectrum(sy, w, rho):
    """Maximizing spectrum of the prox objective over the monotone cone."""
    sy = check_spectrum(sy, w)
    if rho <= 0:
        raise ValueError("rho must be positive")
    # a block value never exceeds its members' maximizers, each at most
    # a_i + sqrt(b_i) (left out when infinite) + (1 + rho) * sy_i
    scale = (1.0 + rho) * sy.max(initial=0.0)
    t, below, above = coefficients(sy, w, (rho + 1.0) / rho, scale)
    init = _case_maximizers(sy, w.a, t - w.a, rho)
    return monotone_argmax(t, below, above, init)


def prox_envelope(m, x0, w, rho):
    """argmin_X of envelope(X; x0) + rho * ||X - m||_F^2.

    Solved spectrally: average y = (x0 + rho*m) / (1 + rho), take its
    SVD, run the prox block maximization on the spectrum, and map back
    through x = ((rho+1)*sigma(y) - sigma(z)) / rho on the same factors.
    """
    if x0 is m:  # prox_Rh's case: one matrix, scanned once
        x0 = m = check_matrix(m)
    else:
        m, x0 = check_matrix(m), check_matrix(x0)
    if m.shape != x0.shape:
        raise ValueError("m and x0 must have the same shape")
    if rho <= 0:
        raise ValueError("rho must be positive")
    y = (x0 + rho * m) / (1.0 + rho)
    f = svd(y)
    sz = prox_spectrum(f.spectrum, w, rho)
    sx = ((rho + 1.0) * f.spectrum - sz) / rho
    return compose(f.u, sx, f.v)


def prox_Rh(n, w, tau):
    """argmin_X of the relaxed penalty plus tau * ||X - n||_F^2, tau > 1.

    Below strength 1 the subproblem can be non-convex, so tau <= 1 is
    rejected. Equivalent to prox_envelope(n, n, w, tau - 1).
    """
    if tau <= 1.0:
        raise ValueError("prox strength tau must exceed 1")
    return prox_envelope(n, n, w, tau - 1.0)
