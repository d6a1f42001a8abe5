"""Proximal operators of the relaxed penalty.

The prox subproblem is the envelope's spectral maximization with a
stronger quadratic: the c = (rho+1)/rho member of the family solved in
`_blockmax`, with the per-index objective

    min(b_i, [s - a_i]_+^2) - ((rho+1)/rho) * (s - sy_i)^2 + s^2 - [s - a_i]_+^2,

concave for every finite rho > 0. Its per-index maximizer is the
family's closed form, continuous in sy; an infinite b_i is exact.

`prox_Rh` maps the prox spectrum z of n's spectrum s back to the matrix
u diag(x) v^T, x = ((rho+1)*s - z) / rho, through the short factor q
alone (p x p, p = min(m, n); u for a wide n, v otherwise). With r = x/s,
and r_i = 0 where s_i = 0, that matrix is (q diag(r) q^T) n for a wide
n and n (q diag(r) q^T) otherwise: one p x p x p and one
p x p x max(m, n) product, where the two factors would take two of the
latter. The rule r_i = 0 drops nothing, since x_i is exactly 0 where
s_i = 0: such an index starts PAV at its peak below, 0, and comes after
every positive s_i, so no merge moves it. Since z >= 0,
r <= (rho+1)/rho. At the saddle point z also maximizes the envelope
objective at x, so `_prox_with_value` reads R_h(x) off z, in O(k).
"""

import math

import numpy as np

from ._blockmax import monotone_argmax, peak_below
from .envelope import envelope_value
from .linalg import compose, svd
from .penalty import check_spectrum


__all__ = ["prox_spectrum", "prox_Rh"]


def prox_spectrum(sy, w, rho):
    """Maximizing spectrum of the prox objective over the monotone cone."""
    sy = check_spectrum(sy, w)
    if not 0.0 < rho < math.inf:
        raise ValueError("rho must be positive and finite")
    return monotone_argmax(sy, w, (rho + 1.0) / rho)


def prox_Rh(n, w, tau):
    """argmin_X of the relaxed penalty plus tau * ||X - n||_F^2, tau > 1.

    Below strength 1 the subproblem can be non-convex, so tau must exceed
    1, and be finite. With rho = tau - 1 it is solved spectrally, on the
    SVD of n, as the module docstring sets out; `svd` validates n.
    """
    return _prox_with_value(n, w, tau)[0]


def _prox_with_value(n, w, tau):
    """prox_Rh's output X and R_h(X), read off the prox's maximizer."""
    if not 1.0 < tau < math.inf:
        raise ValueError("prox strength tau must exceed 1 and be finite")
    rho = tau - 1.0
    f = svd(n)
    s = f.spectrum
    sz = prox_spectrum(s, w, rho)
    # (rho+1)*s is the peak below for prox_spectrum's c; computed as such,
    # an index left at it maps to exactly 0
    sx = (peak_below(s, (rho + 1.0) / rho) - sz) / rho
    r = np.divide(sx, s, out=np.zeros_like(s), where=s > 0.0)
    n = np.asarray(n, dtype=float)
    wide = n.shape[0] < n.shape[1]
    q = f.u if wide else f.v
    p = compose(q, r, q)
    return (p @ n if wide else n @ p), envelope_value(sx, sz, w)
