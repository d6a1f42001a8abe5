"""Proximal operators of the relaxed penalty.

The prox subproblem is the envelope's spectral maximization with a
stronger quadratic: the c = (rho+1)/rho member of the family solved in
`_blockmax`, with the per-index objective

    min(b_i, [s - a_i]_+^2) - ((rho+1)/rho) * (s - sy_i)^2 + s^2 - [s - a_i]_+^2,

concave whenever rho > 0. Its per-index maximizer is the family's closed
form, continuous in sy.
"""

from ._blockmax import coefficients, index_maximizers, monotone_argmax, peak_below
from .linalg import compose, svd
from .penalty import check_spectrum


__all__ = ["prox_spectrum", "prox_Rh"]


def prox_spectrum(sy, w, rho):
    """Maximizing spectrum of the prox objective over the monotone cone."""
    sy = check_spectrum(sy, w)
    if rho <= 0:
        raise ValueError("rho must be positive")
    # a block value never exceeds its members' maximizers, each at most
    # a_i + sqrt(b_i) (left out when infinite) + (1 + rho) * sy_i
    scale = (1.0 + rho) * sy.max(initial=0.0)
    c = (rho + 1.0) / rho
    t, below, above = coefficients(sy, w, c, scale)
    return monotone_argmax(t, below, above, index_maximizers(sy, w.a, t, c))


def prox_Rh(n, w, tau):
    """argmin_X of the relaxed penalty plus tau * ||X - n||_F^2, tau > 1.

    Below strength 1 the subproblem can be non-convex, so tau <= 1 is
    rejected. With rho = tau - 1 it is solved spectrally: take the SVD of
    n, run the prox block maximization on its spectrum s, and map back
    through x = ((rho+1)*s - sigma(z)) / rho on the same factors. `svd`
    validates n.
    """
    if tau <= 1.0:
        raise ValueError("prox strength tau must exceed 1")
    rho = tau - 1.0
    f = svd(n)
    sz = prox_spectrum(f.spectrum, w, rho)
    # (rho+1)*s is the peak below for prox_spectrum's c; computed as such,
    # an index left at it maps to exactly 0
    sx = (peak_below(f.spectrum, (rho + 1.0) / rho) - sz) / rho
    return compose(f.u, sx, f.v)
