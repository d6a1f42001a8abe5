"""Quadratic envelope of the (a, b) penalty.

The envelope value at a matrix X reduces to a concave separable
maximization over the spectrum of an auxiliary matrix, restricted to
the monotone non-negative cone. It is the c = 1 member of the family
solved in `_blockmax`: per index the objective is

    min(b_i, [s - a_i]_+^2) - (s - sx_i)^2 + s^2 - [s - a_i]_+^2,

which is linear up to the breakpoint a_i + sqrt(b_i) and a concave
quadratic beyond it, so its per-index maximizer (the family's closed
form at c = 1) is max(a_i + sx_i, a_i + sqrt(b_i)) and block
maximizations are exact.

When every b_i is infinite (a rank-0 constraint) the objective grows
without bound for any non-zero sx, and R_h is +inf off zero.
"""

import numpy as np

from ._blockmax import coefficients, index_maximizers, monotone_argmax
from .linalg import check_matrix, svd
from .penalty import check_spectrum


__all__ = ["maximizing_spectrum", "eval_Rh", "eval_envelope", "fenchel_conjugate"]


def maximizing_spectrum(sx, w):
    """The spectrum maximizing the envelope objective over the monotone cone.

    Raises ValueError when every b_i is infinite: the objective then has
    no maximizer for non-zero sx and is constant at sx = 0.
    """
    sx = check_spectrum(sx, w)
    if np.isinf(w.b[0]):
        raise ValueError("every b_i is infinite: R_h is +inf off zero, with no maximizer")
    # a block holding an infinite-b tail rises with it until its finite
    # members fall off: at most max(a) + max(finite sqrt(b)) + 2 * sum(sx)
    t, below, above = coefficients(sx, w, 1.0, sx.sum())
    return monotone_argmax(t, below, above, index_maximizers(sx, w.a, t, 1.0))


def eval_Rh(sx, w):
    """Envelope value at a given spectrum."""
    sx = check_spectrum(sx, w)
    if np.isinf(w.b[0]):
        return np.inf if sx.any() else 0.0
    z = maximizing_spectrum(sx, w)
    r2 = np.maximum(z - w.a, 0.0) ** 2
    terms = np.minimum(w.b, r2) + z**2 - (sx - z) ** 2 - r2
    return float(np.sum(terms))


def eval_envelope(x, x0, w):
    """Envelope of the penalty plus the quadratic distance to x0."""
    x = check_matrix(x)
    x0 = check_matrix(x0)
    if x.shape != x0.shape:
        raise ValueError("x and x0 must have the same shape")
    return eval_Rh(svd(x, compute_uv=False), w) + float(np.sum((x - x0) ** 2))


def fenchel_conjugate(y, x0, w):
    """Conjugate of the penalty-plus-quadratic objective at a dual matrix y.

    With Z = y/2 + x0 the value is
    sum [sigma_i(Z) - a_i]_+^2 - ||x0||_F^2 - sum min(b_i, [sigma_i(Z) - a_i]_+^2).
    """
    y = check_matrix(y)
    x0 = check_matrix(x0)
    if y.shape != x0.shape:
        raise ValueError("y and x0 must have the same shape")
    sz = svd(y / 2.0 + x0, compute_uv=False)
    if sz.shape[0] != len(w):
        raise ValueError("weights do not match matrix shape")
    r2 = np.maximum(sz - w.a, 0.0) ** 2
    return float(np.sum(r2) - np.sum(x0**2) - np.sum(np.minimum(w.b, r2)))
