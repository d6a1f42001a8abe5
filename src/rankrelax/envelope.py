"""Quadratic envelope of the (a, b) penalty.

The envelope value at a matrix X reduces to a concave separable
maximization over the spectrum of an auxiliary matrix, restricted to
the monotone non-negative cone. It is the c = 1 member of the family
solved in `_blockmax`: per index the objective is

    min(b_i, [s - a_i]_+^2) - (s - sx_i)^2 + s^2 - [s - a_i]_+^2,

which is linear up to the breakpoint a_i + sqrt(b_i) and a concave
quadratic beyond it, so its per-index maximizer (the family's closed
form at c = 1) is a_i + max(sx_i, sqrt(b_i)) when sx_i > 0, and 0 when
sx_i = 0, where the term is flat up to the breakpoint and the left end
is taken. Block maximizations are exact, and R_h(0) = 0 exactly.

An infinite b_i (a hard rank cap) is exact, used as it is. When every
b_i is infinite (a rank-0 constraint) the objective grows without bound
for any non-zero sx, and R_h is +inf off zero.
"""

import numpy as np

from ._blockmax import monotone_argmax
from .penalty import check_spectrum


__all__ = ["maximizing_spectrum", "eval_Rh"]


def maximizing_spectrum(sx, w):
    """The spectrum maximizing the envelope objective over the monotone cone.

    Raises ValueError when every b_i is infinite: the objective then has
    no maximizer for non-zero sx and is constant at sx = 0.
    """
    sx = check_spectrum(sx, w)
    if np.isinf(w.b[0]):
        raise ValueError("every b_i is infinite: R_h is +inf off zero, with no maximizer")
    return monotone_argmax(sx, w, 1.0)


def eval_Rh(sx, w):
    """Envelope value at a given spectrum."""
    sx = check_spectrum(sx, w)
    if np.isinf(w.b[0]):
        return np.inf if sx.any() else 0.0
    z = maximizing_spectrum(sx, w)
    r2 = np.maximum(z - w.a, 0.0) ** 2
    terms = np.minimum(w.b, r2) + z**2 - (sx - z) ** 2 - r2
    return float(np.sum(terms))
