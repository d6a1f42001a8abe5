"""The (a, b) penalty model and its closed-form spectral shrinkage.

A penalty is defined per singular value by h_i(s) = 2*a_i*s + b_i for
s != 0 and 0 otherwise, with both weight sequences non-decreasing.
The a_i act like weighted-nuclear-norm weights, the b_i like rank-jump
costs; b_i = +inf encodes a hard rank cap.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "InvalidWeightsError",
    "PenaltyWeights",
    "make_weights",
    "check_spectrum",
    "eval_h",
    "shrink_spectrum",
    "preset",
]


class InvalidWeightsError(ValueError):
    """Raised when a weight sequence violates the penalty model."""


@dataclass(frozen=True)
class PenaltyWeights:
    """Non-decreasing weight sequences a (finite) and b (+inf allowed)."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape or a.size == 0:
            raise InvalidWeightsError("a and b must be non-empty 1D vectors of equal length")
        if np.any(np.isnan(a)) or np.any(np.isinf(a)):
            raise InvalidWeightsError("a must be finite")
        if np.any(np.isnan(b)):
            raise InvalidWeightsError("b must not contain NaN")
        if np.any(a < 0) or np.any(b < 0):
            raise InvalidWeightsError("weights must be non-negative")
        if np.any(a[1:] < a[:-1]) or np.any(b[1:] < b[:-1]):
            raise InvalidWeightsError("weight sequences must be non-decreasing")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __len__(self):
        return self.a.shape[0]


def make_weights(a, b):
    """Validate and build PenaltyWeights from raw vectors."""
    return PenaltyWeights(a=np.asarray(a, dtype=float), b=np.asarray(b, dtype=float))


def check_spectrum(s, w):
    """Coerce to a 1D vector of len(w) finite, non-negative entries."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 or s.shape[0] != len(w):
        raise ValueError("spectrum must be a 1D vector with one entry per weight")
    if np.any(~np.isfinite(s)) or np.any(s < 0):
        raise ValueError("spectrum entries must be finite and non-negative")
    return s


def eval_h(s, w):
    """Evaluate the penalty sum over non-zero spectrum entries.

    Indices with s_i = 0 contribute nothing; a contributing b_i = +inf
    makes the result +inf.
    """
    s = check_spectrum(s, w)
    if np.any(np.diff(s) > 0):
        raise ValueError("spectrum must be non-increasing")
    active = s != 0
    return float(np.sum((2.0 * w.a[active] * s[active]) + w.b[active]))


def shrink_spectrum(s0, w):
    """Closed-form optimal spectrum for the penalty plus a unit quadratic.

    Per index the minimizer of 2*a_i*s + b_i + (s - s0_i)^2 over s >= 0
    (with 0 costing s0_i^2): keep s0_i - a_i when it is >= sqrt(b_i),
    otherwise drop to 0. Ties keep the non-zero value.
    """
    s0 = check_spectrum(s0, w)
    if np.any(np.diff(s0) > 0):
        raise ValueError("spectrum must be non-increasing")
    keep = (s0 - w.a) >= np.sqrt(w.b)
    return np.where(keep, s0 - w.a, 0.0)


def preset(kind, k, mu=None, weights=None, rank=None):
    """Build weights for a classical regularizer as an (a, b) special case.

    kind
        "nuclear": a_i = mu/2, b_i = 0 (nuclear norm mu*||X||_*)
        "wnnm": a_i = w_i/2, b_i = 0 (weighted nuclear norm, w non-decreasing)
        "rmu": a_i = 0, b_i = mu (rank-jump relaxation)
        "hard_rank": a_i = 0, b_i = 0 for i <= rank, +inf otherwise
    """
    if k <= 0:
        raise ValueError("k must be positive")
    zeros = np.zeros(k)
    if kind == "nuclear":
        if mu is None or mu < 0:
            raise InvalidWeightsError("nuclear preset needs mu >= 0")
        return make_weights(np.full(k, mu / 2.0), zeros)
    if kind == "wnnm":
        if weights is None:
            raise InvalidWeightsError("wnnm preset needs a weight vector")
        w = np.asarray(weights, dtype=float)
        if w.shape != (k,):
            raise InvalidWeightsError("wnnm weights must have length k")
        return make_weights(w / 2.0, zeros)
    if kind == "rmu":
        if mu is None or mu < 0:
            raise InvalidWeightsError("rmu preset needs mu >= 0")
        return make_weights(zeros, np.full(k, float(mu)))
    if kind == "hard_rank":
        if rank is None or not 0 < rank:
            raise InvalidWeightsError("hard_rank preset needs rank >= 1")
        b = np.where(np.arange(k) < rank, 0.0, np.inf)
        return make_weights(zeros, b)
    raise InvalidWeightsError("unknown preset kind %r" % (kind,))
