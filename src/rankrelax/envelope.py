"""Quadratic envelope of the (a, b) penalty and its building blocks.

The envelope value at a matrix X reduces to a concave separable
maximization over the spectrum of an auxiliary matrix, restricted to
the monotone non-negative cone. Per index the objective is

    min(b_i, [s - a_i]_+^2) - (s - sx_i)^2 + s^2 - [s - a_i]_+^2,

which is linear up to the breakpoint a_i + sqrt(b_i) and a concave
quadratic beyond it, so block maximizations are exact.
"""

from dataclasses import dataclass

import numpy as np

from ._blockmax import monotone_argmax, piece_argmax
from .linalg import check_matrix, svd


__all__ = [
    "SegmentSolve",
    "unconstrained_maximizers",
    "segment_max",
    "maximizing_spectrum",
    "eval_Rh",
    "eval_envelope",
    "fenchel_conjugate",
]


@dataclass(frozen=True)
class SegmentSolve:
    """Result of maximizing one contiguous block at a common scalar."""

    first: int
    last: int
    argmax: float
    value: float


def _check_pair(sx, w):
    # the block maximization is valid for any non-negative input vector,
    # sorted or not, so only non-negativity is enforced here
    sx = np.asarray(sx, dtype=float)
    if sx.ndim != 1 or sx.shape[0] != len(w):
        raise ValueError("spectrum and weights have different lengths")
    if np.any(~np.isfinite(sx)) or np.any(sx < 0):
        raise ValueError("spectrum entries must be finite and non-negative")
    return sx


def _capped_root_b(w, scale):
    # Infinite b entries never saturate the min; a finite stand-in larger
    # than any constrained optimum keeps the breakpoints finite.
    cap = 10.0 * (w.a[-1] + scale) + 1.0
    return np.minimum(np.sqrt(w.b), cap)


def _coeffs(sx, w):
    """Per-index (threshold, below-quadratic, above-quadratic) arrays."""
    root_b = _capped_root_b(w, sx.max(initial=0.0))
    t = w.a + root_b
    k = sx.shape[0]
    below = np.column_stack([np.zeros(k), 2.0 * sx, -(sx**2)])
    above = np.column_stack(
        [-np.ones(k), 2.0 * (w.a + sx), root_b**2 - w.a**2 - sx**2]
    )
    return t, below, above


def unconstrained_maximizers(sx, w):
    """Per-index maximizers a_i + max(sqrt(b_i), sx_i), ignoring ordering."""
    sx = _check_pair(sx, w)
    root_b = _capped_root_b(w, sx.max(initial=0.0))
    return w.a + np.maximum(root_b, sx)


def segment_max(block, lo, hi, sx, w):
    """Exact scalar maximization of one contiguous index block over [lo, hi]."""
    sx = _check_pair(sx, w)
    block = np.asarray(block, dtype=int)
    if block.size == 0:
        raise ValueError("empty block")
    if np.any(np.diff(block) != 1):
        raise ValueError("block indices must be contiguous")
    t, below, above = _coeffs(sx, w)
    s, v = piece_argmax(t, below, above, block, lo, hi)
    return SegmentSolve(first=int(block[0]), last=int(block[-1]), argmax=s, value=v)


def maximizing_spectrum(sx, w):
    """The spectrum maximizing the envelope objective over the monotone cone."""
    sx = _check_pair(sx, w)
    t, below, above = _coeffs(sx, w)
    root_b = t - w.a
    init = w.a + np.maximum(root_b, sx)
    return monotone_argmax(t, below, above, init=init)


def eval_Rh(sx, w):
    """Envelope value at a given spectrum."""
    sx = _check_pair(sx, w)
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
