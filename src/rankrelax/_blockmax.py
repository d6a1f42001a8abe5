"""The spectral objective shared by the envelope and the prox, and its exact
maximization over the monotone cone.

Both `R_h` and its prox maximize, over non-increasing non-negative z,
the separable sum of

    min(b_i, [z - a_i]_+^2) - c * (z - s_i)^2 + z^2 - [z - a_i]_+^2,

with c = 1 for the envelope and c = (rho+1)/rho for the prox. Each term
has one breakpoint t_i = a_i + sqrt(b_i). Its derivative is
2*(c*s_i - (c-1)*z) below t_i and 2*(c*s_i + a_i - c*z) at and above it:
it drops by 2*sqrt(b_i) at t_i, so for c >= 1 every term is concave.
For c > 1 its maximizer over [0, inf) is the peak above the breakpoint,
s_i + a_i/c, when that is at least t_i, and otherwise the peak below,
c*s_i/(c-1), capped at t_i. At c = 1 the term rises up to t_i, so the
maximizer is the larger of s_i + a_i and t_i; where s_i = 0 the term is
flat on [0, t_i] instead, and the maximizer is its left end, 0.

A block of n terms sums to a concave function. On its piece j, where z
has passed j of the block's thresholds, the sum's derivative is
2*(num_j - den_j*z) with num_j = c*sum(s) + (the first j a_i summed) and
den_j = (c-1)*n + j. The block's maximizer is the zero num_j/den_j of
the first piece whose zero lies below the piece's right end, clamped up
to the piece's left end. Ties take the left end of a flat stretch: at
c = 1 piece 0 is flat when every s_i is 0, and the block takes 0. The
thresholds need no sort: PenaltyWeights keeps a and b non-decreasing,
so t is non-decreasing too and a block's pieces come in index order.
The monotone-cone maximization merges adjacent blocks
pool-adjacent-violators style: each merged block is re-solved over
[0, inf) and carries one constant value.

An infinite b_i (a hard rank cap) is used as it is: t_i = +inf, and the
term keeps its below derivative on all of [0, inf). At c = 1 it rises
without bound, so PAV merges it into a block with a finite b_j, whose
sum has a finite maximum; the envelope needs only b_1 finite.
"""

import numpy as np


def peak_below(s, c):
    """Where each term peaks below its breakpoint; needs c > 1."""
    return c * s / (c - 1.0)


def index_maximizers(s, a, t, c):
    """Per-index maximizers over [0, inf), the closed form above."""
    peak_above = s + a / c
    if c > 1.0:
        return np.where(peak_above >= t, peak_above, np.minimum(peak_below(s, c), t))
    return np.where(s > 0.0, np.maximum(peak_above, t), 0.0)


def piece_argmax(s, a, t, c):
    """Maximize the sum of one block's terms over [0, inf); returns the argmax."""
    n = s.shape[0]
    num = c * s.sum() + np.concatenate(([0.0], np.cumsum(a)))
    den = (c - 1.0) * n + np.arange(n + 1)
    lo = np.concatenate(([0.0], t))
    hi = np.concatenate((t, [np.inf]))
    if den[0] == 0.0:  # c = 1: piece 0 rises, or is flat when every s_i = 0
        if num[0] == 0.0:
            return 0.0
        num, den, lo, hi = num[1:], den[1:], lo[1:], hi[1:]
    root = num / den
    j = int(np.argmax(root < hi))
    return float(max(root[j], lo[j]))


def monotone_argmax(s, w, c):
    """Maximize the family's sum for (s, w, c) over the monotone cone.

    Standard pool-adjacent-violators scheme: start from the per-index
    maximizers over [0, inf), in closed form; whenever adjacent block
    values violate the ordering, merge the blocks and re-solve the union.
    """
    t = w.a + np.sqrt(w.b)
    init = index_maximizers(s, w.a, t, c)
    k = t.shape[0]
    blocks = []  # (start, end inclusive, value)
    for i in range(k):
        start, z = i, init[i]
        while blocks and blocks[-1][2] < z:
            start = blocks.pop()[0]
            block = slice(start, i + 1)
            z = piece_argmax(s[block], w.a[block], t[block], c)
        blocks.append((start, i, z))
    out = np.empty(k)
    for start, end, z in blocks:
        out[start : end + 1] = z
    return out
