"""The spectral objective shared by the envelope and the prox, and its exact
maximization over the monotone cone.

Both `R_h` and its prox maximize, over non-increasing non-negative z,
the separable sum of

    min(b_i, [z - a_i]_+^2) - c * (z - s_i)^2 + z^2 - [z - a_i]_+^2,

with c = 1 for the envelope and c = (rho+1)/rho for the prox. For
c >= 1 each term is concave with a single breakpoint t_i = a_i + sqrt(b_i):
one quadratic (A, B, C) below t_i, another at and above it. Its maximizer
over [0, inf) is the peak above the breakpoint, s_i + a_i/c, when that
is at least t_i; otherwise the peak below, c*s_i/(c-1), when c > 1 and
that is at most t_i; otherwise t_i itself. Block sums are piecewise
quadratic with at most |block| breakpoints, so the maximum over [0, inf)
is found exactly by enumerating pieces and closed-form vertices. The
thresholds need no sort: PenaltyWeights keeps a and b non-decreasing, so
t is non-decreasing too and a block's breakpoints come in index order. The
monotone-cone maximization merges adjacent blocks pool-adjacent-violators
style: each merged block is re-solved over [0, inf) and carries one
constant value.

An infinite b_i (a hard rank cap) is used as it is: t_i = +inf, and the
term keeps its below quadratic on all of [0, inf). At c = 1 it rises
without bound, so PAV merges it into a block with a finite b_j, whose
sum has a finite maximum; the envelope needs only b_1 finite.
"""

import numpy as np


def coefficients(s, w, c):
    """Per-index (threshold, below-quadratic, above-quadratic) arrays; an
    infinite b_i gives t_i = +inf and an above quadratic that is never used."""
    root_b = np.sqrt(w.b)
    t = w.a + root_b
    k = s.shape[0]
    below = np.column_stack([np.full(k, 1.0 - c), 2.0 * c * s, -c * s**2])
    above = np.column_stack(
        [np.full(k, -c), 2.0 * (c * s + w.a), root_b**2 - w.a**2 - c * s**2]
    )
    return t, below, above


def peak_below(s, c):
    """Where each term peaks below its breakpoint; needs c > 1."""
    return c * s / (c - 1.0)


def index_maximizers(s, a, t, c):
    """Per-index maximizers over [0, inf), the closed form above."""
    peak_above = s + a / c
    below = np.minimum(peak_below(s, c), t) if c > 1.0 else t
    return np.where(peak_above >= t, peak_above, below)


def piece_argmax(t, below, above):
    """Maximize the sum of one block's contiguous rows over [0, inf);
    returns the argmax.

    Pieces are enumerated via prefix sums in index order, which is
    threshold order (see above), so nothing is sorted; candidates
    (piece endpoints and interior vertices) are evaluated in ascending
    order so flat stretches resolve to their left end deterministically.
    """
    cuts = np.unique(t[(t > 0.0) & (t < np.inf)])
    edges = np.concatenate(([0.0], cuts, [np.inf]))
    lefts, rights = edges[:-1], edges[1:]

    # coefficient sums per piece: start from all-below, swap to above as
    # each threshold is passed
    prefix = np.vstack([np.zeros(3), np.cumsum(above - below, axis=0)])
    n_above = np.searchsorted(t, lefts, side="right")
    coeffs = below.sum(axis=0) + prefix[n_above]  # (pieces, 3)
    a2, a1, a0 = coeffs[:, 0], coeffs[:, 1], coeffs[:, 2]

    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = np.where(a2 < 0, -a1 / (2.0 * a2), np.nan)
    vertex = np.where((vertex > lefts) & (vertex < rights), vertex, np.nan)
    cands = np.stack([lefts, vertex, np.where(np.isfinite(rights), rights, np.nan)])
    vals = (a2 * cands + a1) * cands + a0
    flat = np.column_stack([cands.T.ravel(), vals.T.ravel()])
    flat = flat[~np.isnan(flat[:, 0])]
    best = int(np.argmax(flat[:, 1]))  # first max: leftmost in scan order
    return float(flat[best, 0])


def monotone_argmax(s, w, c):
    """Maximize the family's sum for (s, w, c) over the monotone cone.

    Standard pool-adjacent-violators scheme: start from the per-index
    maximizers over [0, inf), in closed form; whenever adjacent block
    values violate the ordering, merge the blocks and re-solve the union.
    """
    thresholds, below, above = coefficients(s, w, c)
    init = index_maximizers(s, w.a, thresholds, c)
    k = thresholds.shape[0]
    blocks = []  # (start, end inclusive, value)
    for i in range(k):
        start, z = i, init[i]
        while blocks and blocks[-1][2] < z:
            start = blocks.pop()[0]
            block = slice(start, i + 1)
            z = piece_argmax(thresholds[block], below[block], above[block])
        blocks.append((start, i, z))
    out = np.empty(k)
    for start, end, z in blocks:
        out[start : end + 1] = z
    return out
