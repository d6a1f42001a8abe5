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
monotone-cone maximization merges adjacent blocks pool-adjacent-violators
style: each merged block is re-solved over [0, inf) and carries one
constant value.
"""

import numpy as np


def coefficients(s, w, c, scale):
    """Per-index (threshold, below-quadratic, above-quadratic) arrays.

    Callers pass a `scale` such that no optimal value exceeds
    max(a) + max(finite sqrt(b)) + 2 * scale. An infinite b_i never
    saturates the min, so it is replaced by a finite stand-in past that
    bound: the objective is unchanged wherever the optimum can lie, and
    every breakpoint stays finite.
    """
    finite = np.sqrt(w.b[np.isfinite(w.b)]).max(initial=0.0)
    cap = 10.0 * (w.a[-1] + finite + scale) + 1.0
    root_b = np.minimum(np.sqrt(w.b), cap)
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


def piece_argmax(thresholds, below, above, idx):
    """Maximize the block sum over [0, inf); returns the argmax.

    Pieces are enumerated via prefix sums in threshold order; candidates
    (piece endpoints and interior vertices) are evaluated in ascending
    order so flat stretches resolve to their left end deterministically.
    """
    t = thresholds[idx]
    cuts = np.unique(t[(t > 0.0) & (t < np.inf)])
    edges = np.concatenate(([0.0], cuts, [np.inf]))
    lefts, rights = edges[:-1], edges[1:]

    # coefficient sums per piece: start from all-below, swap to above as
    # each threshold is passed
    order = np.argsort(t, kind="stable")
    delta = (above[idx] - below[idx])[order]
    prefix = np.vstack([np.zeros(3), np.cumsum(delta, axis=0)])
    n_above = np.searchsorted(t[order], lefts, side="right")
    coeffs = below[idx].sum(axis=0) + prefix[n_above]  # (pieces, 3)
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


def monotone_argmax(thresholds, below, above, init):
    """Maximize the separable sum over the non-increasing non-negative cone.

    Standard pool-adjacent-violators scheme: start from the per-index
    maximizers over [0, inf), given in closed form as `init`; whenever
    adjacent block values violate the ordering, merge the blocks and
    re-solve the union.
    """
    k = thresholds.shape[0]
    blocks = []  # (start, end inclusive, value)
    for i in range(k):
        start, s = i, init[i]
        while blocks and blocks[-1][2] < s:
            start = blocks.pop()[0]
            s = piece_argmax(thresholds, below, above, np.arange(start, i + 1))
        blocks.append((start, i, s))
    out = np.empty(k)
    for start, end, s in blocks:
        out[start : end + 1] = s
    return out
