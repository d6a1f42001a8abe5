"""Properties of the spectral maximization shared by the envelope and the prox.

Both `maximizing_spectrum` (c = 1) and `prox_spectrum` (c = (rho+1)/rho)
run on one PAV solve, which uses an infinite b_i as it is: its breakpoint
lies at +inf and adds no cut. Checked against the brute-force grid oracle
and by exact power-of-two scaling, with infinite-b tails up to k = 40;
the block solve `piece_argmax` is checked against the grid on its own.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rankrelax import make_weights, maximizing_spectrum, prox_spectrum
from rankrelax._blockmax import piece_argmax

from oracles import envelope_terms, monotone_grid_best, prox_terms

ORACLE_TOL = 1e-6
MAX_GRID = 200_000

# a few repeated values make ties common
values = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(1e-3, 3.0))


@st.composite
def instances(draw, max_k=4):
    """(s, a, b) with non-decreasing weights and b_0 finite; s is unsorted."""
    k = draw(st.integers(1, max_k))
    s = np.array(draw(st.lists(values, min_size=k, max_size=k)))
    a = np.sort(draw(st.lists(values, min_size=k, max_size=k)))
    b = np.sort(draw(st.lists(values, min_size=k, max_size=k))) ** 2
    b[k - draw(st.integers(0, k - 1)) :] = np.inf
    return s, a, b


def grid_for(s, a, b, rho):
    # a bound on both maximizers: the prox scales a spectrum by at most
    # 1 + rho, and an infinite-b tail lifts a block by at most sum(s)
    root_b = np.sqrt(b[np.isfinite(b)].max(initial=0.0))
    hi = 2.0 * (1.0 + rho) * (s.sum() + a.max() + root_b) + 1.0
    return hi, np.arange(0.0, hi, max(1e-3, hi / MAX_GRID))


def in_cone(z, k):
    return z.shape == (k,) and np.all(z >= 0) and np.all(np.diff(z) <= 0)


@settings(max_examples=200, deadline=None)
@given(instances(), st.floats(0.05, 20.0))
def test_both_maximizers_reach_the_grid_optimum(inst, rho):
    s, a, b = inst
    w = make_weights(a, b)
    hi, grid = grid_for(s, a, b, rho)

    z = maximizing_spectrum(s, w)
    assert in_cone(z, len(s)) and z[0] < hi
    value = np.trace(envelope_terms(z, s, a, b))
    assert value >= monotone_grid_best(envelope_terms(grid, s, a, b)) - ORACLE_TOL

    sy = np.sort(s)[::-1]
    z = prox_spectrum(sy, w, rho)
    assert in_cone(z, len(s)) and z[0] < hi
    value = np.trace(prox_terms(z, sy, a, b, rho))
    assert value >= monotone_grid_best(prox_terms(grid, sy, a, b, rho)) - ORACLE_TOL


@settings(max_examples=300, deadline=None)
@given(instances(max_k=40), st.floats(0.05, 20.0), st.integers(-300, 300))
def test_exact_under_power_of_two_scaling(inst, rho, j):
    # f(2^j s, 2^j a, 4^j b) == 2^j f(s, a, b) bit for bit: every step is
    # homogeneous, an infinite b included; no grid, so k can be large
    s, a, b = inst
    w = make_weights(a, b)
    scaled = make_weights(np.ldexp(a, j), np.ldexp(b, 2 * j))
    sy = np.sort(s)[::-1]
    assert np.array_equal(
        maximizing_spectrum(np.ldexp(s, j), scaled), np.ldexp(maximizing_spectrum(s, w), j)
    )
    assert np.array_equal(
        prox_spectrum(np.ldexp(sy, j), scaled, rho), np.ldexp(prox_spectrum(sy, w, rho), j)
    )


@settings(max_examples=300, deadline=None)
@given(instances(), st.one_of(st.just(None), st.floats(0.05, 20.0)))
def test_block_solve_reaches_the_grid_optimum(inst, rho):
    # one block, unconstrained over [0, inf): c = 1 (rho None) or c > 1
    s, a, b = inst
    hi, grid = grid_for(s, a, b, 1.0 if rho is None else rho)
    if rho is None:
        c, terms = 1.0, lambda z: envelope_terms(z, s, a, b)
    else:
        c, terms = (rho + 1.0) / rho, lambda z: prox_terms(z, s, a, b, rho)
    z = piece_argmax(s, a, a + np.sqrt(b), c)
    assert 0.0 <= z < hi
    assert terms(np.array([z])).sum() >= terms(grid).sum(axis=0).max() - ORACLE_TOL


def test_flat_block_takes_its_left_end():
    # at c = 1 an all-zero block is flat up to its first threshold
    a, b = np.array([0.5, 2.0, 2.0]), np.array([4.0, 9.0, np.inf])
    for n in (1, 2, 3):
        assert piece_argmax(np.zeros(n), a[:n], (a + np.sqrt(b))[:n], 1.0) == 0.0
