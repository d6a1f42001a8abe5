import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankrelax
from rankrelax import (
    eval_Rh,
    linalg,
    make_weights,
    maximizing_spectrum,
    prox_Rh,
    prox_spectrum,
    shrink_spectrum,
    svd,
)
from rankrelax.proximal import _prox_with_value

from oracles import monotone_grid_best, prox_terms, two_factor_prox


def prox_two(m, x0, w, rho):
    """argmin_X of envelope(X; x0) + rho * ||X - m||_F^2, by completing the
    square: the prox of strength 1 + rho at (x0 + rho*m) / (1 + rho)."""
    return prox_Rh((x0 + rho * m) / (1.0 + rho), w, 1.0 + rho)


def prox_objective_value(x, m, x0, w, rho):
    return (
        eval_Rh(svd(x).spectrum, w)
        + np.sum((x - x0) ** 2)
        + rho * np.sum((x - m) ** 2)
    )


class TestProxUnconstrained:
    """The per-index maximizer: at k = 1 no ordering constraint binds."""

    def test_identity_when_unweighted(self):
        w = make_weights([0.0], [0.0])
        assert prox_spectrum(np.array([2.0]), w, 1.0)[0] == pytest.approx(2.0)

    def test_middle_case(self):
        w = make_weights([0.0], [1.0])
        assert prox_spectrum(np.array([0.8]), w, 1.0)[0] == pytest.approx(1.0)

    def test_third_case(self):
        w = make_weights([0.0], [1.0])
        assert prox_spectrum(np.array([0.4]), w, 1.0)[0] == pytest.approx(0.8)

    def test_case_boundaries_continuous(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = float(rng.uniform(0, 2))
            b = float(rng.uniform(0, 2))
            rho = float(rng.uniform(0.2, 3))
            w = make_weights([a], [b])
            upper = a / (rho + 1.0) + np.sqrt(b)
            lower = (a + np.sqrt(b)) / (1.0 + rho)
            # first/middle formulas at the upper boundary
            assert abs(
                (a * rho / (rho + 1.0) + upper) - (a + np.sqrt(b))
            ) <= 1e-12
            # middle/third formulas at the lower boundary
            assert abs((1.0 + rho) * lower - (a + np.sqrt(b))) <= 1e-12
            eps = 1e-9
            hi = prox_spectrum(np.array([upper + eps]), w, rho)[0]
            lo = prox_spectrum(np.array([max(lower - eps, 0.0)]), w, rho)[0]
            mid = prox_spectrum(np.array([(lower + upper) / 2]), w, rho)[0]
            assert abs(hi - mid) <= 1e-6
            assert abs(lo - mid) <= 1e-6

    def test_matches_scalar_grid(self):
        rng = np.random.default_rng(1)
        grid = np.arange(0.0, 12.0, 1e-4)
        for _ in range(30):
            a = float(rng.uniform(0, 1.5))
            b = float(rng.uniform(0, 1.5))
            rho = float(rng.uniform(0.3, 3))
            sy = float(rng.uniform(0, 3))
            w = make_weights([a], [b])
            out = prox_spectrum(np.array([sy]), w, rho)[0]
            vals = prox_terms(grid, np.array([sy]), w.a, w.b, rho)[0]
            assert out == pytest.approx(grid[vals.argmax()], abs=1e-3)


class TestProxSpectrum:
    def test_unweighted_is_identity(self):
        w = make_weights([0.0, 0.0], [0.0, 0.0])
        sy = np.array([2.0, 0.3])
        assert np.allclose(prox_spectrum(sy, w, 1.7), sy)

    def test_single_index_matches_unconstrained(self):
        # the three-regime closed form of the per-index maximizer
        rng = np.random.default_rng(2)
        for _ in range(30):
            a, b = rng.uniform(0, 2), rng.uniform(0, 2)
            w = make_weights([a], [b])
            sy = np.array([rng.uniform(0, 3)])
            rho = float(rng.uniform(0.3, 3))
            if sy[0] > a / (rho + 1.0) + np.sqrt(b):
                expected = a * rho / (rho + 1.0) + sy[0]
            elif sy[0] >= (a + np.sqrt(b)) / (1.0 + rho):
                expected = a + np.sqrt(b)
            else:
                expected = (1.0 + rho) * sy[0]
            assert prox_spectrum(sy, w, rho)[0] == pytest.approx(expected, abs=1e-12)

    def test_merged_constant_block(self):
        w = make_weights([0.0, 1.0], [1.0, 1.0])
        sy = np.array([0.4, 0.4])
        out = prox_spectrum(sy, w, 1.0)
        assert out[0] == pytest.approx(out[1], abs=1e-12)
        grid = np.arange(0.0, 4.0, 1e-3)
        best = monotone_grid_best(prox_terms(grid, sy, w.a, w.b, 1.0))
        vals = sum(
            prox_terms(np.array([out[i]]), sy, w.a, w.b, 1.0)[i, 0]
            for i in range(2)
        )
        assert vals >= best - 1e-6

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(3)
        grid = np.arange(0.0, 10.0, 1e-3)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            w = make_weights(np.sort(rng.uniform(0, 2, k)), np.sort(rng.uniform(0, 2, k)))
            sy = np.sort(rng.uniform(0, 2.5, k))[::-1]
            rho = float(rng.uniform(0.3, 3))
            out = prox_spectrum(sy, w, rho)
            assert np.all(np.diff(out) <= 1e-12)
            assert np.all(out >= 0)
            val = sum(
                prox_terms(np.array([out[i]]), sy, w.a, w.b, rho)[i, 0]
                for i in range(k)
            )
            best = monotone_grid_best(prox_terms(grid, sy, w.a, w.b, rho))
            assert val >= best - 1e-6


class TestProxEnvelope:
    def test_quadratic_average_when_unweighted(self):
        rng = np.random.default_rng(4)
        w = make_weights([0.0, 0.0], [0.0, 0.0])
        m = rng.standard_normal((2, 3))
        x0 = rng.standard_normal((2, 3))
        rho = 1.8
        out = prox_two(m, x0, w, rho)
        assert np.allclose(out, (x0 + rho * m) / (1.0 + rho), atol=1e-10)

    def test_diagonal_instance_grid_oracle(self):
        # m = x0 = diag(0.8, 0.1): output stays diagonal, each entry is the
        # minimizer of its own 1D objective
        w = make_weights([0.0, 0.0], [1.0, 1.0])
        d = np.diag([0.8, 0.1])
        rho = 1.0
        out = prox_two(d, d, w, rho)
        assert abs(out[0, 1]) <= 1e-12 and abs(out[1, 0]) <= 1e-12
        grid = np.arange(0.0, 3.0, 1e-4)
        entries = np.array([out[0, 0], out[1, 1]])
        base = prox_objective_value(np.diag(entries), d, d, w, rho)
        for i in range(2):
            vals = np.empty_like(grid)
            for j, g in enumerate(grid):
                t = entries.copy()
                t[i] = g
                vals[j] = prox_objective_value(np.diag(t), d, d, w, rho)
            assert base <= vals.min() + 1e-6

    def test_perturbation_non_improvement(self):
        rng = np.random.default_rng(5)
        w = make_weights([0.2, 0.5, 0.9], [0.1, 0.4, 1.2])
        m = rng.standard_normal((3, 3))
        x0 = rng.standard_normal((3, 3))
        rho = 1.3
        out = prox_two(m, x0, w, rho)
        base = prox_objective_value(out, m, x0, w, rho)
        for _ in range(1000):
            d = rng.standard_normal((3, 3))
            d *= 1e-2 / np.linalg.norm(d)
            assert prox_objective_value(out + d, m, x0, w, rho) >= base - 1e-9

    def test_objective_not_above_inputs(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            k = 3
            w = make_weights(np.sort(rng.uniform(0, 1, k)), np.sort(rng.uniform(0, 1, k)))
            m = rng.standard_normal((k, k))
            x0 = rng.standard_normal((k, k))
            rho = float(rng.uniform(0.5, 3))
            out = prox_two(m, x0, w, rho)
            base = prox_objective_value(out, m, x0, w, rho)
            assert base <= prox_objective_value(m, m, x0, w, rho) + 1e-9
            assert base <= prox_objective_value(x0, m, x0, w, rho) + 1e-9

    def test_wnnm_weighted_shrinkage(self):
        # with b = 0 and orderable shrinkage the prox acts per singular value
        rng = np.random.default_rng(7)
        a = np.array([0.1, 0.1, 0.1])
        w = make_weights(a, np.zeros(3))
        m = rng.standard_normal((3, 4))
        x0 = rng.standard_normal((3, 4))
        rho = 2.0
        out = prox_two(m, x0, w, rho)
        f = svd((x0 + rho * m) / (1.0 + rho))
        grid = np.arange(0.0, 6.0, 1e-4)
        for i in range(3):
            vals = prox_terms(grid, f.spectrum[i : i + 1], a[i : i + 1], np.zeros(1), rho)[0]
            sz = grid[vals.argmax()]
            expected = ((rho + 1.0) * f.spectrum[i] - sz) / rho
            assert svd(out).spectrum[i] == pytest.approx(expected, abs=1e-3)


class TestProxRh:
    def test_unweighted_identity(self):
        rng = np.random.default_rng(8)
        w = make_weights([0.0, 0.0], [0.0, 0.0])
        n = rng.standard_normal((2, 4))
        assert np.allclose(prox_Rh(n, w, 3.0), n, atol=1e-10)

    def test_large_tau_matches_hard_threshold_above_cut(self):
        # with every singular value above sqrt(mu) the rank penalty is
        # locally flat, so large tau pins the output to the hard-threshold
        # result (which keeps everything)
        rng = np.random.default_rng(10)
        mu = 0.25
        w = make_weights(np.zeros(3), np.full(3, mu))
        n = rng.standard_normal((3, 5)) + np.eye(3, 5) * 3.0
        sn = svd(n).spectrum
        assert np.all(sn > np.sqrt(mu))
        out = prox_Rh(n, w, 1e4)
        assert np.allclose(svd(out).spectrum, shrink_spectrum(sn, w), atol=1e-3)

    def test_small_strength_is_hard_thresholding(self):
        # tau -> 1+ recovers the unit-strength prox of the unrelaxed
        # penalty, i.e. hard thresholding at sqrt(mu)
        rng = np.random.default_rng(11)
        mu = 0.7
        w = make_weights(np.zeros(3), np.full(3, mu))
        n = rng.standard_normal((3, 5))
        out = prox_Rh(n, w, 1.0 + 1e-6)
        expected = shrink_spectrum(svd(n).spectrum, w)
        assert np.allclose(svd(out).spectrum, expected, atol=1e-3)

    def test_rank_zero_gives_zero_matrix(self):
        # every b_i infinite: the prox of the rank-0 constraint is exact
        rng = np.random.default_rng(12)
        w = make_weights(np.zeros(3), np.full(3, np.inf))
        n = rng.standard_normal((3, 5))
        for tau in (1.0 + 1e-6, 1.5, 1e4):
            assert np.array_equal(prox_Rh(n, w, tau), np.zeros((3, 5)))

    def test_input_checked_once(self, monkeypatch):
        # counted through every module binding of check_matrix: svd's
        # check is the only one on the prox path
        checked = []
        real = linalg.check_matrix

        def spy(x):
            checked.append(x)
            return real(x)

        for name in dir(rankrelax):
            module = getattr(rankrelax, name)
            if getattr(module, "check_matrix", None) is real:
                monkeypatch.setattr(module, "check_matrix", spy)
        w = make_weights([0.3, 0.6], [0.2, 0.9])
        n = np.random.default_rng(13).standard_normal((2, 4))
        prox_Rh(n, w, 2.5)
        assert len(checked) == 1
        prox_Rh(n, w, 1.5)
        assert len(checked) == 2
        for bad in (np.full((2, 4), np.nan), np.zeros(4)):
            with pytest.raises(ValueError):
                prox_Rh(bad, w, 2.5)

    def test_rejects_weak_strength(self):
        w = make_weights([0.0], [0.0])
        with pytest.raises(ValueError):
            prox_Rh(np.zeros((1, 1)), w, 1.0)
        with pytest.raises(ValueError):
            prox_Rh(np.zeros((1, 1)), w, 0.5)

    @pytest.mark.parametrize("strength", [np.nan, np.inf])
    def test_rejects_non_finite_strength(self, strength):
        # NaN fails every comparison, so only a range test rejects it; an
        # infinite strength would make the map back divide inf by inf
        w = make_weights([0.1, 0.2], [0.3, np.inf])
        n = np.random.default_rng(14).standard_normal((2, 4))
        with pytest.raises(ValueError):
            prox_Rh(n, w, strength)
        with pytest.raises(ValueError):
            prox_spectrum(np.array([1.0, 0.5]), w, strength)


# 1 x n, n x 1, square, small random, and the study's wide and tall shapes
SHAPES = st.one_of(
    st.sampled_from([(32, 512), (512, 32)]),
    st.integers(1, 12).flatmap(lambda n: st.sampled_from([(1, n), (n, 1), (n, n)])),
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
)


@settings(max_examples=150, deadline=None)
@given(
    shape=SHAPES,
    log_kappa=st.floats(0.0, 12.0),
    zero_lines=st.integers(0, 12),
    exponent=st.integers(-100, 100),
    log_rho=st.floats(-6.0, math.log10(99.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_short_side_map_back_matches_two_factors(
    shape, log_kappa, zero_lines, exponent, log_rho, seed
):
    """prox_Rh's (q diag(r) q^T) product against u diag(sx) v^T on the same
    SVD, on the Gram route and on LAPACK's."""
    rng = np.random.default_rng(seed)
    k = min(shape)
    s = 10.0 ** -np.sort(np.r_[0.0, log_kappa, rng.uniform(0.0, log_kappa, max(k - 2, 0))])[:k]
    q1, _ = np.linalg.qr(rng.standard_normal((shape[0], k)))
    q2, _ = np.linalg.qr(rng.standard_normal((shape[1], k)))
    n = (q1 * s) @ q2.T
    # zero lines along the short side give LAPACK exact zero singular values
    if shape[0] <= shape[1]:
        n[k - min(zero_lines, k) :, :] = 0.0
    else:
        n[:, k - min(zero_lines, k) :] = 0.0
    scale = 10.0**exponent
    n *= scale
    a = scale * np.sort(rng.uniform(0.0, 1.0, k)) * rng.choice([0.0, 1.0])
    b = scale**2 * np.sort(rng.uniform(0.0, 1.0, k)) * rng.choice([0.0, 0.1, 1.0, 4.0])
    b[rng.integers(0, k + 1) if rng.random() < 0.3 else k :] = np.inf
    w = make_weights(a, b)
    tau = 1.0 + 10.0**log_rho
    gram = linalg._GRAM_MIN_RATIO
    for ratio in (gram, math.inf):
        linalg._GRAM_MIN_RATIO = ratio
        try:
            x = prox_Rh(n, w, tau)
            f = svd(n)
        finally:
            linalg._GRAM_MIN_RATIO = gram
        expected, sx = two_factor_prox(f, w, tau)
        assert np.all(sx[f.spectrum == 0.0] == 0.0)
        assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(n))


@settings(max_examples=300, deadline=None)
@given(
    shape=st.one_of(
        st.integers(1, 12).flatmap(lambda n: st.sampled_from([(1, n), (n, 1)])),
        st.tuples(st.integers(1, 8), st.integers(1, 8)),
    ),
    exponent=st.floats(-8.0, 8.0),
    log_rho=st.floats(-6.0, math.log10(99.0)),
    finite=st.one_of(st.none(), st.integers(0, 8)),
    zero=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_prox_value_is_envelope_at_output(shape, exponent, log_rho, finite, zero, seed):
    """The R_h(X) the prox reads off its own maximizer equals eval_Rh on an
    SVD of its output X, within 1e-13 of the magnitude of the terms."""
    rng = np.random.default_rng(seed)
    k = min(shape)
    scale = 10.0**exponent
    n = np.zeros(shape) if zero else scale * rng.standard_normal(shape)
    a = scale * np.sort(rng.uniform(0.0, 1.0, k)) * rng.choice([0.0, 1.0])
    b = scale**2 * np.sort(rng.uniform(0.0, 1.0, k)) * rng.choice([0.0, 0.1, 1.0, 4.0])
    b[k if finite is None else min(finite, k) :] = np.inf  # 0 finite: every b_i infinite
    w = make_weights(a, b)
    x, value = _prox_with_value(n, w, 1.0 + 10.0**log_rho)
    assert np.array_equal(x, prox_Rh(n, w, 1.0 + 10.0**log_rho))
    sx = svd(x, compute_uv=False)
    expected = eval_Rh(sx, w)
    if np.isinf(b[0]) or zero:
        # rank 0, or a zero input: the prox returns 0, where R_h is 0
        assert value == expected == 0.0 and not x.any()
        return
    z = maximizing_spectrum(sx, w)
    r2 = np.maximum(z - a, 0.0) ** 2
    magnitude = np.sum(np.minimum(b, r2) + r2 + np.abs(sx * (2.0 * z - sx)))
    assert abs(value - expected) <= 1e-13 * magnitude
