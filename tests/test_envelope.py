import numpy as np
import pytest

from rankrelax import (
    MaskedObservations,
    eval_Rh,
    eval_h,
    make_weights,
    maximizing_spectrum,
    preset,
    solve_objective,
    svd,
)

from oracles import envelope_terms, fenchel_conjugate, monotone_grid_best


def random_instance(rng, kmax=5, hi=3.0):
    k = int(rng.integers(1, kmax + 1))
    a = np.sort(rng.uniform(0, hi, k))
    b = np.sort(rng.uniform(0, hi, k))
    sx = np.sort(rng.uniform(0, hi, k))[::-1]
    return sx, make_weights(a, b)


def envelope_objective(z, sx, w):
    r2 = np.maximum(z - w.a, 0.0) ** 2
    return float(np.sum(np.minimum(w.b, r2) + z**2 - (sx - z) ** 2 - r2))


def unconstrained_maximizers(sx, w):
    """Per-index maximizers: each index solved on its own, at k = 1."""
    return np.array([
        maximizing_spectrum(sx[i : i + 1], make_weights(w.a[i : i + 1], w.b[i : i + 1]))[0]
        for i in range(len(sx))
    ])


class TestUnconstrainedMaximizers:
    def test_reduces_to_identity(self):
        w = make_weights([0.0, 0.0], [0.0, 0.0])
        assert np.allclose(unconstrained_maximizers(np.array([3.0, 1.0]), w), [3.0, 1.0])

    def test_scalar_formula(self):
        w = make_weights([0.25], [0.25])
        assert maximizing_spectrum(np.array([0.3]), w)[0] == pytest.approx(0.75)

    def test_direct_formula(self):
        w = make_weights([0.0, 1.0], [1.0, 1.0])
        out = unconstrained_maximizers(np.array([0.5, 2.0]), w)
        assert np.allclose(out, [1.0, 3.0])


class TestSegmentMax:
    def test_single_index_equals_unconstrained(self):
        # a block of one index takes the closed form a_i + max(sqrt(b_i), sx_i)
        rng = np.random.default_rng(0)
        for _ in range(20):
            sx, w = random_instance(rng)
            expected = w.a + np.maximum(np.sqrt(w.b), sx)
            assert np.allclose(unconstrained_maximizers(sx, w), expected, rtol=0, atol=1e-12)

    def test_pair_block_against_grid(self):
        # the two per-index maximizers 1 and 3 violate the ordering, so the
        # pair is solved as one block at a common value
        w = make_weights([0.0, 1.0], [1.0, 1.0])
        sx = np.array([0.5, 2.0])
        z = maximizing_spectrum(sx, w)
        grid = np.arange(0.0, 6.0, 1e-4)
        vals = envelope_terms(grid, sx, w.a, w.b).sum(axis=0)
        assert z[0] == z[1]
        assert z[0] == pytest.approx(grid[vals.argmax()], abs=1e-3)
        assert z[0] == pytest.approx(2.0)


class TestMaximizingSpectrum:
    def test_ordered_input_unchanged(self):
        w = make_weights([0.0] * 3, [0.0] * 3)
        assert np.allclose(maximizing_spectrum(np.array([3.0, 2.0, 1.0]), w), [3, 2, 1])

    def test_merged_pair(self):
        w = make_weights([0.0, 1.0], [1.0, 1.0])
        assert np.allclose(maximizing_spectrum(np.array([0.5, 2.0]), w), [2.0, 2.0])

    def test_already_ordered_maximizers(self):
        w = make_weights([0.0, 0.0], [1.0, 1.0])
        assert np.allclose(maximizing_spectrum(np.array([2.0, 0.5]), w), [2.0, 1.0])

    def test_output_in_monotone_cone(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            sx, w = random_instance(rng, kmax=8)
            z = maximizing_spectrum(sx, w)
            assert np.all(np.diff(z) <= 1e-12)
            assert np.all(z >= 0)

    def test_beats_grid_oracle(self):
        rng = np.random.default_rng(3)
        grid = np.arange(0.0, 6.5, 1e-3)
        for _ in range(100):
            sx, w = random_instance(rng)
            z = maximizing_spectrum(sx, w)
            best = monotone_grid_best(envelope_terms(grid, sx, w.a, w.b))
            assert envelope_objective(z, sx, w) >= best - 1e-6

    def test_constrained_below_unconstrained(self):
        # restriction chain: adding ordering constraints cannot help
        rng = np.random.default_rng(4)
        for _ in range(50):
            sx, w = random_instance(rng)
            free = unconstrained_maximizers(sx, w)
            z = maximizing_spectrum(sx, w)
            free_val = sum(
                envelope_terms(np.array([free[i]]), sx, w.a, w.b)[i, 0]
                for i in range(len(sx))
            )
            assert envelope_objective(z, sx, w) <= free_val + 1e-9


class TestEvalRh:
    def test_zero_weights(self):
        w = make_weights([0.0, 0.0], [0.0, 0.0])
        assert eval_Rh(np.array([3.0, 1.0]), w) == pytest.approx(0.0, abs=1e-12)

    def test_rank_cost_closed_form(self):
        w = make_weights([0.0, 0.0], [1.0, 1.0])
        assert eval_Rh(np.array([2.0, 0.5]), w) == pytest.approx(1.75)

    def test_weighted_norm_case(self):
        w = make_weights([0.5, 0.5], [0.0, 0.0])
        assert eval_Rh(np.array([2.0, 1.0]), w) == pytest.approx(3.0)

    def test_constant_rank_cost_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            mu = float(rng.uniform(0.1, 3))
            sx = np.sort(rng.uniform(0, 3, k))[::-1]
            w = make_weights(np.zeros(k), np.full(k, mu))
            expected = np.sum(mu - np.maximum(np.sqrt(mu) - sx, 0.0) ** 2)
            assert eval_Rh(sx, w) == pytest.approx(expected, abs=1e-9)

    def test_pure_weight_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            a = np.sort(rng.uniform(0, 2, k))
            sx = np.sort(rng.uniform(0, 3, k))[::-1]
            w = make_weights(a, np.zeros(k))
            bound = float(np.sum(2 * a * sx))
            val = eval_Rh(sx, w)
            assert val <= bound + 1e-9
            if np.all(np.diff(a + sx) <= 0):
                assert val == pytest.approx(bound, abs=1e-9)

    def test_non_negative(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            sx, w = random_instance(rng)
            assert eval_Rh(sx, w) >= -1e-12

    def test_hard_rank_finite(self):
        w = preset("hard_rank", 3, rank=1)
        val = eval_Rh(np.array([3.0, 1.0, 0.5]), w)
        assert np.isfinite(val)
        assert val >= 0

    def test_rank_zero_is_infinite_off_zero(self):
        # every b_i infinite: the rank-0 constraint, +inf anywhere but zero
        w = make_weights([0.0, 0.0], [np.inf, np.inf])
        assert eval_Rh(np.array([2.0, 1.0]), w) == np.inf
        assert eval_Rh(np.array([4.0, 1.0]), w) == np.inf
        assert eval_Rh(np.array([0.0, 1e-300]), w) == np.inf
        assert eval_Rh(np.zeros(2), w) == 0.0

    def test_rank_zero_has_no_maximizer(self):
        w = make_weights([0.5, 1.0], [np.inf, np.inf])
        for sx in (np.array([2.0, 1.0]), np.zeros(2)):
            with pytest.raises(ValueError):
                maximizing_spectrum(sx, w)

    def test_exactly_zero_at_zero_spectrum(self):
        # R_h(0) = h(0) = 0. At sx_i = 0 each term is flat on [0, t_i] and
        # the maximizer takes its left end, 0, so no terms cancel in rounding
        rng = np.random.default_rng(8)
        for _ in range(2000):
            k = int(rng.integers(1, 6))
            scale = 10.0 ** rng.uniform(-8, 8)
            a = np.sort(rng.uniform(0, 3, k)) * scale
            b = (np.sort(rng.uniform(0, 3, k)) * scale) ** 2
            b[int(rng.integers(1, k + 1)) :] = np.inf
            w = make_weights(a, b)
            assert eval_Rh(np.zeros(k), w) == 0.0
            assert np.all(maximizing_spectrum(np.zeros(k), w) == 0.0)

    def test_large_finite_rank_cost(self):
        # sqrt(b) = 3 far above a + sx: the maximizer sits on the breakpoint,
        # where R_h = 2*sqrt(b)*s - s^2
        w = make_weights([0.0], [9.0])
        assert maximizing_spectrum(np.array([0.01]), w)[0] == 3.0
        assert eval_Rh(np.array([0.01]), w) == pytest.approx(2 * 3 * 0.01 - 0.01**2)

    def test_long_infinite_tail(self):
        # b_0 = 0 and 38 infinite entries at sx = 1: on a common value z the
        # objective is -(z - 1)^2 + 38 * (2z - 1), maximized at z = 39
        k = 39
        w = make_weights(np.zeros(k), np.r_[0.0, np.full(k - 1, np.inf)])
        sx = np.ones(k)
        assert np.allclose(maximizing_spectrum(sx, w), 39.0, rtol=0, atol=1e-12)
        assert eval_Rh(sx, w) == pytest.approx(-(38.0**2) + 38 * 77.0)


def eval_envelope(x, x0, w):
    """Envelope of the penalty plus ||x - x0||^2: the solver objective at a full mask."""
    return solve_objective(x, MaskedObservations(x0, np.ones_like(x0)), w)


class TestEvalEnvelope:
    def test_trivial_zero(self):
        w = make_weights([0.0, 0.0], [0.0, 0.0])
        x = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert eval_envelope(x, x, w) == pytest.approx(0.0, abs=1e-12)

    def test_zero_matrices(self):
        w = make_weights([0.3, 0.7], [0.5, 0.9])
        z = np.zeros((2, 2))
        assert eval_envelope(z, z, w) == pytest.approx(0.0, abs=1e-12)

    def test_recomposed_from_parts(self):
        rng = np.random.default_rng(8)
        w = make_weights([0.2, 0.4], [0.1, 0.6])
        x = rng.standard_normal((2, 2))
        x0 = rng.standard_normal((2, 2))
        expected = eval_Rh(svd(x).spectrum, w) + np.sum((x - x0) ** 2)
        assert eval_envelope(x, x0, w) == pytest.approx(expected, abs=1e-12)

    def test_below_unrelaxed(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            k = int(rng.integers(2, 4))
            w = make_weights(np.sort(rng.uniform(0, 2, k)), np.sort(rng.uniform(0, 2, k)))
            x = rng.standard_normal((k, k + 1))
            x0 = rng.standard_normal((k, k + 1))
            unrelaxed = eval_h(svd(x).spectrum, w) + np.sum((x - x0) ** 2)
            assert eval_envelope(x, x0, w) <= unrelaxed + 1e-9

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            k = 3
            w = make_weights(np.sort(rng.uniform(0, 2, k)), np.sort(rng.uniform(0, 2, k)))
            x0 = rng.standard_normal((k, k))
            x1 = rng.standard_normal((k, k))
            x2 = rng.standard_normal((k, k))
            mid = eval_envelope((x1 + x2) / 2, x0, w)
            avg = (eval_envelope(x1, x0, w) + eval_envelope(x2, x0, w)) / 2
            assert mid <= avg + 1e-8

    def test_rank_zero(self):
        w = make_weights([0.0, 0.0], [np.inf, np.inf])
        x0 = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert eval_envelope(x0, x0, w) == np.inf
        assert eval_envelope(np.zeros((2, 2)), x0, w) == pytest.approx(30.0)

    def test_shape_mismatch_rejected(self):
        w = make_weights([0.0], [0.0])
        with pytest.raises(ValueError):
            eval_envelope(np.zeros((1, 2)), np.zeros((2, 1)), w)


class TestFenchelConjugate:
    def test_zero_z_case(self):
        rng = np.random.default_rng(11)
        w = make_weights([0.1, 0.2], [0.3, 0.4])
        x0 = rng.standard_normal((2, 3))
        val = fenchel_conjugate(-2.0 * x0, x0, w)
        assert val == pytest.approx(-np.sum(x0**2), abs=1e-10)

    def test_zero_weights_formula(self):
        rng = np.random.default_rng(12)
        w = make_weights([0.0, 0.0], [0.0, 0.0])
        y = rng.standard_normal((2, 2))
        x0 = rng.standard_normal((2, 2))
        expected = np.sum((y / 2 + x0) ** 2) - np.sum(x0**2)
        assert fenchel_conjugate(y, x0, w) == pytest.approx(expected, abs=1e-10)

    def test_matches_diagonal_sup(self):
        # by unitary invariance the supremum is attained at matrices
        # sharing the factors of z = y/2 + x0
        rng = np.random.default_rng(13)
        grid = np.arange(0.0, 6.0, 2e-3)
        for _ in range(5):
            w = make_weights(np.sort(rng.uniform(0, 1, 2)), np.sort(rng.uniform(0, 1, 2)))
            y = rng.standard_normal((2, 2))
            x0 = rng.standard_normal((2, 2))
            f = svd(y / 2 + x0)
            best = -np.inf
            for s1 in grid:
                x = np.outer(f.u[:, 0] * s1, f.v[:, 0])
                g2 = grid[grid <= s1]
                xs = x[None, :, :] + g2[:, None, None] * np.outer(f.u[:, 1], f.v[:, 1])
                pen = np.where(g2 > 0, 2 * w.a[1] * g2 + w.b[1], 0.0) + (
                    (2 * w.a[0] * s1 + w.b[0]) if s1 > 0 else 0.0
                )
                vals = (
                    np.sum(y * xs, axis=(1, 2))
                    - pen
                    - np.sum((xs - x0) ** 2, axis=(1, 2))
                )
                best = max(best, float(vals.max()))
            assert fenchel_conjugate(y, x0, w) == pytest.approx(best, abs=1e-2)

    def test_fenchel_young(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            k = 2
            w = make_weights(np.sort(rng.uniform(0, 2, k)), np.sort(rng.uniform(0, 2, k)))
            y = rng.standard_normal((k, k))
            x = rng.standard_normal((k, k))
            x0 = rng.standard_normal((k, k))
            lhs = fenchel_conjugate(y, x0, w)
            rhs = (
                np.sum(y * x)
                - eval_h(svd(x).spectrum, w)
                - np.sum((x - x0) ** 2)
            )
            assert lhs >= rhs - 1e-9
