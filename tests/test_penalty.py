import numpy as np
import pytest

from rankrelax import (
    InvalidWeightsError,
    eval_h,
    make_weights,
    maximizing_spectrum,
    preset,
    prox_spectrum,
    shrink_spectrum,
)
from rankrelax.penalty import check_spectrum


class TestMakeWeights:
    def test_zero_weights_valid(self):
        w = make_weights([0.0, 0.0], [0.0, 0.0])
        assert len(w) == 2

    def test_decreasing_a_invalid(self):
        with pytest.raises(InvalidWeightsError):
            make_weights([1.0, 0.5], [0.0, 0.0])

    def test_hard_rank_sentinel_valid(self):
        w = make_weights([0.0, 0.0, 0.0], [0.0, 1.0, np.inf])
        assert w.b[2] == np.inf

    def test_negative_rejected(self):
        with pytest.raises(InvalidWeightsError):
            make_weights([-0.1, 0.0], [0.0, 0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidWeightsError):
            make_weights([0.0], [0.0, 1.0])


class TestCheckSpectrum:
    W = make_weights([0.0, 1.0], [0.0, 1.0])
    CHECKED = (
        eval_h,
        shrink_spectrum,
        maximizing_spectrum,
        lambda s, w: prox_spectrum(s, w, 1.0),
    )

    def test_coerces_unsorted(self):
        out = check_spectrum([1, 2], self.W)
        assert out.dtype == float and np.array_equal(out, [1.0, 2.0])

    @pytest.mark.parametrize(
        "bad",
        [[1.0], [1.0, 0.5, 0.2], [[1.0, 0.5]], [1.0, -0.5], [np.nan, 0.5], [np.inf, 0.5]],
    )
    def test_every_spectral_entry_point_rejects(self, bad):
        with pytest.raises(ValueError):
            check_spectrum(bad, self.W)
        for f in self.CHECKED:
            with pytest.raises(ValueError):
                f(np.asarray(bad, dtype=float), self.W)

    def test_ordering_required_only_by_the_penalty(self):
        s = np.array([0.5, 2.0])
        for f in (eval_h, shrink_spectrum):
            with pytest.raises(ValueError):
                f(s, self.W)
        assert maximizing_spectrum(s, self.W).shape == (2,)
        assert prox_spectrum(s, self.W, 1.0).shape == (2,)


class TestEvalH:
    def test_zero_spectrum(self):
        w = make_weights([1.0, 2.0], [0.5, 3.0])
        assert eval_h(np.zeros(2), w) == 0.0

    def test_direct_sum(self):
        w = make_weights([0.5, 0.5], [0.1, 0.2])
        assert eval_h(np.array([2.0, 1.0]), w) == pytest.approx(3.3)

    def test_inactive_index(self):
        w = make_weights([1.0, 1.0], [1.0, 1.0])
        assert eval_h(np.array([2.0, 0.0]), w) == pytest.approx(5.0)

    def test_infinite_b_active(self):
        w = make_weights([0.0, 0.0], [0.0, np.inf])
        assert eval_h(np.array([1.0, 0.5]), w) == np.inf


class TestShrinkSpectrum:
    def test_recovered_value_curve(self):
        # jump threshold at a + sqrt(b) = 0.5; kept values shrink by a
        w = make_weights([0.25], [0.25])
        assert shrink_spectrum(np.array([0.6]), w)[0] == 0.0
        assert shrink_spectrum(np.array([0.75]), w)[0] == pytest.approx(0.5)
        assert shrink_spectrum(np.array([1.5]), w)[0] == pytest.approx(1.25)

    def test_soft_threshold_when_b_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            a = np.sort(rng.uniform(0, 2, k))
            s0 = np.sort(rng.uniform(0, 3, k))[::-1]
            w = make_weights(a, np.zeros(k))
            assert np.allclose(shrink_spectrum(s0, w), np.maximum(s0 - a, 0.0))

    def test_hard_threshold_when_a_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            b = np.sort(rng.uniform(0, 2, k))
            s0 = np.sort(rng.uniform(0, 3, k))[::-1]
            w = make_weights(np.zeros(k), b)
            expected = np.where(s0 >= np.sqrt(b), s0, 0.0)
            assert np.allclose(shrink_spectrum(s0, w), expected)

    def test_matches_grid_argmin(self):
        # per-index scalar objective: 2*a*s + b + (s - s0)^2, or s0^2 at 0
        rng = np.random.default_rng(2)
        grid = np.arange(0.0, 5.0, 1e-4)
        for _ in range(30):
            k = int(rng.integers(1, 5))
            a = np.sort(rng.uniform(0, 1.5, k))
            b = np.sort(rng.uniform(0, 1.5, k))
            s0 = np.sort(rng.uniform(0, 3, k))[::-1]
            w = make_weights(a, b)
            out = shrink_spectrum(s0, w)
            for i in range(k):
                obj = np.where(
                    grid == 0.0,
                    s0[i] ** 2,
                    2 * a[i] * grid + b[i] + (grid - s0[i]) ** 2,
                )
                got = s0[i] ** 2 if out[i] == 0 else (
                    2 * a[i] * out[i] + b[i] + (out[i] - s0[i]) ** 2
                )
                assert got <= obj.min() + 1e-6
                # away from the zero/non-zero branch tie the argmins coincide
                zero_cost = s0[i] ** 2
                keep_cost = 2 * a[i] * s0[i] - a[i] ** 2 + b[i]
                if abs(zero_cost - keep_cost) > 1e-3:
                    assert abs(out[i] - grid[obj.argmin()]) <= 1e-3

    def test_output_is_valid_spectrum(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = int(rng.integers(1, 7))
            w = make_weights(np.sort(rng.uniform(0, 2, k)), np.sort(rng.uniform(0, 2, k)))
            out = shrink_spectrum(np.sort(rng.uniform(0, 3, k))[::-1], w)
            assert np.all(np.diff(out) <= 1e-15)
            assert np.all(out >= 0)


class TestPresets:
    def test_nuclear(self):
        w = preset("nuclear", 2, mu=2.0)
        assert np.allclose(w.a, [1.0, 1.0])
        assert np.allclose(w.b, [0.0, 0.0])

    def test_rmu(self):
        w = preset("rmu", 3, mu=1.0)
        assert np.allclose(w.a, 0.0)
        assert np.allclose(w.b, 1.0)

    def test_hard_rank(self):
        w = preset("hard_rank", 2, rank=1)
        assert w.b[0] == 0.0
        assert w.b[1] == np.inf

    def test_wnnm(self):
        w = preset("wnnm", 3, weights=np.array([1.0, 2.0, 4.0]))
        assert np.allclose(w.a, [0.5, 1.0, 2.0])

    def test_wnnm_decreasing_rejected(self):
        with pytest.raises(InvalidWeightsError):
            preset("wnnm", 2, weights=np.array([2.0, 1.0]))

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidWeightsError):
            preset("l1", 2, mu=1.0)
