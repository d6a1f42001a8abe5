import math

import numpy as np
import pytest

from rankrelax import (
    AdmmConfig,
    ExperimentSpec,
    MaskedObservations,
    admm_complete,
    data_update,
    gen_instance,
    instance_weights,
    linalg,
    make_weights,
    mask_tracking,
    mask_uniform,
    preset,
    shrink_spectrum,
    solve_objective,
    svd,
)

from reference_admm import admm_every_iteration, stalled


def full_mask_obs(m):
    return MaskedObservations(m, np.ones_like(m))


class TestMaskedObservations:
    def test_valid(self):
        obs = full_mask_obs(np.ones((2, 3)))
        assert obs.m.shape == (2, 3)

    def test_rejects_non_binary_mask(self):
        with pytest.raises(ValueError):
            MaskedObservations(np.ones((2, 2)), np.full((2, 2), 0.5))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            MaskedObservations(np.ones((2, 2)), np.ones((2, 3)))


class TestAdmmConfig:
    def test_defaults_valid(self):
        cfg = AdmmConfig()
        assert cfg.rho > 1

    def test_rejects_small_rho(self):
        with pytest.raises(ValueError):
            AdmmConfig(rho=1.0)

    def test_rejects_bad_iters_and_tols(self):
        with pytest.raises(ValueError):
            AdmmConfig(max_iters=0)
        with pytest.raises(ValueError):
            AdmmConfig(primal_tol=0.0)
        with pytest.raises(ValueError):
            AdmmConfig(rel_obj_tol=-1.0)

    @pytest.mark.parametrize("field", ["rho", "primal_tol", "rel_obj_tol"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, field, value):
        # a NaN tolerance never stops a solve early; a non-finite rho
        # breaks the first prox
        with pytest.raises(ValueError):
            AdmmConfig(**{field: value})


class TestDataUpdate:
    def test_unobserved_passthrough(self):
        m = np.array([[5.0]])
        obs = MaskedObservations(m, np.zeros((1, 1)))
        t = np.array([[2.0]])
        assert data_update(t, obs, 1.7)[0, 0] == pytest.approx(2.0)

    def test_observed_average_at_unit_rho(self):
        obs = full_mask_obs(np.array([[4.0]]))
        assert data_update(np.array([[2.0]]), obs, 1.0)[0, 0] == pytest.approx(3.0)

    def test_dominant_rho_limit(self):
        obs = full_mask_obs(np.array([[4.0]]))
        out = data_update(np.array([[2.0]]), obs, 1e9)[0, 0]
        assert abs(out - 2.0) <= 1e-8

    def test_minimizes_scalar_quadratic(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.standard_normal((2, 2))
            mask = (rng.uniform(size=(2, 2)) < 0.5).astype(float)
            obs = MaskedObservations(m, mask)
            t = rng.standard_normal((2, 2))
            rho = float(rng.uniform(1.1, 5))
            y = data_update(t, obs, rho)
            base = rho * np.sum((y - t) ** 2) + np.sum((mask * (y - m)) ** 2)
            for _ in range(20):
                d = rng.standard_normal((2, 2)) * 1e-3
                trial = rho * np.sum((y + d - t) ** 2) + np.sum(
                    (mask * (y + d - m)) ** 2
                )
                assert trial >= base - 1e-12


class TestSolveObjective:
    def test_zero_at_data(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        w = make_weights([0.0, 0.0], [0.0, 0.0])
        assert solve_objective(m, full_mask_obs(m), w) == pytest.approx(0.0, abs=1e-12)

    def test_zero_point_is_observed_energy(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((3, 4))
        mask = (rng.uniform(size=(3, 4)) < 0.6).astype(float)
        obs = MaskedObservations(m, mask)
        w = make_weights([0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
        expected = float(np.sum((mask * m) ** 2))
        assert solve_objective(np.zeros((3, 4)), obs, w) == pytest.approx(expected)

    def test_recomposition(self):
        from rankrelax import eval_Rh

        rng = np.random.default_rng(2)
        m = rng.standard_normal((3, 3))
        x = rng.standard_normal((3, 3))
        mask = (rng.uniform(size=(3, 3)) < 0.7).astype(float)
        obs = MaskedObservations(m, mask)
        w = make_weights([0.1, 0.4, 0.5], [0.2, 0.2, 0.8])
        expected = eval_Rh(svd(x).spectrum, w) + np.sum((mask * (x - m)) ** 2)
        assert solve_objective(x, obs, w) == pytest.approx(expected, abs=1e-12)


class TestAdmmComplete:
    def test_full_mask_no_penalty_recovers_data(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 5))
        w = make_weights(np.zeros(4), np.zeros(4))
        y, diag = admm_complete(full_mask_obs(m), w, AdmmConfig(max_iters=2000))
        assert np.max(np.abs(y - m)) <= 1e-6
        assert diag.converged

    def test_full_mask_nuclear_soft_threshold(self):
        # full mask + nuclear penalty has closed-form solution: soft
        # thresholding of the data spectrum at mu/2
        rng = np.random.default_rng(4)
        m = rng.standard_normal((5, 6))
        mu = 1.2
        w = preset("nuclear", 5, mu=mu)
        y, diag = admm_complete(
            full_mask_obs(m),
            w,
            AdmmConfig(rho=1.5, max_iters=5000, primal_tol=1e-10, rel_obj_tol=1e-14),
        )
        expected = np.maximum(svd(m).spectrum - mu / 2.0, 0.0)
        assert np.allclose(svd(y).spectrum, expected, atol=1e-4)

    def test_rank_one_hidden_entry(self):
        # 4x4 rank-1 data with one entry unobserved; the nearly-free
        # direction makes ADMM converge very slowly, hence the tight
        # settings
        u = np.array([1.0, 2.0, 3.0, 4.0])
        m0 = np.outer(u, u)
        mask = np.ones((4, 4))
        mask[2, 2] = 0.0
        obs = MaskedObservations(m0 * mask, mask)
        w = preset("nuclear", 4, mu=1e-3)
        cfg = AdmmConfig(
            rho=1.001, max_iters=400000, primal_tol=1e-14, rel_obj_tol=1e-16
        )
        y, _ = admm_complete(obs, w, cfg)
        assert abs(y[2, 2] - m0[2, 2]) <= 1e-2

    def test_residual_below_tol_on_convergence(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 4))
        mask = (rng.uniform(size=(4, 4)) < 0.8).astype(float)
        obs = MaskedObservations(m, mask)
        w = preset("nuclear", 4, mu=0.5)
        cfg = AdmmConfig(max_iters=5000, primal_tol=1e-8, rel_obj_tol=1e-15)
        y, diag = admm_complete(obs, w, cfg)
        assert diag.converged
        assert diag.primal_residual_trace[-1] <= cfg.primal_tol
        assert len(diag.objective_trace) == math.ceil(diag.iterations / 10)
        assert diag.objective_trace[-1] == solve_objective(y, obs, w)

    def test_improves_on_zero_init(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            m = rng.standard_normal((4, 6))
            mask = (rng.uniform(size=(4, 6)) < 0.7).astype(float)
            obs = MaskedObservations(m, mask)
            w = preset("rmu", 4, mu=0.3)
            y, _ = admm_complete(obs, w, AdmmConfig(max_iters=2000))
            assert solve_objective(y, obs, w) <= solve_objective(
                np.zeros((4, 6)), obs, w
            ) + 1e-9

    def test_scaling_consistency(self):
        # scaling data by c, a by c and b by c^2 scales the full-mask
        # shrinkage solution by c
        rng = np.random.default_rng(7)
        m = rng.standard_normal((3, 4))
        c = 2.5
        a = np.array([0.1, 0.1, 0.1])
        b = np.array([0.2, 0.2, 0.2])
        base = shrink_spectrum(svd(m).spectrum, make_weights(a, b))
        scaled = shrink_spectrum(
            svd(c * m).spectrum, make_weights(c * a, c * c * b)
        )
        assert np.allclose(scaled, c * base, atol=1e-10)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((4, 4))
        mask = (rng.uniform(size=(4, 4)) < 0.8).astype(float)
        obs = MaskedObservations(m, mask)
        w = preset("nuclear", 4, mu=0.4)
        y1, d1 = admm_complete(obs, w, AdmmConfig(max_iters=300))
        y2, d2 = admm_complete(obs, w, AdmmConfig(max_iters=300))
        assert np.array_equal(y1, y2)
        assert d1.objective_trace == d2.objective_trace


def small_masked_problem():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 4))
    mask = (rng.uniform(size=(4, 4)) < 0.8).astype(float)
    return MaskedObservations(m, mask), preset("nuclear", 4, mu=0.5)


class TestWindowedObjective:
    """The solver against a loop that evaluates the objective every iteration."""

    @pytest.mark.parametrize(
        "max_iters, reason", [(5000, "primal"), (5, "cap"), (37, "cap"), (40, "cap")]
    )
    def test_matches_every_iteration_loop(self, max_iters, reason):
        obs, w = small_masked_problem()
        cfg = AdmmConfig(max_iters=max_iters, primal_tol=1e-8, rel_obj_tol=1e-15)
        y, diag = admm_complete(obs, w, cfg)
        ref = admm_every_iteration(obs, w, cfg)
        assert diag.stop_reason == reason
        assert diag.converged == (reason != "cap")
        assert np.array_equal(y, ref.y)
        assert diag.iterations == ref.iterations
        assert diag.converged == ref.converged
        # checkpoints at 10, 20, ... then the exit value, counted once
        n = diag.iterations
        expected = [ref.objective_trace[i - 1] for i in range(10, n, 10)]
        assert diag.objective_trace == expected + [ref.objective_trace[-1]]

    def test_stall_stops_on_a_window_boundary(self):
        obs, w = small_masked_problem()
        cfg = AdmmConfig(max_iters=5000, primal_tol=1e-14, rel_obj_tol=1e-4)
        y, diag = admm_complete(obs, w, cfg)
        old = admm_every_iteration(obs, w, cfg)
        assert diag.stop_reason == "stall" and diag.converged
        n = diag.iterations
        assert n % 10 == 0
        assert n >= old.iterations
        # the every-iteration loop run to n has the same iterate, and its
        # stall condition holds at n
        ref = admm_every_iteration(
            obs, w, AdmmConfig(max_iters=n, primal_tol=1e-14, rel_obj_tol=1e-300)
        )
        assert ref.iterations == n
        assert np.array_equal(y, ref.y)
        assert stalled(ref.objective_trace[-1], ref.objective_trace[-11], cfg.rel_obj_tol)
        assert diag.objective_trace[-2:] == [
            ref.objective_trace[-11],
            ref.objective_trace[-1],
        ]

    def test_dual_residual_trace(self):
        obs, w = small_masked_problem()
        cfg = AdmmConfig(max_iters=3, rel_obj_tol=1e-15)
        first, _ = admm_complete(obs, w, AdmmConfig(max_iters=1))
        _, diag = admm_complete(obs, w, cfg)
        assert len(diag.dual_residual_trace) == diag.iterations == 3
        # Y_0 = 0, so the first entry is rho * ||Y_1||
        assert diag.dual_residual_trace[0] == pytest.approx(
            cfg.rho * np.linalg.norm(first)
        )


@pytest.mark.parametrize(
    "rows, cols, rank, mask, fraction, mu, cfg",
    [
        # a study cell, short of its 300-iteration cap
        (32, 512, 4, mask_uniform, 0.6, 3.0, AdmmConfig(max_iters=60)),
        # a wide tracking cell at the wide_tracking benchmark's shape
        (128, 2048, 8, mask_tracking, 0.3, 10.0,
         AdmmConfig(max_iters=3, primal_tol=1e-14, rel_obj_tol=1e-15)),
    ],
    ids=["uniform_32x512", "tracking_128x2048"],
)
def test_gram_route_matches_lapack_route(monkeypatch, rows, cols, rank, mask, fraction, mu, cfg):
    spec = ExperimentSpec(rows=rows, cols=cols, rank=rank, seed=7)
    _, m = gen_instance(spec, 0)
    obs = MaskedObservations(m=m, w=mask(rows, cols, fraction, (7, 0, 1)))
    w = instance_weights(m, mu)
    lapack_svds = []
    real = np.linalg.svd

    def spy(*args, **kwargs):
        lapack_svds.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    y, diag = admm_complete(obs, w, cfg)
    gram_run = len(lapack_svds)
    # no eigenvalue ratio passes an infinite bound: every SVD goes to LAPACK
    monkeypatch.setattr(linalg, "_GRAM_MIN_RATIO", np.inf)
    y_ref, ref = admm_complete(obs, w, cfg)
    # the Gram route took most of the first run's SVDs
    assert gram_run < len(lapack_svds) - gram_run
    assert diag.iterations == ref.iterations
    assert diag.stop_reason == ref.stop_reason
    assert np.linalg.norm(y - y_ref) <= 1e-10 * np.linalg.norm(y_ref)
