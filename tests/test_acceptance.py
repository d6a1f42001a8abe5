"""End-to-end acceptance checks.

Each test exercises one release criterion at its stated tolerance and
prints a one-line PASS/FAIL verdict (run pytest with -s to see them).
The benchmark reproduction test takes a few minutes and carries the
`slow` marker (`pytest -m "not slow"` skips it); everything else is
fast.
"""

import time

import numpy as np
import pytest

from rankrelax import (
    AdmmConfig,
    ExperimentSpec,
    admm_complete,
    eval_Rh,
    eval_envelope,
    fenchel_conjugate,
    eval_h,
    make_weights,
    maximizing_spectrum,
    preset,
    prox_spectrum,
    run_sweep,
    shrink_spectrum,
    svd,
    write_results_csv,
)
from rankrelax.solver import MaskedObservations

from oracles import envelope_terms, monotone_grid_best, prox_terms


def verdict(ok, label):
    print("%s: %s" % ("PASS" if ok else "FAIL", label))
    assert ok, label


def random_pair(rng, kmax=5, hi=3.0):
    k = int(rng.integers(1, kmax + 1))
    a = np.sort(rng.uniform(0, hi, k))
    b = np.sort(rng.uniform(0, hi, k))
    s = np.sort(rng.uniform(0, hi, k))[::-1]
    return s, make_weights(a, b)


def test_1_envelope_spectrum_oracle():
    rng = np.random.default_rng(100)
    grid = np.arange(0.0, 6.5, 1e-3)
    start = time.time()
    ok = True
    for _ in range(500):
        sx, w = random_pair(rng)
        z = maximizing_spectrum(sx, w)
        val = sum(
            envelope_terms(np.array([z[i]]), sx, w.a, w.b)[i, 0]
            for i in range(len(sx))
        )
        best = monotone_grid_best(envelope_terms(grid, sx, w.a, w.b))
        if val < best - 1e-6:
            ok = False
            break
    elapsed = time.time() - start
    verdict(
        ok and elapsed < 60.0,
        "criterion 1: spectrum maximizer beats 1e-3 grid oracle on 500 "
        "instances in %.1fs" % elapsed,
    )


def test_2_prox_spectrum_oracle_and_continuity():
    rng = np.random.default_rng(101)
    grid = np.arange(0.0, 13.0, 1e-3)
    ok = True
    for _ in range(500):
        sy, w = random_pair(rng)
        rho = float(rng.uniform(0.3, 3.0))
        z = prox_spectrum(sy, w, rho)
        val = sum(
            prox_terms(np.array([z[i]]), sy, w.a, w.b, rho)[i, 0]
            for i in range(len(sy))
        )
        best = monotone_grid_best(prox_terms(grid, sy, w.a, w.b, rho))
        if val < best - 1e-6:
            ok = False
            break
    # case-formula continuity at both boundaries
    for _ in range(100):
        a = float(rng.uniform(0, 2))
        b = float(rng.uniform(0, 2))
        rho = float(rng.uniform(0.2, 3))
        upper = a / (rho + 1.0) + np.sqrt(b)
        lower = (a + np.sqrt(b)) / (1.0 + rho)
        if abs((a * rho / (rho + 1.0) + upper) - (a + np.sqrt(b))) > 1e-12:
            ok = False
        if abs((1.0 + rho) * lower - (a + np.sqrt(b))) > 1e-12:
            ok = False
    verdict(ok, "criterion 2: prox maximizer beats grid oracle; case formulas continuous")


def test_3_shrinkage_value_curve():
    w = make_weights([0.25], [0.25])
    outs = [shrink_spectrum(np.array([s]), w)[0] for s in (0.6, 0.75, 1.5)]
    ok = (
        outs[0] == 0.0
        and abs(outs[1] - 0.5) <= 1e-12
        and abs(outs[2] - 1.25) <= 1e-12
    )
    verdict(ok, "criterion 3: shrinkage maps (0.6, 0.75, 1.5) to (0, 0.5, 1.25)")


def test_4_special_case_identities():
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(100):
        k = int(rng.integers(1, 6))
        mu = float(rng.uniform(0.05, 3))
        s = np.sort(rng.uniform(0, 3, k))[::-1]
        w = make_weights(np.zeros(k), np.full(k, mu))
        expected = float(np.sum(mu - np.maximum(np.sqrt(mu) - s, 0.0) ** 2))
        if abs(eval_Rh(s, w) - expected) > 1e-9:
            ok = False
            break
    for _ in range(100):
        k = int(rng.integers(1, 6))
        a = np.sort(rng.uniform(0, 2, k))
        s = np.sort(rng.uniform(0, 3, k))[::-1]
        w = make_weights(a, np.zeros(k))
        val = eval_Rh(s, w)
        bound = float(np.sum(2 * a * s))
        if val > bound + 1e-9:
            ok = False
            break
        if np.all(np.diff(a + s) <= 0) and abs(val - bound) > 1e-9:
            ok = False
            break
    verdict(ok, "criterion 4: constant-b and zero-b closed forms hold")


def test_5_envelope_convexity_and_fenchel_young():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(100):
        k = 3
        w = make_weights(np.sort(rng.uniform(0, 2, k)), np.sort(rng.uniform(0, 2, k)))
        x0 = rng.standard_normal((k, k))
        x1 = rng.standard_normal((k, k))
        x2 = rng.standard_normal((k, k))
        mid = eval_envelope((x1 + x2) / 2, x0, w)
        avg = (eval_envelope(x1, x0, w) + eval_envelope(x2, x0, w)) / 2
        if mid > avg + 1e-8:
            ok = False
            break
    for _ in range(100):
        k = 2
        w = make_weights(np.sort(rng.uniform(0, 2, k)), np.sort(rng.uniform(0, 2, k)))
        y = rng.standard_normal((k, k))
        x = rng.standard_normal((k, k))
        x0 = rng.standard_normal((k, k))
        rhs = (
            float(np.sum(y * x))
            - eval_h(svd(x).spectrum, w)
            - float(np.sum((x - x0) ** 2))
        )
        if fenchel_conjugate(y, x0, w) < rhs - 1e-9:
            ok = False
            break
    verdict(ok, "criterion 5: midpoint convexity and Fenchel-Young hold")


def test_6_admm_nuclear_sanity():
    rng = np.random.default_rng(104)
    m = rng.standard_normal((5, 8))
    mu = 1.0
    obs = MaskedObservations(m, np.ones_like(m))
    y, _ = admm_complete(
        obs,
        preset("nuclear", 5, mu=mu),
        AdmmConfig(rho=1.5, max_iters=5000, primal_tol=1e-10, rel_obj_tol=1e-14),
    )
    expected = np.maximum(svd(m).spectrum - mu / 2.0, 0.0)
    ok = bool(np.all(np.abs(svd(y).spectrum - expected) <= 1e-4))
    verdict(ok, "criterion 6: full-mask nuclear solve matches soft thresholding")


REFERENCE_UNIFORM = {0.0: 0.0199, 0.2: 0.0198, 0.4: 0.0248, 0.6: 0.0466}


@pytest.mark.slow
def test_7_benchmark_reproduction():
    cfg = AdmmConfig(rho=1.5, max_iters=300, primal_tol=1e-6, rel_obj_tol=1e-9)
    # mu pre-tuned on the default grid offline; the sweep itself still
    # picks the best value per fraction from the candidates given here
    spec = ExperimentSpec(
        pattern="uniform",
        missing_fractions=(0.0, 0.2, 0.4, 0.6, 0.8),
        instances=20,
        mu_grid=(3.0, 10.0),
        seed=0,
    )
    records = run_sweep(spec, cfg)
    best = {
        r.missing_fraction: r.mean_norm_dist for r in records if r.best
    }
    ok = all(best[f] <= 1.5 * v for f, v in REFERENCE_UNIFORM.items())
    ok = ok and best[0.8] <= 0.5
    for f in sorted(best):
        print("  uniform %d%% missing: mean distance %.4f" % (100 * f, best[f]))

    tracking = ExperimentSpec(
        pattern="tracking",
        missing_fractions=(0.0, 0.25, 0.5),
        instances=5,
        mu_grid=(10.0,),
        seed=0,
    )
    trecords = run_sweep(tracking, cfg)
    tbest = {r.missing_fraction: r.mean_norm_dist for r in trecords if r.best}
    ok = ok and tbest[0.0] <= 0.03
    ok = ok and tbest[0.0] < tbest[0.25] < tbest[0.5]
    for f in sorted(tbest):
        print("  tracking %d%% missing: mean distance %.4f" % (100 * f, tbest[f]))
    verdict(ok, "criterion 7: synthetic benchmark distances within thresholds")


def test_8_sweep_determinism(tmp_path):
    spec = ExperimentSpec(
        rows=8,
        cols=32,
        rank=2,
        missing_fractions=(0.0, 0.25),
        instances=2,
        mu_grid=(0.3, 3.0),
        seed=11,
    )
    cfg = AdmmConfig(rho=1.5, max_iters=80, primal_tol=1e-6, rel_obj_tol=1e-9)
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        write_results_csv(run_sweep(spec, cfg), p)
    ok = paths[0].read_bytes() == paths[1].read_bytes()
    verdict(ok, "criterion 8: repeated sweeps produce byte-identical CSVs")
