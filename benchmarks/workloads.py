"""The benchmark's workloads.

Each workload builds its inputs from the seed with the package's own
generators (`setup`), then serves `unit(i)` calls: the top-level call the
benchmark's single caller makes and waits on. A unit returns one `Op`
per operation it performed (a completion solve or a spectrum pair),
timed and checked. Functions are looked up on their modules at call
time so that the tracer's wrappers see every call.

Why each workload exists is written up in benchmarks/README.md.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
from oracles import envelope_terms, monotone_grid_best, prox_terms

import rankrelax
from rankrelax import bench, envelope, proximal, solver

# criterion 7's reference distances (tests/test_acceptance.py): the
# best-mu mean distance per missing fraction must stay within 1.5x
REFERENCE_UNIFORM = {0.0: 0.0199, 0.2: 0.0198, 0.4: 0.0248, 0.6: 0.0466}
REFERENCE_SLACK = 1.5
# the oracle tolerance acceptance criteria 1 and 2 use
ORACLE_TOL = 1e-6
ORACLE_STEP = 1e-3


@dataclass
class Op:
    """One operation: wall ms (None if it raised or was not timed) and checks."""

    ms: float | None
    ok: bool
    iters: int | None = None
    converged: bool | None = None
    dist: float | None = None


def _finite(x, shape):
    return x.shape == shape and bool(np.all(np.isfinite(x)))


def _spec(p, seed, **kw):
    return rankrelax.ExperimentSpec(
        rows=p["rows"], cols=p["cols"], rank=p["rank"], noise_sigma=0.1, seed=seed, **kw
    )


class StudyUniform:
    """Criterion-7 traffic through `run_sweep`. One unit sweeps mu in
    {3, 10} at one reference fraction; a cycle of units covers the
    fractions on one instance, and each cycle draws a fresh instance.

    The fully observed fraction 0 is left out: its solves converge in
    about 40 iterations, and with them the median op falls on the gap
    between solves that converge and solves that stop at the cap, and
    moves with the seed. At {0.2, 0.4, 0.6} every unit holds one capped
    mu = 3 solve, half of all ops, and the median lands among them."""

    name = "study_uniform"
    SCALES = {
        "full": dict(rows=32, cols=512, rank=4, mus=(3.0, 10.0), max_iters=300,
                     fractions=(0.2, 0.4, 0.6), gated=True),
        "tiny": dict(rows=8, cols=48, rank=2, mus=(3.0, 10.0), max_iters=20,
                     fractions=(0.0, 0.4), gated=False),
    }

    def __init__(self, seed, scale):
        self.seed = seed
        self.p = self.SCALES[scale]
        self.cfg = rankrelax.AdmmConfig(
            rho=1.5, max_iters=self.p["max_iters"], primal_tol=1e-6, rel_obj_tol=1e-9
        )
        self.ops_per_unit = len(self.p["mus"])
        self.trace_units = len(self.p["fractions"])

    def _spec(self, i):
        fractions = self.p["fractions"]
        return _spec(self.p, self.seed * 1000 + i // len(fractions), pattern="uniform",
                     missing_fractions=(fractions[i % len(fractions)],), instances=1,
                     mu_grid=self.p["mus"])

    def setup(self):
        # run_sweep builds its cells itself, so set-up builds the first
        # cycle's instances, masks and weights the same way, to time them
        p = self.p
        for i in range(len(p["fractions"])):
            spec = self._spec(i)
            _, m = bench.gen_instance(spec, 0)
            bench.mask_uniform(p["rows"], p["cols"], spec.missing_fractions[0], (spec.seed, 0, 1))
            for mu in p["mus"]:
                bench.instance_weights(m, mu)

    def unit(self, i):
        solves = []
        inner = bench.admm_complete

        def probe(obs, w, cfg=None):
            t0 = time.perf_counter()
            x, diag = inner(obs, w, cfg)
            ms = (time.perf_counter() - t0) * 1e3
            solves.append(Op(ms, _finite(x, obs.m.shape), diag.iterations, diag.converged))
            return x, diag

        bench.admm_complete = probe
        try:
            records = bench.run_sweep(self._spec(i), self.cfg)
        finally:
            bench.admm_complete = inner
        if len(solves) != len(records):
            raise RuntimeError("run_sweep made %d solves for %d cells" % (len(solves), len(records)))
        # one fraction and one instance: records and solves both run over mu
        best = min(rec.mean_norm_dist for rec in records)
        limit = REFERENCE_SLACK * REFERENCE_UNIFORM[records[0].missing_fraction]
        for op, rec in zip(solves, records):
            op.dist = rec.mean_norm_dist
            op.ok = op.ok and not (self.p["gated"] and best > limit)
        return solves

    def oracle_ops(self):
        return []


class WideTracking:
    """Wide SVD-bound completion: 128x2048 with tracking masks, one mu and
    a fixed iteration budget far short of convergence."""

    name = "wide_tracking"
    SCALES = {
        "full": dict(rows=128, cols=2048, rank=8, fraction=0.3, mu=10.0, iters=10, pool=2),
        "tiny": dict(rows=16, cols=96, rank=2, fraction=0.3, mu=10.0, iters=3, pool=2),
    }
    trace_units = 2
    ops_per_unit = 1

    def __init__(self, seed, scale):
        self.seed = seed
        self.p = self.SCALES[scale]
        # tolerances no solve reaches: every solve runs the full budget
        self.cfg = rankrelax.AdmmConfig(
            rho=1.5, max_iters=self.p["iters"], primal_tol=1e-14, rel_obj_tol=1e-15
        )
        self.pool = []

    def setup(self):
        p = self.p
        spec = _spec(p, self.seed)
        pool = []
        for j in range(p["pool"]):
            m0, m = bench.gen_instance(spec, j)
            mask = bench.mask_tracking(p["rows"], p["cols"], p["fraction"], (self.seed, j, 1))
            obs = rankrelax.MaskedObservations(m=m, w=mask)
            pool.append((obs, bench.instance_weights(m, p["mu"]), m0))
        self.pool = pool

    def unit(self, i):
        obs, w, m0 = self.pool[i % len(self.pool)]
        t0 = time.perf_counter()
        x, diag = solver.admm_complete(obs, w, self.cfg)
        ms = (time.perf_counter() - t0) * 1e3
        ok = _finite(x, obs.m.shape)
        dist = rankrelax.normalized_distance(x, m0) if ok else None
        return [Op(ms, ok, diag.iterations, diag.converged, dist)]

    def oracle_ops(self):
        return []


def _spectrum_ok(z, k):
    return z.shape == (k,) and bool(
        np.all(np.isfinite(z)) and np.all(z >= 0) and np.all(np.diff(z) <= 0)
    )


class HardrankSpectra:
    """Spectrum-level PAV stream: one unit is one prox_spectrum(s/tau, w,
    tau-1) plus one eval_Rh(s, w), on spectra of zero-filled W .* M."""

    name = "hardrank_spectra"
    TAU = 1.5  # the study's ADMM rho, so rho = tau - 1 as in prox_Rh
    SCALES = {
        "full": dict(shapes=((32, 256), (128, 512)), rank=4, fraction=0.4, mu=10.0, pool=4),
        "tiny": dict(shapes=((6, 24), (10, 40)), rank=2, fraction=0.4, mu=10.0, pool=2),
    }
    ORACLE = dict(shape=(5, 40), rank=2, fraction=0.4, mu=10.0, pool=4)
    ops_per_unit = 1

    def __init__(self, seed, scale):
        self.seed = seed
        self.p = self.SCALES[scale]
        self.trace_units = 10 * self.p["pool"] * 5
        self.pool = []

    def _pairs(self, shape, rank, fraction, mu, j, extra_hard):
        # per measurement: rh weights and hard-rank weights (b = inf), plus
        # a second hard rank on the larger shape. Five kinds per measurement
        # keep the p50 inside one kind instead of on a gap between two.
        rows, cols = shape
        _, m = bench.gen_instance(_spec(dict(rows=rows, cols=cols, rank=rank), self.seed), j)
        mask = bench.mask_uniform(rows, cols, fraction, (self.seed, j, 1))
        s = rankrelax.svd(mask * m).spectrum
        k = s.shape[0]
        ranks = (rank, 2 * rank) if extra_hard else (rank,)
        return [(s, bench.instance_weights(m, mu))] + [
            (s, rankrelax.preset("hard_rank", k, rank=r)) for r in ranks
        ]

    def setup(self):
        p = self.p
        small, large = p["shapes"]
        pool = []
        for j in range(p["pool"]):
            pool += self._pairs(small, p["rank"], p["fraction"], p["mu"], j, False)
            pool += self._pairs(large, p["rank"], p["fraction"], p["mu"], j, True)
        self.pool = pool

    def unit(self, i):
        s, w = self.pool[i % len(self.pool)]
        t0 = time.perf_counter()
        z = proximal.prox_spectrum(s / self.TAU, w, self.TAU - 1.0)
        value = envelope.eval_Rh(s, w)
        ms = (time.perf_counter() - t0) * 1e3
        return [Op(ms, _spectrum_ok(z, s.shape[0]) and math.isfinite(value))]

    def oracle_ops(self):
        """Small-k pairs checked against the brute-force grid oracle, untimed."""
        q = self.ORACLE
        ops = []
        for j in range(q["pool"]):
            for s, w in self._pairs(q["shape"], q["rank"], q["fraction"], q["mu"], j, False):
                ops.append(Op(None, _matches_oracle(s, w, self.TAU)))
        return ops


def _matches_oracle(s, w, tau):
    """Both maximizers reach the brute-force grid optimum over the monotone cone."""
    rho = tau - 1.0
    sy = s / tau
    root_b = math.sqrt(w.b[np.isfinite(w.b)].max(initial=0.0))
    # a generous bound on both maximizers: the prox scales a spectrum by
    # at most 1 + rho, and a hard-rank tail lifts a block by at most sum(s)
    hi = 2.0 * (1.0 + rho) * (s.sum() + w.a.max() + root_b) + 1.0
    grid = np.arange(0.0, hi, ORACLE_STEP)
    z = proximal.prox_spectrum(sy, w, rho)
    prox_value = float(np.trace(prox_terms(z, sy, w.a, w.b, rho)))
    return (
        _spectrum_ok(z, s.shape[0])
        and z[0] < hi
        and prox_value >= monotone_grid_best(prox_terms(grid, sy, w.a, w.b, rho)) - ORACLE_TOL
        and envelope.eval_Rh(s, w)
        >= monotone_grid_best(envelope_terms(grid, s, w.a, w.b)) - ORACLE_TOL
    )


WORKLOADS = {cls.name: cls for cls in (StudyUniform, WideTracking, HardrankSpectra)}
