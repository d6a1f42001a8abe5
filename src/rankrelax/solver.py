"""ADMM solver for masked low-rank completion with the relaxed penalty.

Minimizes  R_h(sing(X)) + ||W . (X - M)||_F^2  by splitting the penalty
and the data term: the X-update is the spectral prox, the Y-update has
an elementwise closed form, and the scaled dual accumulates the gap.

The primal residual is tested on every iteration and the stall of
F(X_k), read off the prox's own R_h(X_k), once per _STALL_WINDOW
iterations. The objective of the returned Y is evaluated once, at exit.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .envelope import eval_Rh
from .linalg import check_matrix, svd
from .proximal import _prox_with_value as prox_Rh  # (X, R_h(X)); benchmarks/tracing.py wraps it

__all__ = [
    "MaskedObservations",
    "AdmmConfig",
    "AdmmDiagnostics",
    "data_update",
    "solve_objective",
    "admm_complete",
]

# F(X_k) is recorded and its relative stall tested once per this many iterations
_STALL_WINDOW = 10


@dataclass(frozen=True)
class MaskedObservations:
    """Measurements m with a same-shape 0/1 mask w (1 = observed)."""

    m: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        m = check_matrix(self.m)
        w = check_matrix(self.w, m.shape)
        if not np.all((w == 0) | (w == 1)):
            raise ValueError("mask entries must be 0 or 1")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "w", w)


@dataclass(frozen=True)
class AdmmConfig:
    rho: float = 1.5
    max_iters: int = 500
    primal_tol: float = 1e-8
    rel_obj_tol: float = 1e-10

    def __post_init__(self):
        if not 1.0 < self.rho < math.inf:
            raise ValueError("rho must exceed 1 (prox subproblem convexity) and be finite")
        if not isinstance(self.max_iters, (int, np.integer)) or self.max_iters < 1:
            raise ValueError("max_iters must be a positive integer")
        if not all(0.0 < tol < math.inf for tol in (self.primal_tol, self.rel_obj_tol)):
            raise ValueError("tolerances must be positive and finite")


@dataclass
class AdmmDiagnostics:
    """Why and when a solve stopped, with its traces.

    objective_trace holds F(X_k), the objective of the prox iterate, at
    iterations k = _STALL_WINDOW, 2*_STALL_WINDOW, ..., and last the
    objective of the returned Y, so it has floor(iterations /
    _STALL_WINDOW) + 1 entries. The residual traces have one entry per
    iteration: primal ||X_k - Y_k||_F and dual rho*||Y_k - Y_{k-1}||_F.
    stop_reason is "primal", "stall" or "cap".
    """

    iterations: int = 0
    objective_trace: list = field(default_factory=list)
    primal_residual_trace: list = field(default_factory=list)
    dual_residual_trace: list = field(default_factory=list)
    stop_reason: str | None = None

    @property
    def converged(self):
        return self.stop_reason in ("primal", "stall")


def data_update(t, obs, rho):
    """Elementwise minimizer of rho*||Y - t||^2 + ||W . (Y - M)||^2."""
    t = check_matrix(t, obs.m.shape)
    return (rho * t + obs.w * obs.m) / (rho + obs.w)


def _masked_fit(x, obs):
    return float(np.sum((obs.w * (x - obs.m)) ** 2))


def solve_objective(x, obs, w):
    """Relaxed completion objective: envelope penalty plus masked datafit."""
    x = check_matrix(x, obs.m.shape)
    return eval_Rh(svd(x, compute_uv=False), w) + _masked_fit(x, obs)


def admm_complete(obs, w, cfg=None):
    """Run ADMM on the masked completion problem.

    Stops when the primal residual reaches cfg.primal_tol (tested every
    iteration), when F(X_k) moves by at most cfg.rel_obj_tol (relative)
    between two consecutive window checkpoints (tested every
    _STALL_WINDOW iterations), or at cfg.max_iters. Returns the
    data-consistent iterate Y and its AdmmDiagnostics. Initialization
    is X = Y = dual = 0, so runs are deterministic.
    """
    if cfg is None:
        cfg = AdmmConfig()
    shape = obs.m.shape
    y = np.zeros(shape)
    lam = np.zeros(shape)
    diag = AdmmDiagnostics(stop_reason="cap")
    trace = diag.objective_trace
    for it in range(1, cfg.max_iters + 1):
        y_prev = y
        x, penalty = prox_Rh(y - lam, w, cfg.rho)
        y = data_update(x + lam, obs, cfg.rho)
        lam = lam + x - y
        residual = float(np.linalg.norm(x - y))
        diag.primal_residual_trace.append(residual)
        diag.dual_residual_trace.append(cfg.rho * float(np.linalg.norm(y - y_prev)))
        diag.iterations = it
        if residual <= cfg.primal_tol:
            diag.stop_reason = "primal"
            break
        if it % _STALL_WINDOW == 0:
            objective = penalty + _masked_fit(x, obs)
            trace.append(objective)
            if len(trace) > 1 and abs(objective - trace[-2]) <= cfg.rel_obj_tol * (
                1.0 + abs(objective)
            ):
                diag.stop_reason = "stall"
                break
    trace.append(solve_objective(y, obs, w))
    return y, diag
