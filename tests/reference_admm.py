"""Reference ADMM loop that evaluates the objective on every iteration.

Kept to check the solver's windowed objective against: the iterate
updates are the solver's, the objective F(X_n) of each prox iterate is
evaluated independently (an SVD and an envelope PAV of X_n, where the
solver reads R_h(X_n) off the prox), and the stall test compares the
objective at iteration n with the one at n - 10 for every n > 10.
"""

from dataclasses import dataclass, field

import numpy as np

from rankrelax import data_update, prox_Rh, solve_objective

STALL_WINDOW = 10


@dataclass
class ReferenceRun:
    y: np.ndarray
    iterations: int = 0
    converged: bool = False
    objective_trace: list = field(default_factory=list)


def stalled(objective, prev, rel_obj_tol):
    return abs(objective - prev) <= rel_obj_tol * (1.0 + abs(objective))


def admm_every_iteration(obs, w, cfg):
    shape = obs.m.shape
    run = ReferenceRun(y=np.zeros(shape))
    lam = np.zeros(shape)
    for it in range(cfg.max_iters):
        x = prox_Rh(run.y - lam, w, cfg.rho)
        run.y = data_update(x + lam, obs, cfg.rho)
        lam = lam + x - run.y
        residual = float(np.linalg.norm(x - run.y))
        objective = solve_objective(x, obs, w)
        run.objective_trace.append(objective)
        run.iterations = it + 1
        if residual <= cfg.primal_tol:
            run.converged = True
            break
        if it >= STALL_WINDOW:
            prev = run.objective_trace[-1 - STALL_WINDOW]
            if stalled(objective, prev, cfg.rel_obj_tol):
                run.converged = True
                break
    return run
