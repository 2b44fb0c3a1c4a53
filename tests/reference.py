"""Dense numpy references of the completion schemes, for small instances.

Each scheme is read off its solver's docstring: fill the unobserved entries
with the iterate, take the full SVD of the filled matrix, shrink it, and
apply the stop test.  Nothing here shares code with the library, so a test
that holds a solver to its reference checks the scheme, not just a refactor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# as in matcomplete.solvers: three iterate changes in a row below this level
# mean a frozen iteration
STALL_LEVEL = 1e-15
STALL_RUNS = 3


@dataclass
class Reference:
    """The iterate a scheme returns, its iteration count and status, and the
    ratio its stop test compared with its threshold at each iteration."""

    x: np.ndarray
    iterations: int
    status: str
    ratios: list


def dense_data(obs):
    """``(a, mask)``: the data with zeros off omega, and omega as booleans."""
    a = np.zeros(obs.shape)
    mask = np.zeros(obs.shape, dtype=bool)
    a[obs.rows, obs.cols] = obs.values
    mask[obs.rows, obs.cols] = True
    return a, mask


def ratio(num, den):
    """``num / den``, with ``0 / 0 = 0`` and ``num / 0 = inf``."""
    if den == 0.0:
        return 0.0 if num == 0.0 else np.inf
    return num / den


def filled_svd(a, mask, x):
    """The full SVD of the data filled in off omega with ``x``."""
    return np.linalg.svd(np.where(mask, a, x), full_matrices=False)


def shrink(u, s, vt, tau):
    """Every singular value lowered by ``tau``; those that reach zero, or lie
    within ``1e-12 sigma_1`` of it, are dropped."""
    shifted = s - tau
    keep = shifted > s[0] * 1e-12
    return (u[:, keep] * shifted[keep]) @ vt[keep]


def frsi(obs, r, eps_1, it_max=500):
    """Fixed-rank iteration from zero: shrink the filled matrix by its
    (r+1)-th singular value, and stop once ``min(previous residual ratio,
    change) <= eps_1``, where the residual ratio is ``||P_omega(a - x)|| /
    ||P_omega(a)||`` and the change ``||x_new - x|| / ||x||``."""
    a, mask = dense_data(obs)
    data_norm = np.linalg.norm(a)
    x = np.zeros(obs.shape)
    resid_prev = np.inf
    ratios, frozen = [], 0
    for k in range(1, it_max + 1):
        u, s, vt = filled_svd(a, mask, x)
        rho = s[r] if r < s.size else 0.0
        x_new = shrink(u, s, vt, rho)
        change = ratio(np.linalg.norm(x_new - x), np.linalg.norm(x))
        x = x_new
        ratios.append(min(resid_prev, change))
        if ratios[-1] <= eps_1:
            return Reference(x, k, "converged", ratios)
        frozen = frozen + 1 if change < STALL_LEVEL else 0
        if frozen >= STALL_RUNS:
            return Reference(x, k, "stalled", ratios)
        resid_prev = ratio(np.linalg.norm(np.where(mask, a - x, 0.0)), data_norm)
    return Reference(x, it_max, "budget-exhausted", ratios)


def soft_impute(obs, lam, eps, it_max=500):
    """Soft-Impute from zero: shrink the filled matrix by ``lam``, and stop
    once ``min(|f_prev - f| / f_prev, change) <= eps``, with ``f(x) = 0.5
    ||P_omega(a - x)||^2 + lam ||x||_*``, ``f_prev`` starting at ``f(0)``, and
    the change ``||x_new - x|| / ||x||``.  On an exhausted budget it returns
    the iterate with the lowest ``f``."""
    a, mask = dense_data(obs)

    def objective(x):
        misfit = np.where(mask, a - x, 0.0)
        return 0.5 * np.sum(misfit * misfit) + lam * np.linalg.svd(x, compute_uv=False).sum()

    x = np.zeros(obs.shape)
    f_prev = best_f = objective(x)
    best_x = x
    ratios, frozen = [], 0
    for k in range(1, it_max + 1):
        x_new = shrink(*filled_svd(a, mask, x), lam)
        change = ratio(np.linalg.norm(x_new - x), np.linalg.norm(x))
        x = x_new
        f = objective(x)
        if f < best_f:
            best_f, best_x = f, x
        ratios.append(min(ratio(abs(f_prev - f), f_prev), change))
        if ratios[-1] <= eps:
            return Reference(x, k, "converged", ratios)
        frozen = frozen + 1 if change < STALL_LEVEL else 0
        if frozen >= STALL_RUNS:
            return Reference(x, k, "stalled", ratios)
        f_prev = f
    return Reference(best_x, it_max, "budget-exhausted", ratios)
