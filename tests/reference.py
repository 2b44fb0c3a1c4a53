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


def phase_two(obs, lam, x0, eps, it_max=500, momentum=True):
    """The accelerated proximal iteration from the dense ``x0``: shrink the
    matrix filled in with the momentum point by ``lam``, and stop once
    ``min(|f_prev - f| / f_prev, change) <= eps``, with ``f(x) = 0.5
    ||P_omega(a - x)||^2 + lam ||x||_*``, ``f_prev`` starting at ``f(x0)``,
    and the change ``||x_new - x|| / ||x||``.  The momentum point is ``x +
    theta (x - x_prev)`` with ``theta = (k - 1) / (k + 2)`` at step ``k``, or
    0 without ``momentum``.  On an exhausted budget it returns the iterate
    with the lowest ``f``, ``x0`` included."""
    a, mask = dense_data(obs)

    def objective(x):
        misfit = np.where(mask, a - x, 0.0)
        return 0.5 * np.sum(misfit * misfit) + lam * np.linalg.svd(x, compute_uv=False).sum()

    x = z = x0
    f_prev = best_f = objective(x)
    best_x = x
    ratios, frozen = [], 0
    for k in range(1, it_max + 1):
        x_new = shrink(*filled_svd(a, mask, z), lam)
        change = ratio(np.linalg.norm(x_new - x), np.linalg.norm(x))
        f = objective(x_new)
        if f < best_f:
            best_f, best_x = f, x_new
        ratios.append(min(ratio(abs(f_prev - f), f_prev), change))
        if ratios[-1] <= eps:
            return Reference(x_new, k, "converged", ratios)
        frozen = frozen + 1 if change < STALL_LEVEL else 0
        if frozen >= STALL_RUNS:
            return Reference(x_new, k, "stalled", ratios)
        theta = (k - 1) / (k + 2) if momentum else 0.0
        z = x_new + theta * (x_new - x)
        x, f_prev = x_new, f
    return Reference(best_x, it_max, "budget-exhausted", ratios)


def soft_impute(obs, lam, eps, it_max=500):
    """Soft-Impute: :func:`phase_two` from zero without momentum."""
    return phase_two(obs, lam, np.zeros(obs.shape), eps, it_max, momentum=False)


@dataclass
class PhaseOne:
    """What phase one hands on: the stabilized ``rho``, the momentum point
    ``z`` whose SVD stabilized it and that SVD's leading value, the anchor of
    its stop test, its iteration count, whether it stabilized, and its stop
    ratios."""

    rho: float
    z: np.ndarray
    sigma_top: float
    anchor: float
    iterations: int
    stabilized: bool
    ratios: list


def phase_one(obs, r, eps_rho, w=500, beta=2.0):
    """The fixed-rank warm start from zero: at pass ``j`` read ``rho_j``, the
    (r+1)-th singular value of the matrix filled in with the momentum point,
    and stop once ``|rho_j - rho_{j-1}| / (anchor + rho_{j-1}) < eps_rho``,
    where the anchor is the first pass's leading singular value (that of the
    data).  Otherwise shrink by ``rho_j`` and extrapolate with ``theta = (j -
    1) / (j + beta)``."""
    a, mask = dense_data(obs)
    x_prev = z = np.zeros(obs.shape)
    rho_prev, ratios = np.inf, []
    for j in range(1, w + 1):
        u, s, vt = filled_svd(a, mask, z)
        rho = s[r] if r < s.size else 0.0
        if j == 1:
            anchor = s[0]
        if np.isfinite(rho_prev):
            ratios.append(abs(rho - rho_prev) / (anchor + rho_prev))
            if ratios[-1] < eps_rho:
                return PhaseOne(rho, z, s[0], anchor, j, True, ratios)
        x = shrink(u, s, vt, rho)
        z = x + (j - 1) / (j + beta) * (x - x_prev)
        x_prev, rho_prev = x, rho
    return PhaseOne(rho, z, s[0], anchor, w, False, ratios)


def two_phase(obs, r, eps_rho, eps_lambda, beta, w=500, it_max=500):
    """:func:`phase_one`, then :func:`phase_two` at ``lam = rho`` from its
    momentum point: ``(phase one, phase two)``.  A stabilized ``rho`` at or
    below ``1e-12 sigma_1`` means the filled matrix has rank at most ``r``,
    and the solve ends there (phase two is then None)."""
    p1 = phase_one(obs, r, eps_rho, w, beta)
    if p1.rho <= 1e-12 * p1.sigma_top:
        return p1, None
    return p1, phase_two(obs, p1.rho, p1.z, eps_lambda, it_max)


def svt(obs, eps_2, it_max=500):
    """Singular value thresholding: the dual ``y`` lives on omega and starts
    at zero; each pass shrinks ``y`` by ``tau = 5n`` (square) or ``8
    sqrt(mn)``, then adds ``step P_omega(a - x)`` to it, with ``step = 1.2 mn
    / nnz``.  It stops once the residual ratio ``||P_omega(a - x)|| /
    ||P_omega(a)||`` is at most ``eps_2``, and diverges once it exceeds
    ``1e4``.  A pass is frozen when both the change ``||x_new - x|| / ||x||``
    and the dual move ``step ||P_omega(a - x)|| / max(1, ||y||)`` lie below
    the freeze level."""
    a, mask = dense_data(obs)
    m, n = obs.shape
    tau = 5.0 * n if m == n else 8.0 * np.sqrt(m * n)
    step = 1.2 * m * n / mask.sum()
    data_norm = np.linalg.norm(a)
    x = y = np.zeros(obs.shape)
    ratios, frozen = [], 0
    for k in range(1, it_max + 1):
        x_new = shrink(*np.linalg.svd(y, full_matrices=False), tau)
        change = ratio(np.linalg.norm(x_new - x), np.linalg.norm(x))
        x = x_new
        misfit = np.where(mask, a - x, 0.0)
        ratios.append(ratio(np.linalg.norm(misfit), data_norm))
        if not ratios[-1] <= 1e4:
            return Reference(x, k, "diverged", ratios)
        if ratios[-1] <= eps_2:
            return Reference(x, k, "converged", ratios)
        dual_move = step * np.linalg.norm(misfit) / max(1.0, np.linalg.norm(y))
        frozen = frozen + 1 if max(change, dual_move) < STALL_LEVEL else 0
        if frozen >= STALL_RUNS:
            return Reference(x, k, "stalled", ratios)
        y = y + step * misfit
    return Reference(x, it_max, "budget-exhausted", ratios)


def fpc(obs, eps_3, it_max=500, step=1.99, floor=0.01):
    """Fixed-point continuation: the weights run from ``lam = sigma_1`` of the
    data (zeros off omega) down by ``lam <- max(0.25 lam, floor)``.  At each
    weight, at most 100 passes of ``x <- S_{lam step}(x + step P_omega(a -
    x))`` from the last iterate, ending once the change ``||x_new - x|| /
    max(1, ||x||)`` is at most ``eps_3``.  It has converged once the passes
    at the floor weight end on that test, within ``it_max`` passes in all."""
    a, mask = dense_data(obs)
    lam = np.linalg.svd(a, compute_uv=False)[0]
    x = np.zeros(obs.shape)
    ratios = []
    while len(ratios) < it_max:
        for _ in range(min(100, it_max - len(ratios))):
            u, s, vt = np.linalg.svd(x + step * np.where(mask, a - x, 0.0), full_matrices=False)
            x_new = shrink(u, s, vt, lam * step)
            ratios.append(np.linalg.norm(x_new - x) / max(1.0, np.linalg.norm(x)))
            x = x_new
            if ratios[-1] <= eps_3:
                break
        if ratios[-1] <= eps_3 and lam <= floor:
            return Reference(x, len(ratios), "converged", ratios)
        lam = max(0.25 * lam, floor)
    return Reference(x, it_max, "budget-exhausted", ratios)
