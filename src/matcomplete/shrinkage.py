"""Singular-value shrinkage operators and the fixed-rank completion step."""

from __future__ import annotations

import numpy as np

from .factored import FactoredMatrix, frobenius_distance
from .observed import ObservedMatrix
from .operators import assemble_iterate_operator
from .svd import DEFAULT_TOL, truncated_svd


def soft_threshold(f: FactoredMatrix, tau: float) -> FactoredMatrix:
    """Shrink every singular value by ``tau``, dropping those that hit zero.

    This is the proximal operator of ``tau * nuclear_norm`` applied to a
    matrix already held in SVD form; the output rank equals the number of
    singular values strictly above ``tau``.  Values within 1e-12 * sigma_1 of
    the threshold count as ties and are dropped too: a recomputed
    decomposition can move a value that equals the threshold by a few ulps,
    and keeping such dust would misreport the rank.
    """
    if not tau >= 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    if tau == 0.0 or f.k == 0:
        return f
    shifted = f.sigma - tau
    keep = shifted > f.sigma[0] * 1e-12
    if not keep.any():
        return FactoredMatrix.zero(*f.shape)
    return FactoredMatrix(f.u[:, keep], shifted[keep], f.v[:, keep])


def fixed_rank_step(
    x: FactoredMatrix,
    obs: ObservedMatrix,
    r: int,
    svd_tol: float = DEFAULT_TOL,
) -> tuple[FactoredMatrix, float]:
    """One fixed-rank completion step: fill in, threshold at the (r+1)-th value.

    Assembles ``y = P_omega(a) + P_omega_perp(x)``, computes its leading r+1
    singular triplets, and shrinks ``y`` by ``rho = sigma_{r+1}(y)`` so the
    result has rank at most ``r``.  When ``min(m, n) <= r`` there is no
    (r+1)-th value and ``rho = 0`` by convention.

    Returns
    -------
    (x_next, rho) : the new iterate and the threshold used.
    """
    if r < 1:
        raise ValueError(f"target rank must be at least 1, got {r}")
    if x.shape != obs.shape:
        raise ValueError(f"shape mismatch: iterate {x.shape} vs observed {obs.shape}")
    p = min(obs.shape)
    op = assemble_iterate_operator(obs, x)
    f = truncated_svd(op, min(r + 1, p), tol=svd_tol)
    rho = float(f.sigma[r]) if r < p else 0.0
    return soft_threshold(f, rho), rho


def fejer_slack(
    x_k: FactoredMatrix,
    x_next: FactoredMatrix,
    x_star: FactoredMatrix,
    r: int,
    rho_k: float,
) -> float:
    """Slack in the per-step distance inequality of the fixed-rank iteration.

    For ``x_next`` produced by one fixed-rank step from ``x_k`` and any
    ``x_star`` of rank at most r agreeing with the data on omega, the distance
    to ``x_star`` can grow by at most ``sqrt(r) * rho_k`` per step; the
    returned value is that bound minus the realized growth and should be
    nonnegative up to roundoff.
    """
    if x_k.shape != x_next.shape or x_k.shape != x_star.shape:
        raise ValueError("all three iterates must share a shape")
    before = frobenius_distance(x_k, x_star)
    after = frobenius_distance(x_next, x_star)
    return float(before + np.sqrt(r) * rho_k - after)


def make_spurious_fixed_point(
    m: int,
    n: int,
    r: int,
    gamma: float,
    rng: np.random.Generator | None = None,
    sigma: np.ndarray | None = None,
    sigma_perp: np.ndarray | None = None,
) -> tuple[FactoredMatrix, np.ndarray]:
    """Build an iterate that the fixed-rank step leaves unchanged despite
    disagreeing with the data.

    Constructs a rank-<=r matrix ``x`` together with an injected gradient
    ``g = -gamma * u @ v.T - u_perp @ diag(sigma_perp) @ v_perp.T`` (with u, v
    spanning the top r+1 singular directions of x and orthonormal
    complements).  Then ``x - g`` has (r+1)-th singular value exactly
    ``gamma``, and thresholding ``x - g`` at that value reproduces ``x``:
    a stationary point whose entries need not match any observation.

    ``sigma`` (length r, positive, nonincreasing) and ``sigma_perp`` (length
    min(m, n) - r - 1, strictly below gamma) may be supplied; otherwise they
    are drawn from ``rng``.

    Returns
    -------
    (x, gradient) : the factored iterate and the dense injected gradient.
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    p = min(m, n)
    if r < 1 or r + 1 > p:
        raise ValueError(f"need 1 <= r and r + 1 <= min(m, n) = {p}, got r = {r}")
    if rng is None:
        rng = np.random.default_rng(0)
    if sigma is None:
        sigma = np.sort(np.abs(rng.standard_normal(r)) + gamma)[::-1]
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.shape != (r,) or (sigma <= 0).any() or (np.diff(sigma) > 0).any():
        raise ValueError("sigma must hold r positive nonincreasing values")
    n_perp = p - (r + 1)
    if sigma_perp is None:
        sigma_perp = rng.uniform(0.0, 0.9 * gamma, size=n_perp)
    sigma_perp = np.asarray(sigma_perp, dtype=np.float64)
    if sigma_perp.shape != (n_perp,):
        raise ValueError(f"sigma_perp must hold min(m, n) - r - 1 = {n_perp} values")
    if (sigma_perp >= gamma).any():
        raise ValueError("every sigma_perp value must lie strictly below gamma")
    if (sigma_perp < 0).any():
        raise ValueError("sigma_perp values must be nonnegative")

    qu, _ = np.linalg.qr(rng.standard_normal((m, m)))
    qv, _ = np.linalg.qr(rng.standard_normal((n, n)))
    u, u_perp = qu[:, : r + 1], qu[:, r + 1 :]
    v, v_perp = qv[:, : r + 1], qv[:, r + 1 :]
    x = FactoredMatrix(u[:, :r], sigma, v[:, :r])
    gradient = -gamma * (u @ v.T)
    if n_perp:
        gradient -= (u_perp[:, :n_perp] * sigma_perp) @ v_perp[:, :n_perp].T
    return x, gradient
