"""Truncated SVD of implicit operators via Lanczos bidiagonalization.

The driver runs Golub-Kahan-Lanczos bidiagonalization with two-pass classical
Gram-Schmidt reorthogonalization at every step and thick restarting that
retains the leading Ritz triplets plus the coupling vector.  It only touches
the operator through ``matvec``/``rmatvec``, so sparse-plus-low-rank iterates
are never densified.
"""

from __future__ import annotations

import numpy as np

from .factored import FactoredMatrix

DEFAULT_TOL = 1e-10
_RESTART_BUFFER = 10
_BREAKDOWN_REL = 1e-13


class TruncatedSvdError(RuntimeError):
    """Lanczos step budget exhausted before the requested triplets converged.

    Attributes
    ----------
    best : FactoredMatrix
        The best-so-far triplets at the time of failure.
    converged : ndarray of bool
        Per-requested-triplet convergence flags.
    """

    def __init__(self, message: str, best: FactoredMatrix, converged: np.ndarray):
        super().__init__(message)
        self.best = best
        self.converged = converged


def dense_svd(a: np.ndarray, max_dim: int = 512) -> FactoredMatrix:
    """Full SVD of a small dense matrix; the brute-force oracle for tests.

    Guarded at ``min(m, n) <= max_dim`` to prevent misuse at scale.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array")
    if min(a.shape) > max_dim:
        raise ValueError(f"dense SVD limited to min(m, n) <= {max_dim}, got {a.shape}")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return FactoredMatrix(u, s, vt.T)


def _orthogonalize(w, basis, j):
    """Two-pass classical Gram-Schmidt of w against basis[:, :j]."""
    if j == 0:
        return w, np.zeros(0)
    b = basis[:, :j]
    c = b.T @ w
    w = w - b @ c
    c2 = b.T @ w
    w = w - b @ c2
    return w, c + c2


def _fresh_direction(rng, basis, j, size):
    """A unit vector orthogonal to basis[:, :j], or None if none exists."""
    if j >= size:
        return None
    for _ in range(5):
        w = rng.standard_normal(size)
        w, _ = _orthogonalize(w, basis, j)
        nrm = np.linalg.norm(w)
        if nrm > 1e-6 * np.sqrt(size):
            return w / nrm
    return None


def _repair_null_columns(factor, sigma, rng):
    """Replace norm-deficient columns paired with zero singular values.

    Such columns arise only when a basis ran out of directions; the paired
    singular value is zero, so any orthonormal completion preserves the
    represented matrix.
    """
    norms = np.linalg.norm(factor, axis=0)
    deficient = np.flatnonzero(norms < 1.0 - 1e-8)
    if deficient.size == 0:
        return
    if (sigma[deficient] != 0.0).any():
        raise AssertionError("norm-deficient factor column with nonzero sigma")
    factor[:, deficient] = 0.0
    for i in deficient:
        fresh = _fresh_direction(rng, factor, factor.shape[1], factor.shape[0])
        factor[:, i] = 0.0 if fresh is None else fresh


def truncated_svd(op, k: int, tol: float = DEFAULT_TOL, max_steps: int | None = None) -> FactoredMatrix:
    """Leading ``k`` singular triplets of a matrix-free operator.

    Parameters
    ----------
    op : object with ``shape``, ``matvec`` and ``rmatvec``
        The operator to decompose, typically an :class:`SpLrOperator`.
    k : int
        Number of triplets, ``1 <= k <= min(m, n)``.
    tol : float
        Convergence tolerance relative to the leading singular value: a Ritz
        pair is accepted once its residual drops below ``tol * sigma_1``.
    max_steps : int, optional
        Lanczos step budget across restarts; defaults to ``10 * k + 100``.
        Exhaustion raises :class:`TruncatedSvdError` carrying the best
        triplets found so far.
    """
    m, n = op.shape
    p = min(m, n)
    if not 1 <= k <= p:
        raise ValueError(f"requested {k} triplets from a {m}x{n} operator")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_steps is None:
        max_steps = 10 * k + 100
    keep = min(k + _RESTART_BUFFER, p)
    max_dim = min(p, max(2 * keep, keep + 20))
    rng = np.random.default_rng(0x1B1D)

    bu = np.zeros((m, max_dim))
    bv = np.zeros((n, max_dim + 1))
    bmat = np.zeros((max_dim, max_dim))

    v0 = rng.standard_normal(n)
    bv[:, 0] = v0 / np.linalg.norm(v0)

    j = 0
    steps = 0
    scale = 0.0
    last_check = -1

    def extract(pl, s, prt, count):
        uu = bu[:, :j] @ pl[:, :count]
        vv = bv[:, :j] @ prt[:count, :].T
        return FactoredMatrix(uu, s[:count].copy(), vv)

    while True:
        # expand the left basis with A v_j
        w = op.matvec(bv[:, j])
        w, g = _orthogonalize(w, bu, j)
        alpha = float(np.linalg.norm(w))
        scale = max(scale, alpha)
        if alpha > scale * _BREAKDOWN_REL:
            bu[:, j] = w / alpha
        else:
            alpha = 0.0
            fresh = _fresh_direction(rng, bu, j, m)
            bu[:, j] = 0.0 if fresh is None else fresh
        if j:
            bmat[:j, j] = g
        bmat[j, j] = alpha

        # expand the right basis with A^T u_j
        w = op.rmatvec(bu[:, j])
        w, _ = _orthogonalize(w, bv, j + 1)
        beta = float(np.linalg.norm(w))
        scale = max(scale, beta)
        if beta > scale * _BREAKDOWN_REL:
            bv[:, j + 1] = w / beta
        else:
            beta = 0.0
            fresh = _fresh_direction(rng, bv, j + 1, n)
            bv[:, j + 1] = 0.0 if fresh is None else fresh
        j += 1
        steps += 1

        if j == p:
            # the smaller side's basis is complete, so the opposite basis plus
            # the coupling vector spans the full row/column space and the
            # extended projection [B | beta e_{j-1}] reproduces A exactly
            ext = np.zeros((j, j + 1))
            ext[:, :j] = bmat[:j, :j]
            ext[j - 1, j] = beta
            pl, s, prt = np.linalg.svd(ext, full_matrices=False)
            uu = bu[:, :j] @ pl[:, :k]
            vv = bv[:, : j + 1] @ prt[:k, :].T
            _repair_null_columns(vv, s[:k], rng)
            return FactoredMatrix(uu, s[:k].copy(), vv)

        if j < k:
            continue
        stride = 1 if j <= 32 else max(2, j // 16)
        at_boundary = j == max_dim or steps >= max_steps
        if not at_boundary and j - last_check < stride:
            continue
        last_check = j

        pl, s, prt = np.linalg.svd(bmat[:j, :j])
        sref = max(s[0] if s.size else 0.0, np.finfo(float).tiny)
        residuals = beta * np.abs(pl[j - 1, :])
        converged = residuals <= tol * sref
        if converged[:k].all():
            return extract(pl, s, prt, k)
        if steps >= max_steps:
            raise TruncatedSvdError(
                f"Lanczos SVD stalled at {steps} steps: "
                f"{int(converged[:k].sum())}/{k} triplets converged",
                extract(pl, s, prt, k),
                converged[:k].copy(),
            )
        if j == max_dim:
            # thick restart: keep the leading Ritz pairs plus the residual
            # direction; the Ritz-to-residual couplings re-enter the projected
            # matrix through the Gram-Schmidt coefficients of the next step
            l = min(keep, j - 3)
            if l < 1:
                l = max(j - 1, 0)
            bu[:, :l] = bu[:, :j] @ pl[:, :l]
            bv[:, :l] = bv[:, :j] @ prt[:l, :].T
            bv[:, l] = bv[:, j]
            bmat[:, :] = 0.0
            bmat[:l, :l] = np.diag(s[:l])
            j = l
            last_check = -1
