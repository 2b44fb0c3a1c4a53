"""Compact SVD-form representation of low-rank matrices and its algebra."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .observed import GatherPlan, ObservedMatrix, checked_indices


@dataclass(frozen=True, eq=False)
class FactoredMatrix:
    """A matrix held as ``u @ diag(sigma) @ v.T`` with orthonormal factors.

    ``u`` is m-by-k, ``v`` is n-by-k and ``sigma`` holds k nonnegative values
    in nonincreasing order.  All solver iterates use this form; dense
    reconstruction is reserved for small matrices and tests.  Orthonormality
    is an invariant of correct construction and is checked on demand with
    :meth:`validate` rather than on every instantiation.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64)
        sigma = np.asarray(self.sigma, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        if u.ndim != 2 or v.ndim != 2 or sigma.ndim != 1:
            raise ValueError("u and v must be 2-d, sigma 1-d")
        if u.shape[1] != sigma.size or v.shape[1] != sigma.size:
            raise ValueError(
                f"factor count mismatch: u has {u.shape[1]} columns, "
                f"v has {v.shape[1]}, sigma has {sigma.size}"
            )
        for a in (u, sigma, v):
            a.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "v", v)

    @classmethod
    def zero(cls, m: int, n: int) -> "FactoredMatrix":
        return cls(np.zeros((m, 0)), np.zeros(0), np.zeros((n, 0)))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.u.shape[0], self.v.shape[0])

    @property
    def k(self) -> int:
        """Number of stored factor columns (may exceed the numerical rank)."""
        return int(self.sigma.size)

    @property
    def rank(self) -> int:
        """Number of strictly positive singular values."""
        return int(np.count_nonzero(self.sigma > 0.0))

    def norm(self) -> float:
        """Frobenius norm, sqrt(sum sigma_i^2)."""
        return float(np.linalg.norm(self.sigma))

    def nuclear_norm(self) -> float:
        return float(self.sigma.sum())

    def validate(self, tol: float = 1e-10) -> "FactoredMatrix":
        """Check orthonormality and singular-value ordering; raise on failure."""
        k = self.k
        if k:
            gu = self.u.T @ self.u - np.eye(k)
            gv = self.v.T @ self.v - np.eye(k)
            if np.abs(gu).max() > tol:
                raise ValueError(f"left factor not orthonormal (max dev {np.abs(gu).max():.3e})")
            if np.abs(gv).max() > tol:
                raise ValueError(f"right factor not orthonormal (max dev {np.abs(gv).max():.3e})")
            if (self.sigma < 0).any():
                raise ValueError("negative singular value")
            if (np.diff(self.sigma) > 0).any():
                raise ValueError("singular values not in nonincreasing order")
        return self

    def dense(self) -> np.ndarray:
        """Reconstruct the represented matrix (small sizes only)."""
        m, n = self.shape
        if max(m, n) > 4096:
            raise ValueError("refusing to densify a matrix larger than 4096 on a side")
        if self.k == 0:
            return np.zeros((m, n))
        return (self.u * self.sigma) @ self.v.T


@dataclass(frozen=True, eq=False)
class FactoredSum:
    """The matrix ``alpha * f + beta * g``, its two factor pairs kept as they are.

    Together the two pairs need not be orthonormal, so this is no
    :class:`FactoredMatrix`; :func:`combine` refactors it into one.  It is
    what a fill-in operator at a momentum point needs: products with vectors
    through the stacked factors, and gathers by linearity.
    """

    alpha: float
    f: FactoredMatrix
    beta: float
    g: FactoredMatrix

    def __post_init__(self):
        if self.f.shape != self.g.shape:
            raise ValueError(f"shape mismatch: {self.f.shape} vs {self.g.shape}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.f.shape

    @property
    def k(self) -> int:
        """Number of stored factor columns over both terms."""
        return self.f.k + self.g.k

    def stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(u, w, v)`` with ``u @ diag(w) @ v.T`` the sum; ``w`` may be negative."""
        return (np.hstack((self.f.u, self.g.u)),
                np.concatenate((self.alpha * self.f.sigma, self.beta * self.g.sigma)),
                np.hstack((self.f.v, self.g.v)))

    def dense(self) -> np.ndarray:
        """Reconstruct the represented matrix (small sizes only)."""
        return self.alpha * self.f.dense() + self.beta * self.g.dense()


def check_finite_factors(**iterates: FactoredMatrix) -> None:
    """Reject any iterate with a NaN or inf in its factors, before a gather or
    an SVD reads it.  The message starts with the argument's name."""
    for name, f in iterates.items():
        if not all(np.isfinite(a).all() for a in (f.u, f.sigma, f.v)):
            raise ValueError(f"{name} must have finite factors")


def project_entries(f: FactoredMatrix, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Entries ``f[rows[t], cols[t]]`` without forming the dense matrix.

    Works through the rows a block at a time: one GEMM forms the block's tile
    ``(u diag(sigma))[i0:i1] @ v.T`` of about 256 KB, and the block's entries
    are taken out of it.  The cost is m*n*k flops whatever the number of
    entries, and nothing of size m-by-n is kept.  Entries sorted by row are
    read in place; others are put in row order by a stable sort and their
    values scattered back.  ``rows`` and ``cols`` must be 1-d integer arrays
    of equal length with every index inside the shape of ``f``.
    """
    rows, cols = checked_indices(f.shape, rows, cols)
    if f.k == 0 or rows.size == 0:
        return np.zeros(rows.size)
    if (rows[1:] < rows[:-1]).any():
        order = np.argsort(rows, kind="stable")
        out = np.empty(rows.size)
        out[order] = project_entries(f, rows[order], cols[order])
        return out
    # row i's entries start at the first row index not below i
    indptr = np.searchsorted(rows, np.arange(f.shape[0] + 1))
    return _gather(f, GatherPlan.from_csr(f.shape, indptr, cols))


def _gather(f: FactoredMatrix, plan: GatherPlan) -> np.ndarray:
    """The entries of ``f`` that ``plan`` lays out, one tile GEMM per block."""
    if f.k == 0:
        return np.zeros(plan.flat.size)
    height = plan.height
    scaled_u = f.u * f.sigma
    # a C-ordered v.T runs the short, wide tile GEMMs about twice as fast
    vt = np.ascontiguousarray(f.v.T)
    edges, flat = plan.edges, plan.flat
    out = np.empty(flat.size)
    for b in plan.blocks.tolist():
        lo, hi, i0 = edges[b], edges[b + 1], b * height
        tile = scaled_u[i0:i0 + height] @ vt
        np.take(tile, flat[lo:hi], out=out[lo:hi], mode="clip")
    return out


def project_omega(f: FactoredMatrix | FactoredSum, obs: ObservedMatrix) -> np.ndarray:
    """Values of the represented matrix on the sampling set of ``obs``; a
    :class:`FactoredSum` is gathered term by term.  The tiles follow the
    plan ``obs`` keeps (:attr:`ObservedMatrix.gather_plan`), so a gather
    neither checks nor indexes omega again."""
    if f.shape != obs.shape:
        raise ValueError(f"shape mismatch: factored {f.shape} vs observed {obs.shape}")
    if isinstance(f, FactoredSum):
        return f.alpha * project_omega(f.f, obs) + f.beta * project_omega(f.g, obs)
    return _gather(f, obs.gather_plan)


def scale(alpha: float, f: FactoredMatrix) -> FactoredMatrix:
    """The matrix ``alpha * f`` in factored form."""
    if alpha == 0.0 or f.k == 0:
        return FactoredMatrix.zero(*f.shape)
    if alpha > 0:
        return FactoredMatrix(f.u, alpha * f.sigma, f.v)
    return FactoredMatrix(-f.u, -alpha * f.sigma, f.v)


def combine(alpha: float, f: FactoredMatrix, beta: float, g: FactoredMatrix) -> FactoredMatrix:
    """Refactor ``alpha * f + beta * g`` into a single orthonormal factorization.

    Works through QR of the stacked factors plus a small dense SVD, so the
    cost is O((m + n) K^2 + K^3) with K = f.k + g.k.  Singular values below
    1e-14 times the largest are discarded as roundoff.
    """
    if f.shape != g.shape:
        raise ValueError(f"shape mismatch: {f.shape} vs {g.shape}")
    if alpha == 0.0 or f.k == 0:
        return scale(beta, g)
    if beta == 0.0 or g.k == 0:
        return scale(alpha, f)
    qu, ru = np.linalg.qr(np.hstack((f.u, g.u)))
    qv, rv = np.linalg.qr(np.hstack((f.v, g.v)))
    mid = (ru * np.concatenate((alpha * f.sigma, beta * g.sigma))) @ rv.T
    p, s, wt = np.linalg.svd(mid)
    keep = s > s[0] * 1e-14 if s.size and s[0] > 0 else slice(0)
    return FactoredMatrix(qu @ p[:, keep], s[keep], qv @ wt.T[:, keep])


def frobenius_distance(f: FactoredMatrix, g: FactoredMatrix) -> float:
    """Frobenius distance between two factored matrices.

    With ``S = diag(sigma)`` and ``B = v_f^T v_g``, the difference splits
    into two terms with orthogonal row spaces, ``(u_f S_f - u_g S_g B^T)
    v_f^T`` and ``-u_g S_g (v_g - v_f B)^T``, so the distance is
    ``hypot(||u_f S_f - u_g S_g B^T||, ||(v_g - v_f B) S_g||)``.  Each term
    is formed as a difference before any squaring, so tiny distances keep
    their digits.  Three skinny GEMMs, and no m-by-n matrix is formed.
    """
    if f.shape != g.shape:
        raise ValueError(f"shape mismatch: {f.shape} vs {g.shape}")
    if (
        f.sigma.shape == g.sigma.shape
        and np.array_equal(f.sigma, g.sigma)
        and np.array_equal(f.u, g.u)
        and np.array_equal(f.v, g.v)
    ):
        return 0.0
    b = f.v.T @ g.v
    along = f.u * f.sigma - g.u @ (g.sigma[:, None] * b.T)
    across = (g.v - f.v @ b) * g.sigma
    return math.hypot(float(np.linalg.norm(along)), float(np.linalg.norm(across)))
