"""Implicit sparse-plus-low-rank linear operator used by the truncated SVD."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .factored import FactoredMatrix, FactoredSum, project_omega
from .observed import ObservedMatrix


@dataclass(frozen=True, eq=False)
class SpLrOperator:
    """The matrix ``z + P_omega(s)`` as a matrix-free operator, on the omega of ``obs``.

    Each of its products, with a vector or a block and on either side, is
    the one formula of :func:`_product`: one sparse product on ``s`` plus two
    skinny dense products on the factors, so large iterates never have to be
    densified.  ``residual`` holds ``s`` aligned with the canonical entry
    order of ``obs``.  With the misfit ``s = obs.values - z[omega]`` this is
    the filled-in iterate ``z + P_omega(a - z)``; svt passes its sparse dual
    at ``z = 0`` and fpc the step-scaled misfit.  At a momentum point ``z``
    is a :class:`FactoredSum` of the two iterates, applied through their
    stacked factors without refactoring them into one.  ``residual`` is a
    read-only view of the array passed in, not a copy: the caller's array
    stays writable, and writing into it changes the operator.
    """

    obs: ObservedMatrix
    z: FactoredMatrix | FactoredSum
    residual: np.ndarray

    def __post_init__(self):
        if self.z.shape != self.obs.shape:
            raise ValueError(f"shape mismatch: iterate {self.z.shape} vs observed {self.obs.shape}")
        residual = np.asarray(self.residual, dtype=np.float64).view()
        if residual.shape != self.obs.values.shape:
            raise ValueError("residual must be aligned with the observed entries")
        residual.setflags(write=False)
        object.__setattr__(self, "residual", residual)
        csr = self.obs.sparse_with(residual)
        object.__setattr__(self, "_sparse", csr)
        # rmatvec's transpose, a CSC view on the same arrays; built once here,
        # since each .T builds a new matrix whose constructor scans the indices
        object.__setattr__(self, "_sparse_t", csr.T)
        z = self.z
        object.__setattr__(self, "_low_rank",
                           z.stacked() if isinstance(z, FactoredSum) else (z.u, z.sigma, z.v))

    @property
    def shape(self) -> tuple[int, int]:
        return self.obs.shape

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.shape[1],):
            raise ValueError(f"expected a vector of length {self.shape[1]}, got {x.shape}")
        u, w, v = self._low_rank
        # not through matmat, so that a wrapper of matmat sees block products only
        return _product(self._sparse, u, w, v, x[:, None])[:, 0]

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.shape[0],):
            raise ValueError(f"expected a vector of length {self.shape[0]}, got {y.shape}")
        u, w, v = self._low_rank
        return _product(self._sparse_t, v, w, u, y[:, None])[:, 0]

    def matmat(self, x: np.ndarray) -> np.ndarray:
        """The operator times an n-by-b block, taken as a C-ordered copy."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self.shape[1]:
            raise ValueError(f"expected a block of {self.shape[1]} rows, got {x.shape}")
        u, w, v = self._low_rank
        return _product(self._sparse, u, w, v, x)

    def rmatmat(self, y: np.ndarray) -> np.ndarray:
        """The transpose times an m-by-b block, as :meth:`matmat`."""
        y = np.ascontiguousarray(y, dtype=np.float64)
        if y.ndim != 2 or y.shape[0] != self.shape[0]:
            raise ValueError(f"expected a block of {self.shape[0]} rows, got {y.shape}")
        u, w, v = self._low_rank
        return _product(self._sparse_t, v, w, u, y)

    def check_residual(self, tol: float = 1e-12) -> None:
        """Verify a misfit operator, ``s = obs.values - P_omega(z)``, against a
        fresh gather: the operators of two_phase, phase_one/phase_two (at
        momentum points too, gathered term by term), soft_impute, frsi,
        assemble_iterate_operator and fpc's lambda0 call.  svt's dual and
        fpc's step-scaled misfit are not misfits."""
        fresh = self.obs.values - project_omega(self.z, self.obs)
        scale = max(np.abs(self.obs.values).max(initial=0.0), 1.0)
        dev = np.abs(fresh - self.residual).max(initial=0.0)
        if dev > tol * scale:
            raise ValueError(f"stale residual: max deviation {dev:.3e} at scale {scale:.3e}")

    def dense(self) -> np.ndarray:
        """Dense assembly ``z + P_omega(s)`` (small sizes only)."""
        out = self.z.dense()
        out[self.obs.rows, self.obs.cols] += self.residual
        return out


def _product(sparse, left, w, right, x):
    """``sparse @ x + left diag(w) right^T x`` for a block ``x``: every
    :class:`SpLrOperator` product, a vector taken as a one-column block and
    the transpose with the factors swapped."""
    out = sparse @ x
    if w.size:
        out += left @ (w[:, None] * (right.T @ x))
    return out


def assemble_iterate_operator(obs: ObservedMatrix, z: FactoredMatrix) -> SpLrOperator:
    """Build the operator for ``P_omega(a) + P_omega_perp(z)`` at iterate z."""
    if z.shape != obs.shape:
        raise ValueError(f"shape mismatch: iterate {z.shape} vs observed {obs.shape}")
    return SpLrOperator(obs, z, obs.values - project_omega(z, obs))
