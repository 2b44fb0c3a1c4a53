"""Storage for the sampled entries of a partially observed matrix."""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass

import numpy as np
from scipy import sparse


def check_counts(**counts) -> None:
    """Reject any count (size, rank, budget, triplets) that is not an integer
    of at least 1; bools are not counts.  The message starts with the count's
    name."""
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def check_positive(**values) -> None:
    """Reject any value (tolerance, weight, step) that is not greater than 0,
    NaN included.  The message starts with the value's name."""
    for name, value in values.items():
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True, eq=False)
class ObservedMatrix:
    """Known entries of an m-by-n matrix, indexed by the sampling set omega.

    Entries are stored in row-major sorted order so that residual traversal
    and serialization are reproducible.  Duplicate (i, j) pairs are rejected
    rather than merged, and NaN or infinite values are rejected outright.
    Instances are immutable after construction and safe to share across
    threads.
    """

    m: int
    n: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        check_counts(m=self.m, n=self.n)
        rows = np.asarray(self.rows, dtype=np.int64).copy()
        cols = np.asarray(self.cols, dtype=np.int64).copy()
        values = np.asarray(self.values, dtype=np.float64).copy()
        if rows.ndim != 1 or cols.shape != rows.shape or values.shape != rows.shape:
            raise ValueError("rows, cols and values must be 1-d arrays of equal length")
        finite = np.isfinite(values)
        if not finite.all():
            k = int(np.flatnonzero(~finite)[0])
            raise ValueError(f"non-finite value {values[k]} at ({rows[k]}, {cols[k]}); "
                             "observed entries must be finite")
        if rows.size:
            if rows.min() < 0 or rows.max() >= self.m:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= self.n:
                raise ValueError("column index out of range")
            order = np.lexsort((cols, rows))
            rows, cols, values = rows[order], cols[order], values[order]
            dup = (np.diff(rows) == 0) & (np.diff(cols) == 0)
            if dup.any():
                k = int(np.flatnonzero(dup)[0])
                raise ValueError(f"duplicate index pair ({rows[k]}, {cols[k]}) in omega")
        # CSR structure, shared by every operator built on this omega; in int32
        # when it fits, scipy takes it as is instead of scanning and copying it
        fits = max(rows.size, self.m, self.n) <= np.iinfo(np.int32).max
        index_dtype = np.int32 if fits else np.int64
        indptr = np.zeros(self.m + 1, dtype=index_dtype)
        if rows.size:
            np.cumsum(np.bincount(rows, minlength=self.m), out=indptr[1:])
        indices = cols.astype(index_dtype, copy=False)
        arrays = dict(rows=rows, cols=cols, values=values, _indptr=indptr, _indices=indices)
        for name, a in arrays.items():
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    @property
    def nnz(self) -> int:
        return int(self.rows.size)

    @property
    def omega(self) -> np.ndarray:
        """The index set as an (nnz, 2) array in canonical row-major order."""
        return np.column_stack((self.rows, self.cols))

    def norm(self) -> float:
        """Frobenius norm of the sampled entries."""
        return float(np.linalg.norm(self.values))

    def sparse_with(self, values: np.ndarray) -> sparse.csr_matrix:
        """CSR matrix carrying ``values`` on this omega (zero elsewhere)."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != self.values.shape:
            raise ValueError("values must match the omega size")
        return sparse.csr_matrix((values, self._indices, self._indptr), shape=self.shape)

    def to_sparse(self) -> sparse.csr_matrix:
        return self.sparse_with(self.values)

    def dense(self) -> np.ndarray:
        """Dense array with the observed values filled in (small sizes only)."""
        if max(self.m, self.n) > 4096:
            raise ValueError("refusing to densify a matrix larger than 4096 on a side")
        out = np.zeros((self.m, self.n))
        out[self.rows, self.cols] = self.values
        return out

    def save(self, path) -> None:
        """Write the text triple format: header "m n nnz", then "i j value" lines."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"{self.m} {self.n} {self.nnz}\n")
            for i, j, v in zip(self.rows, self.cols, self.values):
                fh.write(f"{i} {j} {float(v)!r}\n")

    @classmethod
    def load(cls, path) -> "ObservedMatrix":
        """Read the text triple format written by :meth:`save`."""
        if not os.path.exists(path):
            raise FileNotFoundError(f"observed-matrix file not found: {path}")
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().split()
            if len(header) != 3:
                raise ValueError(f"{path}:1: expected header 'm n nnz'")
            try:
                m, n, nnz = (int(t) for t in header)
            except ValueError:
                raise ValueError(f"{path}:1: malformed header {header!r}") from None
            if nnz < 0:
                raise ValueError(f"{path}:1: negative entry count {nnz}")
            rows = np.empty(nnz, dtype=np.int64)
            cols = np.empty(nnz, dtype=np.int64)
            values = np.empty(nnz, dtype=np.float64)
            for k in range(nnz):
                lineno = k + 2
                parts = fh.readline().split()
                if len(parts) != 3:
                    raise ValueError(f"{path}:{lineno}: expected 'i j value'")
                try:
                    rows[k], cols[k] = int(parts[0]), int(parts[1])
                    values[k] = float(parts[2])
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: malformed entry {parts!r}") from None
            for lineno, line in enumerate(fh, nnz + 2):
                if line.strip():
                    raise ValueError(f"{path}:{lineno}: more entries than the {nnz} "
                                     "that the header declares")
        return cls(m, n, rows, cols, values)
