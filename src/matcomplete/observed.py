"""Storage for the sampled entries of a partially observed matrix."""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field

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
    """Reject any value (tolerance, weight, step) that is not a finite number
    greater than 0, NaN and inf included.  The message starts with the value's
    name."""
    for name, value in values.items():
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value}")


def checked_indices(shape: tuple[int, int], rows, cols) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` and ``cols`` as intp arrays, or a ValueError naming the first
    bad index.  They must be 1-d integer arrays of equal length (empty lists
    pass; floats and bools do not), with every row, then column, index inside
    ``shape``; an index outside it is named with its position and the shape."""
    rows, cols = np.asarray(rows), np.asarray(cols)
    if rows.ndim != 1 or cols.shape != rows.shape:
        raise ValueError("rows and cols must be 1-d arrays of equal length, "
                         f"got shapes {rows.shape} and {cols.shape}")
    for name, idx, bound in (("row", rows, shape[0]), ("column", cols, shape[1])):
        if not idx.size:
            continue
        if idx.dtype.kind not in "iu":
            raise ValueError(f"{name} indices must be integers, got dtype {idx.dtype}")
        if idx.min() < 0 or idx.max() >= bound:
            t = int(np.flatnonzero((idx < 0) | (idx >= bound))[0])
            raise ValueError(f"{name} index {idx[t]} at position {t} is out of range "
                             f"for a {shape[0]}x{shape[1]} matrix")
    return rows.astype(np.intp, copy=False), cols.astype(np.intp, copy=False)


# Values in one row tile of a gather: 32768 float64 values, about 256 KB.
_TILE_VALUES = 32768


@dataclass(frozen=True, eq=False)
class GatherPlan:
    """Where the entries of a row-sorted index set sit in the row tiles of a gather.

    A gather forms its matrix ``height`` rows at a time, in tiles of about
    256 KB (one row when a row is longer).  The entries in rows
    ``b * height`` up to ``(b + 1) * height`` are ``edges[b]:edges[b + 1]``,
    ``blocks`` lists the blocks holding any entry, and ``flat`` is each
    entry's flat index inside its block's tile: int32, 4 bytes per entry,
    whenever a tile's ``height * n`` values can be numbered in int32, which
    is always the case when ``n <= 2**31``.  The arrays are read-only.
    """

    height: int
    edges: np.ndarray
    blocks: np.ndarray
    flat: np.ndarray

    @classmethod
    def from_csr(cls, shape: tuple[int, int], indptr: np.ndarray, indices: np.ndarray) -> "GatherPlan":
        """The plan for a CSR index structure: row ``i``'s entries are
        ``indptr[i]:indptr[i + 1]``, with in-range column ``indices`` in any
        order within a row; pairs may repeat.  No row index array is formed:
        ``flat`` repeats each row's offset in its tile and adds the columns
        in place."""
        m, n = shape
        height = max(1, _TILE_VALUES // n)
        edges = indptr[np.minimum(np.arange(0, m + height, height), m)].astype(np.intp)
        blocks = np.flatnonzero(np.diff(edges))
        fits = height * n - 1 <= np.iinfo(np.int32).max
        offsets = (np.arange(m) % height * n).astype(np.int32 if fits else np.int64)
        flat = np.repeat(offsets, np.diff(indptr))
        flat += indices
        for a in (edges, blocks, flat):
            a.setflags(write=False)
        return cls(height, edges, blocks, flat)


def _row_major(rows: np.ndarray, cols: np.ndarray) -> bool:
    """Whether the index pairs strictly increase in row-major order, told by
    comparisons alone: no int64 key, and temporaries of a byte per entry."""
    later = rows[1:] > rows[:-1]
    later |= (rows[1:] == rows[:-1]) & (cols[1:] > cols[:-1])
    return bool(later.all())


@dataclass(frozen=True, eq=False, init=False)
class ObservedMatrix:
    """Known entries of an m-by-n matrix, indexed by the sampling set omega.

    Built as ``ObservedMatrix(m, n, rows, cols, values)`` and kept as its
    compressed sparse rows only: ``values`` in row-major order, the column
    indices and the row pointers, both int32 when they fit, so 8 + 4 bytes
    per entry plus ``4 (m + 1)``.  Every operator on this omega shares the
    index arrays.  :attr:`rows` and :attr:`cols` are read-only int64 arrays
    built afresh on each access, 8 bytes per entry each; read them once.

    The order is checked by comparisons, and the pairs are sorted (by the
    int64 key ``rows * n + cols``) only when they do not already strictly
    increase in row-major order, so that residual traversal and
    serialization are reproducible; m * n must fit in an int64.  Building
    copies no index array it does not keep when the indices are int64.
    Indices must be integers, as in ``project_entries``
    (:func:`checked_indices`): float and bool indices are rejected, not
    truncated.  Duplicate (i, j) pairs are rejected rather than merged, and
    NaN or infinite values are rejected outright.  The first gather builds
    :attr:`gather_plan`, 4 bytes per entry that every later gather on this
    omega reads.  Instances are immutable after construction and safe to
    share across threads.
    """

    m: int
    n: int
    values: np.ndarray
    _indptr: np.ndarray = field(repr=False)
    _indices: np.ndarray = field(repr=False)

    def __init__(self, m: int, n: int, rows, cols, values):
        check_counts(m=m, n=n)
        if int(m) * int(n) > np.iinfo(np.int64).max:
            raise ValueError(f"an m-by-n matrix with m = {m} and n = {n} has more "
                             "entries than an int64 row-major index can number")
        rows, cols = checked_indices((m, n), rows, cols)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != rows.shape:
            raise ValueError("rows, cols and values must be 1-d arrays of equal length, "
                             f"got {rows.size} index pairs and values of shape {values.shape}")
        if not np.isfinite(values).all():
            k = int(np.flatnonzero(~np.isfinite(values))[0])
            raise ValueError(f"non-finite value {values[k]} at ({rows[k]}, {cols[k]}); "
                             "observed entries must be finite")
        # in int32 when it fits, scipy takes the CSR structure as is instead
        # of scanning and copying it
        fits = max(rows.size, m, n) <= np.iinfo(np.int32).max
        index_dtype = np.int32 if fits else np.int64
        if _row_major(rows, cols):
            values = values.copy()
            # row i's entries start at the first row index not below i
            indptr = np.searchsorted(rows, np.arange(m + 1))
            indices = cols.astype(index_dtype)
        else:
            # keys are unique once duplicates are rejected, so the sort need
            # not be stable
            key = rows * n
            key += cols
            order = np.argsort(key)
            key = key[order]
            dup = np.flatnonzero(key[1:] == key[:-1])
            if dup.size:
                i, j = divmod(int(key[dup[0]]), n)
                raise ValueError(f"duplicate index pair ({i}, {j}) in omega")
            values = values[order]
            del order  # freed before the indices are made, to lower the peak
            # row i's entries start at the first key not below i * n
            indptr = np.searchsorted(key, np.arange(m + 1) * n)
            key %= n  # the sorted columns, in the key's own buffer
            indices = key.astype(index_dtype, copy=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        arrays = dict(values=values, _indptr=indptr.astype(index_dtype), _indices=indices)
        for name, a in arrays.items():
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "_gather_plan", None)

    @property
    def rows(self) -> np.ndarray:
        """The row index of each entry, a read-only int64 array built on each
        access from the row pointers."""
        rows = np.repeat(np.arange(self.m, dtype=np.int64), np.diff(self._indptr))
        rows.setflags(write=False)
        return rows

    @property
    def cols(self) -> np.ndarray:
        """The column index of each entry, a read-only int64 copy of the CSR
        column indices made on each access."""
        cols = self._indices.astype(np.int64)
        cols.setflags(write=False)
        return cols

    @property
    def gather_plan(self) -> GatherPlan:
        """The :class:`GatherPlan` of this omega, built on first use."""
        plan = self._gather_plan
        if plan is None:
            plan = GatherPlan.from_csr(self.shape, self._indptr, self._indices)
            # one assignment publishes the finished plan: a thread racing here
            # builds an equal one, and no reader sees a partial plan
            object.__setattr__(self, "_gather_plan", plan)
        return plan

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    @property
    def nnz(self) -> int:
        return int(self.values.size)

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
            if m < 1 or n < 1:
                raise ValueError(f"{path}:1: matrix shape must be at least 1-by-1, "
                                 f"got {m}-by-{n}")
            if nnz < 0:
                raise ValueError(f"{path}:1: negative entry count {nnz}")
            # duplicate pairs are rejected, so no valid file holds more
            if nnz > m * n:
                raise ValueError(f"{path}:1: entry count {nnz} exceeds the {m * n} "
                                 f"entries of a {m}-by-{n} matrix")
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
