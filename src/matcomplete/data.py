"""Synthetic instances, MovieLens ingestion, holdout splits and metrics."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .factored import FactoredMatrix, frobenius_distance, project_entries, project_omega
from .observed import ObservedMatrix, check_counts

_ML_SEPARATORS = {"ml100k": "\t", "ml1m": "::"}


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class SyntheticInstance:
    """A known-rank ground truth with a uniformly sampled observation set.

    ``p`` is the deleted fraction, so the kept entry count is
    round((1 - p) * n^2) with half-up rounding.  Observed values are read off
    the factored ground truth, so they agree with it exactly.
    """

    ground_truth: FactoredMatrix
    obs: ObservedMatrix
    n: int
    r: int
    p: float
    seed: int


@dataclass(frozen=True)
class RatingsDataset:
    """A ratings matrix with a train/test holdout split.

    ``train`` is the half handed to solvers; ``obs_full`` keeps every rating
    for full-set error reporting.
    """

    obs_full: ObservedMatrix
    train: ObservedMatrix
    test: ObservedMatrix
    holdout_fraction: float
    seed: int


def _factor_product(left: np.ndarray, right: np.ndarray) -> FactoredMatrix:
    """Orthonormal factorization of ``left @ right`` via QR plus a small SVD."""
    qa, ra = np.linalg.qr(left)
    qb, rb = np.linalg.qr(right.T)
    p, s, wt = np.linalg.svd(ra @ rb.T)
    return FactoredMatrix(qa @ p, s, qb @ wt.T)


def gen_synthetic(n: int, r: int, p: float, seed: int) -> SyntheticInstance:
    """Generate a rank-r n-by-n product of standard-normal factors and delete
    a uniform fraction ``p`` of its entries.

    Draw order under the PCG64 generator seeded with ``seed``: left factor
    (n-by-r, C order), right factor (r-by-n), then the surviving flat indices
    (uniform without replacement).  Identical seeds give identical draws on
    every platform; the observed values are read off the factored ground
    truth with BLAS products, so they are identical for a given numpy and
    BLAS build and may differ in the last bit between builds.
    """
    check_counts(n=n, r=r)
    if r >= n:
        raise ValueError(f"need 1 <= r < n, got r = {r}, n = {n}")
    if not 0 <= p < 1:
        raise ValueError(f"deleted fraction must lie in [0, 1), got {p}")
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((n, r))
    right = rng.standard_normal((r, n))
    ground_truth = _factor_product(left, right)
    total = n * n
    kept = _round_half_up((1.0 - p) * total)
    # the draws are sorted, so numpy need not shuffle them: the set it picks
    # is the same either way; sorted in place and freed before the gather
    flat = rng.choice(total, size=kept, replace=False, shuffle=False)
    flat.sort()
    rows, cols = np.divmod(flat, n)
    del flat
    values = project_entries(ground_truth, rows, cols)
    obs = ObservedMatrix(n, n, rows, cols, values)
    return SyntheticInstance(ground_truth, obs, n, r, p, seed)


def save_synthetic(inst: SyntheticInstance, basepath: str) -> None:
    """Write ``<base>.obs.txt`` (text triples) and ``<base>.json`` (n, r, p, seed)."""
    inst.obs.save(basepath + ".obs.txt")
    with open(basepath + ".json", "w", encoding="ascii") as fh:
        json.dump({"n": inst.n, "r": inst.r, "p": inst.p, "seed": inst.seed}, fh)
        fh.write("\n")


def load_synthetic(basepath: str) -> SyntheticInstance:
    """Regenerate an instance from its sidecar and check it against the file."""
    with open(basepath + ".json", "r", encoding="ascii") as fh:
        meta = json.load(fh)
    inst = gen_synthetic(int(meta["n"]), int(meta["r"]), float(meta["p"]), int(meta["seed"]))
    stored = ObservedMatrix.load(basepath + ".obs.txt")
    if (
        stored.shape != inst.obs.shape
        or not np.array_equal(stored.rows, inst.obs.rows)
        or not np.array_equal(stored.cols, inst.obs.cols)
        or not np.array_equal(stored.values, inst.obs.values)
    ):
        raise ValueError(f"{basepath}.obs.txt does not match its sidecar parameters")
    return inst


def load_movielens(path: str, format: str, min_shape: tuple[int, int] | None = None) -> ObservedMatrix:
    """Parse a MovieLens ratings file into a 0-based observed matrix.

    ``ml100k`` lines are tab-separated ``user item rating timestamp`` and
    ``ml1m`` lines use ``::`` separators; ids are 1-based in both.  Matrix
    dimensions are the largest observed ids, optionally floored by
    ``min_shape``.  Malformed lines and duplicate (user, item) pairs raise.
    """
    if format not in _ML_SEPARATORS:
        raise ValueError(f"unknown format {format!r}; expected one of {sorted(_ML_SEPARATORS)}")
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"ratings file not found: {path} (expected MovieLens {format} format)"
        )
    sep = _ML_SEPARATORS[format]
    users, items, ratings = [], [], []
    with open(path, "r", encoding="latin-1") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(sep)
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields separated by {sep!r}")
            try:
                u, i = int(parts[0]), int(parts[1])
                rating = float(parts[2])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed entry {parts!r}") from None
            if u < 1 or i < 1:
                raise ValueError(f"{path}:{lineno}: ids must be 1-based positive integers")
            users.append(u - 1)
            items.append(i - 1)
            ratings.append(rating)
    if not users:
        raise ValueError(f"{path}: no ratings found")
    rows = np.array(users, dtype=np.int64)
    cols = np.array(items, dtype=np.int64)
    m = int(rows.max()) + 1
    n = int(cols.max()) + 1
    if min_shape is not None:
        m, n = max(m, min_shape[0]), max(n, min_shape[1])
    return ObservedMatrix(m, n, rows, cols, np.array(ratings))


def split_holdout(obs: ObservedMatrix, fraction: float, seed: int) -> tuple[ObservedMatrix, ObservedMatrix]:
    """Split the observed entries into (train, test) uniformly at random.

    The test set receives round(fraction * nnz) entries (half-up); the split
    is deterministic per seed and partitions the input exactly.
    """
    if not 0 < fraction < 1:
        raise ValueError(f"fraction must lie strictly between 0 and 1, got {fraction}")
    n_test = _round_half_up(fraction * obs.nnz)
    if n_test == 0 or n_test == obs.nnz:
        raise ValueError(
            f"degenerate split: {n_test} test entries out of {obs.nnz}"
        )
    rng = np.random.default_rng(seed)
    test_idx = rng.choice(obs.nnz, size=n_test, replace=False)
    mask = np.zeros(obs.nnz, dtype=bool)
    mask[test_idx] = True
    rows, cols = obs.rows, obs.cols
    test = ObservedMatrix(obs.m, obs.n, rows[mask], cols[mask], obs.values[mask])
    mask = ~mask
    train = ObservedMatrix(obs.m, obs.n, rows[mask], cols[mask], obs.values[mask])
    return train, test


def make_ratings_dataset(obs: ObservedMatrix, fraction: float = 0.5, seed: int = 0) -> RatingsDataset:
    train, test = split_holdout(obs, fraction, seed)
    return RatingsDataset(obs, train, test, fraction, seed)


def rer(ground_truth: FactoredMatrix, recovered: FactoredMatrix) -> float:
    """Relative recovery error ``||a - a_hat||_F / ||a||_F``.

    Uses :func:`frobenius_distance`, which forms the difference from skinny
    products of the factors, so no m-by-n matrix is ever formed and a small
    error keeps its digits.
    """
    if ground_truth.shape != recovered.shape:
        raise ValueError(
            f"shape mismatch: {ground_truth.shape} vs {recovered.shape}"
        )
    denom = ground_truth.norm()
    dist = frobenius_distance(ground_truth, recovered)
    if denom == 0.0:
        return 0.0 if dist == 0.0 else math.inf
    return dist / denom


def rmse(eval_set: ObservedMatrix, recovered: FactoredMatrix) -> float:
    """Root mean square prediction error over the evaluation entries."""
    if recovered.shape != eval_set.shape:
        raise ValueError(f"shape mismatch: {recovered.shape} vs {eval_set.shape}")
    if eval_set.nnz == 0:
        raise ValueError("evaluation set is empty")
    diff = eval_set.values - project_omega(recovered, eval_set)
    return float(np.sqrt(diff @ diff / eval_set.nnz))
