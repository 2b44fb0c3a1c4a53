"""Run-environment record written next to every benchmark result.

Timings from different machines are comparable only with the core count,
BLAS build and thread count, library versions and cache size beside them.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS bundled with numpy, if found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in _THREAD_QUERIES:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return int(query())
    return None


def last_level_cache_bytes() -> int | None:
    """Size of the largest CPU cache level, from ``getconf``."""
    for level in ("LEVEL4_CACHE_SIZE", "LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        try:
            done = subprocess.run(["getconf", level], capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        value = done.stdout.strip()
        if done.returncode == 0 and value.isdigit() and int(value) > 0:
            return int(value)
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "llc_bytes": last_level_cache_bytes(),
        "argv": sys.argv[1:],
    }


def working_set(obs, k: int) -> dict:
    """Computed sizes of the arrays a solve touches at factor rank ``k``."""
    m, n = obs.shape
    return {
        "nnz": obs.nnz,
        "rows_bytes": obs.rows.nbytes,
        "cols_bytes": obs.cols.nbytes,
        "values_bytes": obs.values.nbytes,
        "factor_bytes": (m + n) * k * 8,
        # one projection gathers a k-row of u and of v per observed entry
        "projection_gather_bytes": obs.nnz * k * 16,
    }
