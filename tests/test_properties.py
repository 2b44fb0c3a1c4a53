"""Property tests: the solvers commute with the symmetries the README promises.

Each example runs two solves of up to 60x60, so the examples are few, and
fixed (``derandomize``) so that the suite's time and outcome do not vary
from run to run.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matcomplete import ObservedMatrix, SolverConfig, frsi, scale, soft_impute, two_phase

from conftest import random_factored

SOLVE_SETTINGS = settings(max_examples=3, deadline=None, derandomize=True)

# Largest deviation from the reference iterate (max-abs difference over the
# largest entry) measured over 46 random instances up to 60x60 and all three
# solvers: 3.8e-11 permuted and 4.9e-11 transposed (the Lanczos start vector
# does not follow the permutation or the transpose, so the SVDs agree only to
# their tolerance, and each SVD stops as soon as its first r triplets meet it
# and the (r+1)-th value is certified), 2.2e-14 rescaled.  The bounds leave
# room for other BLAS builds.
PERMUTE_TOL = 1e-10
RESCALE_TOL = 1e-12

SOLVERS = {
    "two_phase": lambda obs, r, s: two_phase(obs, SolverConfig(r=r)),
    "frsi": lambda obs, r, s: frsi(obs, r),
    # lam = 0.5 at unit scale, scaled with the data
    "soft_impute": lambda obs, r, s: soft_impute(obs, 0.5 * s, rank_start=r),
}

instances = dict(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(12, 60),
    n=st.integers(12, 60),
    r=st.integers(1, 4),
)


def instance(seed, m, n, r):
    """Half the entries of a random rank-r m-by-n matrix, and the generator."""
    rng = np.random.default_rng(seed)
    truth = random_factored(rng, m, n, r)
    rows, cols = np.divmod(np.flatnonzero(rng.random(m * n) < 0.5), n)
    return ObservedMatrix(m, n, rows, cols, truth.dense()[rows, cols]), rng


def assert_same_solve(got, ref, got_dense, expected, tol):
    assert (got.iterations, got.status, got.recovered_rank, got.phase_split) == (
        ref.iterations, ref.status, ref.recovered_rank, ref.phase_split)
    assert np.abs(got_dense - expected).max() <= tol * np.abs(expected).max()


@pytest.mark.parametrize("name", SOLVERS)
@SOLVE_SETTINGS
@given(**instances)
def test_permuting_rows_and_columns_permutes_the_result(name, seed, m, n, r):
    obs, rng = instance(seed, m, n, r)
    pr, pc = rng.permutation(m), rng.permutation(n)
    # entry (i, j) of the permuted matrix is entry (pr[i], pc[j]) of the data
    permuted = ObservedMatrix(m, n, np.argsort(pr)[obs.rows], np.argsort(pc)[obs.cols], obs.values)
    solve = SOLVERS[name]
    ref, got = solve(obs, r, 1.0), solve(permuted, r, 1.0)
    assert_same_solve(got, ref, got.x.dense(), ref.x.dense()[pr][:, pc], PERMUTE_TOL)


@pytest.mark.parametrize("name", SOLVERS)
@SOLVE_SETTINGS
@given(**instances)
def test_solving_the_transpose_transposes_the_result(name, seed, m, n, r):
    obs, _ = instance(seed, m, n, r)
    transposed = ObservedMatrix(n, m, obs.cols, obs.rows, obs.values)
    solve = SOLVERS[name]
    ref, got = solve(obs, r, 1.0), solve(transposed, r, 1.0)
    assert_same_solve(got, ref, got.x.dense(), ref.x.dense().T, PERMUTE_TOL)


@pytest.mark.parametrize("name", SOLVERS)
@SOLVE_SETTINGS
@given(**instances, exponent=st.floats(-150.0, 150.0))
def test_rescaling_the_data_rescales_the_result(name, seed, m, n, r, exponent):
    obs, _ = instance(seed, m, n, r)
    s = 10.0 ** exponent
    scaled = ObservedMatrix(m, n, obs.rows, obs.cols, s * obs.values)
    solve = SOLVERS[name]
    ref, got = solve(obs, r, 1.0), solve(scaled, r, s)
    assert_same_solve(got, ref, scale(1.0 / s, got.x).dense(), ref.x.dense(), RESCALE_TOL)


@pytest.mark.parametrize("name", SOLVERS)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(**instances, exponent=st.floats(170.0, 300.0))
def test_overflowing_data_norm_asks_for_a_rescale(name, seed, m, n, r, exponent):
    # entries stay finite (below 1e302) while their squares overflow
    obs, _ = instance(seed, m, n, r)
    scaled = ObservedMatrix(m, n, obs.rows, obs.cols, 10.0 ** exponent * obs.values)
    with pytest.raises(ValueError, match="rescale"):
        SOLVERS[name](scaled, r, 10.0 ** exponent)
