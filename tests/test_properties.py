"""Property tests: the solvers commute with the symmetries the README promises.

Each example runs two solves of up to 60x60, so the examples are few, and
fixed (``derandomize``) so that the suite's time and outcome do not vary
from run to run.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matcomplete import (
    FactoredMatrix,
    ObservedMatrix,
    SolveResult,
    SolverConfig,
    fpc,
    frsi,
    gen_synthetic,
    phase_one,
    phase_two,
    scale,
    soft_impute,
    svt,
    two_phase,
)

from matcomplete import svd

from conftest import random_factored

SOLVE_SETTINGS = settings(max_examples=3, deadline=None, derandomize=True)

# Largest deviation from the reference iterate (max-abs difference over the
# largest entry) measured over 46 random instances up to 60x60: 1.6e-14
# permuted and 2.3e-14 transposed for two_phase, frsi and soft_impute, and at
# most 2.0e-14 for phase_one, phase_two and fpc; the Lanczos start is derived
# from the data and follows a permutation or a transpose, so the solves run
# the same iterations up to rounding (with a seeded Gaussian start, which did
# not, they agreed only to the SVD tolerance: 4.7e-11 and 6.0e-11).  svt's
# hundreds of passes on these instances amplify rounding to 1.0e-12 permuted
# and 1.8e-12 transposed.  Rescaled: at most 3.2e-14.  The bounds leave room
# for other BLAS builds.
PERMUTE_TOL = 1e-10
RESCALE_TOL = 1e-12

def phase_one_solve(obs, r):
    """phase_one's last thresholded iterate, as a SolveResult."""
    p1 = phase_one(obs, r)
    return SolveResult(p1.x_last, p1.iterations, "stabilized" if p1.stabilized else "not",
                       p1.trace, phase_split=(p1.iterations, 0))


# the solvers that commute with rescaling the data
SOLVERS = {
    "two_phase": lambda obs, r, s: two_phase(obs, SolverConfig(r=r)),
    "phase_one": lambda obs, r, s: phase_one_solve(obs, r),
    # lam = 0.5 at unit scale, scaled with the data
    "phase_two": lambda obs, r, s: phase_two(obs, r, 0.5 * s, FactoredMatrix.zero(*obs.shape)),
    "frsi": lambda obs, r, s: frsi(obs, r),
    "soft_impute": lambda obs, r, s: soft_impute(obs, 0.5 * s, rank_start=r),
}
# and those that commute with permutations and transposes only: svt's
# threshold and fpc's floor are absolute, by design
SYMMETRIC_SOLVERS = dict(SOLVERS, svt=lambda obs, r, s: svt(obs), fpc=lambda obs, r, s: fpc(obs))

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


@pytest.mark.parametrize("name", SYMMETRIC_SOLVERS)
@SOLVE_SETTINGS
@given(**instances)
def test_permuting_rows_and_columns_permutes_the_result(name, seed, m, n, r):
    obs, rng = instance(seed, m, n, r)
    pr, pc = rng.permutation(m), rng.permutation(n)
    # entry (i, j) of the permuted matrix is entry (pr[i], pc[j]) of the data
    permuted = ObservedMatrix(m, n, np.argsort(pr)[obs.rows], np.argsort(pc)[obs.cols], obs.values)
    solve = SYMMETRIC_SOLVERS[name]
    ref, got = solve(obs, r, 1.0), solve(permuted, r, 1.0)
    assert_same_solve(got, ref, got.x.dense(), ref.x.dense()[pr][:, pc], PERMUTE_TOL)


@pytest.mark.parametrize("name", SYMMETRIC_SOLVERS)
@SOLVE_SETTINGS
@given(**instances)
def test_solving_the_transpose_transposes_the_result(name, seed, m, n, r):
    obs, _ = instance(seed, m, n, r)
    transposed = ObservedMatrix(n, m, obs.cols, obs.rows, obs.values)
    solve = SYMMETRIC_SOLVERS[name]
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


@pytest.fixture
def accepted(monkeypatch):
    """Records whether each warm block step, and each deflated finish,
    returned triplets."""
    steps = {"_block_svd": [], "_deflated_finish": []}
    for name, outcomes in steps.items():
        original = getattr(svd, name)

        def recording(*args, _original=original, _outcomes=outcomes):
            f = _original(*args)
            _outcomes.append(f is not None)
            return f

        monkeypatch.setattr(svd, name, recording)
    return steps


def assert_symmetric_on_the_block_path(solve, accepted, kinds):
    """``solve`` on a 60x60 instance and on its row-permuted, column-permuted
    and transposed copies: each solve returns triplets from every step in
    ``kinds`` at least once, and the solves agree to ``PERMUTE_TOL``."""
    obs = gen_synthetic(60, 3, 0.4, seed=4).obs
    ref = solve(obs, 3, 1.0)
    assert all(any(accepted[kind]) for kind in kinds)
    expected = ref.x.dense()
    pr, pc = np.random.default_rng(4).permutation(60), np.random.default_rng(5).permutation(60)
    for data, expect in (
            (ObservedMatrix(60, 60, np.argsort(pr)[obs.rows], obs.cols, obs.values), expected[pr]),
            (ObservedMatrix(60, 60, obs.rows, np.argsort(pc)[obs.cols], obs.values), expected[:, pc]),
            (ObservedMatrix(60, 60, obs.cols, obs.rows, obs.values), expected.T)):
        for outcomes in accepted.values():
            outcomes.clear()
        got = solve(data, 3, 1.0)
        assert all(any(accepted[kind]) for kind in kinds)
        assert_same_solve(got, ref, got.x.dense(), expect, PERMUTE_TOL)


def test_two_phase_on_the_block_path_follows_permutations_and_the_transpose(accepted):
    # a solve whose phase one accepts warm block steps: CholeskyQR reads a
    # block only through its Gram matrix, and its block follows the data, so
    # the permuted and transposed solves take the same steps
    assert_symmetric_on_the_block_path(SOLVERS["two_phase"], accepted, ["_block_svd"])


def test_svt_on_the_block_path_follows_permutations_and_the_transpose(accepted):
    # svt's predicted blocks and deflated finishes follow the data as well:
    # the finish starts from a Ritz vector and deflates by Ritz pairs
    assert_symmetric_on_the_block_path(SYMMETRIC_SOLVERS["svt"], accepted,
                                       ["_block_svd", "_deflated_finish"])
