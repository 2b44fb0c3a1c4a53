import numpy as np
import pytest

from matcomplete import (
    FactoredMatrix,
    ObservedMatrix,
    TruncatedSvdError,
    assemble_iterate_operator,
    dense_svd,
    truncated_svd,
)

from conftest import full_observed, random_factored, random_observed


def splr_op(rng, m, n, k_z, frac):
    obs = random_observed(rng, m, n, frac)
    z = random_factored(rng, m, n, k_z)
    return assemble_iterate_operator(obs, z)


def test_identity_diagonal_has_unit_singular_values():
    obs = ObservedMatrix(5, 5, np.arange(5), np.arange(5), np.ones(5))
    op = assemble_iterate_operator(obs, FactoredMatrix.zero(5, 5))
    f = truncated_svd(op, 2)
    assert np.allclose(f.sigma, [1.0, 1.0], atol=1e-12)
    f.validate()


def test_rank_one_outer_product(rng):
    a = rng.standard_normal(40)
    b = rng.standard_normal(30)
    z = FactoredMatrix(
        (a / np.linalg.norm(a))[:, None],
        np.array([np.linalg.norm(a) * np.linalg.norm(b)]),
        (b / np.linalg.norm(b))[:, None],
    )
    empty = ObservedMatrix(40, 30, [], [], [])
    f = truncated_svd(assemble_iterate_operator(empty, z), 1)
    assert abs(f.sigma[0] - np.linalg.norm(a) * np.linalg.norm(b)) <= 1e-10 * f.sigma[0]


def test_zero_operator_gives_zero_values():
    empty = ObservedMatrix(12, 9, [], [], [])
    f = truncated_svd(assemble_iterate_operator(empty, FactoredMatrix.zero(12, 9)), 3)
    assert np.array_equal(f.sigma, np.zeros(3))
    f.validate()


def test_matches_dense_oracle_on_random_operators(rng):
    worst = 0.0
    for trial in range(20):
        m = int(rng.integers(10, 61))
        n = int(rng.integers(10, 81))
        op = splr_op(rng, m, n, 3, 0.2)
        k = min(5, min(m, n))
        f = truncated_svd(op, k)
        f.validate()
        oracle = dense_svd(op.dense())
        dev = np.abs(f.sigma - oracle.sigma[:k]).max() / max(oracle.sigma[0], 1e-300)
        worst = max(worst, dev)
    assert worst <= 1e-8


def test_values_nonincreasing_and_factors_orthonormal(rng):
    op = splr_op(rng, 40, 50, 4, 0.25)
    f = truncated_svd(op, 6)
    assert (np.diff(f.sigma) <= 1e-12).all()
    assert (f.sigma >= 0).all()
    f.validate()


def test_residual_contract(rng):
    op = splr_op(rng, 35, 45, 3, 0.3)
    f = truncated_svd(op, 4, tol=1e-10)
    for i in range(4):
        lhs = op.matvec(f.v[:, i]) - f.sigma[i] * f.u[:, i]
        assert np.linalg.norm(lhs) <= 1e-9 * f.sigma[0]


def test_exact_low_rank_breakdown_path(rng):
    f_true = random_factored(rng, 50, 50, 4)
    obs = full_observed(f_true.dense())
    op = assemble_iterate_operator(obs, FactoredMatrix.zero(50, 50))
    f = truncated_svd(op, 6)
    assert np.allclose(f.sigma[:4], f_true.sigma, rtol=1e-12)
    assert f.sigma[4] <= 1e-12 * f.sigma[0]
    assert f.sigma[5] <= 1e-12 * f.sigma[0]
    f.validate()


def test_wide_and_tall_shapes(rng):
    for m, n in [(6, 90), (90, 6), (1, 30), (30, 1)]:
        a = rng.standard_normal((m, n))
        op = assemble_iterate_operator(full_observed(a), FactoredMatrix.zero(m, n))
        k = min(m, n)
        f = truncated_svd(op, k)
        oracle = dense_svd(a)
        assert np.abs(f.sigma - oracle.sigma[:k]).max() <= 1e-10 * oracle.sigma[0]


def test_budget_exhaustion_carries_best(rng):
    op = splr_op(rng, 60, 70, 3, 0.25)
    with pytest.raises(TruncatedSvdError) as info:
        truncated_svd(op, 5, tol=1e-10, max_steps=3)
    err = info.value
    assert isinstance(err.best, FactoredMatrix)
    assert err.best.k == 5
    assert err.converged.shape == (5,)
    assert not err.converged.all()


def test_argument_validation(rng):
    op = splr_op(rng, 10, 10, 2, 0.4)
    with pytest.raises(ValueError, match="k must be at least 1"):
        truncated_svd(op, 0)
    with pytest.raises(ValueError, match="triplets"):
        truncated_svd(op, 11)
    for k in (2.5, True):
        with pytest.raises(ValueError, match="k must be an integer"):
            truncated_svd(op, k)
    with pytest.raises(ValueError, match="tol"):
        truncated_svd(op, 2, tol=0.0)


def test_repeat_calls_are_bitwise_identical(rng):
    op = splr_op(rng, 25, 30, 3, 0.3)
    f1 = truncated_svd(op, 4)
    f2 = truncated_svd(op, 4)
    assert np.array_equal(f1.sigma, f2.sigma)
    assert np.array_equal(f1.u, f2.u)
    assert np.array_equal(f1.v, f2.v)


# --- dense oracle ---


def test_dense_svd_diagonal():
    f = dense_svd(np.diag([3.0, 1.0]))
    assert np.allclose(f.sigma, [3.0, 1.0])


def test_dense_svd_zero_matrix():
    f = dense_svd(np.zeros((4, 3)))
    assert np.array_equal(f.sigma, np.zeros(3))


def test_dense_svd_orthogonality_self_check(rng):
    f = dense_svd(rng.standard_normal((20, 30)))
    f.validate(tol=1e-10)
    recon = (f.u * f.sigma) @ f.v.T
    a = f.dense()
    assert np.linalg.norm(recon - a) <= 1e-10 * max(np.linalg.norm(a), 1.0)


def test_dense_svd_reconstructs_input(rng):
    a = rng.standard_normal((15, 12))
    f = dense_svd(a)
    assert np.linalg.norm(f.dense() - a) <= 1e-10 * np.linalg.norm(a)


def test_dense_svd_size_guard(rng):
    with pytest.raises(ValueError, match="<= 512"):
        dense_svd(np.zeros((600, 600)))
    dense_svd(np.zeros((600, 12)))  # min dimension governs
