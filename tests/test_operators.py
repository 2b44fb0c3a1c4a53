import numpy as np
import pytest

from matcomplete import (
    FactoredMatrix,
    FactoredSum,
    ObservedMatrix,
    SpLrOperator,
    assemble_iterate_operator,
    combine,
    project_omega,
)

from conftest import full_observed, random_factored, random_observed


def dense_fill(obs, z):
    """Oracle: dense assembly of z with observed entries overwritten."""
    out = z.dense().copy()
    out[obs.rows, obs.cols] = obs.values
    return out


def test_zero_iterate_gives_sparse_data(rng):
    obs = random_observed(rng, 8, 6, 0.4)
    op = assemble_iterate_operator(obs, FactoredMatrix.zero(8, 6))
    assert np.array_equal(op.residual, obs.values)
    for j in range(6):
        e = np.zeros(6)
        e[j] = 1.0
        assert np.allclose(op.matvec(e), obs.dense()[:, j])


def test_exact_iterate_gives_zero_residual(rng):
    f = random_factored(rng, 7, 7, 3)
    obs = full_observed(f.dense())
    op = assemble_iterate_operator(obs, f)
    assert np.abs(op.residual).max() <= 1e-12 * f.norm()
    x = rng.standard_normal(7)
    assert np.allclose(op.matvec(x), f.dense() @ x, atol=1e-10)


def test_matvec_matches_dense_oracle(rng):
    obs = random_observed(rng, 30, 20, 0.3)
    z = random_factored(rng, 30, 20, 4)
    op = assemble_iterate_operator(obs, z)
    dense = dense_fill(obs, z)
    x = rng.standard_normal(20)
    y = rng.standard_normal(30)
    scale = max(1.0, np.abs(dense).max())
    assert np.abs(op.matvec(x) - dense @ x).max() <= 1e-12 * scale * np.linalg.norm(x)
    assert np.abs(op.rmatvec(y) - dense.T @ y).max() <= 1e-12 * scale * np.linalg.norm(y)


def test_columnwise_assembly_matches_dense(rng):
    # operator applied to every basis vector reproduces the dense fill-in
    for trial in range(3):
        m, n = int(rng.integers(5, 40)), int(rng.integers(5, 40))
        obs = random_observed(rng, m, n, 0.3)
        z = random_factored(rng, m, n, 3)
        op = assemble_iterate_operator(obs, z)
        dense = dense_fill(obs, z)
        got = np.column_stack([op.matvec(np.eye(n)[:, j]) for j in range(n)])
        assert np.abs(got - dense).max() <= 1e-12 * max(1.0, np.abs(dense).max())
        assert np.allclose(op.dense(), dense, atol=1e-12 * max(1.0, np.abs(dense).max()))


def test_residual_consistency_check(rng):
    obs = random_observed(rng, 10, 10, 0.4)
    z = random_factored(rng, 10, 10, 2)
    op = assemble_iterate_operator(obs, z)
    op.check_residual()
    doctored = SpLrOperator(obs, z, op.residual + 1e-6)
    with pytest.raises(ValueError, match="stale residual"):
        doctored.check_residual()


def _sparse_omega(rng, m, n, frac, empty_rows, empty_cols):
    """Random omega of an m-by-n matrix with the given rows and columns unobserved."""
    rows, cols = np.divmod(np.flatnonzero(rng.random(m * n) < frac), n)
    keep = ~np.isin(rows, empty_rows) & ~np.isin(cols, empty_cols)
    return ObservedMatrix(m, n, rows[keep], cols[keep], rng.standard_normal(int(keep.sum())))


@pytest.mark.parametrize("m, n", [(17, 9), (9, 17), (40, 3), (3, 12)])
def test_rmatvec_matches_dense_transpose(rng, m, n):
    # the misfit operator, the svt-style dual at zero and the fpc-style
    # step-scaled misfit, all on the data's own omega
    obs = _sparse_omega(rng, m, n, 0.4, empty_rows=[0, m - 1], empty_cols=[1, n // 2])
    z = random_factored(rng, m, n, min(3, m, n))
    y_dual = rng.standard_normal(obs.nnz)
    misfit = obs.values - project_omega(z, obs)
    ops = [
        assemble_iterate_operator(obs, z),
        SpLrOperator(obs, FactoredMatrix.zero(m, n), y_dual),
        SpLrOperator(obs, z, 0.5 * misfit),
    ]
    for op in ops:
        dense = op.dense()
        for _ in range(3):
            y = rng.standard_normal(m)
            expected = dense.T @ y
            assert np.abs(op.rmatvec(y) - expected).max() <= 1e-12 * max(1.0, np.abs(dense).max()) * np.abs(y).sum()
            assert np.array_equal(op.rmatvec(y), op.rmatvec(y))
    ops[0].check_residual()


def test_operator_keeps_a_read_only_view_of_its_residual(rng):
    obs = random_observed(rng, 9, 7, 0.5)
    buf = rng.standard_normal(obs.nnz)
    op = SpLrOperator(obs, random_factored(rng, 9, 7, 2), buf)
    assert np.shares_memory(op.residual, buf)
    assert not op.residual.flags.writeable
    assert buf.flags.writeable
    assert np.shares_memory(op._sparse.data, buf)


def test_operators_share_the_omegas_csr_indices(rng):
    obs = random_observed(rng, 12, 9, 0.5)
    z = random_factored(rng, 12, 9, 2)
    misfit = obs.values - project_omega(z, obs)
    for op in (assemble_iterate_operator(obs, z),
               SpLrOperator(obs, FactoredMatrix.zero(12, 9), rng.standard_normal(obs.nnz)),
               SpLrOperator(obs, z, 0.5 * misfit)):
        assert np.shares_memory(op._sparse.indices, obs._indices)
        assert np.shares_memory(op._sparse.indptr, obs._indptr)
        assert np.array_equal(op._sparse.indices, obs.cols)


def test_rmatvec_transpose_is_a_view_built_once(rng, monkeypatch):
    # misfit, svt-style dual at zero (zero + P_omega(y)) and fpc-style
    # gradient step (x + step P_omega(a - x)): rmatvec is bitwise the fresh
    # transpose product plus the low-rank term, through a view on the CSR
    # that the operator built, so rmatvec itself transposes nothing
    transposed = []
    csr_type = type(random_observed(rng, 2, 2, 0.5).to_sparse())
    original = csr_type.transpose

    def counting(self, *args, **kwargs):
        transposed.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(csr_type, "transpose", counting)
    obs = random_observed(rng, 14, 11, 0.5)
    z = random_factored(rng, 14, 11, 3)
    misfit = obs.values - project_omega(z, obs)
    for op in (assemble_iterate_operator(obs, z),
               SpLrOperator(obs, FactoredMatrix.zero(14, 11), rng.standard_normal(obs.nnz)),
               SpLrOperator(obs, z, 1.5 * misfit)):
        view = op._sparse_t
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(view, name), getattr(op._sparse, name))
        y = rng.standard_normal(14)
        transposed.clear()
        got = op.rmatvec(y)
        assert transposed == []
        expected = op._sparse.T @ y
        if op.z.k:
            expected = expected + op.z.v @ (op.z.sigma * (op.z.u.T @ y))
        assert np.array_equal(got, expected)


def test_vector_length_validated(rng):
    obs = random_observed(rng, 5, 7, 0.4)
    op = assemble_iterate_operator(obs, FactoredMatrix.zero(5, 7))
    with pytest.raises(ValueError, match="length 7"):
        op.matvec(np.zeros(5))
    with pytest.raises(ValueError, match="length 5"):
        op.rmatvec(np.zeros(7))


def test_shape_mismatch_rejected(rng):
    obs = random_observed(rng, 5, 7, 0.4)
    with pytest.raises(ValueError, match="shape mismatch"):
        assemble_iterate_operator(obs, FactoredMatrix.zero(7, 5))


def test_matvec_is_deterministic(rng):
    obs = random_observed(rng, 12, 12, 0.5)
    z = random_factored(rng, 12, 12, 3)
    x = rng.standard_normal(12)
    a = assemble_iterate_operator(obs, z).matvec(x)
    b = assemble_iterate_operator(obs, z).matvec(x)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("m, n, theta", [(40, 30, 0.7), (25, 60, 0.05), (50, 50, 0.93)])
def test_momentum_operator_matches_the_combined_operator(rng, m, n, theta):
    # the momentum point (1+theta) x - theta x_prev applied through the two
    # factor pairs as they are, against its orthonormal refactorization
    obs = random_observed(rng, m, n, 0.3)
    x, x_prev = random_factored(rng, m, n, 4), random_factored(rng, m, n, 3)
    point = FactoredSum(1.0 + theta, x, -theta, x_prev)
    combined = combine(1.0 + theta, x, -theta, x_prev)
    assert point.shape == (m, n) and point.k == 7
    misfit = obs.values - project_omega(point, obs)
    assert np.abs(misfit - (obs.values - project_omega(combined, obs))).max() <= 1e-12 * combined.sigma[0]
    lazy = SpLrOperator(obs, point, misfit)
    eager = SpLrOperator(obs, combined, misfit)
    lazy.check_residual(1e-12)
    for _ in range(5):
        xv, yv = rng.standard_normal(n), rng.standard_normal(m)
        for got, want in ((lazy.matvec(xv), eager.matvec(xv)), (lazy.rmatvec(yv), eager.rmatvec(yv))):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert np.abs(lazy.dense() - eager.dense()).max() <= 1e-12 * np.abs(eager.dense()).max()
    with pytest.raises(ValueError, match="stale residual"):
        SpLrOperator(obs, point, misfit + 1e-6).check_residual()


def test_factored_sum_rejects_mismatched_terms(rng):
    with pytest.raises(ValueError, match="shape mismatch"):
        FactoredSum(1.5, random_factored(rng, 6, 5, 2), -0.5, random_factored(rng, 5, 6, 2))
