import numpy as np
import pytest

from matcomplete import (
    FactoredMatrix,
    dense_svd,
    fejer_slack,
    fixed_rank_step,
    make_spurious_fixed_point,
    soft_threshold,
)

from conftest import full_observed, random_factored, random_observed


def dense_soft_threshold(a, tau):
    """Oracle: shrink singular values of a dense matrix."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return (u * np.maximum(s - tau, 0.0)) @ vt


# --- soft_threshold ---


def test_zero_threshold_is_identity(rng):
    f = random_factored(rng, 6, 5, 3)
    out = soft_threshold(f, 0.0)
    assert np.array_equal(out.sigma, f.sigma)
    assert np.allclose(out.dense(), f.dense())


def test_full_shrinkage_gives_zero(rng):
    f = random_factored(rng, 6, 5, 3)
    out = soft_threshold(f, f.sigma[0] * 1.0001)
    assert out.rank == 0 and out.k == 0


def test_direct_shift():
    u = np.eye(6)[:, :3]
    v = np.eye(5)[:, :3]
    f = FactoredMatrix(u, np.array([5.0, 3.0, 1.0]), v)
    out = soft_threshold(f, 2.0)
    assert out.sigma.tolist() == [3.0, 1.0]
    assert out.rank == 2


def test_negative_threshold_rejected(rng):
    with pytest.raises(ValueError, match="nonnegative"):
        soft_threshold(random_factored(rng, 4, 4, 2), -0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        soft_threshold(random_factored(rng, 4, 4, 2), float("nan"))


def test_nonexpansive_on_random_pairs(rng):
    for _ in range(40):
        m = int(rng.integers(3, 41))
        n = int(rng.integers(3, 41))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal((m, n))
        tau = float(rng.uniform(0.0, 3.0))
        lhs = np.linalg.norm(dense_soft_threshold(a, tau) - dense_soft_threshold(b, tau))
        assert lhs <= np.linalg.norm(a - b) + 1e-10


def test_commutes_with_orthogonal_transforms(rng):
    a = rng.standard_normal((10, 8))
    q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    w, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    tau = 1.3
    lhs = dense_soft_threshold(q @ a @ w.T, tau)
    rhs = q @ dense_soft_threshold(a, tau) @ w.T
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_factored_soft_threshold_matches_dense_oracle(rng):
    f = random_factored(rng, 12, 9, 5)
    for tau in (0.3, 2.0, 7.0):
        got = soft_threshold(f, tau)
        got.validate()
        assert np.allclose(got.dense(), dense_soft_threshold(f.dense(), tau), atol=1e-10)


# --- soft_threshold as the proximal map of lam * nuclear_norm with step t ---


def test_prox_tiny_weight_is_identity(rng):
    f = random_factored(rng, 6, 6, 3)
    out = soft_threshold(f, 1e-300)
    assert np.allclose(out.dense(), f.dense(), atol=1e-13)


def test_prox_direct_formula(rng):
    f = random_factored(rng, 5, 5, 2)
    f = FactoredMatrix(f.u, np.array([4.0, 2.0]), f.v)
    out = soft_threshold(f, 1.0)
    assert out.sigma.tolist() == [3.0, 1.0]


def test_prox_minimizes_against_random_perturbations(rng):
    # sampling oracle: the prox objective at the output beats 1000 perturbations
    lam, t = 0.7, 1.3
    f = random_factored(rng, 15, 12, 6)
    m_dense = f.dense()
    x = soft_threshold(f, lam * t).dense()

    def prox_objective(candidate):
        return (
            np.linalg.norm(m_dense - candidate) ** 2 / (2.0 * t)
            + lam * np.linalg.svd(candidate, compute_uv=False).sum()
        )

    base = prox_objective(x)
    for _ in range(1000):
        delta = rng.standard_normal(x.shape) * 10 ** rng.uniform(-4, 0)
        assert prox_objective(x + delta) >= base - 1e-10


# --- fixed_rank_step ---


def synthetic_pair(rng, m, n, r, frac):
    truth = random_factored(rng, m, n, r)
    obs = random_observed(rng, m, n, frac)
    values = truth.dense()[obs.rows, obs.cols]
    from matcomplete import ObservedMatrix

    return truth, ObservedMatrix(m, n, obs.rows, obs.cols, values)


def test_exact_matrix_is_fixed_point(rng):
    truth, obs = synthetic_pair(rng, 12, 10, 3, 0.5)
    x_next, rho = fixed_rank_step(truth, obs, 3)
    assert rho <= 1e-10 * truth.sigma[0]
    assert np.allclose(x_next.dense(), truth.dense(), atol=1e-8)


def test_complement_projection_maps_to_truth(rng):
    truth, obs = synthetic_pair(rng, 10, 9, 2, 0.4)
    dense = truth.dense().copy()
    dense[obs.rows, obs.cols] = 0.0
    x = dense_svd(dense)
    x_next, rho = fixed_rank_step(x, obs, 2)
    assert np.allclose(x_next.dense(), truth.dense(), atol=1e-8)


def test_zero_and_observed_give_same_step(rng):
    truth, obs = synthetic_pair(rng, 11, 8, 2, 0.45)
    from_zero, rho0 = fixed_rank_step(FactoredMatrix.zero(11, 8), obs, 2)
    from_obs, rho1 = fixed_rank_step(dense_svd(obs.dense()), obs, 2)
    assert abs(rho0 - rho1) <= 1e-9 * max(rho0, 1.0)
    assert np.allclose(from_zero.dense(), from_obs.dense(), atol=1e-8)


def test_rank_never_exceeds_target(rng):
    for _ in range(5):
        obs = random_observed(rng, 14, 12, 0.5)
        x = FactoredMatrix.zero(14, 12)
        for _ in range(4):
            x, rho = fixed_rank_step(x, obs, 3)
            assert x.rank <= 3


def test_rho_zero_when_rank_exhausts_dimension(rng):
    obs = random_observed(rng, 3, 20, 0.5)
    x_next, rho = fixed_rank_step(FactoredMatrix.zero(3, 20), obs, 3)
    assert rho == 0.0


def test_rank_validation(rng):
    obs = random_observed(rng, 5, 5, 0.5)
    with pytest.raises(ValueError, match="at least 1"):
        fixed_rank_step(FactoredMatrix.zero(5, 5), obs, 0)
    u = np.eye(5, 1)
    with pytest.raises(ValueError, match="^x must have finite factors"):
        fixed_rank_step(FactoredMatrix(u, np.array([np.nan]), u), obs, 1)


# --- fejer_slack ---


def test_slack_zero_at_fixed_point(rng):
    truth, _ = synthetic_pair(rng, 8, 8, 2, 0.5)
    assert fejer_slack(truth, truth, truth, 2, 0.0) == 0.0


def test_slack_for_stalled_step_is_bound_term(rng):
    truth, _ = synthetic_pair(rng, 8, 8, 2, 0.5)
    x = random_factored(rng, 8, 8, 2)
    rho = 0.37
    slack = fejer_slack(x, x, truth, 2, rho)
    assert abs(slack - np.sqrt(2) * rho) <= 1e-12


def test_slack_nonnegative_along_fixed_rank_runs(rng):
    truth, obs = synthetic_pair(rng, 60, 60, 3, 0.7)
    x = FactoredMatrix.zero(60, 60)
    for _ in range(25):
        x_next, rho = fixed_rank_step(x, obs, 3)
        assert fejer_slack(x, x_next, truth, 3, rho) >= -1e-8
        x = x_next


def test_slack_shape_validation(rng):
    a = random_factored(rng, 5, 5, 2)
    b = random_factored(rng, 6, 5, 2)
    with pytest.raises(ValueError, match="share a shape"):
        fejer_slack(a, b, a, 2, 0.1)


# --- spurious fixed points ---


def threshold_at_r_plus_1(y, r):
    """Oracle: shrink a dense matrix at its own (r+1)-th singular value."""
    s = np.linalg.svd(y, compute_uv=False)
    rho = s[r] if r < min(y.shape) else 0.0
    return dense_soft_threshold(y, rho)


def test_handcrafted_small_instance(rng):
    x, grad = make_spurious_fixed_point(
        4, 4, 1, 2.0, rng, sigma=np.array([3.0]), sigma_perp=np.array([0.5, 0.5])
    )
    y = x.dense() - grad
    s = np.linalg.svd(y, compute_uv=False)
    assert abs(s[1] - 2.0) <= 1e-10
    assert np.abs(threshold_at_r_plus_1(y, 1) - x.dense()).max() <= 1e-10


def test_gamma_guard(rng):
    with pytest.raises(ValueError, match="strictly below gamma"):
        make_spurious_fixed_point(6, 6, 2, 1.0, rng, sigma_perp=np.array([0.4, 1.2, 0.3]))


def test_random_instance_is_stationary(rng):
    x, grad = make_spurious_fixed_point(8, 6, 2, 1.0, rng)
    y = x.dense() - grad
    assert np.linalg.norm(threshold_at_r_plus_1(y, 2) - x.dense()) <= 1e-10


def test_infeasible_dimensions_rejected(rng):
    with pytest.raises(ValueError, match="min\\(m, n\\)"):
        make_spurious_fixed_point(3, 5, 3, 1.0, rng)
    with pytest.raises(ValueError, match="positive"):
        make_spurious_fixed_point(5, 5, 2, 0.0, rng)
