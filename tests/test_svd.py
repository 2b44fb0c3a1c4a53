import numpy as np
import pytest

from matcomplete import (
    FactoredMatrix,
    LanczosStart,
    ObservedMatrix,
    TruncatedSvdError,
    assemble_iterate_operator,
    dense_svd,
    gen_synthetic,
    truncated_svd,
)
from matcomplete import svd

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
    # the full decomposition, of full rank and then of low rank, where the
    # Lanczos run breaks down after `rank` steps and continues on fresh
    # directions until the exact branch
    for m, n, rank in [(6, 90, None), (90, 6, None), (1, 30, None), (30, 1, None),
                       (12, 8, 3), (8, 8, 3), (8, 12, 3), (20, 6, 2), (9, 5, 1)]:
        if rank is None:
            a = rng.standard_normal((m, n))
        else:
            a = random_factored(rng, m, n, rank).dense()
        op = assemble_iterate_operator(full_observed(a), FactoredMatrix.zero(m, n))
        k = min(m, n)
        f = truncated_svd(op, k)
        oracle = dense_svd(a)
        assert np.abs(f.sigma - oracle.sigma[:k]).max() <= 1e-10 * oracle.sigma[0]
        f.validate()


@pytest.mark.parametrize("last_vector", [True, False])
@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("m, n", [(9, 9), (11, 6), (5, 10)], ids=["square", "tall", "wide"])
def test_full_decomposition_is_exact_at_every_rank(m, n, transposed, last_vector):
    # the exact branch, with breakdowns on the way and on either side: every
    # factor must stay orthonormal and the values match the dense oracle.  A
    # full-rank wide run ends on a nonzero coupling, the others on a zero one
    rng = np.random.default_rng(m * n)
    p = min(m, n)
    start = LanczosStart(rng.standard_normal(m if transposed else n), transposed)
    for rank in (0, 1, p // 2, p - 1, p):
        a = random_factored(rng, m, n, rank).dense()
        op = assemble_iterate_operator(full_observed(a), FactoredMatrix.zero(m, n))
        f = truncated_svd(op, p, start=start, last_vector=last_vector)
        f.validate(1e-10)
        oracle = dense_svd(a)
        scale = max(oracle.sigma[0], 1.0)
        assert np.abs(f.sigma - oracle.sigma).max() <= 1e-12 * scale
        assert np.abs(f.dense() - a).max() <= 1e-12 * scale


def test_budget_exhaustion_carries_best(rng):
    op = splr_op(rng, 60, 70, 3, 0.25)
    with pytest.raises(TruncatedSvdError) as info:
        truncated_svd(op, 5, tol=1e-10, max_steps=5)
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
    for tol in (0.0, np.inf):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            truncated_svd(op, 2, tol=tol)
    for max_steps in (0, -5):
        with pytest.raises(ValueError, match="max_steps must be at least 1"):
            truncated_svd(op, 2, max_steps=max_steps)
    for max_steps in (2.5, True, np.nan):
        with pytest.raises(ValueError, match="max_steps must be an integer"):
            truncated_svd(op, 2, max_steps=max_steps)
    # a run checks its triplets only after k steps, so a smaller budget can
    # never succeed; it is refused before any product
    counting = _CountingOperator(splr_op(rng, 40, 30, 2, 0.4))
    with pytest.raises(ValueError, match=r"max_steps \(2\) must be at least k \(6\)"):
        truncated_svd(counting, 6, max_steps=2)
    assert counting.steps == 0


def test_repeat_calls_are_bitwise_identical(rng):
    op = splr_op(rng, 25, 30, 3, 0.3)
    vector = rng.standard_normal(30)
    for start in (None, LanczosStart(vector, False)):
        f1 = truncated_svd(op, 4, start=start)
        again = None if start is None else LanczosStart(vector.copy(), False)
        f2 = truncated_svd(op, 4, start=again)
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


# --- warm start ---


def warm_along(cold, x):
    """``cold.warm`` of the rank one ``x x^T``, whose factor on either side
    sums to ``x``: the warm start whose summed factor is ``x``."""
    return cold.warm(FactoredMatrix(x[:, None], np.ones(1), x[:, None]))


def test_warm_starts_match_dense_oracle():
    # criterion-6 style: 100 random operators, each started from the data
    # start warmed by a previous call on a perturbed operator, and by
    # factors inside the top-k singular span on the run's side and in its
    # orthogonal complement
    rng = np.random.default_rng(616)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(10, 61))
        n = int(rng.integers(10, 81))
        obs = random_observed(rng, m, n, 0.2)
        z = random_factored(rng, m, n, 3)
        op = assemble_iterate_operator(obs, z)
        k = min(5, min(m, n))
        nearby = ObservedMatrix(m, n, obs.rows, obs.cols,
                                obs.values * (1.0 + 0.01 * rng.standard_normal(obs.nnz)))
        cold = LanczosStart.from_data(obs)
        previous = truncated_svd(assemble_iterate_operator(nearby, z), k, start=cold)
        oracle = dense_svd(op.dense())
        top = (oracle.u if cold.transposed else oracle.v)[:, :k]
        g = rng.standard_normal(top.shape[0])
        starts = (cold.warm(previous), warm_along(cold, top @ rng.standard_normal(k)),
                  warm_along(cold, g - top @ (top.T @ g)))
        for start in starts:
            f = truncated_svd(op, k, start=start)
            f.validate()
            dev = np.abs(f.sigma - oracle.sigma[:k]).max() / max(oracle.sigma[0], 1e-300)
            worst = max(worst, dev)
    assert worst <= 1e-8


def test_warm_start_in_an_invariant_subspace_still_finds_the_top_values():
    # block-diagonal operator whose top singular values all sit in the first
    # block; exact zeros keep a start on the second block there for good, so
    # only the cold start that warm() mixes in can reach the first block
    rng = np.random.default_rng(5)
    n, b = 120, 20
    a = np.zeros((n, n))
    a[:b, :b] = 10 * rng.standard_normal((b, b))
    a[b:, b:] = rng.standard_normal((n - b, n - b))
    rows, cols = np.nonzero(a)
    obs = ObservedMatrix(n, n, rows, cols, a[rows, cols])
    op = assemble_iterate_operator(obs, FactoredMatrix.zero(n, n))
    cold = LanczosStart.from_data(obs)
    second = np.r_[np.zeros(b), rng.standard_normal(n - b)]
    f = truncated_svd(op, 3, start=warm_along(cold, second))
    oracle = dense_svd(a)
    assert np.abs(f.sigma - oracle.sigma[:3]).max() <= 1e-10 * oracle.sigma[0]
    # started on the second block alone, the run stays there
    confined = truncated_svd(op, 3, start=LanczosStart(second, cold.transposed))
    block = dense_svd(a[b:, b:])
    assert np.abs(confined.sigma - block.sigma[:3]).max() <= 1e-10 * block.sigma[0]


def test_warm_start_on_a_singular_vector_takes_the_breakdown_path(rng, monkeypatch):
    f_true = random_factored(rng, 50, 50, 4)
    op = assemble_iterate_operator(full_observed(f_true.dense()), FactoredMatrix.zero(50, 50))
    fresh = []
    original = svd._fresh_direction

    def counting(generator, *args):
        fresh.append(generator.bit_generator.state)
        return original(generator, *args)

    monkeypatch.setattr(svd, "_fresh_direction", counting)
    f = truncated_svd(op, 6, start=LanczosStart(f_true.v[:, 0], False))
    # the first fresh direction is the seeded generator's first draw: a
    # given start takes none
    assert fresh and fresh[0] == np.random.default_rng(0x1B1D).bit_generator.state
    assert np.allclose(f.sigma[:4], f_true.sigma, rtol=1e-12)
    assert f.sigma[4] <= 1e-12 * f.sigma[0]
    f.validate()


def test_cold_call_starts_from_the_seeded_gaussian(rng):
    # the first vector the operator sees is the cold path's own: a warm start
    # leaves every call without one unchanged
    op = splr_op(rng, 25, 30, 3, 0.3)
    seen = []

    class Recording:
        shape = op.shape

        def matvec(self, x):
            seen.append(x.copy())
            return op.matvec(x)

        def rmatvec(self, y):
            return op.rmatvec(y)

    f = truncated_svd(Recording(), 4)
    g = np.random.default_rng(0x1B1D).standard_normal(30)
    assert np.array_equal(seen[0], g / np.linalg.norm(g))
    default = truncated_svd(op, 4, start=None)
    assert np.array_equal(f.sigma, default.sigma)
    assert np.array_equal(f.u, default.u)
    assert np.array_equal(f.v, default.v)
    # a given start, cold or warm, is the first vector instead, normalized
    cold = LanczosStart(rng.standard_normal(30), False)
    for start in (cold, cold.warm(f)):
        seen.clear()
        truncated_svd(Recording(), 4, start=start)
        assert np.array_equal(seen[0], start.vector / np.linalg.norm(start.vector))


@pytest.mark.parametrize("start, message", [
    (np.ones(9), "start must be a vector of length 10"),
    (np.ones((10, 1)), "start must be a 1-d vector"),
    (np.r_[np.ones(9), np.nan], "start must be finite"),
    (np.r_[np.ones(9), np.inf], "start must be finite"),
    (np.zeros(10), "start must not be the zero vector"),
    (np.float64(1.0), "start must be a 1-d vector"),
])
def test_bad_start_rejected(rng, start, message):
    # all but the length are checked when the start is built
    op = splr_op(rng, 12, 10, 2, 0.4)
    with pytest.raises(ValueError, match=message):
        truncated_svd(op, 2, start=LanczosStart(start, False))


def test_zero_or_nan_start_raises_instead_of_returning_zeros():
    # such a start, unchecked, made the run break down at once and return
    # sigma = 0 on data whose leading values are 21.70, 10.90 and 8.45
    obs = gen_synthetic(30, 2, 0.5, 0).obs
    op = assemble_iterate_operator(obs, FactoredMatrix.zero(30, 30))
    for vector in (np.zeros(30), np.full(30, np.nan)):
        with pytest.raises(ValueError, match="^start must"):
            truncated_svd(op, 3, start=LanczosStart(vector, False))
    f = truncated_svd(op, 3, start=LanczosStart.from_data(obs))
    assert np.abs(f.sigma - dense_svd(obs.dense()).sigma[:3]).max() <= 1e-10 * f.sigma[0]


def test_huge_start_does_not_overflow(rng):
    op = splr_op(rng, 12, 10, 2, 0.4)
    oracle = dense_svd(op.dense()).sigma[:2]
    # kept as given while its norm is finite, divided by its largest
    # magnitude once the norm overflows
    for scale, kept in ((1e150, 1e150), (1e300, 1.0)):
        start = LanczosStart(np.full(10, scale), False)
        assert np.array_equal(start.vector, np.full(10, kept))
        f = truncated_svd(op, 2, start=start)
        assert np.allclose(f.sigma, oracle, rtol=1e-10)


# --- value-only last triplet ---


class _CountingOperator:
    """Counts the Lanczos steps (matvecs) a call takes on ``op``."""

    def __init__(self, op):
        self.op, self.shape, self.steps = op, op.shape, 0

    def matvec(self, x):
        self.steps += 1
        return self.op.matvec(x)

    def rmatvec(self, y):
        return self.op.rmatvec(y)


def test_value_only_last_triplet_matches_dense_oracle():
    # 120 random operators, large enough that the Lanczos run stops before
    # the full decomposition; tol 1e-10, 1e-8 and 1e-6, cold and warm
    rng = np.random.default_rng(2024)
    worst_value = worst_residual = 0.0
    steps = {True: 0, False: 0}
    for trial in range(120):
        m, n = int(rng.integers(40, 121)), int(rng.integers(40, 121))
        op = splr_op(rng, m, n, int(rng.integers(1, 8)), 0.2)
        k = int(rng.integers(1, 9))
        tol = (1e-10, 1e-8, 1e-6)[trial % 3]
        start = LanczosStart(rng.standard_normal(n), False) if trial % 2 else None
        oracle = dense_svd(op.dense())
        s1 = oracle.sigma[0]
        for last_vector in (True, False):
            counted = _CountingOperator(op)
            f = truncated_svd(counted, k, tol=tol, start=start, last_vector=last_vector)
            steps[last_vector] += counted.steps
        f.validate(1e-12)
        worst_value = max(worst_value, np.abs(f.sigma - oracle.sigma[:k]).max() / (tol * s1))
        for i in range(k - 1):
            res = max(np.linalg.norm(op.matvec(f.v[:, i]) - f.sigma[i] * f.u[:, i]),
                      np.linalg.norm(op.rmatvec(f.u[:, i]) - f.sigma[i] * f.v[:, i]))
            worst_residual = max(worst_residual, res / (tol * s1))
    # every value within tol * sigma_1 (the k-th to 0.1 tol by its bound), the
    # first k - 1 triplets within the residual contract up to roundoff
    assert worst_value <= 1.0
    assert worst_residual <= 1.0 + 1e-2
    # the k-th triplet's vectors are not converged, which saves steps
    assert steps[False] < 0.95 * steps[True]


def test_value_only_full_decomposition_is_the_default_one(rng):
    op = splr_op(rng, 30, 24, 3, 0.3)
    a = truncated_svd(op, 24)
    b = truncated_svd(op, 24, last_vector=False)
    for x, y in ((a.u, b.u), (a.sigma, b.sigma), (a.v, b.v)):
        assert np.array_equal(x, y)


# --- Gram-Schmidt ---


def test_second_gram_schmidt_pass_runs_only_when_needed(rng):
    basis, _ = np.linalg.qr(rng.standard_normal((50, 8)))
    # mostly outside the span: one pass, whose coefficients are returned as they are
    w = rng.standard_normal(50)
    out, c, norm = svd._orthogonalize(w, basis, 8)
    assert np.array_equal(c, basis.T @ w)
    assert np.array_equal(out, w - basis @ c)
    assert norm == np.linalg.norm(out)
    # 1e-10 of its norm outside the span: one pass would leave it about 1e-6
    # out of orthogonality, the second pass brings it to roundoff
    inside = basis @ rng.standard_normal(8)
    g = rng.standard_normal(50)
    g -= basis @ (basis.T @ g)
    w = inside + 1e-10 * np.linalg.norm(inside) * g / np.linalg.norm(g)
    out, c, norm = svd._orthogonalize(w, basis, 8)
    assert np.abs(basis.T @ out).max() <= 1e-12 * norm
    assert norm == np.linalg.norm(out)


@pytest.mark.parametrize("last_vector", [True, False])
def test_factors_stay_orthonormal_on_clustered_singular_values(last_vector):
    # ten singular values within 1e-9 of each other, then a slow decay: the
    # hardest case for reorthogonalizing with a single pass
    rng = np.random.default_rng(77)
    m, n = 160, 130
    u, _ = np.linalg.qr(rng.standard_normal((m, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sigma = np.r_[1.0 + 1e-9 * np.arange(10)[::-1], 0.5 * 0.97 ** np.arange(n - 10)]
    a = (u * sigma) @ v.T
    op = assemble_iterate_operator(full_observed(a), FactoredMatrix.zero(m, n))
    f = truncated_svd(op, 14, last_vector=last_vector)
    f.validate(1e-12)
    assert np.abs(f.sigma - sigma[:14]).max() <= 1e-10


# --- the data-derived start ---


def transposed(obs):
    return ObservedMatrix(obs.n, obs.m, obs.cols, obs.rows, obs.values)


def zero_sum_rows(rng, m, n):
    """Integer entries whose rows sum to exactly zero."""
    a = rng.integers(-5, 6, (m, n)).astype(float)
    a[:, -1] = -a[:, :-1].sum(axis=1)
    return a


def clustered(rng, m, n):
    # ten singular values within 1e-9 of each other, then a slow decay
    u, _ = np.linalg.qr(rng.standard_normal((m, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (u * np.r_[1.0 + 1e-9 * np.arange(10)[::-1], 0.5 * 0.97 ** np.arange(n - 10)]) @ v.T


def block_diagonal(rng, n, b):
    a = np.zeros((n, n))
    a[:b, :b] = 10 * rng.standard_normal((b, b))
    a[b:, b:] = rng.standard_normal((n - b, n - b))
    return a


def doubly_centered(rng, n):
    a = zero_sum_rows(rng, n, n)
    a[-1, :] = -a[:-1, :].sum(axis=0)
    return a


ADVERSARIAL = {
    "duplicated-columns": lambda rng: rng.standard_normal((50, 20))[:, np.r_[0:20, 0:20, 3, 7]],
    "negated-columns": lambda rng: (lambda b: np.c_[b, -b])(rng.standard_normal((45, 20))),
    "block-diagonal": lambda rng: block_diagonal(rng, 80, 15),
    "zero-mean-rows": lambda rng: zero_sum_rows(rng, 30, 60),
    "doubly-centered": lambda rng: doubly_centered(rng, 40),
    "clustered-spectrum": lambda rng: clustered(rng, 90, 70),
    "zero": lambda rng: np.zeros((20, 30)),
}


@pytest.mark.parametrize("name", ADVERSARIAL)
def test_data_start_meets_the_contract_on_adversarial_operators(name):
    # a deterministic start could in principle miss a direction: columns tied
    # in the probe get equal start entries, which no Krylov vector then
    # separates.  They are exchangeable only on the null space, and a start
    # orthogonal to the data (a constant one on rows that sum to zero) breaks
    # down at once and continues on fresh directions
    rng = np.random.default_rng(sorted(ADVERSARIAL).index(name))
    a = ADVERSARIAL[name](rng)
    for obs in (full_observed(a), transposed(full_observed(a))):
        base = LanczosStart.from_data(obs)
        m, n = obs.shape
        if m != n:
            assert base.transposed == (m > n)
        assert base.vector.shape == (max(m, n),)
        assert np.linalg.norm(base.vector) == pytest.approx(1.0, abs=1e-15)
        if name in ("zero-mean-rows", "doubly-centered", "zero"):
            assert np.ptp(base.vector) == 0.0
        op = assemble_iterate_operator(obs, FactoredMatrix.zero(m, n))
        oracle = dense_svd(op.dense())
        s1 = max(oracle.sigma[0], 1e-300)
        k = min(14, min(m, n) - 1)
        for tol in (1e-10, 1e-6):
            for last_vector in (True, False):
                f = truncated_svd(op, k, tol=tol, start=base, last_vector=last_vector)
                f.validate(1e-12)
                # each value lies within tol sigma_1 of a singular value; at
                # 1e-6 a single-vector Krylov space may stop before it has
                # found every member of a 1e-9 cluster, whatever its start
                near = np.abs(f.sigma[:, None] - oracle.sigma[None, :]).min(axis=1)
                assert near.max() <= tol * s1
                if tol == 1e-10:
                    assert np.abs(f.sigma - oracle.sigma[:k]).max() <= tol * s1
                for i in range(k if last_vector else k - 1):
                    res = max(np.linalg.norm(op.matvec(f.v[:, i]) - f.sigma[i] * f.u[:, i]),
                              np.linalg.norm(op.rmatvec(f.u[:, i]) - f.sigma[i] * f.v[:, i]))
                    assert res <= 1.01 * tol * s1


def test_data_start_takes_the_wider_side_and_follows_a_transpose(rng):
    for m, n in ((20, 35), (35, 20), (30, 30)):
        obs = random_observed(rng, m, n, 0.5)
        base, flipped = LanczosStart.from_data(obs), LanczosStart.from_data(transposed(obs))
        if m != n:
            assert (base.transposed, flipped.transposed) == (m > n, n > m)
        # a transposed data's probe is the data's probe on the other side
        assert flipped.transposed != base.transposed
        assert np.allclose(flipped.vector, base.vector, rtol=0, atol=1e-12)


def test_data_start_follows_permutations_and_scale(rng):
    obs = random_observed(rng, 25, 40, 0.5)
    base = LanczosStart.from_data(obs)
    pr, pc = rng.permutation(25), rng.permutation(40)
    permuted = ObservedMatrix(25, 40, np.argsort(pr)[obs.rows], np.argsort(pc)[obs.cols],
                              obs.values)
    # entry j of the permuted data's start is entry pc[j] of the data's
    assert np.allclose(LanczosStart.from_data(permuted).vector, base.vector[pc], rtol=0, atol=1e-12)
    for s in (1e-300, 1e300):
        scaled = ObservedMatrix(25, 40, obs.rows, obs.cols, s * obs.values)
        assert np.allclose(LanczosStart.from_data(scaled).vector, base.vector, rtol=0, atol=1e-12)


def test_data_start_runs_on_its_side_and_returns_factors_the_right_way_round(rng):
    obs = random_observed(rng, 40, 25, 0.5)
    base = LanczosStart.from_data(obs)
    assert base.transposed
    op = assemble_iterate_operator(obs, FactoredMatrix.zero(40, 25))
    first = truncated_svd(op, 4, start=base)
    assert (first.u.shape, first.v.shape) == ((40, 4), (25, 4))
    warm_start = base.warm(first)
    assert warm_start.transposed and warm_start.vector.shape == (40,)
    warm = truncated_svd(op, 4, start=warm_start)
    oracle = dense_svd(op.dense())
    for f in (first, warm):
        f.validate(1e-12)
        assert np.abs(f.sigma - oracle.sigma[:4]).max() <= 1e-10 * oracle.sigma[0]
    with pytest.raises(ValueError, match="start must be a vector of length 40"):
        truncated_svd(op, 4, start=LanczosStart(np.ones(25), True))


@pytest.mark.xfail(strict=True, reason="a Krylov space built from one vector holds one copy "
                   "of each repeated singular value, and the data start is symmetric too")
@pytest.mark.parametrize("tol", [1e-10, 1e-6])
@pytest.mark.parametrize("b", [20, 40])
def test_data_start_finds_repeated_singular_values(b, tol):
    # two identical diagonal blocks repeat every singular value exactly
    block = np.random.default_rng(0).standard_normal((b, b))
    a = np.zeros((2 * b, 2 * b))
    a[:b, :b] = a[b:, b:] = block
    obs = full_observed(a)
    op = assemble_iterate_operator(obs, FactoredMatrix.zero(2 * b, 2 * b))
    f = truncated_svd(op, 6, tol=tol, start=LanczosStart.from_data(obs))
    oracle = dense_svd(a)
    assert np.abs(f.sigma - oracle.sigma[:6]).max() <= tol * oracle.sigma[0]


# --- warm block step ---


class _ProductCounter:
    """Counts the single and the block products a call makes on ``op``."""

    def __init__(self, op):
        self.op, self.shape = op, op.shape
        self.vector_products = self.block_products = 0

    def matvec(self, x):
        self.vector_products += 1
        return self.op.matvec(x)

    def rmatvec(self, y):
        self.vector_products += 1
        return self.op.rmatvec(y)

    def matmat(self, x):
        self.block_products += 1
        return self.op.matmat(x)

    def rmatmat(self, y):
        self.block_products += 1
        return self.op.rmatmat(y)


def noisy_low_rank(rng, m, n, rank=5, noise=0.05):
    """A fully observed rank-``rank`` matrix (values 10 to 20) plus Gaussian
    noise, its fill-in operator at zero, and the leading ``rank`` triplets
    of a copy moved by 1e-4 of noise: the previous SVD a warm block starts
    from."""
    signal = random_factored(rng, m, n, rank)
    a = signal.u @ np.diag(np.linspace(20.0, 10.0, rank)) @ signal.v.T
    a = a + noise * rng.standard_normal((m, n))
    obs = full_observed(a)
    near = dense_svd(a + 1e-4 * rng.standard_normal((m, n)))
    previous = FactoredMatrix(near.u[:, :rank], near.sigma[:rank], near.v[:, :rank])
    return obs, assemble_iterate_operator(obs, FactoredMatrix.zero(m, n)), previous


def assert_svd_contract(f, a, k, tol, last_vector=True):
    """The leading ``k`` triplets of the dense ``a`` under truncated_svd's
    contract: each residual within ``tol sigma_1`` (the k-th only as a value
    without ``last_vector``), factors orthonormal to 1e-12."""
    oracle = dense_svd(a)
    bound = tol * oracle.sigma[0]
    f.validate(1e-12)
    assert f.k == k
    assert np.abs(f.sigma - oracle.sigma[:k]).max() <= bound
    checked = k if last_vector else k - 1
    res_u = np.linalg.norm(a @ f.v - f.u * f.sigma, axis=0)[:checked]
    res_v = np.linalg.norm(a.T @ f.u - f.v * f.sigma, axis=0)[:checked]
    assert res_u.max(initial=0.0) <= bound and res_v.max(initial=0.0) <= bound


@pytest.mark.parametrize("last_vector", [True, False])
@pytest.mark.parametrize("m, n", [(70, 50), (50, 70)])
def test_block_start_meets_the_contract_in_block_products(rng, m, n, last_vector):
    # started from a close SVD's factor, the block step answers on its own
    # (3 or 5 block products, no Lanczos step), on either side
    obs, op, previous = noisy_low_rank(rng, m, n)
    cold = LanczosStart.from_data(obs)
    start = cold.warm(previous, block=True)
    assert start.block.shape == (m if cold.transposed else n, 8)
    counter = _ProductCounter(op)
    f = truncated_svd(counter, 5, tol=1e-8, start=start, last_vector=last_vector)
    assert counter.vector_products == 0 and counter.block_products in (3, 5)
    assert_svd_contract(f, obs.dense(), 5, 1e-8, last_vector)


def test_block_start_carries_the_factor_and_three_data_columns(rng):
    _, _, previous = noisy_low_rank(rng, 30, 20)
    vector = rng.standard_normal(20)
    start = LanczosStart(vector, False).warm(previous, block=True)
    c = vector / np.abs(vector).max()
    assert np.array_equal(start.block, np.column_stack((previous.v, c, c * c, c * c * c)))
    assert np.array_equal(start.vector, LanczosStart(vector, False).warm(previous).vector)
    assert not start.block.flags.writeable


@pytest.mark.parametrize("case", ["orthogonal-to-the-top", "rank-deficient"])
def test_block_start_falls_back_to_lanczos(rng, case):
    # a block that misses the top subspace, or whose columns repeat, is not
    # accepted: the call runs Lanczos and still meets the contract
    obs, op, previous = noisy_low_rank(rng, 60, 40)
    cold = LanczosStart.from_data(obs)
    if case == "orthogonal-to-the-top":
        # the data's 6th to 10th triplets, plus the data columns
        full = dense_svd(obs.dense())
        wrong = FactoredMatrix(full.u[:, 5:10], full.sigma[5:10], full.v[:, 5:10])
        start = cold.warm(wrong, block=True)
    else:
        factor = previous.u if cold.transposed else previous.v
        start = LanczosStart(cold.vector, cold.transposed, np.hstack((factor, factor)))
    counter = _ProductCounter(op)
    f = truncated_svd(counter, 5, tol=1e-8, start=start)
    assert counter.vector_products > 0
    assert_svd_contract(f, obs.dense(), 5, 1e-8)


def test_block_calls_repeat_bit_for_bit(rng):
    obs, op, previous = noisy_low_rank(rng, 50, 70)
    for transposed in (False, True):
        vector = rng.standard_normal(50 if transposed else 70)
        runs = [truncated_svd(op, 5, tol=1e-8,
                              start=LanczosStart(vector.copy(), transposed).warm(previous, block=True))
                for _ in range(2)]
        # the factors come back the right way round on either side
        assert (runs[0].u.shape, runs[0].v.shape) == ((50, 5), (70, 5))
        assert_svd_contract(runs[0], obs.dense(), 5, 1e-8)
        for a, b in zip((runs[0].u, runs[0].sigma, runs[0].v), (runs[1].u, runs[1].sigma, runs[1].v)):
            assert np.array_equal(a, b)


def test_bad_block_rejected():
    for block, message in ((np.ones((9, 2)), "start block must have 10 rows"),
                           (np.ones(10), "start block must have 10 rows"),
                           (np.full((10, 2), np.nan), "start block must be finite")):
        with pytest.raises(ValueError, match=message):
            LanczosStart(np.ones(10), False, block)


def test_start_block_is_a_copy():
    # a later write to the caller's array leaves the start as it was built
    block = np.ones((5, 2))
    start = LanczosStart(np.ones(5), False, block)
    block[0, 0] = 7.0
    assert start.block[0, 0] == 1.0
    assert not start.block.flags.writeable


# --- predicted block and deflated finish ---


@pytest.mark.parametrize("transposed", [False, True])
def test_predicted_block_moves_the_leading_columns_on(rng, transposed):
    # the first k - 1 factor columns go on along their last move, weighted;
    # the k-th column, the data columns and the vector are warm()'s
    _, _, previous = noisy_low_rank(rng, 30, 20)
    _, _, before = noisy_low_rank(rng, 30, 20)
    cold = LanczosStart(rng.standard_normal(30 if transposed else 20), transposed)
    plain = cold.warm(previous, block=True)
    start = cold.predicted(previous, before, 0.4)
    v = (previous.u if transposed else previous.v)[:, :4]
    w = (before.u if transposed else before.v)[:, :4]
    # to rounding: the products may run on other memory layouts
    assert np.abs(start.block[:, :4] - (v + 0.4 * (v - w @ (w.T @ v)))).max() <= 1e-15
    assert not np.array_equal(start.block[:, :4], plain.block[:, :4])
    assert np.array_equal(start.block[:, 4:], plain.block[:, 4:])
    assert np.array_equal(start.vector, plain.vector)
    assert start.finish and not plain.finish
    # a result before with fewer columns than previous's, or none, leaves
    # the plain factor
    fewer = FactoredMatrix(before.u[:, :4], before.sigma[:4], before.v[:, :4])
    for short in (fewer, None):
        start = cold.predicted(previous, short, 0.4)
        assert np.array_equal(start.block, plain.block) and start.finish


def clustered_tail(rng, m, n, noise=1e-5):
    """A fully observed matrix whose top four singular values (20 to 11)
    stand apart and whose fifth heads a cluster of the rest (0.5 down to
    0.3), its fill-in operator at zero, and the leading five triplets of a
    copy moved by ``noise``: at 1e-5, one block pass from them meets the
    contract at 1e-6 in the top four triplets, but not in the fifth."""
    p = min(m, n)
    basis = random_factored(rng, m, n, p)
    sigma = np.concatenate(([20.0, 17.0, 14.0, 11.0], np.linspace(0.5, 0.3, p - 4)))
    a = basis.u @ np.diag(sigma) @ basis.v.T
    obs = full_observed(a)
    near = dense_svd(a + noise * rng.standard_normal((m, n)))
    previous = FactoredMatrix(near.u[:, :5], near.sigma[:5], near.v[:, :5])
    return obs, assemble_iterate_operator(obs, FactoredMatrix.zero(m, n)), previous


@pytest.fixture
def finishes(monkeypatch):
    """Records whether each deflated finish returned triplets."""
    accepted = []
    original = svd._deflated_finish

    def recording(*args):
        f = original(*args)
        accepted.append(f is not None)
        return f

    monkeypatch.setattr(svd, "_deflated_finish", recording)
    return accepted


@pytest.mark.parametrize("tol, noise, passes", [(1e-6, 1e-5, 1), (1e-10, 1e-7, 2)])
@pytest.mark.parametrize("m, n", [(60, 40), (40, 60)])
def test_deflated_finish_meets_the_contract_on_a_clustered_tail(rng, finishes, m, n, tol,
                                                                noise, passes):
    # after the block passes only the 5th triplet misses: a single-triplet
    # Lanczos run on the operator deflated by the top four finishes it, and
    # the result meets the contract on the operator itself.  At 1e-10 the
    # run takes about 15 steps, over which its recurrence amplifies the
    # rounding along the deflated directions far past 1e-12: the finish
    # takes it out again, so the factors stay orthonormal
    obs, op, previous = clustered_tail(rng, m, n, noise)
    cold = LanczosStart.from_data(obs)
    counter = _ProductCounter(op)
    f = truncated_svd(counter, 5, tol=tol, start=cold.predicted(previous, None, 1.0))
    assert finishes == [True]
    assert counter.block_products == 2 * passes + 1 and counter.vector_products > 0
    assert_svd_contract(f, obs.dense(), 5, tol)
    # without the finish the block step misses after its second pass too
    counter = _ProductCounter(op)
    truncated_svd(counter, 5, tol=tol, start=cold.warm(previous, block=True))
    assert counter.block_products == 5 and finishes == [True]


@pytest.mark.parametrize("spoil", ["value", "residual", "budget"])
def test_failed_finish_returns_the_lanczos_result(rng, finishes, monkeypatch, spoil):
    # a finish whose triplet fails a check, or whose run exhausts its budget,
    # leaves the call to the Lanczos run from the start's vector, bit for bit
    obs, op, previous = clustered_tail(rng, 60, 40)
    start = LanczosStart.from_data(obs).predicted(previous, None, 1.0)
    expected = truncated_svd(op, 5, tol=1e-6, start=LanczosStart(start.vector, start.transposed))
    original = svd.truncated_svd

    def spoiled(op, k, **kwargs):
        f = original(op, k, **kwargs)
        if not isinstance(op, svd._Deflated):
            return f
        if spoil == "budget":
            raise TruncatedSvdError("spoiled", f, np.zeros(1, dtype=bool))
        # above the 4th value, or off the 5th by 1e-3 of it
        sigma = 100.0 if spoil == "value" else f.sigma[0] * (1.0 + 1e-3)
        return FactoredMatrix(f.u, np.array([sigma]), f.v)

    monkeypatch.setattr(svd, "truncated_svd", spoiled)
    got = truncated_svd(op, 5, tol=1e-6, start=start)
    assert finishes == [False]
    for a, b in zip((got.u, got.sigma, got.v), (expected.u, expected.sigma, expected.v)):
        assert np.array_equal(a, b)


def test_block_calls_with_a_finish_repeat_bit_for_bit(rng, finishes):
    obs, op, previous = clustered_tail(rng, 40, 60)
    for transposed in (False, True):
        vector = rng.standard_normal(40 if transposed else 60)
        runs = [truncated_svd(op, 5, tol=1e-6,
                              start=LanczosStart(vector.copy(), transposed).predicted(previous, None, 1.0))
                for _ in range(2)]
        assert (runs[0].u.shape, runs[0].v.shape) == ((40, 5), (60, 5))
        assert_svd_contract(runs[0], obs.dense(), 5, 1e-6)
        for a, b in zip((runs[0].u, runs[0].sigma, runs[0].v), (runs[1].u, runs[1].sigma, runs[1].v)):
            assert np.array_equal(a, b)
    assert finishes == [True] * 4
