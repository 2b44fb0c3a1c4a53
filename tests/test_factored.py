import sys
import threading
import tracemalloc

import numpy as np
import pytest

from matcomplete import (
    FactoredMatrix,
    FactoredSum,
    ObservedMatrix,
    combine,
    frobenius_distance,
    gen_synthetic,
    project_entries,
    project_omega,
    scale,
)

from matcomplete.observed import GatherPlan

from conftest import full_observed, random_factored, random_observed


def test_zero_factored():
    z = FactoredMatrix.zero(4, 6)
    assert z.shape == (4, 6)
    assert z.k == 0 and z.rank == 0
    assert z.norm() == 0.0
    assert np.array_equal(z.dense(), np.zeros((4, 6)))


def test_validate_accepts_good_and_rejects_bad(rng):
    f = random_factored(rng, 8, 6, 3)
    f.validate()
    skewed = FactoredMatrix(f.u * 1.01, f.sigma, f.v)
    with pytest.raises(ValueError, match="orthonormal"):
        skewed.validate()
    disordered = FactoredMatrix(f.u, np.sort(f.sigma), f.v)
    with pytest.raises(ValueError, match="nonincreasing"):
        disordered.validate()


def test_factor_count_mismatch_rejected(rng):
    f = random_factored(rng, 5, 5, 2)
    with pytest.raises(ValueError, match="factor count"):
        FactoredMatrix(f.u, f.sigma[:1], f.v)


def test_rank_counts_positive_values(rng):
    f = random_factored(rng, 6, 6, 3)
    g = FactoredMatrix(f.u, np.array([2.0, 1.0, 0.0]), f.v)
    assert g.k == 3 and g.rank == 2


def test_dense_matches_triple_product(rng):
    f = random_factored(rng, 7, 5, 3)
    expected = f.u @ np.diag(f.sigma) @ f.v.T
    assert np.allclose(f.dense(), expected, atol=1e-14)


# --- project_omega ---


def test_project_zero_gives_zeros(rng):
    obs = random_observed(rng, 10, 8, 0.4)
    out = project_omega(FactoredMatrix.zero(10, 8), obs)
    assert np.array_equal(out, np.zeros(obs.nnz))


def test_project_full_omega_recovers_matrix(rng):
    f = random_factored(rng, 6, 5, 2)
    dense = f.dense()
    obs = full_observed(dense)
    assert np.allclose(project_omega(f, obs), dense.ravel(), atol=1e-12)


def test_project_matches_dense_oracle(rng):
    f = random_factored(rng, 50, 40, 3)
    obs = random_observed(rng, 50, 40, 200 / 2000)
    dense = f.dense()
    expected = dense[obs.rows, obs.cols]
    got = project_omega(f, obs)
    assert np.abs(got - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())


# (m, n, k, fraction observed or 0 for a single entry, rows left empty); one
# gather tile holds 32768 // n rows, so n picks how the rows split into tiles
TILED_CASES = {
    "m-not-multiple-of-tile": (47, 3000, 4, 0.05, ()),
    "empty-rows-and-tiles": (60, 3000, 3, 0.05, tuple(range(10, 35)) + (41, 59)),
    "tall": (3000, 40, 5, 0.02, ()),
    "wide": (20, 4000, 5, 0.05, ()),
    "wider-than-one-tile": (3, 40000, 2, 0.001, (1,)),
    "k-zero": (47, 3000, 0, 0.05, ()),
    "empty-omega": (20, 3000, 3, 0.05, tuple(range(20))),
    "single-entry": (30, 5000, 2, 0, ()),
    "fully-observed": (40, 900, 3, 1.0, ()),
}


def tiled_case(rng, m, n, k, frac, empty_rows):
    f = random_factored(rng, m, n, k)
    flat = np.flatnonzero(rng.random(m * n) < frac) if frac else rng.choice(m * n, size=1)
    rows, cols = np.divmod(flat, n)
    keep = ~np.isin(rows, empty_rows)
    return f, ObservedMatrix(m, n, rows[keep], cols[keep], np.zeros(int(keep.sum())))


@pytest.mark.parametrize("case", TILED_CASES.values(), ids=TILED_CASES.keys())
def test_project_tiles_match_dense_oracle(rng, case):
    f, obs = tiled_case(rng, *case)
    expected = ((f.u * f.sigma) @ f.v.T)[obs.rows, obs.cols]
    got = project_omega(f, obs)
    assert got.shape == (obs.nnz,)
    assert np.abs(got - expected).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(expected).max(initial=0.0))


@pytest.mark.parametrize("case", TILED_CASES.values(), ids=TILED_CASES.keys())
def test_planned_gather_matches_project_entries(rng, case):
    # the plan omega keeps gives the same bits as planning the indices afresh
    f, obs = tiled_case(rng, *case)
    assert np.array_equal(project_omega(f, obs), project_entries(f, obs.rows, obs.cols))
    g = random_factored(rng, *obs.shape, 2)
    expected = -0.5 * project_entries(f, obs.rows, obs.cols) + 3.0 * project_entries(g, obs.rows, obs.cols)
    assert np.array_equal(project_omega(FactoredSum(-0.5, f, 3.0, g), obs), expected)


def test_gather_plan_is_built_once_and_read_only(rng, monkeypatch):
    f, obs = tiled_case(rng, 47, 3000, 4, 0.05, (11, 12))
    g = random_factored(rng, 47, 3000, 2)
    built = []
    build = GatherPlan.from_csr
    monkeypatch.setattr(GatherPlan, "from_csr", lambda *args: built.append(args) or build(*args))
    first = project_omega(f, obs)
    plan = obs.gather_plan
    second = project_omega(g, obs)
    assert len(built) == 1 and obs.gather_plan is plan
    monkeypatch.undo()
    assert np.array_equal(first, project_entries(f, obs.rows, obs.cols))
    assert np.array_equal(second, project_entries(g, obs.rows, obs.cols))
    assert plan.height == 32768 // 3000
    # each entry's flat index in its tile, from the int64 rows and columns
    rows, cols = obs.rows, obs.cols
    assert plan.flat.dtype == np.int32
    assert np.array_equal(plan.flat, rows % plan.height * obs.n + cols)
    for a in (plan.edges, plan.blocks, plan.flat):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1


def test_threads_share_one_lazily_built_plan(rng):
    # threads racing to build the plan each publish a whole one, so every
    # gather gives the serial bits
    f, obs = tiled_case(rng, 300, 500, 3, 0.3, ())
    expected = project_entries(f, obs.rows, obs.cols)
    workers = 8
    start, results = threading.Barrier(workers), [None] * workers

    def gather(t):
        start.wait(timeout=30)
        results[t] = project_omega(f, obs)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=gather, args=(t,)) for t in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for out in results:
        assert np.array_equal(out, expected)


def test_project_entries_is_order_invariant(rng):
    # entries in any order give the same bits as in row order
    m, n = 45, 3000
    f = random_factored(rng, m, n, 4)
    flat = np.sort(rng.choice(m * n, size=4000, replace=False))
    rows, cols = np.divmod(flat, n)
    base = project_entries(f, rows, cols)
    for _ in range(3):
        p = rng.permutation(rows.size)
        assert np.array_equal(project_entries(f, rows[p], cols[p]), base[p])
    # repeated pairs are served too
    twice = project_entries(f, np.concatenate((rows, rows[::-1])), np.concatenate((cols, cols[::-1])))
    assert np.array_equal(twice, np.concatenate((base, base[::-1])))


@pytest.mark.parametrize(
    "rows, cols, match",
    [
        ([0, -1], [1, 2], "row index -1 at position 1"),
        ([0, 6], [1, 2], "row index 6 at position 1"),
        ([0, 1], [-3, 2], "column index -3 at position 0"),
        ([0, 1], [1, 4], "column index 4 at position 1"),
        ([[0, 1]], [[1, 2]], "1-d"),
        ([0, 1, 2], [1, 2], "equal length"),
        ([0.0, 1.0], [1, 2], "integers"),
    ],
    ids=["negative-row", "row-past-end", "negative-column", "column-past-end",
         "not-1d", "length-mismatch", "float-indices"],
)
def test_project_entries_rejects_bad_indices(rng, rows, cols, match):
    f = random_factored(rng, 6, 4, 2)
    with pytest.raises(ValueError, match=match):
        project_entries(f, np.array(rows), np.array(cols))
    with pytest.raises(ValueError, match=match):
        project_entries(FactoredMatrix.zero(6, 4), np.array(rows), np.array(cols))


def test_project_memory_stays_near_output_size():
    # a 600k-entry gather at k=10 keeps only tile-sized temporaries beside
    # its 4.8 MB output; the first one also builds omega's 2.4 MB int32 plan
    inst = gen_synthetic(1000, 10, 0.4, 0)
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            out = project_omega(inst.ground_truth, inst.obs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert out.nbytes == 8 * 600_000
    plan = inst.obs.gather_plan.flat.nbytes
    assert plan == 4 * 600_000
    assert peaks[0] <= out.nbytes + plan + 3_000_000, f"first gather peak {peaks[0] / 1e6:.1f} MB"
    assert peaks[1] <= out.nbytes + 3_000_000, f"gather peak {peaks[1] / 1e6:.1f} MB"


def test_project_is_linear(rng):
    obs = random_observed(rng, 12, 9, 0.5)
    for _ in range(5):
        f = random_factored(rng, 12, 9, 3)
        g = random_factored(rng, 12, 9, 2)
        a, b = rng.uniform(-2, 2, size=2)
        lhs = project_omega(combine(a, f, b, g), obs)
        rhs = a * project_omega(f, obs) + b * project_omega(g, obs)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


def test_project_shape_mismatch(rng):
    f = random_factored(rng, 5, 5, 2)
    obs = random_observed(rng, 6, 5, 0.5)
    with pytest.raises(ValueError, match="shape mismatch"):
        project_omega(f, obs)


# --- combine / scale ---


def test_combine_matches_dense_sum(rng):
    for _ in range(5):
        f = random_factored(rng, 9, 7, 3)
        g = random_factored(rng, 9, 7, 2)
        a, b = rng.uniform(-3, 3, size=2)
        out = combine(a, f, b, g)
        out.validate()
        assert np.allclose(out.dense(), a * f.dense() + b * g.dense(), atol=1e-12)


def test_combine_zero_coefficients(rng):
    f = random_factored(rng, 6, 6, 2)
    g = random_factored(rng, 6, 6, 2)
    assert np.allclose(combine(0.0, f, 1.0, g).dense(), g.dense())
    assert np.allclose(combine(1.0, f, 0.0, g).dense(), f.dense())
    assert combine(0.0, f, 0.0, g).k == 0


def test_scale_negative_keeps_invariants(rng):
    f = random_factored(rng, 5, 4, 2)
    out = scale(-2.0, f)
    out.validate()
    assert np.allclose(out.dense(), -2.0 * f.dense(), atol=1e-13)


def test_combine_of_cancelling_terms_prunes(rng):
    f = random_factored(rng, 8, 8, 3)
    out = combine(1.0, f, -1.0, f)
    assert out.norm() <= 1e-12 * f.norm()


# --- distances ---


def test_frobenius_distance_small_matches_dense(rng):
    f = random_factored(rng, 20, 15, 3)
    g = random_factored(rng, 20, 15, 4)
    expected = np.linalg.norm(f.dense() - g.dense())
    assert abs(frobenius_distance(f, g) - expected) <= 1e-10 * max(1.0, expected)
    # near cancellation: a relative perturbation of 1e-7 along other factors,
    # where the Gram identity would keep only about one digit
    h = combine(1.0, f, 1e-7 * f.norm() / g.norm(), g)
    expected = np.linalg.norm(f.dense() - h.dense())
    assert abs(frobenius_distance(f, h) - expected) <= 1e-6 * expected


def test_frobenius_distance_wide_matches_dense(rng):
    f = random_factored(rng, 30, 1200, 3)
    g = random_factored(rng, 30, 1200, 3)
    got = frobenius_distance(f, g)
    dense = np.linalg.norm(f.dense() - g.dense())
    assert abs(got - dense) <= 1e-9 * max(1.0, dense)


@pytest.mark.parametrize("n", [1000, 1001])
def test_frobenius_distance_keeps_the_digits_of_small_changes(rng, n):
    # iterates a relative 1e-6 or 1e-9 apart, as late in a solve, where the
    # Gram identity ||f||^2 + ||g||^2 - 2<f, g> keeps few or no digits; 1000
    # and 1001 straddle the size above which it was once used
    f = random_factored(rng, n, n, 10)
    h = random_factored(rng, n, n, 10)
    for rel, tol in ((1e-6, 1e-8), (1e-9, 1e-5)):
        g = combine(1.0, f, rel * f.norm() / h.norm(), h)
        expected = np.linalg.norm(f.dense() - g.dense())
        assert abs(frobenius_distance(f, g) - expected) <= tol * expected
        assert abs(frobenius_distance(g, f) - expected) <= tol * expected
    zero = FactoredMatrix.zero(n, n)
    assert frobenius_distance(zero, FactoredMatrix.zero(n, n)) == 0.0
    norm = np.linalg.norm(f.dense())
    assert abs(frobenius_distance(f, zero) - norm) <= 1e-14 * norm
    assert abs(frobenius_distance(zero, f) - norm) <= 1e-14 * norm


def test_frobenius_distance_identical_objects_is_exact_zero(rng):
    f = random_factored(rng, 40, 2000, 2)
    assert frobenius_distance(f, FactoredMatrix(f.u, f.sigma, f.v)) == 0.0
