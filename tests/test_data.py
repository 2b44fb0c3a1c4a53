import hashlib
from pathlib import Path

import numpy as np
import pytest

from matcomplete import (
    FactoredMatrix,
    ObservedMatrix,
    dense_svd,
    frobenius_distance,
    gen_synthetic,
    load_movielens,
    load_synthetic,
    make_ratings_dataset,
    project_omega,
    rer,
    rmse,
    save_synthetic,
    split_holdout,
)

from conftest import random_factored


# --- gen_synthetic ---


def test_no_deletion_gives_full_omega():
    inst = gen_synthetic(12, 2, 0.0, seed=0)
    assert inst.obs.nnz == 144


def test_same_seed_reproduces_instance():
    a = gen_synthetic(20, 3, 0.4, seed=7)
    b = gen_synthetic(20, 3, 0.4, seed=7)
    assert np.array_equal(a.obs.values, b.obs.values)
    assert np.array_equal(a.obs.rows, b.obs.rows)
    assert np.array_equal(a.ground_truth.sigma, b.ground_truth.sigma)
    c = gen_synthetic(20, 3, 0.4, seed=8)
    assert not np.array_equal(a.obs.values, c.obs.values)


@pytest.mark.parametrize("p", [0.99, 0.4], ids=["kept-below-1/50", "kept-above-1/50"])
def test_omega_is_the_sorted_shuffled_draw(p):
    # gen_synthetic draws its kept indices unshuffled, since it sorts them;
    # numpy's choice picks the same set with or without the shuffle, by
    # Floyd's algorithm below 1/50 of the population and by a partial
    # shuffle above it
    n = 200
    for seed in range(3):
        inst = gen_synthetic(n, 3, p, seed)
        rng = np.random.default_rng(seed)
        rng.standard_normal((n, 3))
        rng.standard_normal((3, n))
        kept = rng.choice(n * n, size=inst.obs.nnz, replace=False)
        assert np.array_equal(inst.obs.rows * n + inst.obs.cols, np.sort(kept))


@pytest.mark.parametrize("args, rows_sha256, cols_sha256", [
    ((1000, 10, 0.4, 0), "a85691a1a53486549d82714dc300c5276cc406b4965ebabce719dcfe3ddd6a13",
     "982a99d185b3d0ec47e49494e6e2f757dad0f2c19ab3adf1ea815b5ea82cde3e"),
    ((2000, 20, 0.92, 0), "a46d8f0eefd938ab2c901338445e62a5aa7dd19ff50dc21deeea59a98ecc8d82",
     "1dfd9465b8054000c976af2180beabe1b8821a9eb8aaebbb4e740126c9b74912"),
], ids=["table1", "hard"])
def test_benchmark_omegas_are_pinned(args, rows_sha256, cols_sha256):
    # the benchmark's instances: integer draws, so the digests hold whatever
    # the BLAS
    obs = gen_synthetic(*args).obs
    rows, cols = obs.rows, obs.cols
    assert rows.dtype == cols.dtype == np.int64
    assert hashlib.sha256(rows.tobytes()).hexdigest() == rows_sha256
    assert hashlib.sha256(cols.tobytes()).hexdigest() == cols_sha256


def test_ground_truth_has_exact_rank():
    inst = gen_synthetic(100, 4, 0.4, seed=1)
    f = dense_svd(inst.ground_truth.dense())
    assert f.sigma[3] / f.sigma[0] > 1e-10
    assert f.sigma[4] / f.sigma[0] <= 1e-12


def test_observed_count_follows_rounding():
    inst = gen_synthetic(11, 2, 0.37, seed=2)
    assert inst.obs.nnz == int(np.floor((1 - 0.37) * 121 + 0.5))


def test_observed_values_equal_ground_truth_exactly():
    inst = gen_synthetic(30, 3, 0.5, seed=3)
    assert np.array_equal(inst.obs.values, project_omega(inst.ground_truth, inst.obs))


def test_generator_validation():
    with pytest.raises(ValueError, match="1 <= r < n"):
        gen_synthetic(10, 10, 0.4, seed=0)
    with pytest.raises(ValueError, match="deleted fraction"):
        gen_synthetic(10, 2, 1.0, seed=0)


@pytest.mark.parametrize("n, r, name", [(20, 2.5, "r"), (20.0, 2, "n"), (20, True, "r")])
def test_generator_rejects_sizes_that_are_not_integers(n, r, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        gen_synthetic(n, r, 0.5, 0)


def test_synthetic_round_trip(tmp_path):
    inst = gen_synthetic(15, 2, 0.3, seed=4)
    base = str(tmp_path / "inst")
    save_synthetic(inst, base)
    back = load_synthetic(base)
    assert np.array_equal(back.obs.values, inst.obs.values)
    assert back.seed == 4 and back.r == 2
    # tampering with the stored entries must be detected
    lines = Path(base + ".obs.txt").read_text().splitlines()
    lines[1] = "0 0 99.0"
    with open(base + ".obs.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="does not match"):
        load_synthetic(base)


# --- movielens ---


def write_toy_100k(path):
    path.write_text("1\t1\t5\t881250949\n2\t2\t3\t881250950\n1\t2\t4\t881250951\n")


def test_toy_file_parses_to_small_matrix(tmp_path):
    path = tmp_path / "u.data"
    write_toy_100k(path)
    obs = load_movielens(str(path), "ml100k")
    assert obs.shape == (2, 2)
    assert obs.nnz == 3
    assert obs.dense()[0, 0] == 5.0
    assert obs.dense()[0, 1] == 4.0
    assert obs.dense()[1, 1] == 3.0


def test_ml1m_separator(tmp_path):
    path = tmp_path / "ratings.dat"
    path.write_text("1::1::5::978300760\n3::2::1::978302109\n")
    obs = load_movielens(str(path), "ml1m")
    assert obs.shape == (3, 2)
    assert obs.nnz == 2


def test_min_shape_floor(tmp_path):
    path = tmp_path / "u.data"
    write_toy_100k(path)
    obs = load_movielens(str(path), "ml100k", min_shape=(943, 1682))
    assert obs.shape == (943, 1682)


def test_malformed_line_reports_number(tmp_path):
    path = tmp_path / "u.data"
    path.write_text("1\t1\t5\t0\n1\t2\n")
    with pytest.raises(ValueError, match=":2"):
        load_movielens(str(path), "ml100k")
    path.write_text("1\t1\tfive\t0\n")
    with pytest.raises(ValueError, match=":1"):
        load_movielens(str(path), "ml100k")


def test_duplicate_rating_rejected(tmp_path):
    path = tmp_path / "u.data"
    path.write_text("1\t1\t5\t0\n1\t1\t3\t0\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_movielens(str(path), "ml100k")


def test_unknown_format_and_missing_file(tmp_path):
    path = tmp_path / "u.data"
    write_toy_100k(path)
    with pytest.raises(ValueError, match="unknown format"):
        load_movielens(str(path), "ml10m")
    with pytest.raises(FileNotFoundError, match="ml100k"):
        load_movielens(str(tmp_path / "absent"), "ml100k")


def test_one_based_ids_enforced(tmp_path):
    path = tmp_path / "u.data"
    path.write_text("0\t1\t5\t0\n")
    with pytest.raises(ValueError, match="1-based"):
        load_movielens(str(path), "ml100k")


# --- splitting ---


def test_even_split_is_half_and_half():
    inst = gen_synthetic(20, 2, 0.5, seed=5)
    train, test = split_holdout(inst.obs, 0.5, seed=0)
    assert train.nnz + test.nnz == inst.obs.nnz
    assert test.nnz == int(np.floor(0.5 * inst.obs.nnz + 0.5))


def test_small_split_rounding():
    obs = ObservedMatrix(5, 2, np.repeat(np.arange(5), 2), np.tile([0, 1], 5), np.ones(10))
    train, test = split_holdout(obs, 0.1, seed=1)
    assert test.nnz == 1 and train.nnz == 9


def test_split_partitions_omega():
    inst = gen_synthetic(25, 2, 0.4, seed=6)
    train, test = split_holdout(inst.obs, 0.3, seed=2)
    all_pairs = {(i, j) for i, j in inst.obs.omega}
    train_pairs = {(i, j) for i, j in train.omega}
    test_pairs = {(i, j) for i, j in test.omega}
    assert train_pairs | test_pairs == all_pairs
    assert not (train_pairs & test_pairs)


def test_split_deterministic_per_seed():
    inst = gen_synthetic(18, 2, 0.4, seed=7)
    t1, _ = split_holdout(inst.obs, 0.5, seed=3)
    t2, _ = split_holdout(inst.obs, 0.5, seed=3)
    t3, _ = split_holdout(inst.obs, 0.5, seed=4)
    assert np.array_equal(t1.omega, t2.omega)
    assert not np.array_equal(t1.omega, t3.omega)


def test_degenerate_split_rejected():
    obs = ObservedMatrix(2, 2, [0, 0], [0, 1], [1.0, 2.0])
    with pytest.raises(ValueError, match="degenerate"):
        split_holdout(obs, 0.1, seed=0)
    with pytest.raises(ValueError, match="strictly between"):
        split_holdout(obs, 0.0, seed=0)


def test_ratings_dataset_wiring():
    inst = gen_synthetic(22, 2, 0.5, seed=8)
    data = make_ratings_dataset(inst.obs, 0.5, seed=9)
    assert data.train.nnz + data.test.nnz == data.obs_full.nnz
    assert data.holdout_fraction == 0.5


# --- metrics ---


def test_rer_identical_and_zero(rng):
    f = random_factored(rng, 10, 10, 3)
    assert rer(f, f) == 0.0
    assert abs(rer(f, FactoredMatrix.zero(10, 10)) - 1.0) <= 1e-12


def test_rer_matches_dense_computation(rng):
    f = random_factored(rng, 30, 30, 3)
    g = random_factored(rng, 30, 30, 4)
    expected = np.linalg.norm(f.dense() - g.dense()) / np.linalg.norm(f.dense())
    assert abs(rer(f, g) - expected) <= 1e-12 * max(1.0, expected)


def test_rer_scale_invariant(rng):
    from matcomplete import scale

    f = random_factored(rng, 12, 12, 2)
    g = random_factored(rng, 12, 12, 2)
    assert abs(rer(f, g) - rer(scale(7.0, f), scale(7.0, g))) <= 1e-12


def test_rmse_exact_prediction_is_zero():
    inst = gen_synthetic(15, 2, 0.4, seed=10)
    assert rmse(inst.obs, inst.ground_truth) <= 1e-13


def test_rmse_single_entry():
    obs = ObservedMatrix(1, 1, [0], [0], [5.0])
    pred = FactoredMatrix(np.ones((1, 1)), np.array([3.0]), np.ones((1, 1)))
    assert rmse(obs, pred) == pytest.approx(2.0)


def test_rmse_validation(rng):
    f = random_factored(rng, 4, 4, 2)
    with pytest.raises(ValueError, match="empty"):
        rmse(ObservedMatrix(4, 4, [], [], []), f)
    with pytest.raises(ValueError, match="shape mismatch"):
        rmse(ObservedMatrix(5, 4, [0], [0], [1.0]), f)
