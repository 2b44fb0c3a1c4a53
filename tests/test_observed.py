import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matcomplete import ObservedMatrix

from conftest import random_observed


def test_entries_are_sorted_row_major():
    obs = ObservedMatrix(3, 3, [2, 0, 1, 0], [1, 2, 0, 0], [4.0, 3.0, 2.0, 1.0])
    assert obs.rows.tolist() == [0, 0, 1, 2]
    assert obs.cols.tolist() == [0, 2, 0, 1]
    assert obs.values.tolist() == [1.0, 3.0, 2.0, 4.0]
    assert obs.nnz == 4
    assert obs.omega.shape == (4, 2)


def test_duplicate_pairs_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        ObservedMatrix(2, 2, [0, 1, 0], [1, 1, 1], [1.0, 2.0, 3.0])


def test_index_bounds_checked():
    with pytest.raises(ValueError, match="row index"):
        ObservedMatrix(2, 2, [2], [0], [1.0])
    with pytest.raises(ValueError, match="column index"):
        ObservedMatrix(2, 2, [0], [-1], [1.0])


def test_index_errors_name_the_position_and_shape():
    with pytest.raises(ValueError, match=r"row index 5 at position 2 is out of range for a 3x4 matrix"):
        ObservedMatrix(3, 4, [0, 1, 5, 7], [0, 1, 2, 3], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match=r"column index -1 at position 1 is out of range for a 3x4"):
        ObservedMatrix(3, 4, [2, 0, 1], [0, -1, 9], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("rows, cols, message", [
    ([0.7, 2.0], [1.9, 0.0], "row indices must be integers, got dtype float64"),
    ([0, 2], [1.0, 0.0], "column indices must be integers, got dtype float64"),
    (np.array([True, False]), [1, 0], "row indices must be integers, got dtype bool"),
    ([0, 2], np.array([False, True]), "column indices must be integers, got dtype bool"),
])
def test_non_integer_indices_are_rejected_not_truncated(rows, cols, message):
    with pytest.raises(ValueError, match=message):
        ObservedMatrix(3, 3, rows, cols, [1.0, 2.0])


def test_shape_whose_row_major_key_overflows_is_rejected():
    with pytest.raises(ValueError, match=rf"m = 4 and n = {2**62}"):
        ObservedMatrix(4, 2**62, [3, 0], [5, 1], [1.0, 2.0])
    widest = ObservedMatrix(1, 2**63 - 1, [0, 0], [2**63 - 2, 0], [1.0, 2.0])
    assert widest.cols.tolist() == [0, 2**63 - 2]
    assert widest.values.tolist() == [2.0, 1.0]


# --- storage: the CSR arrays only, measured with tracemalloc ---


def traced(build):
    """``build()``, the bytes it still holds and its peak, both above what
    was allocated before it ran."""
    tracemalloc.start()
    try:
        out = build()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, kept, peak


def test_storage_keeps_only_the_csr_arrays():
    # 600k int64 entries of a 1000 x 1000 matrix: 8 B of value and 4 B of
    # int32 column index per entry are kept, plus int32 row pointers
    m = n = 1000
    nnz = 600_000
    rng = np.random.default_rng(0)
    rows, cols = np.divmod(np.sort(rng.choice(m * n, size=nnz, replace=False)), n)
    values = rng.standard_normal(nnz)
    kept_budget = 12 * nnz + 4 * (m + 1)
    obs, kept, peak = traced(lambda: ObservedMatrix(m, n, rows, cols, values))
    assert kept <= kept_budget + 10_000, f"kept {kept / nnz:.2f} B per entry"
    assert peak <= 13 * nnz, f"sorted build peak {peak / nnz:.2f} B per entry"
    perm = rng.permutation(nnz)
    shuffled = rows[perm], cols[perm], values[perm]
    again, kept, peak = traced(lambda: ObservedMatrix(m, n, *shuffled))
    assert kept <= kept_budget + 10_000, f"kept {kept / nnz:.2f} B per entry"
    assert peak <= 40 * nnz, f"shuffled build peak {peak / nnz:.2f} B per entry"
    for a, b in ((obs, again), (again, obs)):
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a._indices, b._indices) and np.array_equal(a._indptr, b._indptr)
    # each access builds fresh int64 arrays
    assert obs.rows is not obs.rows
    assert np.array_equal(obs.rows, rows) and np.array_equal(obs.cols, cols)


# --- canonical order: one row-major key, checked against a two-key lexsort ---


@st.composite
def sampled_sets(draw, min_size=0):
    """(m, n, rows, cols, values, perm): a random omega in row-major order,
    distinct values, and a permutation of its entries."""
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    flat = sorted(draw(st.sets(st.integers(0, m * n - 1), min_size=min(min_size, m * n))))
    rows, cols = np.divmod(np.array(flat, dtype=np.int64), n)
    values = np.arange(1.0, len(flat) + 1.0)
    perm = np.array(draw(st.permutations(range(len(flat)))), dtype=np.intp)
    return m, n, rows, cols, values, perm


def lexsort_reference(m, n, rows, cols, values):
    """The stored arrays of an omega, ordered with a two-key lexsort."""
    order = np.lexsort((cols, rows))
    rows, cols, values = rows[order], cols[order], values[order]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=m)))).astype(np.int32)
    return dict(rows=rows, cols=cols, values=values, _indptr=indptr, _indices=cols.astype(np.int32))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sampled_sets())
def test_canonical_order_matches_lexsort(case):
    m, n, rows, cols, values, perm = case
    inputs = {
        "ordered": (m, n, rows, cols, values),
        "shuffled": (m, n, rows[perm], cols[perm], values[perm]),
        "transposed": (n, m, cols, rows, values),
    }
    for form, args in inputs.items():
        obs = ObservedMatrix(*args)
        for name, expected in lexsort_reference(*args).items():
            got = getattr(obs, name)
            assert got.dtype == expected.dtype and np.array_equal(got, expected), (form, name)
            assert not got.flags.writeable, (form, name)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sampled_sets(min_size=1), st.data())
def test_duplicates_anywhere_name_the_first_pair(case, data):
    m, n, rows, cols, values, _ = case
    dup = np.array(sorted(data.draw(st.sets(st.integers(0, rows.size - 1), min_size=1))))
    rows, cols = np.concatenate((rows, rows[dup])), np.concatenate((cols, cols[dup]))
    values = np.concatenate((values, values[dup]))
    shuffle = np.array(data.draw(st.permutations(range(rows.size))), dtype=np.intp)
    # omega came in row-major order, so the first duplicated entry leads
    i, j = rows[dup[0]], cols[dup[0]]
    with pytest.raises(ValueError, match=rf"duplicate index pair \({i}, {j}\) in omega"):
        ObservedMatrix(m, n, rows[shuffle], cols[shuffle], values[shuffle])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_rejected(bad):
    with pytest.raises(ValueError, match=r"non-finite value .* at \(1, 0\)"):
        ObservedMatrix(2, 2, [0, 1], [1, 0], [1.0, bad])


def test_load_rejects_non_finite_value(tmp_path):
    path = tmp_path / "nan.txt"
    path.write_text("2 2 2\n0 0 1.5\n1 1 nan\n")
    with pytest.raises(ValueError, match="non-finite"):
        ObservedMatrix.load(path)


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError, match="equal length"):
        ObservedMatrix(2, 2, [0, 1], [0], [1.0, 2.0])


@pytest.mark.parametrize("m, n, message", [
    (3.5, 4, "m must be an integer"),
    (True, 4, "m must be an integer"),
    (3, 4.0, "n must be an integer"),
    (0, 4, "m must be at least 1"),
])
def test_sizes_must_be_positive_integers(m, n, message):
    with pytest.raises(ValueError, match=message):
        ObservedMatrix(m, n, [0], [0], [1.0])


def test_empty_omega_allowed():
    obs = ObservedMatrix(4, 5, [], [], [])
    assert obs.nnz == 0
    assert obs.norm() == 0.0
    assert obs.to_sparse().nnz == 0


def test_arrays_are_immutable():
    obs = ObservedMatrix(2, 2, [0], [1], [5.0])
    with pytest.raises(ValueError):
        obs.values[0] = 1.0


def test_dense_reconstruction(rng):
    obs = random_observed(rng, 6, 7, 0.4)
    dense = obs.dense()
    assert dense.shape == (6, 7)
    assert np.allclose(dense[obs.rows, obs.cols], obs.values)
    mask = np.ones((6, 7), dtype=bool)
    mask[obs.rows, obs.cols] = False
    assert (dense[mask] == 0).all()


def test_sparse_matches_dense(rng):
    obs = random_observed(rng, 10, 8, 0.3)
    assert np.allclose(obs.to_sparse().toarray(), obs.dense())


def test_save_load_round_trip(tmp_path, rng):
    obs = random_observed(rng, 9, 4, 0.5)
    path = tmp_path / "obs.txt"
    obs.save(path)
    back = ObservedMatrix.load(path)
    assert back.shape == obs.shape
    assert np.array_equal(back.rows, obs.rows)
    assert np.array_equal(back.cols, obs.cols)
    assert np.array_equal(back.values, obs.values)
    header = path.read_text().splitlines()[0]
    assert header == f"9 4 {obs.nnz}"


def test_load_reports_bad_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2 2\n0 0 1.5\n0 oops 2.5\n")
    with pytest.raises(ValueError, match=":3"):
        ObservedMatrix.load(path)
    path.write_text("2 2\n")
    with pytest.raises(ValueError, match="header"):
        ObservedMatrix.load(path)
    with pytest.raises(FileNotFoundError):
        ObservedMatrix.load(tmp_path / "missing.txt")


def test_load_rejects_entries_beyond_header_count(tmp_path):
    path = tmp_path / "extra.txt"
    path.write_text("3 3 1\n0 0 1.0\n1 1 2.0\n2 2 3.0\n")
    with pytest.raises(ValueError, match=r"extra\.txt:3: more entries"):
        ObservedMatrix.load(path)
    path.write_text("3 3 1\n0 0 1.0\n\n")  # a trailing blank line is fine
    assert ObservedMatrix.load(path).nnz == 1


def test_load_rejects_negative_count(tmp_path):
    path = tmp_path / "neg.txt"
    path.write_text("3 3 -1\n")
    with pytest.raises(ValueError, match=r"neg\.txt:1: negative entry count"):
        ObservedMatrix.load(path)


def test_load_rejects_a_shape_below_one_by_one(tmp_path):
    # checked before the entry count, which an m * n below 1 would misreport
    path = tmp_path / "shape.txt"
    for header, shape in [("0 3 0", "0-by-3"), ("-3 3 1", "-3-by-3"), ("3 0 0", "3-by-0")]:
        path.write_text(header + "\n")
        with pytest.raises(ValueError, match=rf"shape\.txt:1: matrix shape must be at least "
                                             rf"1-by-1, got {shape}$"):
            ObservedMatrix.load(path)


def test_load_rejects_count_above_matrix_size(tmp_path):
    # a count no m-by-n matrix can hold is refused before anything is allocated
    path = tmp_path / "huge.txt"
    path.write_text("3 3 1000000000000\n0 0 1.0\n")
    with pytest.raises(ValueError, match=r"huge\.txt:1: entry count 1000000000000 exceeds the 9 "):
        ObservedMatrix.load(path)
    path.write_text("3 3 10\n")
    with pytest.raises(ValueError, match=r"huge\.txt:1: entry count 10 exceeds"):
        ObservedMatrix.load(path)
