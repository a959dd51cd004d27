import numpy as np
import pytest

from gceals.linalg import (
    Rng,
    ShapeError,
    as_matrix,
    row_log_softmax,
    row_softmax,
)


def test_rng_same_seed_same_stream():
    a = Rng(123).randn(4, 3)
    b = Rng(123).randn(4, 3)
    assert np.array_equal(a, b)


def test_rng_different_seeds_differ():
    a = Rng(1).randn(4, 3)
    b = Rng(2).randn(4, 3)
    assert not np.array_equal(a, b)


def test_rng_split_children_are_independent():
    parent = Rng(9)
    c1, c2 = parent.split(2)
    d1, d2 = Rng(9).split(2)
    # splitting is itself deterministic
    assert np.array_equal(c1.randn(3, 3), d1.randn(3, 3))
    assert not np.array_equal(c1.randn(3, 3), c2.randn(3, 3))


def test_rng_permutation_and_choice():
    perm = Rng(5).permutation(10)
    assert sorted(perm) == list(range(10))
    picks = Rng(5).choice(10, 4)
    assert len(set(picks.tolist())) == 4
    assert all(0 <= p < 10 for p in picks)


def test_as_matrix_coerces_lists():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.float64
    assert m.flags["C_CONTIGUOUS"]
    assert m.shape == (2, 2)


def test_as_matrix_rejects_1d_and_nonfinite():
    with pytest.raises(ShapeError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 1.0]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 1.0]])


def test_row_softmax_rows_sum_to_one():
    q = row_softmax(Rng(0).randn(6, 4))
    assert np.allclose(q.sum(axis=1), 1.0)
    assert np.all(q > 0)


def test_row_softmax_handles_huge_logits():
    logits = np.array([[1000.0, 0.0], [-1000.0, -999.0]])
    q = row_softmax(logits)
    assert np.all(np.isfinite(q))
    assert np.allclose(q.sum(axis=1), 1.0)
    log_q = row_log_softmax(logits)
    assert np.array_equal(log_q[0], [0.0, -1000.0])
    assert np.allclose(np.exp(log_q), q)


def test_row_softmax_shift_invariance():
    logits = Rng(1).randn(5, 3)
    shifted = logits + 17.0
    assert np.allclose(row_softmax(logits), row_softmax(shifted))
