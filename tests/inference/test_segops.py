"""Bit-exactness of the frozen segmented-reduction operators.

The contract (see :mod:`repro.inference.segops`): the CSR operators
are interchangeable with the ``np.bincount`` / ``np.add.at`` idioms
they replace at the bit level, for both the plain per-answer-weights
form and the ``cols``-indirected table form.
"""

import numpy as np
import pytest

from repro.inference.segops import BasedScatterAdd, SegmentSum


def random_case(seed=0, n=5000, n_rows=60, n_cols=40, m=3):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n_rows, n)
    cols = rng.integers(0, n_cols, n)
    weights1 = rng.normal(0, 1, n)
    weights2 = rng.normal(0, 1, (n, m))
    table1 = rng.normal(0, 1, n_cols)
    table2 = rng.normal(0, 1, (n_cols, m))
    return rows, cols, weights1, weights2, table1, table2


class TestSegmentSum:
    def test_matches_bincount_1d(self):
        rows, _, weights, _, _, _ = random_case()
        op = SegmentSum(rows, 60)
        expected = np.bincount(rows, weights=weights, minlength=60)
        assert np.array_equal(op(weights), expected)

    def test_matches_bincount_2d(self):
        rows, _, _, weights, _, _ = random_case()
        op = SegmentSum(rows, 60)
        result = op(weights)
        for j in range(weights.shape[1]):
            assert np.array_equal(
                result[:, j],
                np.bincount(rows, weights=weights[:, j], minlength=60))

    def test_cols_indirection_matches_gather_then_bincount(self):
        rows, cols, _, _, table1, table2 = random_case()
        op = SegmentSum(rows, 60, cols=cols, n_cols=40)
        assert np.array_equal(
            op(table1),
            np.bincount(rows, weights=table1[cols], minlength=60))
        result = op(table2)
        for j in range(table2.shape[1]):
            assert np.array_equal(
                result[:, j],
                np.bincount(rows, weights=table2[cols, j], minlength=60))

    def test_validation(self):
        with pytest.raises(ValueError, match="1-D"):
            SegmentSum(np.zeros((2, 2), dtype=int), 4)
        with pytest.raises(ValueError, match="lie in"):
            SegmentSum(np.array([0, 5]), 4)
        with pytest.raises(ValueError, match="n_cols"):
            SegmentSum(np.array([0, 1]), 4, cols=np.array([0, 1]))
        with pytest.raises(ValueError, match="parallel"):
            SegmentSum(np.array([0, 1]), 4, cols=np.array([0]), n_cols=2)

    def test_empty(self):
        op = SegmentSum(np.empty(0, dtype=np.int64), 5)
        assert np.array_equal(op(np.empty(0)), np.zeros(5))


class TestBasedScatterAdd:
    def test_matches_base_copy_add_at_1d(self):
        rows, _, weights, _, _, _ = random_case(seed=1)
        base = np.random.default_rng(2).normal(0, 1, 60)
        op = BasedScatterAdd(rows, 60)
        expected = base.copy()
        np.add.at(expected, rows, weights)
        assert np.array_equal(op(base, weights), expected)

    def test_matches_base_copy_add_at_2d(self):
        rows, _, _, weights, _, _ = random_case(seed=3)
        base_row = np.random.default_rng(4).normal(0, 1, weights.shape[1])
        op = BasedScatterAdd(rows, 60)
        expected = np.tile(base_row, (60, 1))
        np.add.at(expected, rows, weights)
        assert np.array_equal(op(base_row, weights), expected)

    def test_cols_indirection_matches_gathered_add_at(self):
        rows, cols, _, _, _, table = random_case(seed=5)
        base = np.random.default_rng(6).normal(0, 1, (60, table.shape[1]))
        op = BasedScatterAdd(rows, 60, cols=cols, n_cols=40)
        expected = base.copy()
        np.add.at(expected, rows, table[cols])
        assert np.array_equal(op(base, table), expected)

    def test_accumulation_starts_from_base(self):
        # One row, several weights: ((base + w0) + w1) + w2, not
        # base + (w0 + w1 + w2).
        rows = np.zeros(3, dtype=np.int64)
        weights = np.array([1e-16, 1.0, -1.0])
        op = BasedScatterAdd(rows, 1)
        expected = np.array([1.0])
        np.add.at(expected, rows, weights)
        assert np.array_equal(op(np.array([1.0]), weights), expected)

    def test_buffer_reuse_across_calls(self):
        rows, _, weights, _, _, _ = random_case(seed=7)
        op = BasedScatterAdd(rows, 60)
        first = op(np.zeros(60), weights)
        second = op(np.zeros(60), 2.0 * weights)
        assert np.allclose(2.0 * first, second)
