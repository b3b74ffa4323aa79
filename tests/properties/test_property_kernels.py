"""Column-at-a-time kernels equal their axis-reduce forms, bit for bit.

The row kernels in :mod:`repro.core.framework` stream a short label
axis column by column instead of paying per-row ufunc overhead in an
axis reduce.  For sums that is only safe where the column order repeats
NumPy's own summation order: below 8 columns for row sums (NumPy sums 8
or more contiguous elements pairwise), and from 2 columns up for axis-0
sums of a C-ordered block (a single column NumPy sums pairwise).  Maxima
and argmax are exact in any order and stream at every width.  Each property
compares a kernel with an inline copy of the axis form it replaces and
demands identical bytes, so a sign of zero or a last-bit difference
fails it.  Matrices mix magnitudes over 24 decades and carry ``-inf``
entries, all-zero rows (including ``-0.0``) and integer-valued rows.
"""

import functools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.answers import AnswerSet
from repro.core.framework import (
    argmax_rows,
    column_sums,
    log_normalize_rows,
    normalize_rows,
    row_max,
    row_sums,
)
from repro.core.registry import create
from repro.core.shards import ShardedAnswerSet
from repro.core.tasktypes import TaskType
from repro.inference.sharded import SufficientStats
from repro.methods.glad import _sigmoid


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes()
            == np.ascontiguousarray(b).tobytes())


def build_matrix(seed, n_rows, n_cols, *, neg_inf=True):
    """Mixed-magnitude floats with integer rows, zero rows of both
    signs and (optionally) ``-inf`` entries."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-12, 12, size=(n_rows, n_cols))
    matrix = rng.standard_normal((n_rows, n_cols)) * scale
    kind = rng.integers(0, 8, size=n_rows)
    integral = kind == 0
    matrix[integral] = rng.integers(-50, 50, size=(int(integral.sum()),
                                                   n_cols))
    matrix[kind == 1] = 0.0
    matrix[kind == 2] = -0.0
    if neg_inf:
        matrix[rng.random((n_rows, n_cols)) < 0.05] = -np.inf
    return matrix


def normalize_rows_axis(matrix):
    sums = matrix.sum(axis=1, keepdims=True)
    safe = np.where(sums > 0, sums, 1.0)
    out = matrix / safe
    out[np.squeeze(sums, axis=1) <= 0] = 1.0 / max(matrix.shape[1], 1)
    return out


def log_normalize_rows_axis(log_matrix):
    shifted = log_matrix - log_matrix.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


seeds = st.integers(0, 2**32 - 1)
rows = st.integers(0, 2000)
cols = st.integers(1, 16)


@settings(max_examples=120, deadline=None)
@given(seed=seeds, n_rows=rows, n_cols=cols)
@example(seed=0, n_rows=2000, n_cols=1)
@example(seed=1, n_rows=0, n_cols=3)
def test_row_kernels_match_axis_reduces(seed, n_rows, n_cols):
    matrix = build_matrix(seed, n_rows, n_cols)
    finite = np.where(np.isinf(matrix), 0.0, matrix)
    assert same_bits(row_sums(finite), finite.sum(axis=1))
    assert same_bits(normalize_rows(finite), normalize_rows_axis(finite))
    assert same_bits(normalize_rows(matrix), normalize_rows_axis(matrix))
    assert same_bits(argmax_rows(matrix), matrix.argmax(axis=1))
    if n_rows:
        # Equal as numbers: only the sign of a zero maximum may differ.
        assert np.array_equal(row_max(matrix), matrix.max(axis=1))
        with np.errstate(invalid="ignore"):
            assert same_bits(log_normalize_rows(matrix),
                             log_normalize_rows_axis(matrix))
            # NumPy's reduce order follows the layout; so do the kernels.
            fortran = np.asfortranarray(matrix)
            assert same_bits(log_normalize_rows(fortran),
                             log_normalize_rows_axis(fortran))


@settings(max_examples=120, deadline=None)
@given(seed=seeds, n_rows=rows, n_cols=cols,
       layout=st.sampled_from(["C", "F"]))
@example(seed=0, n_rows=2000, n_cols=1, layout="C")
@example(seed=1, n_rows=0, n_cols=2, layout="C")
def test_column_sums_match_axis0_reduce(seed, n_rows, n_cols, layout):
    block = np.asarray(build_matrix(seed, n_rows, n_cols, neg_inf=False),
                       order=layout)
    assert same_bits(column_sums(block), block.sum(axis=0))


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n_workers=st.integers(1, 40), n_choices=cols)
def test_confusion_row_sums_match_axis2_reduce(seed, n_workers, n_choices):
    """``finalize``'s layout: a transposed (worker, answer, truth) count
    table plus smoothing, normalised over its last axis."""
    counts = np.abs(build_matrix(seed, n_workers * n_choices, n_choices,
                                 neg_inf=False))
    counts = counts.reshape(n_workers, n_choices, n_choices)
    for confusion in (counts.transpose(0, 2, 1) + 0.01, counts):
        assert same_bits(row_sums(confusion), confusion.sum(axis=2))


def random_answers(seed, n_choices, n_tasks=150, n_workers=9):
    rng = np.random.default_rng(seed)
    n_answers = 6 * n_tasks
    return AnswerSet(rng.integers(0, n_tasks, n_answers),
                     rng.integers(0, n_workers, n_answers),
                     rng.integers(0, n_choices, n_answers),
                     TaskType.SINGLE_CHOICE, n_choices=n_choices,
                     n_tasks=n_tasks, n_workers=n_workers)


@settings(max_examples=25, deadline=None)
@given(seed=seeds, n_choices=st.integers(2, 16))
def test_ds_statistics_kernels_match_axis_forms(seed, n_choices):
    """D&S/LFC ``accumulate`` and ``finalize`` against the axis reduces
    they replaced, on real shard operators (answer sets have at least
    two labels; the one-column sum is pinned above)."""
    answers = random_answers(seed, n_choices)
    spec = create("D&S").make_em_spec(answers.n_tasks, answers.n_workers,
                                      n_choices)
    rng = np.random.default_rng(seed)
    for shard in ShardedAnswerSet(answers, 3).shards:
        ops = spec.shard_ops(shard)
        block = rng.dirichlet(np.ones(n_choices), shard.n_local_tasks)
        stats = spec.accumulate(shard, ops, block)
        assert same_bits(stats["posterior_sum"], block.sum(axis=0))
        params = spec.finalize(stats)
        confusion = stats["counts"].transpose(0, 2, 1) + 0.01
        confusion[:, np.arange(n_choices), np.arange(n_choices)] += 0.0
        confusion /= confusion.sum(axis=2, keepdims=True)
        assert same_bits(params.confusion, confusion)


def build_bundles(seed, n_bundles, promote):
    rng = np.random.default_rng(seed)
    bundles = []
    for k in range(n_bundles):
        counts = rng.integers(0, 1000, size=(5, 3))
        if promote and k == n_bundles - 1:
            counts = counts * 0.5  # a float bundle after int ones
        bundles.append(SufficientStats(
            sums=build_matrix(seed + k, 7, 3, neg_inf=False),
            counts=counts,
            total=float(rng.standard_normal()) * 10.0 ** rng.integers(-8, 8),
            mass=np.float64(rng.random()),
        ))
    return bundles


@settings(max_examples=100, deadline=None)
@given(seed=seeds, n_bundles=st.integers(1, 12), promote=st.booleans())
def test_total_matches_the_pairwise_fold(seed, n_bundles, promote):
    bundles = build_bundles(seed, n_bundles, promote)
    before = [{name: np.array(value, copy=True)
               for name, value in b.fields.items()} for b in bundles]
    total = SufficientStats.total(bundles)
    for name in bundles[0].fields:
        fold = functools.reduce(lambda a, b: a + b,
                                [b.fields[name] for b in bundles])
        assert same_bits(total[name], fold), name
        assert type(total[name]) is type(fold), name
    # No input bundle was written.
    for bundle, saved in zip(bundles, before):
        for name, value in bundle.fields.items():
            assert same_bits(value, saved[name]), name


def sigmoid_masked(x):
    """GLAD's logistic as two masked ``exp``s, the form ``_sigmoid``
    replaced."""
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    expx = np.exp(x[~positive])
    out[~positive] = expx / (1.0 + expx)
    return out


#: Zeros of both signs, infinities, the smallest subnormals, the edges
#: of ``exp``'s range and NaN.
SIGMOID_EDGES = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                          -745.0, 746.0, -746.0, 1e308, -1e308, np.nan])


@settings(max_examples=120, deadline=None)
@given(seed=seeds, n=st.integers(0, 4000))
@example(seed=0, n=0)
def test_glad_sigmoid_matches_masked_form(seed, n):
    """The branch-free logistic equals the masked one bit for bit; a NaN
    input gives NaN either way (its sign bit may differ)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 4, size=n)
    x = np.concatenate([x, SIGMOID_EDGES])
    got, expected = _sigmoid(x), sigmoid_masked(x)
    nan = np.isnan(x)
    assert same_bits(got[~nan], expected[~nan])
    assert np.isnan(got[nan]).all()
