"""Shared machinery for the paper's iterative framework (Algorithm 1).

All 14 iterative methods in the paper follow the same loop:

1. initialise worker qualities (randomly, uniformly, or from a
   qualification test);
2. **step 1** — infer each task's truth from answers and qualities;
3. **step 2** — re-estimate each worker's quality from answers and truth;
4. repeat until the parameter change falls below a threshold
   (the paper uses 1e-3) or an iteration cap is hit.

This module provides the convergence tracker, golden-task clamping used
by the hidden-test protocol (Section 6.3.3), and small numerical helpers
shared by several methods.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..exceptions import ConvergenceError

#: Convergence threshold the paper mentions ("e.g., 1e-3").
DEFAULT_TOLERANCE = 1e-4

#: Iteration cap; generous enough that EM methods converge well before it.
DEFAULT_MAX_ITER = 100

#: Floor used when clipping probabilities away from 0/1 before taking logs.
PROBABILITY_FLOOR = 1e-10

#: Label-axis width from which :func:`row_sums` (and the normalisers
#: built on it) keeps NumPy's own axis reduce.  NumPy sums fewer than 8
#: elements left to right, so a column-at-a-time sum repeats its axis
#: reduce bit for bit; from 8 up it sums contiguous rows pairwise and a
#: column sum differs in the last bit.  Maxima and argmax are exact in
#: any order and stream at every width.
AXIS_REDUCE_COLUMNS = 8


class ConvergenceTracker:
    """Detects convergence of the two-step iteration.

    Tracks the maximum absolute change of a parameter vector between
    consecutive iterations, exactly as the paper describes ("check
    whether the change of two sets of parameters is below some defined
    threshold").

    If the parameter vector changes **length** between updates (tasks or
    workers were added between fits, e.g. by a warm-started refit on a
    grown answer set), the comparison baseline is reset rather than an
    error raised: the resized update can never trigger convergence, and
    delta tracking resumes at the next same-length update.  Each such
    reset is counted in :attr:`resets`.
    """

    def __init__(self, tolerance: float = DEFAULT_TOLERANCE,
                 max_iter: int = DEFAULT_MAX_ITER) -> None:
        if tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {tolerance}")
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        self.tolerance = tolerance
        self.max_iter = max_iter
        self.iteration = 0
        self.converged = False
        #: Number of times a resized parameter vector reset the baseline.
        self.resets = 0
        self._previous: np.ndarray | None = None

    def update(self, parameters: np.ndarray) -> bool:
        """Record one iteration; return True when iteration should stop.

        ``parameters`` is any flat or multi-dimensional array capturing
        the state being iterated (e.g. the truth posterior).  Raises
        :class:`ConvergenceError` on NaN/inf parameters.
        """
        current = np.asarray(parameters, dtype=np.float64).ravel().copy()
        if not np.all(np.isfinite(current)):
            raise ConvergenceError(
                f"non-finite parameters at iteration {self.iteration}"
            )
        self.iteration += 1
        if self._previous is not None and len(self._previous) != len(current):
            self._previous = None
            self.resets += 1
        if self._previous is not None:
            delta = float(np.max(np.abs(current - self._previous)))
            if delta < self.tolerance:
                self.converged = True
                return True
        self._previous = current
        return self.iteration >= self.max_iter


def clamp_golden_posterior(posterior: np.ndarray,
                           golden: Mapping[int, int] | None) -> np.ndarray:
    """Overwrite posterior rows of golden tasks with their known truth.

    Implements the hidden-test protocol: "in step 1, we only update the
    truth of tasks with unknown truth" — golden tasks keep probability 1
    on their true label throughout the iteration.
    """
    if not golden:
        return posterior
    for task, label in golden.items():
        posterior[task, :] = 0.0
        posterior[task, int(label)] = 1.0
    return posterior


def clamp_golden_values(values: np.ndarray,
                        golden: Mapping[int, float] | None) -> np.ndarray:
    """Numeric analogue of :func:`clamp_golden_posterior`."""
    if not golden:
        return values
    for task, truth in golden.items():
        values[task] = float(truth)
    return values


def row_sums(matrix: np.ndarray) -> np.ndarray:
    """``matrix.sum(axis=-1)`` of a float array, bit for bit.

    An axis reduce over a short label axis pays per-row ufunc overhead.
    Below :data:`AXIS_REDUCE_COLUMNS` columns the sums add whole
    columns instead: the same left-to-right sequence in a few strided
    passes.  The first column is copied as ``+ 0.0`` because NumPy's
    sum starts from +0.0, which turns a leading -0.0 into +0.0.
    """
    n_cols = matrix.shape[-1]
    if not 0 < n_cols < AXIS_REDUCE_COLUMNS:
        return matrix.sum(axis=-1)
    sums = matrix[..., 0] + 0.0
    for j in range(1, n_cols):
        sums += matrix[..., j]
    return sums


def row_max(matrix: np.ndarray) -> np.ndarray:
    """``matrix.max(axis=-1)``, streamed column by column at every width.

    Unlike a sum, a max is exact in any order, so no column-count rule
    applies: the result equals the axis reduce (NaN included) up to the
    sign of a zero maximum, which neither a comparison nor ``exp`` can
    see.
    """
    n_cols = matrix.shape[-1]
    if n_cols == 0:
        return matrix.max(axis=-1)
    best = matrix[..., 0].copy()
    for j in range(1, n_cols):
        np.maximum(best, matrix[..., j], out=best)
    return best


def column_sums(matrix: np.ndarray) -> np.ndarray:
    """``matrix.sum(axis=0)`` of a float matrix, bit for bit.

    NumPy reduces axis 0 of a C-ordered matrix with 2 or more columns
    one row at a time, paying per-row ufunc overhead on a short label
    axis; accumulating each column runs the same sequence in one
    strided pass (``+ 0.0`` again matches the reduce's +0.0 start).  A
    single column, or another layout, NumPy sums pairwise, so those
    keep the axis reduce.
    """
    if (matrix.ndim != 2 or matrix.shape[0] == 0 or matrix.shape[1] < 2
            or not matrix.flags.c_contiguous):
        return matrix.sum(axis=0)
    sums = np.empty(matrix.shape[1], dtype=matrix.dtype)
    for j in range(matrix.shape[1]):
        sums[j] = np.add.accumulate(matrix[:, j])[-1]
    sums += 0.0
    return sums


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Normalise each row to sum to one; uniform rows where the sum is 0."""
    matrix = np.asarray(matrix, dtype=np.float64)
    sums = row_sums(matrix)
    safe = np.where(sums > 0, sums, 1.0)
    out = matrix / safe[:, None]
    out[sums <= 0] = 1.0 / max(matrix.shape[1], 1)
    return out


def log_normalize_rows(log_matrix: np.ndarray) -> np.ndarray:
    """Exponentiate and row-normalise a matrix of log scores, stably.

    Bit-identical to ``e / e.sum(axis=1)`` with ``e = exp(m -
    m.max(axis=1))``.  The row max streams column by column
    (:func:`row_max`; ``exp`` maps either sign of a zero shift to 1),
    the sums follow :func:`row_sums`, and the exponentials and the
    division reuse one buffer.
    """
    log_matrix = np.asarray(log_matrix, dtype=np.float64)
    out = log_matrix - row_max(log_matrix)[:, None]
    np.exp(out, out=out)
    out /= row_sums(out)[:, None]
    return out


def clip_probability(p: np.ndarray | float) -> np.ndarray:
    """Clip probabilities into ``[floor, 1 - floor]`` before logs."""
    return np.clip(p, PROBABILITY_FLOOR, 1.0 - PROBABILITY_FLOOR)


def argmax_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-wise argmax of finite values, column-at-a-time.

    Bit-identical to ``matrix.argmax(axis=1)`` — the strict ``>``
    keeps the *first* maximum, exactly like argmax — but streams the
    matrix column-wise, avoiding the per-row ufunc overhead an axis-1
    reduce pays on a short label axis.  Callers must not pass NaN
    (argmax treats NaN as maximal; ``>`` never matches it).
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[1] == 0:
        return matrix.argmax(axis=1)
    best = matrix[:, 0].copy()
    labels = np.zeros(matrix.shape[0], dtype=np.int64)
    for j in range(1, matrix.shape[1]):
        col = matrix[:, j]
        labels[col > best] = j
        np.maximum(best, col, out=best)
    return labels


def radix_argsort(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of non-negative integer keys, radix-accelerated.

    NumPy's ``kind="stable"`` dispatches to an O(n) radix sort only for
    integer dtypes of at most 16 bits; wider keys fall back to a
    comparison sort.  The grouping keys sorted throughout this library
    (task ids, worker ids, (task, label) cells) easily exceed 16 bits
    but are never negative, so an LSD pass over 16-bit digit slices
    reproduces the *exact* stable permutation severalfold faster.
    Anything but non-negative integers falls back to ``np.argsort``.
    """
    keys = np.asarray(keys)
    if keys.dtype.kind not in "iu" or keys.ndim != 1 or (
            keys.dtype.kind == "i" and keys.size
            and int(keys.min()) < 0):
        return np.argsort(keys, kind="stable")
    order = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
    kmax = int(keys.max(initial=0))
    shift = 16
    while kmax >> shift:
        digit = ((keys >> shift) & 0xFFFF).astype(np.uint16)
        order = order[np.argsort(digit[order], kind="stable")]
        shift += 16
    return order


def decode_posterior(posterior: np.ndarray, rng: np.random.Generator | None = None
                     ) -> np.ndarray:
    """Turn a truth posterior into hard labels, breaking ties randomly.

    Majority voting and several iterative methods can end with exact
    ties; the paper breaks them randomly ("it randomly infers v*_1 to
    break the tie").  With ``rng=None`` ties break toward the lowest
    label index (deterministic), which tests rely on.
    """
    posterior = np.asarray(posterior, dtype=np.float64)
    if rng is None:
        return posterior.argmax(axis=1)
    n_rows, n_cols = posterior.shape
    # Column-at-a-time passes: axis-1 reductions pay per-row ufunc
    # overhead on the short label axis, so the row max, the closeness
    # test, and the tie counts all stream column-wise instead.
    best = row_max(posterior)
    if np.isinf(best).any():
        # ``isclose`` calls infinities of equal sign "close"; the
        # plain tolerance test below would not.  Posteriors are finite
        # in practice, so keep the slow exact path for this edge only.
        is_best = np.isclose(posterior, best[:, None])
    else:
        # ``isclose(a, b)`` on finite input is exactly
        # ``|a - b| <= atol + rtol * |b|`` (numpy's within_tol).
        tol = 1e-08 + 1e-05 * np.abs(best)
        is_best = np.empty(posterior.shape, dtype=bool)
        for j in range(n_cols):
            np.less_equal(np.abs(posterior[:, j] - best), tol,
                          out=is_best[:, j])
    counts = np.zeros(n_rows, dtype=np.int64)
    labels = np.zeros(n_rows, dtype=np.int64)
    for j in range(n_cols):
        counts += is_best[:, j]
        labels += j * is_best[:, j]
    # Untied rows have exactly one candidate, so the weighted column
    # sum above IS its index (matching ``is_best.argmax(axis=1)``);
    # tied rows are overwritten below, and all-False rows (possible
    # only for NaN input) fall to label 0 just like argmax would.
    tied = np.nonzero(counts > 1)[0]
    if tied.size:
        # ``Generator.choice(candidates)`` draws ``integers(0, len)``
        # under the hood, and a vectorised ``integers`` call with an
        # array of bounds consumes the stream element-by-element in
        # order — so this block spends the generator exactly as the
        # historical per-task ``rng.choice`` loop did, keeping every
        # tie-break bit-identical.
        draws = rng.integers(0, counts[tied])
        rows, cols = np.nonzero(is_best[tied])
        starts = np.concatenate(([0], np.cumsum(counts[tied])[:-1]))
        rank = np.arange(rows.size) - starts[rows]
        labels[tied] = cols[rank == draws[rows]]
    return labels
