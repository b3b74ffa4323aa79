"""Bit-exact segmented-reduction operators for EM inner loops.

Every EM method in this library spends its iterations scattering
per-answer quantities into per-task or per-worker bins — historically
with ``np.add.at`` (slow: unbuffered generic ufunc inner loop) or
``np.bincount`` plus a fancy-index gather.  The scatter *pattern* is
fixed for the lifetime of a fit, so this module freezes it once into a
CSR "incidence matrix" and turns every later iteration into one sparse-
times-dense product.

The operators take an optional ``cols`` indirection: instead of one
weight per answer, the operand may be a small *table* (a posterior
block, a per-(worker, label) log-likelihood table, a per-worker
parameter vector) that answer ``k`` reads at row ``cols[k]``.  That
fuses the per-iteration gather into the sparse product — the kernel
reads the table directly, so no per-answer intermediate array is ever
materialised.

Exactness contract
------------------
The operators are drop-in replacements at the **bit level**, not merely
numerically close:

* SciPy's CSR row-times-dense kernels accumulate each output row
  strictly in stored order, and construction here stores entries in
  answer order, so per-bin partial sums are evaluated in exactly the
  same sequence as ``np.add.at`` / ``np.bincount`` over the same
  (possibly gathered) arrays.
* :class:`BasedScatterAdd` reproduces the common ``out = base.copy();
  np.add.at(out, rows, weights)`` idiom by storing one *base slot* as
  the first entry of every row, so accumulation starts from the base
  value just like the in-place original.
* All stored coefficients are exactly ``1.0``; ``1.0 * x`` is ``x`` in
  IEEE-754, so the matrix form introduces no rounding.

This is what lets the single-shard sharded EM path reduce to the
pre-refactor math bit-for-bit while running severalfold faster (the
parity tests in ``tests/properties/test_property_sharded.py`` pin it).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..core.framework import radix_argsort
from ..exceptions import InferenceError

__all__ = ["SegmentSum", "BasedScatterAdd"]


def _csr_rowgroups(rows: np.ndarray, indices: np.ndarray, n_rows: int,
                   n_cols: int) -> sp.csr_matrix:
    """CSR matrix of ones grouping ``indices`` by ``rows``.

    Entries are stored in input order within each row (stable sort on
    the row key only), which is the property the exactness contract
    rests on; column indices are deliberately *not* sorted.  Built
    directly in CSR form — no COO detour, no duplicate summing.
    """
    order = radix_argsort(rows)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    matrix = sp.csr_matrix(
        (np.ones(len(indices), dtype=np.float64),
         indices[order].astype(np.int64, copy=False), indptr),
        shape=(n_rows, n_cols),
    )
    return matrix


def _validate_rows(rows: np.ndarray, n_rows: int) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 1:
        raise InferenceError("rows must be a 1-D index array")
    if len(rows) and (rows.min() < 0 or rows.max() >= n_rows):
        raise InferenceError(f"row indices must lie in [0, {n_rows})")
    return rows


def _validate_cols(cols: np.ndarray, rows: np.ndarray,
                   n_cols: int | None) -> tuple[np.ndarray, int]:
    """Check the table indirection: SciPy's CSR kernels index the dense
    operand unchecked, so an out-of-range col would silently read
    out-of-bounds memory instead of raising."""
    cols = np.asarray(cols, dtype=np.int64)
    if cols.shape != rows.shape:
        raise InferenceError("cols must parallel rows")
    if n_cols is None:
        raise InferenceError("n_cols is required with cols")
    if len(cols) and (cols.min() < 0 or cols.max() >= n_cols):
        raise InferenceError(f"col indices must lie in [0, {n_cols})")
    return cols, int(n_cols)


class SegmentSum:
    """Frozen per-row accumulation of answer weights.

    Without ``cols`` this is ``np.bincount(rows, weights,
    minlength=n_rows)`` — ``weights`` may be 1-D (length ``n``) or 2-D
    ``(n, m)``, giving ``(n_rows,)`` or ``(n_rows, m)``.

    With ``cols`` (and the table height ``n_cols``) the operand is a
    table ``B`` and answer ``k`` contributes ``B[cols[k]]``:
    bit-identical to ``np.bincount(rows, weights=B[cols])`` per column,
    with the gather fused into the kernel.
    """

    __slots__ = ("n_rows", "_op")

    def __init__(self, rows: np.ndarray, n_rows: int,
                 cols: np.ndarray | None = None,
                 n_cols: int | None = None) -> None:
        rows = _validate_rows(rows, n_rows)
        self.n_rows = int(n_rows)
        if cols is None:
            cols = np.arange(len(rows), dtype=np.int64)
            n_cols = len(rows)
        else:
            cols, n_cols = _validate_cols(cols, rows, n_cols)
        self._op = _csr_rowgroups(rows, cols, self.n_rows, int(n_cols))

    def __call__(self, operand: np.ndarray) -> np.ndarray:
        return self._op @ operand


class BasedScatterAdd:
    """Frozen ``out = base.copy(); np.add.at(out, rows, weights)``.

    Each output row's accumulation *starts from the base value* and adds
    the row's weights in input order — exactly the floating-point
    evaluation sequence of the in-place idiom it replaces.

    Without ``cols``, call with ``base`` broadcastable to ``(n_rows,)``
    / ``(n_rows, m)`` and per-answer ``weights`` of shape ``(n,)`` /
    ``(n, m)``.  With ``cols``/``n_cols``, the second operand is a
    table ``B`` of height ``n_cols`` and answer ``k`` adds
    ``B[cols[k]]`` — the gather is fused into the kernel.
    """

    __slots__ = ("n_rows", "n", "_op", "_buf")

    def __init__(self, rows: np.ndarray, n_rows: int,
                 cols: np.ndarray | None = None,
                 n_cols: int | None = None) -> None:
        rows = _validate_rows(rows, n_rows)
        self.n_rows = int(n_rows)
        self.n = len(rows)
        if cols is None:
            cols = np.arange(self.n, dtype=np.int64)
            n_cols = self.n
        else:
            cols, n_cols = _validate_cols(cols, rows, n_cols)
        # The operand buffer is [base (n_rows); table (n_cols)]: row r's
        # base slot is entry r (stored first within the row, so
        # accumulation starts from it), answers read slot n_rows+cols.
        aug_rows = np.concatenate([np.arange(self.n_rows, dtype=np.int64),
                                   rows])
        aug_cols = np.concatenate([np.arange(self.n_rows, dtype=np.int64),
                                   self.n_rows + cols])
        self._op = _csr_rowgroups(aug_rows, aug_cols, self.n_rows,
                                  self.n_rows + int(n_cols))
        self._buf: np.ndarray | None = None

    def _buffer(self, height: int, trailing: tuple[int, ...]) -> np.ndarray:
        shape = (height, *trailing)
        if self._buf is None or self._buf.shape != shape:
            self._buf = np.empty(shape, dtype=np.float64)
        return self._buf

    def __call__(self, base: np.ndarray, table: np.ndarray) -> np.ndarray:
        table = np.asarray(table, dtype=np.float64)
        buf = self._buffer(self.n_rows + table.shape[0], table.shape[1:])
        buf[: self.n_rows] = base
        buf[self.n_rows:] = table
        return self._op @ buf
