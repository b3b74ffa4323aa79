"""Append-only WAL-mode SQLite answer log.

:class:`AnswerLog` is the write-through target of a
:class:`~repro.engine.stream.StreamingAnswerSet`: every acknowledged
``add_answers`` batch lands as **one row in one SQLite transaction**,
carrying the batch's columns — task and worker index arrays, the label
code (or numeric value) array and each record's duplicate-policy
outcome bit (append vs in-place replace) — the ids and labels the batch
introduced, and the ``seq`` range the records occupy — ``seq`` being
the stream's version counter after applying each record.  Replaying the
log through a fresh stream is therefore **verifiably bit-faithful**:
after replay, the stream's version must equal the last logged ``seq``
and its replacement counter must equal the logged replace total — any
divergence (corrupted log, mismatched ``on_duplicate``) raises
:class:`~repro.exceptions.RecoveryError` instead of silently serving
different truth.

Batch atomicity is the crash contract: a batch is *acknowledged* only
once its transaction committed, and a crash (even ``kill -9``) between
transactions loses nothing acknowledged — WAL mode keeps committed
transactions durable across process death.  ``synchronous=NORMAL``
(the default) trades the last few transactions on OS/power failure for
write speed; ``"full"`` closes that window too.

The index arrays point into id tables the log rebuilds row by row: each
row carries the ids (and labels) the stream registered since the
previous row, pickled as the *original Python objects* in index order.
So every id and label round-trips as the same object — the stream's
index tables are keyed by the external objects (``"1"``, ``1`` and
``True`` are different workers), and a stringly log would collapse
them — while a row costs one ``pickle.dumps`` of a few arrays, not of
one tuple per record.  :func:`encode_field` / :func:`decode_field`
remain the scalar codec for the JSON ``meta`` table (label order,
duplicate policy, seed).
"""

from __future__ import annotations

import json
import pickle
import sqlite3
from typing import Iterator, Sequence

import numpy as np

from .. import faults as _faults
from ..exceptions import StoreError

__all__ = ["AnswerLog", "decode_field", "encode_field"]

#: On-disk format version (bumped on incompatible schema changes).
FORMAT_VERSION = 2

#: Bounded retry budget for transient ``database is locked``/``busy``
#: commit failures (another process holding the write lock — e.g. a
#: concurrent ``repro recover`` replaying the same store).  Anything
#: else, and anything still failing after the budget, keeps the
#: historical contract: :class:`~repro.exceptions.StoreError`, caller
#: rolls the in-memory stream back, nothing acknowledged.
COMMIT_RETRIES = 5


def _is_transient(exc: sqlite3.Error) -> bool:
    """Whether a commit failure is a lock worth waiting out."""
    text = str(exc).lower()
    return (isinstance(exc, sqlite3.OperationalError)
            and ("locked" in text or "busy" in text))

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS log (
    first_seq  INTEGER PRIMARY KEY,
    last_seq   INTEGER NOT NULL,
    n_replaced INTEGER NOT NULL,
    payload    BLOB NOT NULL
);
"""

#: Per-record outcome codes (stored as bits inside the batch payload).
OUTCOME_APPEND = 0
OUTCOME_REPLACE = 1


def encode_field(value) -> str:
    """One scalar as a type-tagged string (the ``meta``-table codec).

    ``str``/``int``/``float``/``bool``/``None`` and tuples of them
    (nested too) round-trip as the same type — ``"1"`` and ``1`` stay
    distinct, and a tuple label stays hashable — with a JSON fallback
    for other containers.  Numpy scalars are unwrapped (``np.int64(3)``
    hashes equal to ``3``, so the stream cannot tell them apart
    anyway).
    """
    if item := getattr(value, "item", None):
        value = item()
    if isinstance(value, str):
        return "s" + value
    if isinstance(value, bool):
        return "b1" if value else "b0"
    if isinstance(value, int):
        return "i%d" % value
    if isinstance(value, float):
        return "f" + repr(value)
    if value is None:
        return "n"
    if isinstance(value, tuple):
        return "t" + json.dumps([encode_field(item) for item in value])
    try:
        return "j" + json.dumps(value)
    except (TypeError, ValueError) as exc:
        raise StoreError(
            f"cannot log answer field {value!r} of type "
            f"{type(value).__name__}: not JSON-serialisable"
        ) from exc


def decode_field(text: str):
    """Invert :func:`encode_field`."""
    tag, body = text[:1], text[1:]
    if tag == "s":
        return body
    if tag == "i":
        return int(body)
    if tag == "f":
        return float(body)
    if tag == "b":
        return body == "1"
    if tag == "n":
        return None
    if tag == "t":
        return tuple(map(decode_field, json.loads(body)))
    if tag == "j":
        return json.loads(body)
    raise StoreError(f"corrupt log field {text!r}: unknown type tag")


class AnswerLog:
    """The log + meta tables over an open SQLite connection.

    The connection is owned by the enclosing
    :class:`~repro.store.store.AnswerStore` (one database file holds
    the log, the meta table and the snapshots); the log only issues
    statements on it.
    """

    def __init__(self, conn: sqlite3.Connection) -> None:
        self._conn = conn
        conn.executescript(_SCHEMA)
        conn.commit()

    # -- meta ----------------------------------------------------------
    def read_meta(self) -> dict:
        """All meta keys (empty dict for a virgin store)."""
        rows = self._conn.execute("SELECT key, value FROM meta").fetchall()
        return {key: json.loads(value) for key, value in rows}

    def write_meta(self, meta: dict) -> None:
        """Insert-or-replace the given meta keys (one transaction)."""
        self._conn.executemany(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            [(key, json.dumps(value)) for key, value in meta.items()],
        )
        self._conn.commit()

    # -- writing -------------------------------------------------------
    def append_batch(self, tasks: Sequence[int], workers: Sequence[int],
                     values: Sequence, outcomes: Sequence[int],
                     new_ids: tuple[Sequence, Sequence, Sequence], *,
                     version: int) -> None:
        """Durably append one acknowledged batch (one transaction).

        The batch comes as columns, one entry per record: task and
        worker indices, label codes (integers) or numeric values
        (floats), and outcomes (``OUTCOME_REPLACE`` where the record
        overwrote an earlier answer in place).  ``new_ids`` is
        ``(task_ids, worker_ids, labels)``: what the stream's tables
        gained since its previous logged batch, as the original objects
        in index order.  ``version`` is the stream's version counter
        *after* the batch; the records occupy the consecutive ``seq``
        values ending there.  The commit is all-or-nothing: on failure
        the caller rolls the in-memory stream back too, so memory and
        log never diverge.
        """
        n = len(tasks)
        for name, column in (("workers", workers), ("values", values),
                             ("outcomes", outcomes)):
            if len(column) != n:
                raise StoreError(
                    f"batch has {n} records but {len(column)} {name}"
                )
        if n == 0:
            return
        replaced = np.asarray(outcomes, dtype=bool)
        try:
            payload = pickle.dumps(
                (_narrow(tasks), _narrow(workers), _narrow(values),
                 np.packbits(replaced), tuple(map(list, new_ids))),
                protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise StoreError(
                f"cannot log a batch at seq {version}: {exc}"
            ) from exc
        plan = _faults.get_plan()
        backoff = _faults.Backoff()
        for attempt in range(COMMIT_RETRIES + 1):
            try:
                if plan is not None and plan.on_commit():
                    raise sqlite3.OperationalError(
                        "database is locked (injected commit fault)")
                with self._conn:  # one transaction per batch
                    self._conn.execute(
                        "INSERT INTO log "
                        "(first_seq, last_seq, n_replaced, payload) "
                        "VALUES (?, ?, ?, ?)",
                        (version - n + 1, version,
                         int(np.count_nonzero(replaced)), payload))
            except sqlite3.Error as exc:
                if _is_transient(exc) and attempt < COMMIT_RETRIES:
                    backoff.sleep(attempt)
                    continue
                raise StoreError(
                    f"failed to commit a {n}-record batch at seq "
                    f"{version}: {exc}"
                ) from exc
            return

    # -- reading -------------------------------------------------------
    @property
    def last_seq(self) -> int:
        """Sequence number of the newest committed record (0 if none)."""
        row = self._conn.execute("SELECT MAX(last_seq) FROM log").fetchone()
        return int(row[0] or 0)

    def __len__(self) -> int:
        """Committed answer records (not batches)."""
        row = self._conn.execute(
            "SELECT SUM(last_seq - first_seq + 1) FROM log").fetchone()
        return int(row[0] or 0)

    @property
    def replace_count(self) -> int:
        """Logged in-place replacements (the replay verification key)."""
        row = self._conn.execute(
            "SELECT SUM(n_replaced) FROM log").fetchone()
        return int(row[0] or 0)

    def _batches(self) -> Iterator[tuple]:
        """``(first_seq, tasks, workers, values, new_ids)`` per batch,
        in seq order."""
        cursor = self._conn.execute(
            "SELECT first_seq, last_seq, payload FROM log "
            "ORDER BY first_seq")
        for first_seq, last_seq, blob in cursor:
            try:
                tasks, workers, values, _, new_ids = pickle.loads(blob)
                sizes = {len(tasks), len(workers), len(values)}
            except Exception as exc:
                raise StoreError(
                    f"corrupt log batch at seq {first_seq}: {exc}"
                ) from exc
            if sizes != {last_seq - first_seq + 1}:
                raise StoreError(
                    f"log batch at seq {first_seq} holds "
                    f"{len(tasks)} records for seq range "
                    f"{first_seq}..{last_seq}"
                )
            yield first_seq, tasks, workers, values, new_ids

    def replay(self, chunk_size: int = 65536) -> Iterator[list[tuple]]:
        """Logged ``(task, worker, value)`` records in ``seq`` order.

        Yielded in chunks ready for ``add_answers``; chunk boundaries
        need not respect the original batch boundaries — every logged
        record was acknowledged, so replay atomicity is per-log, not
        per-batch.  Ids and labels come back as the objects the stream
        registered; numeric values as floats.
        """
        task_ids: list = []
        worker_ids: list = []
        labels: list = []
        chunk: list[tuple] = []
        for first_seq, tasks, workers, values, new_ids in self._batches():
            for table, new in zip((task_ids, worker_ids, labels), new_ids):
                table.extend(new)
            coded = values.dtype.kind != "f"
            checks = [(tasks, task_ids, "task"),
                      (workers, worker_ids, "worker")]
            if coded:
                checks.append((values, labels, "label"))
            for column, table, what in checks:
                if column.size and (column.min() < 0
                                    or column.max() >= len(table)):
                    raise StoreError(
                        f"log batch at seq {first_seq} refers to a {what} "
                        f"outside the log's {len(table)} {what}s"
                    )
            start, n = 0, len(tasks)
            while start < n:
                stop = min(n, start + chunk_size - len(chunk))
                column = values[start:stop].tolist()
                chunk.extend(zip(
                    map(task_ids.__getitem__, tasks[start:stop].tolist()),
                    map(worker_ids.__getitem__,
                        workers[start:stop].tolist()),
                    map(labels.__getitem__, column) if coded else column))
                start = stop
                if len(chunk) == chunk_size:
                    yield chunk
                    chunk = []
        if chunk:
            yield chunk


def _narrow(column: Sequence) -> np.ndarray:
    """An index or code column in the narrowest unsigned type that
    holds it (``uint16`` indices for up to 65,536 ids, ``uint8`` codes
    for up to 256 labels); a float column as it is."""
    column = np.asarray(column)
    if column.dtype.kind in "iu":
        return column.astype(np.min_scalar_type(int(column.max())))
    return column
