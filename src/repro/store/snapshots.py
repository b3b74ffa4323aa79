"""Fit-state snapshots keyed by log sequence number.

A snapshot is the durable twin of the engine's in-memory per-method
fit cache: the full :class:`~repro.core.result.InferenceResult`
(truths, posterior, worker quality — and, for sharded delta-capable
fits, the :class:`~repro.inference.sharded.ShardState` with its pinned
task cuts), plus the stream coordinates it was fitted at (``seq`` =
stream version, replacement counter, entity counts) and the method
kwargs it was fitted with.

Recovery loads the newest snapshot per method, seeds the engine cache
with it, and replays only the log tail past ``seq`` — so the first
post-recovery refit is *warm* (and, when the shard cuts still align, a
true delta refit), not a cold fit of the whole history.  Rows are
pruned to the newest ``keep`` per method.  A payload is stored as a
plain pickle (everything in it already crosses process boundaries in
the process-tier runtime, so picklability is a given); it is mostly
float arrays, which compression barely shrinks at many times the cost
of the save.
"""

from __future__ import annotations

import pickle
import sqlite3

from ..exceptions import StoreError

__all__ = ["SnapshotStore"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS snapshots (
    method       TEXT NOT NULL,
    seq          INTEGER NOT NULL,
    replacements INTEGER NOT NULL,
    payload      BLOB NOT NULL,
    PRIMARY KEY (method, seq)
);
"""


class SnapshotStore:
    """The snapshots table over the store's SQLite connection."""

    def __init__(self, conn: sqlite3.Connection) -> None:
        self._conn = conn
        conn.executescript(_SCHEMA)
        conn.commit()

    def save(self, method: str, *, seq: int, replacements: int,
             payload: dict, keep: int = 2) -> None:
        """Durably record one fit snapshot and prune old ones."""
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            with self._conn:
                self._conn.execute(
                    "INSERT OR REPLACE INTO snapshots "
                    "(method, seq, replacements, payload) "
                    "VALUES (?, ?, ?, ?)",
                    (method, int(seq), int(replacements), blob))
                self._conn.execute(
                    "DELETE FROM snapshots WHERE method = ? "
                    "AND seq NOT IN (SELECT seq FROM snapshots "
                    "WHERE method = ? ORDER BY seq DESC LIMIT ?)",
                    (method, method, int(keep)))
        except sqlite3.Error as exc:
            raise StoreError(
                f"failed to snapshot {method!r} at seq {seq}: {exc}"
            ) from exc

    def methods(self) -> list[str]:
        """Method names with at least one snapshot."""
        rows = self._conn.execute(
            "SELECT DISTINCT method FROM snapshots ORDER BY method"
        ).fetchall()
        return [row[0] for row in rows]

    def load_latest(self, method: str, *,
                    max_seq: int | None = None) -> tuple | None:
        """The newest usable snapshot: ``(seq, replacements, payload)``.

        ``max_seq`` bounds the search to snapshots at or before a log
        position (a snapshot *ahead* of the replayed log — possible
        only with a corrupt store — must never seed the cache).
        """
        if max_seq is None:
            row = self._conn.execute(
                "SELECT seq, replacements, payload FROM snapshots "
                "WHERE method = ? ORDER BY seq DESC LIMIT 1",
                (method,)).fetchone()
        else:
            row = self._conn.execute(
                "SELECT seq, replacements, payload FROM snapshots "
                "WHERE method = ? AND seq <= ? ORDER BY seq DESC LIMIT 1",
                (method, int(max_seq))).fetchone()
        if row is None:
            return None
        seq, replacements, blob = row
        try:
            payload = pickle.loads(blob)
        except Exception as exc:
            raise StoreError(
                f"corrupt snapshot for {method!r} at seq {seq}: {exc}"
            ) from exc
        return int(seq), int(replacements), payload

    def latest_seq(self, method: str) -> int:
        """Newest snapshot position for ``method`` (0 if none)."""
        row = self._conn.execute(
            "SELECT MAX(seq) FROM snapshots WHERE method = ?",
            (method,)).fetchone()
        return int(row[0] or 0)

    def __len__(self) -> int:
        row = self._conn.execute(
            "SELECT COUNT(*) FROM snapshots").fetchone()
        return int(row[0])
