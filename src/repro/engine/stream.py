"""Append-only answer stream emitting cheap immutable snapshots.

:class:`StreamingAnswerSet` is the mutable companion of
:class:`~repro.core.answers.AnswerSet`.  It absorbs ``(task, worker,
value)`` triples one batch at a time — new tasks, new workers and new
labels are indexed *in order of first appearance*, so every index that
was valid in an earlier snapshot refers to the same entity in every
later one (the append-only guarantee warm starts rely on).  Index and
label tables are maintained incrementally: emitting a snapshot never
re-scans or re-indexes previously ingested answers, it only materialises
the accumulated arrays into a read-only :class:`AnswerSet`.

Duplicate ``(task, worker)`` pairs are governed by ``on_duplicate``:

* ``"keep"`` (default) — every answer is kept, matching
  :meth:`AnswerSet.from_records`, which also allows repeated pairs;
* ``"replace"`` — the newest answer overwrites the previous one
  in place (the stream does not grow);
* ``"error"`` — a repeated pair raises :class:`InvalidAnswerSetError`.

Snapshots are cached per stream version, so calling :meth:`snapshot`
repeatedly without intervening appends is free.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..core.answers import AnswerSet
from ..core.tasktypes import TaskType, validate_n_choices
from ..exceptions import EngineError, InvalidAnswerSetError

_DUPLICATE_POLICIES = ("keep", "replace", "error")


class StreamingAnswerSet:
    """Append-only ``(task, worker, value)`` buffer with cheap snapshots.

    Parameters
    ----------
    task_type:
        One of :class:`~repro.core.tasktypes.TaskType`.
    n_choices:
        Optional fixed choice count for single-choice tasks.  When
        omitted it follows the discovered label set (growing it as new
        labels arrive — note that a grown label space invalidates warm
        starts, so fix it up front when you can).
    label_order:
        Optional fixed label-code mapping for categorical values (e.g.
        ``['F', 'T']``).  When given, unseen labels are rejected; when
        omitted, labels are indexed in order of first appearance.
    on_duplicate:
        Policy for repeated ``(task, worker)`` pairs; see module
        docstring.
    """

    def __init__(
        self,
        task_type: TaskType,
        n_choices: int | None = None,
        label_order: Sequence | None = None,
        on_duplicate: str = "keep",
    ) -> None:
        if on_duplicate not in _DUPLICATE_POLICIES:
            raise EngineError(
                f"on_duplicate must be one of {_DUPLICATE_POLICIES}, "
                f"got {on_duplicate!r}"
            )
        if label_order is not None and not task_type.is_categorical:
            raise InvalidAnswerSetError(
                "label_order only applies to categorical task types"
            )
        self.task_type = task_type
        self.on_duplicate = on_duplicate
        if task_type is TaskType.DECISION_MAKING and n_choices is None:
            # The choice space is inherently fixed at 2; pinning it here
            # makes a 3rd distinct label fail at ingestion instead of
            # poisoning every later snapshot of the append-only stream.
            n_choices = 2
        self._fixed_choices = n_choices
        self._fixed_labels = label_order is not None
        self._label_index: dict = {}
        if label_order is not None:
            for label in label_order:
                if label in self._label_index:
                    raise InvalidAnswerSetError(
                        f"duplicate label {label!r} in label_order"
                    )
                self._label_index[label] = len(self._label_index)
        if task_type.is_categorical:
            # Validate the fixed choice count once up front (and let
            # decision-making default to 2 even with no labels yet).
            validate_n_choices(task_type, n_choices if n_choices is not None
                               else max(len(self._label_index), 2))
            if (self._fixed_choices is not None
                    and len(self._label_index) > self._fixed_choices):
                raise InvalidAnswerSetError(
                    f"label_order has {len(self._label_index)} labels but "
                    f"n_choices is fixed at {self._fixed_choices}"
                )

        self._task_index: dict = {}
        self._worker_index: dict = {}
        self._task_labels: list[str] = []
        self._worker_labels: list[str] = []
        self._tasks: list[int] = []
        self._workers: list[int] = []
        self._values: list = []
        self._pair_slot: dict[tuple[int, int], int] = {}
        self._version = 0
        self._replacements = 0
        self._snapshot_cache: tuple[int, AnswerSet] | None = None
        # Materialised mirror of the answer lists (tasks/workers/values
        # buffers + how many entries are in sync): snapshots convert
        # only the tail appended since the previous snapshot instead of
        # re-converting the whole history.
        self._mat: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._mat_len = 0
        self._log = None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def add_answer(self, task, worker, value) -> None:
        """Absorb a single ``(task, worker, value)`` triple.

        Delegates to :meth:`add_answers` so a rejected triple rolls back
        completely (e.g. a new label discovered by a duplicate answer
        that ``on_duplicate="error"`` then rejects).
        """
        self.add_answers([(task, worker, value)])

    def attach_log(self, log) -> None:
        """Write every *subsequent* batch through to a durable log.

        ``log`` is an :class:`~repro.store.log.AnswerLog` (anything
        with its ``append_batch`` signature works).  Acknowledgement
        becomes transactional across memory and log: a batch whose log
        commit fails is rolled back in memory too, so callers never see
        a batch that is applied in one place but not the other.
        ``attach_log(None)`` detaches (recovery replays with the log
        detached so replayed records are not re-appended).
        """
        self._log = log

    def add_answers(self, records: Iterable[tuple]) -> int:
        """Absorb a batch of triples atomically; returns the count.

        All-or-nothing: if any record is rejected (unknown label,
        duplicate under ``on_duplicate="error"``, non-finite numeric)
        the stream is rolled back to its state before the call and the
        error re-raised, so callers never observe a half-applied batch.
        With a log attached (:meth:`attach_log`), the batch is also
        written through — and durably committed — before this method
        returns; a failed commit rolls the in-memory batch back and
        re-raises, keeping memory and log in lockstep.
        """
        mark = (len(self._tasks), self._version, self._replacements,
                len(self._task_index), len(self._worker_index),
                len(self._label_index))
        overwritten: list[tuple[int, object]] = []
        log = self._log
        applied: list[tuple] | None = [] if log is not None else None
        outcomes: list[int] | None = [] if log is not None else None
        count = 0
        try:
            for task, worker, value in records:
                replaced = self._ingest(task, worker, value)
                if replaced is not None:
                    overwritten.append(replaced)
                if applied is not None:
                    applied.append((task, worker, value))
                    outcomes.append(1 if replaced is not None else 0)
                count += 1
        except Exception:
            self._rollback(mark, overwritten)
            raise
        if log is not None and count:
            try:
                log.append_batch(applied, outcomes,
                                 version=self._version,
                                 replacements=self._replacements)
            except Exception:
                self._rollback(mark, overwritten)
                raise
        return count

    def _ingest(self, task, worker, value) -> tuple[int, object] | None:
        """Apply one triple; returns ``(slot, old_value)`` on an
        in-place replacement, ``None`` on an append."""
        coded = self._encode_value(value)
        task_idx = self._task_index.get(task)
        if task_idx is None:
            task_idx = self._task_index[task] = len(self._task_index)
            self._task_labels.append(str(task))
        worker_idx = self._worker_index.get(worker)
        if worker_idx is None:
            worker_idx = self._worker_index[worker] = len(self._worker_index)
            self._worker_labels.append(str(worker))

        # The pair table only exists to detect duplicates; the default
        # "keep" policy never consults it, so skip the per-answer dict
        # cost (one tuple entry per unique pair) entirely.
        if self.on_duplicate != "keep":
            pair = (task_idx, worker_idx)
            slot = self._pair_slot.get(pair)
            if slot is not None:
                if self.on_duplicate == "error":
                    raise InvalidAnswerSetError(
                        f"duplicate answer for task {task!r} by worker "
                        f"{worker!r}"
                    )
                old = self._values[slot]
                self._values[slot] = coded
                if self._mat is not None and slot < self._mat_len:
                    self._mat[2][slot] = coded
                self._version += 1
                self._replacements += 1
                # The cached snapshot predates this in-place mutation;
                # drop it explicitly rather than relying on the version
                # key alone, so replace-after-snapshot can never serve
                # the overwritten value.
                self._snapshot_cache = None
                return (slot, old)
            self._pair_slot[pair] = len(self._tasks)
        self._tasks.append(task_idx)
        self._workers.append(worker_idx)
        self._values.append(coded)
        self._version += 1
        return None

    def _rollback(self, mark: tuple, overwritten: list) -> None:
        """Undo a partially applied batch (see :meth:`add_answers`)."""
        n_answers, version, replacements, n_tasks, n_workers, n_labels = mark
        self._mat_len = min(self._mat_len, n_answers)
        for slot, old in reversed(overwritten):
            self._values[slot] = old
            if self._mat is not None and slot < self._mat_len:
                self._mat[2][slot] = old
        for pair in [p for p, s in self._pair_slot.items() if s >= n_answers]:
            del self._pair_slot[pair]
        del self._tasks[n_answers:]
        del self._workers[n_answers:]
        del self._values[n_answers:]
        # Index dicts are insertion-ordered: drop the newest entries.
        for key in list(reversed(self._task_index))[
                : len(self._task_index) - n_tasks]:
            del self._task_index[key]
        for key in list(reversed(self._worker_index))[
                : len(self._worker_index) - n_workers]:
            del self._worker_index[key]
        for key in list(reversed(self._label_index))[
                : len(self._label_index) - n_labels]:
            del self._label_index[key]
        del self._task_labels[n_tasks:]
        del self._worker_labels[n_workers:]
        self._version = version
        self._replacements = replacements

    def _encode_value(self, value):
        if not self.task_type.is_categorical:
            value = float(value)
            if not np.isfinite(value):
                raise InvalidAnswerSetError("numeric answers must be finite")
            return value
        code = self._label_index.get(value)
        if code is None:
            if self._fixed_labels:
                raise InvalidAnswerSetError(
                    f"answer label {value!r} not in the fixed label_order "
                    f"{list(self._label_index)}"
                )
            code = len(self._label_index)
            if (self._fixed_choices is not None
                    and code >= self._fixed_choices):
                raise InvalidAnswerSetError(
                    f"label {value!r} would be choice #{code + 1} but "
                    f"n_choices is fixed at {self._fixed_choices}"
                )
            self._label_index[value] = code
        return code

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonically increasing change counter."""
        return self._version

    @property
    def replacements(self) -> int:
        """In-place overwrites so far (``on_duplicate="replace"``).

        While this counter is unchanged the stream has only *grown*
        since any earlier snapshot — the precondition warm starts rely
        on.  A bump means some previously snapshotted answer was
        contradicted in place.
        """
        return self._replacements

    @property
    def n_answers(self) -> int:
        return len(self._tasks)

    @property
    def n_tasks(self) -> int:
        return len(self._task_index)

    @property
    def n_workers(self) -> int:
        return len(self._worker_index)

    @property
    def n_choices(self) -> int:
        """The choice count a snapshot taken now would carry."""
        if not self.task_type.is_categorical:
            return 0
        if self.task_type is TaskType.DECISION_MAKING:
            return 2
        if self._fixed_choices is not None:
            return self._fixed_choices
        return max(len(self._label_index), 2)

    @property
    def labels(self) -> list:
        """Label values in code order (categorical streams)."""
        return list(self._label_index)

    def __len__(self) -> int:
        return self.n_answers

    def __repr__(self) -> str:
        return (
            f"StreamingAnswerSet(type={self.task_type.value}, "
            f"tasks={self.n_tasks}, workers={self.n_workers}, "
            f"answers={self.n_answers}, version={self._version})"
        )

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> AnswerSet:
        """Materialise the current state as an immutable answer set.

        The task/worker/label index tables accumulated so far are reused
        directly, and the flat answer arrays are materialised
        *incrementally*: only the tail appended since the previous
        snapshot is converted from the ingestion lists, then the mirror
        buffers are copied out (a memcpy, so no snapshot can alias a
        later in-place replacement).  The result is cached until the
        next append.
        """
        if (self._snapshot_cache is not None
                and self._snapshot_cache[0] == self._version):
            return self._snapshot_cache[1]
        n = self.n_answers
        n_choices = self.n_choices if self.task_type.is_categorical else None
        if self._mat is None or len(self._mat[0]) < n:
            cap = max(n, 2 * (len(self._mat[0]) if self._mat else 0), 1024)
            vdtype = (np.int64 if self.task_type.is_categorical
                      else np.float64)
            grown = (np.empty(cap, dtype=np.int64),
                     np.empty(cap, dtype=np.int64),
                     np.empty(cap, dtype=vdtype))
            if self._mat is not None and self._mat_len:
                for new, old in zip(grown, self._mat):
                    new[:self._mat_len] = old[:self._mat_len]
            self._mat = grown
        m = self._mat_len
        if m < n:
            self._mat[0][m:n] = self._tasks[m:n]
            self._mat[1][m:n] = self._workers[m:n]
            self._mat[2][m:n] = self._values[m:n]
            self._mat_len = n
        snap = AnswerSet(
            task_indices=self._mat[0][:n].copy(),
            worker_indices=self._mat[1][:n].copy(),
            values=self._mat[2][:n].copy(),
            task_type=self.task_type,
            n_choices=n_choices,
            n_tasks=self.n_tasks,
            n_workers=self.n_workers,
            task_labels=list(self._task_labels),
            worker_labels=list(self._worker_labels),
        )
        self._snapshot_cache = (self._version, snap)
        return snap

    def decode_values(self, codes) -> list:
        """Map fitted truths back to external values, in order.

        Categorical label codes index the label table in one pass; a
        code outside it (negative ones included) raises
        :class:`InvalidAnswerSetError`.  Numeric truths come back as
        floats.
        """
        if not self.task_type.is_categorical:
            return np.asarray(codes, dtype=np.float64).tolist()
        labels = self.labels
        codes = np.asarray(codes).astype(np.int64, copy=False)
        if codes.size and (codes.min() < 0 or codes.max() >= len(labels)):
            bad = codes[(codes < 0) | (codes >= len(labels))]
            raise InvalidAnswerSetError(f"unknown label code {bad[0]}")
        # Not np.asarray(labels, dtype=object)[codes]: tuple labels
        # would turn that table into a 2-D array.
        return list(map(labels.__getitem__, codes.tolist()))

    # ------------------------------------------------------------------
    @classmethod
    def from_answer_set(cls, answers: AnswerSet,
                        on_duplicate: str = "keep") -> "StreamingAnswerSet":
        """Seed a stream from an existing answer set.

        Label codes are preserved verbatim (``label_order`` is the code
        range), so snapshots remain value-compatible with ``answers``.
        """
        stream = cls(
            task_type=answers.task_type,
            n_choices=answers.n_choices or None,
            label_order=(list(range(answers.n_choices))
                         if answers.task_type.is_categorical else None),
            on_duplicate=on_duplicate,
        )
        task_ids = (answers.task_labels if answers.task_labels is not None
                    else list(range(answers.n_tasks)))
        worker_ids = (answers.worker_labels if answers.worker_labels is not None
                      else list(range(answers.n_workers)))
        # Register every task/worker up front so entities without answers
        # keep their index positions.
        for task in task_ids:
            stream._task_index[task] = len(stream._task_index)
            stream._task_labels.append(str(task))
        for worker in worker_ids:
            stream._worker_index[worker] = len(stream._worker_index)
            stream._worker_labels.append(str(worker))
        stream.add_answers(answers.iter_records())
        return stream
