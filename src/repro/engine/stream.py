"""Append-only answer stream emitting cheap immutable snapshots.

:class:`StreamingAnswerSet` is the mutable companion of
:class:`~repro.core.answers.AnswerSet`.  It absorbs ``(task, worker,
value)`` triples one batch at a time — new tasks, new workers and new
labels are indexed *in order of first appearance*, so every index that
was valid in an earlier snapshot refers to the same entity in every
later one (the append-only guarantee warm starts rely on).

A batch is the unit of ingest: it is split into columns, ids, labels
and pair keys are looked up with C-level ``map`` over the index dicts,
and numpy does the rest (finiteness checks, duplicate resolution).
The answers themselves live in three numpy buffers that grow by
doubling — task indices, worker indices and label codes (all int64) or
numeric values (float64) — so emitting a snapshot never re-scans or
re-indexes earlier answers: it copies the live prefix of each buffer
into a read-only :class:`AnswerSet`.

Duplicate ``(task, worker)`` pairs are governed by ``on_duplicate``:

* ``"keep"`` (default) — every answer is kept, matching
  :meth:`AnswerSet.from_records`, which also allows repeated pairs;
* ``"replace"`` — the newest answer overwrites the previous one
  in place (the stream does not grow);
* ``"error"`` — a repeated pair raises :class:`InvalidAnswerSetError`.

``"replace"`` and ``"error"`` find a pair's answer slot in a pair
index (:class:`_PairIndex`): sorted int64 pair keys with a parallel
int64 slot array, 16 bytes per pair.  It is kept as two runs, a main
run and a recent one; a batch's new pairs merge into the recent run,
which merges into the main run once it holds more than an eighth of
it (and more than 4,096 pairs), so a batch copies the main run only at
such a merge.  A batch is looked up with one ``np.searchsorted`` per
run.  The index is written only after the batch is acknowledged (after
the log commit, when a log is attached), so a rejected batch or a
failed commit never touches it.  ``"keep"`` keeps no index.

Snapshots are cached per stream version, so calling :meth:`snapshot`
repeatedly without intervening appends is free.
"""

from __future__ import annotations

from itertools import filterfalse, islice
from typing import Iterable, Sequence

import numpy as np

from ..core.answers import AnswerSet
from ..core.tasktypes import TaskType, validate_n_choices
from ..exceptions import EngineError, InvalidAnswerSetError

_DUPLICATE_POLICIES = ("keep", "replace", "error")

#: A ``(task, worker)`` pair is keyed as one int64, ``task << 32 |
#: worker`` (so up to 2**31 tasks and 2**32 workers).
_PAIR_SHIFT = 32

#: Smallest answer-buffer capacity; buffers double from there.
_MIN_CAPACITY = 1024

#: The pair index's recent run merges into its main run once it holds
#: more than ``max(len(main) // _MERGE_SHARE, _MERGE_MIN)`` pairs.
_MERGE_SHARE = 8
_MERGE_MIN = 4096

#: A pair-index run without pairs; merges build new arrays, so it is
#: never written.
_NO_PAIRS = (np.empty(0, dtype=np.int64),) * 2


class StreamingAnswerSet:
    """Append-only ``(task, worker, value)`` buffer with cheap snapshots.

    The answers are held in growable numpy buffers (int64 task and
    worker indices; int64 label codes or float64 numeric values), the
    stream's only copy of them; ids and labels live in insertion-ordered
    index dicts.  Under ``"replace"`` and ``"error"`` a two-run sorted
    pair index (16 bytes per pair, written once a batch is acknowledged)
    maps each ``(task, worker)`` pair to its answer slot; see the
    module docstring.

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
        # The answer buffers; the first ``_n`` entries are live.
        self._n = 0
        self._tasks = np.empty(0, dtype=np.int64)
        self._workers = np.empty(0, dtype=np.int64)
        self._values = np.empty(0, dtype=np.int64 if task_type.is_categorical
                                else np.float64)
        # ``task << 32 | worker`` -> answer slot; "keep" never fills it.
        self._pairs = _PairIndex()
        self._version = 0
        self._replacements = 0
        self._snapshot_cache: tuple[int, AnswerSet] | None = None
        self._log = None
        # Task/worker/label table sizes after the last acknowledged
        # batch: a logged batch carries the entries past them (so the
        # first one also carries a fixed label_order).
        self._acked = (0, 0, 0)

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
        detached so replayed records are not re-appended).  A logged
        batch carries only the ids and labels registered since the
        previous acknowledged batch, so a log must hold the stream's
        whole history: attach it before the first batch, or after
        replaying the log into a fresh stream.
        """
        self._log = log

    def add_answers(self, records: Iterable[tuple]) -> int:
        """Absorb a batch of triples atomically; returns the count.

        All-or-nothing: if any record is rejected (unknown label,
        duplicate under ``on_duplicate="error"``, non-finite numeric)
        the stream is rolled back to its state before the call and the
        error raised, so callers never observe a half-applied batch.
        The error is the one the earliest faulty record raises, checked
        in the order unpack, value, task and worker ids, duplicate.
        With a log attached (:meth:`attach_log`), the batch is also
        written through — and durably committed — before this method
        returns; a failed commit rolls the in-memory batch back and
        re-raises, keeping memory and log in lockstep.
        """
        batch = records if isinstance(records, list) else list(records)
        if not batch:
            return 0
        sizes = self._sizes()
        try:
            tasks, workers, values = self._encode(batch)
        except Exception:
            self._truncate(sizes)
            self._raise_first_fault(batch)
            raise
        try:
            fresh, writes, pairs = self._place(batch, tasks, workers)
        except Exception:
            self._truncate(sizes)
            raise
        mark = (self._n, self._version, self._replacements)
        replaced = self._apply(tasks, workers, values, fresh, writes)
        if self._log is not None:
            try:
                self._log.append_batch(
                    tasks, workers, values,
                    ~fresh if fresh is not None
                    else np.zeros(len(batch), dtype=bool),
                    self._unacked(), version=self._version)
            except Exception:
                if replaced is not None:
                    self._values[replaced[0]] = replaced[1]
                self._n, self._version, self._replacements = mark
                self._truncate(sizes)
                raise
        if pairs is not None:
            self._pairs.add(*pairs)
        self._acked = self._sizes()
        return len(batch)

    def _encode(self, batch: list) -> tuple[np.ndarray, ...]:
        """Task indices, worker indices and codes (or numeric values) of
        a batch, column by column; registers new ids and labels.

        Raises on a faulty record without naming it — that is
        :meth:`_raise_first_fault`'s job.
        """
        n = len(batch)
        columns = tuple(zip(*batch, strict=True))
        if len(columns) != 3:
            raise InvalidAnswerSetError("records are not triples")
        tasks, workers, values = columns
        if self.task_type.is_categorical:
            index = self._label_index
            codes = list(map(index.get, values))
            if None in codes:
                for value in filterfalse(index.__contains__,
                                         dict.fromkeys(values)):
                    self._encode_value(value)
                codes = map(index.__getitem__, values)
            coded = np.fromiter(codes, dtype=np.int64, count=n)
        else:
            coded = np.fromiter(map(float, values), dtype=np.float64,
                                count=n)
            if not np.isfinite(coded).all():
                raise InvalidAnswerSetError("numeric answers must be finite")
        return (_indices(self._task_index, self._task_labels, tasks),
                _indices(self._worker_index, self._worker_labels, workers),
                coded)

    def _place(self, batch: list, tasks: np.ndarray,
               workers: np.ndarray) -> tuple:
        """Where an encoded batch lands: ``(fresh, writes, pairs)``.

        ``pairs`` is what the pair index gains once the batch is
        acknowledged: the keys of the pairs new to the stream, sorted,
        and their answer slots (``None`` under ``"keep"``, which keeps
        no index).  When some record repeats a pair — possible only
        under ``"replace"`` — ``fresh`` marks the records that append
        (the first record of each pair new to the stream) and
        ``writes`` is ``(slots, records)``: per pair, its answer slot
        and the record whose value it ends with, the pair's last.
        Otherwise both are ``None``: every record appends.  Reads only:
        a duplicate under ``"error"`` raises here, naming the earliest
        record at fault, before any write.
        """
        if self.on_duplicate == "keep":
            return None, None, None
        keys = tasks << _PAIR_SHIFT | workers
        order, ordered, starts, found = self._lookup(keys)
        start = self._n
        if starts.all() and not (found >= 0).any():
            return None, None, (ordered, start + order)
        if self.on_duplicate == "error":
            raise _duplicate(batch, order, starts, found)
        new = starts & (found < 0)
        fresh = np.zeros(len(keys), dtype=bool)
        fresh[order[new]] = True
        # Fresh records append in batch order: a record's slot follows
        # the fresh records before it.
        found[new] = start + np.cumsum(fresh)[order[new]] - 1
        ends = np.ones(len(keys), dtype=bool)
        ends[:-1] = starts[1:]
        return fresh, (found[starts], order[ends]), (ordered[new], found[new])

    def _lookup(self, keys: np.ndarray) -> tuple[np.ndarray, ...]:
        """``(order, ordered, starts, found)`` for a batch's pair keys.

        ``order`` is a stable sort of ``keys`` (it lines each pair's
        records up in batch order) and ``ordered`` the sorted keys;
        ``starts`` marks the sorted positions where a pair begins and
        ``found`` holds each sorted key's indexed slot, or -1.
        """
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        starts = np.ones(len(keys), dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
        return order, ordered, starts, self._pairs.find(ordered)

    def _apply(self, tasks, workers, values, fresh, writes):
        """Write a placed batch into the answer buffers.

        Returns ``(slots, old_values)`` for the answers it overwrote
        that predate the batch — what a failed commit restores — or
        ``None``.
        """
        n, start = len(tasks), self._n
        if fresh is not None:
            tasks, workers = tasks[fresh], workers[fresh]
        stop = start + len(tasks)
        self._reserve(stop)
        self._tasks[start:stop] = tasks
        self._workers[start:stop] = workers
        replaced = None
        if writes is None:
            self._values[start:stop] = values
        else:
            slots, last = writes
            older = slots[slots < start]
            replaced = (older, self._values[older])
            self._values[slots] = values[last]
            self._replacements += n - (stop - start)
            self._snapshot_cache = None
        self._n = stop
        self._version += n
        return replaced

    def _reserve(self, size: int) -> None:
        """Grow the answer buffers (by doubling) to hold ``size``."""
        capacity = len(self._tasks)
        if size <= capacity:
            return
        capacity = max(size, 2 * capacity, _MIN_CAPACITY)
        live = self._n
        grown = []
        for old in (self._tasks, self._workers, self._values):
            new = np.empty(capacity, dtype=old.dtype)
            new[:live] = old[:live]
            grown.append(new)
        self._tasks, self._workers, self._values = grown

    def _sizes(self) -> tuple[int, int, int]:
        """Task, worker and label table sizes (a rollback mark)."""
        return (len(self._task_index), len(self._worker_index),
                len(self._label_index))

    def _truncate(self, sizes: tuple[int, int, int]) -> None:
        """Drop every table entry registered since ``sizes`` was taken:
        the tables are insertion-ordered, so those are the newest."""
        tables = (self._task_index, self._worker_index, self._label_index)
        for table, size in zip(tables, sizes):
            for _ in range(len(table) - size):
                table.popitem()
        del self._task_labels[sizes[0]:]
        del self._worker_labels[sizes[1]:]

    def _unacked(self) -> tuple[list, list, list]:
        """The ids and labels registered since the last acknowledged
        batch, as the original objects, in index order."""
        return tuple(_tail(table, size) for table, size in zip(
            (self._task_index, self._worker_index, self._label_index),
            self._acked))

    def _raise_first_fault(self, batch: list) -> None:
        """Raise what the earliest faulty record of a batch that failed
        to encode raises on its own.

        Failure path only: walks the batch one record at a time, in the
        per-record check order (unpack, value, task and worker ids),
        then drops whatever the walk registered.  Under ``"error"`` a
        duplicate among the records before the first encode fault wins;
        their pairs are looked up once, after the walk.  Returns if no
        record is at fault.
        """
        sizes = self._sizes()
        keys: list[int] = []
        try:
            for task, worker, value in batch:
                self._encode_value(value)
                keys.append(
                    _index_of(self._task_index, self._task_labels, task)
                    << _PAIR_SHIFT
                    | _index_of(self._worker_index, self._worker_labels,
                                worker))
        except Exception:
            if self.on_duplicate == "error" and keys:
                order, _, starts, found = self._lookup(
                    np.array(keys, dtype=np.int64))
                if not starts.all() or (found >= 0).any():
                    raise _duplicate(batch, order, starts, found) from None
            raise
        finally:
            self._truncate(sizes)

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
        return self._n

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
        directly and the live prefix of each answer buffer is copied out
        (a memcpy, so no snapshot can alias a later in-place
        replacement).  The result is cached until the next change.
        """
        if (self._snapshot_cache is not None
                and self._snapshot_cache[0] == self._version):
            return self._snapshot_cache[1]
        n = self._n
        snap = AnswerSet(
            task_indices=self._tasks[:n].copy(),
            worker_indices=self._workers[:n].copy(),
            values=self._values[:n].copy(),
            task_type=self.task_type,
            n_choices=(self.n_choices if self.task_type.is_categorical
                       else None),
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


class _PairIndex:
    """Pair key -> answer slot, as sorted int64 keys with a parallel
    int64 slot array (16 bytes per pair), kept in two runs.

    New pairs merge into the recent run; once it holds more than
    ``max(len(main) // _MERGE_SHARE, _MERGE_MIN)`` pairs it merges into
    the main run.  So a batch copies only the recent run, and each copy
    of the main run grows it by more than an eighth.  The runs never
    share a key.
    """

    def __init__(self) -> None:
        #: ``(main, recent)``, each ``(keys, slots)``.
        self._runs = (_NO_PAIRS, _NO_PAIRS)

    def find(self, keys: np.ndarray) -> np.ndarray:
        """Each of the sorted ``keys``' slot, or -1 where unindexed."""
        found = np.full(len(keys), -1, dtype=np.int64)
        for run, slots in self._runs:
            if not len(run):
                continue
            at = np.searchsorted(run, keys)
            np.minimum(at, len(run) - 1, out=at)
            hit = run[at] == keys
            found[hit] = slots[at[hit]]
        return found

    def add(self, keys: np.ndarray, slots: np.ndarray) -> None:
        """Index new pairs: ``keys`` sorted, and in neither run."""
        main, recent = self._runs
        recent = _merge(recent, keys, slots)
        if len(recent[0]) > max(len(main[0]) // _MERGE_SHARE, _MERGE_MIN):
            main, recent = _merge(main, *recent), _NO_PAIRS
        self._runs = (main, recent)


def _merge(run: tuple, keys: np.ndarray, slots: np.ndarray) -> tuple:
    """The run ``(keys, slots)`` with sorted ``keys`` it lacks merged in."""
    at = np.searchsorted(run[0], keys)
    return np.insert(run[0], at, keys), np.insert(run[1], at, slots)


def _duplicate(batch: list, order: np.ndarray, starts: np.ndarray,
               found: np.ndarray) -> InvalidAnswerSetError:
    """The error for the earliest record of ``batch`` whose pair is
    indexed or repeats an earlier record (see :meth:`_lookup
    <StreamingAnswerSet._lookup>` for the arguments)."""
    task, worker, _ = batch[order[~starts | (found >= 0)].min()]
    return InvalidAnswerSetError(
        f"duplicate answer for task {task!r} by worker {worker!r}")


def _indices(index: dict, labels: list, ids: Sequence) -> np.ndarray:
    """The indices of ``ids``, registering unseen ones — and their
    ``str`` labels — in order of first appearance."""
    new = list(filterfalse(index.__contains__, dict.fromkeys(ids)))
    if new:
        index.update(zip(new, range(len(index), len(index) + len(new))))
        labels.extend(map(str, new))
    return np.fromiter(map(index.__getitem__, ids), dtype=np.int64,
                       count=len(ids))


def _index_of(index: dict, labels: list, key) -> int:
    """One id's index, registering it (and its ``str`` label) if unseen:
    :func:`_indices` for a single id, without the array."""
    found = index.get(key)
    if found is None:
        found = index[key] = len(index)
        labels.append(str(key))
    return found


def _tail(table: dict, start: int) -> list:
    """The keys of an insertion-ordered dict from position ``start`` on."""
    tail = list(islice(reversed(table), len(table) - start))
    tail.reverse()
    return tail
