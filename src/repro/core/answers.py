"""Sparse answer-set container (Definitions 2–3 of the paper).

The central data structure of the library: a sparse collection of
``(task, worker, value)`` triples.  Tasks and workers are referenced by
dense integer indices internally; external string identifiers are kept in
lookup tables so that datasets loaded from files round-trip faithfully.

Categorical answers (decision-making / single-choice) are stored as label
indices in ``0 .. n_choices-1``; numeric answers are stored as floats.

The container is immutable after construction.  Operations that "modify"
it — redundancy subsampling, filtering — return new instances.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..exceptions import InvalidAnswerSetError
from .framework import radix_argsort
from .tasktypes import TaskType, validate_n_choices


class AnswerSet:
    """A sparse set of worker answers ``V = {v_i^w}``.

    Parameters
    ----------
    task_indices, worker_indices:
        Parallel integer arrays; entry ``k`` says worker
        ``worker_indices[k]`` answered task ``task_indices[k]``.
    values:
        Parallel array of answers.  Integer label indices for categorical
        task types, floats for numeric tasks.
    task_type:
        One of :class:`~repro.core.tasktypes.TaskType`.
    n_choices:
        Number of candidate choices for single-choice tasks.  Inferred as
        2 for decision-making; ignored for numeric.
    n_tasks, n_workers:
        Optional explicit sizes (useful when some tasks/workers received
        or gave no answers).  Default to ``max index + 1``.
    task_labels, worker_labels:
        Optional external identifiers, parallel to the index spaces.
    """

    def __init__(
        self,
        task_indices: Sequence[int],
        worker_indices: Sequence[int],
        values: Sequence,
        task_type: TaskType,
        n_choices: int | None = None,
        n_tasks: int | None = None,
        n_workers: int | None = None,
        task_labels: Sequence[str] | None = None,
        worker_labels: Sequence[str] | None = None,
    ) -> None:
        tasks = np.asarray(task_indices, dtype=np.int64)
        workers = np.asarray(worker_indices, dtype=np.int64)
        if tasks.ndim != 1 or workers.ndim != 1:
            raise InvalidAnswerSetError("task/worker indices must be 1-D")
        if len(tasks) != len(workers):
            raise InvalidAnswerSetError(
                f"length mismatch: {len(tasks)} tasks vs {len(workers)} workers"
            )

        self.task_type = task_type
        self.n_choices = validate_n_choices(task_type, n_choices)

        if task_type.is_categorical:
            vals = np.asarray(values, dtype=np.int64)
            if len(vals) and (vals.min() < 0 or vals.max() >= self.n_choices):
                raise InvalidAnswerSetError(
                    f"categorical answers must lie in [0, {self.n_choices}), "
                    f"got range [{vals.min()}, {vals.max()}]"
                )
        else:
            vals = np.asarray(values, dtype=np.float64)
            if len(vals) and not np.all(np.isfinite(vals)):
                raise InvalidAnswerSetError("numeric answers must be finite")
        if len(vals) != len(tasks):
            raise InvalidAnswerSetError(
                f"length mismatch: {len(tasks)} indices vs {len(vals)} values"
            )

        if len(tasks) and tasks.min() < 0:
            raise InvalidAnswerSetError("task indices must be non-negative")
        if len(workers) and workers.min() < 0:
            raise InvalidAnswerSetError("worker indices must be non-negative")

        inferred_tasks = int(tasks.max()) + 1 if len(tasks) else 0
        inferred_workers = int(workers.max()) + 1 if len(workers) else 0
        self.n_tasks = int(n_tasks) if n_tasks is not None else inferred_tasks
        self.n_workers = (int(n_workers) if n_workers is not None
                          else inferred_workers)
        if self.n_tasks < inferred_tasks:
            raise InvalidAnswerSetError(
                f"n_tasks={self.n_tasks} smaller than max task "
                f"index {inferred_tasks - 1}"
            )
        if self.n_workers < inferred_workers:
            raise InvalidAnswerSetError(
                f"n_workers={self.n_workers} smaller than max worker index "
                f"{inferred_workers - 1}"
            )

        self.tasks = tasks
        self.workers = workers
        self.values = vals
        self.task_labels = list(task_labels) if task_labels is not None else None
        self.worker_labels = list(worker_labels) if worker_labels is not None else None
        if self.task_labels is not None and len(self.task_labels) != self.n_tasks:
            raise InvalidAnswerSetError("task_labels length must equal n_tasks")
        if self.worker_labels is not None and len(self.worker_labels) != self.n_workers:
            raise InvalidAnswerSetError("worker_labels length must equal n_workers")

        # Lazily-built adjacency caches (CSR-style index lists).
        self._by_task: list[np.ndarray] | None = None
        self._by_worker: list[np.ndarray] | None = None

        # Freeze the underlying arrays: the container is immutable.
        for arr in (self.tasks, self.workers, self.values):
            arr.setflags(write=False)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_records(
        cls,
        records: Iterable[tuple],
        task_type: TaskType,
        n_choices: int | None = None,
        label_order: Sequence | None = None,
    ) -> "AnswerSet":
        """Build an answer set from ``(task_id, worker_id, value)`` triples.

        Task and worker identifiers may be arbitrary hashables; they are
        indexed in order of first appearance.  For categorical task types,
        values may be arbitrary labels: pass ``label_order`` to fix the
        label-index mapping (e.g. ``['F', 'T']``), otherwise labels are
        indexed in sorted order.
        """
        records = list(records)
        task_index: dict = {}
        worker_index: dict = {}
        for task_id, worker_id, _ in records:
            task_index.setdefault(task_id, len(task_index))
            worker_index.setdefault(worker_id, len(worker_index))

        raw_values = [value for _, _, value in records]
        if task_type.is_categorical:
            if label_order is None:
                label_order = sorted(set(raw_values), key=repr)
            label_index = {label: k for k, label in enumerate(label_order)}
            missing = set(raw_values) - set(label_index)
            if missing:
                raise InvalidAnswerSetError(
                    f"answers contain labels not in label_order: "
                    f"{sorted(missing, key=repr)}"
                )
            values: list = [label_index[v] for v in raw_values]
            if n_choices is None and task_type is TaskType.SINGLE_CHOICE:
                n_choices = len(label_order)
        else:
            values = [float(v) for v in raw_values]

        return cls(
            task_indices=[task_index[t] for t, _, _ in records],
            worker_indices=[worker_index[w] for _, w, _ in records],
            values=values,
            task_type=task_type,
            n_choices=n_choices,
            task_labels=[str(t) for t in task_index],
            worker_labels=[str(w) for w in worker_index],
        )

    def iter_records(self, indices: Sequence[int] | None = None):
        """Yield ``(task_id, worker_id, value)`` triples.

        Task/worker identifiers are the external labels when present,
        dense integer indices otherwise; categorical values come back as
        plain ``int`` label codes, numeric values as ``float``.  The
        inverse of :meth:`from_records` (modulo label decoding), and the
        canonical way to replay an answer set into a stream.  Pass
        ``indices`` to yield only those flat answer positions.
        """
        task_ids = (self.task_labels if self.task_labels is not None
                    else list(range(self.n_tasks)))
        worker_ids = (self.worker_labels if self.worker_labels is not None
                      else list(range(self.n_workers)))
        categorical = self.task_type.is_categorical
        positions = range(self.n_answers) if indices is None else indices
        for k in positions:
            value = self.values[k]
            yield (task_ids[self.tasks[k]], worker_ids[self.workers[k]],
                   int(value) if categorical else float(value))

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n_answers(self) -> int:
        """Total number of collected answers ``|V|``."""
        return len(self.values)

    @property
    def redundancy(self) -> float:
        """Average answers per task, ``|V| / n`` (Table 5 column)."""
        if self.n_tasks == 0:
            return 0.0
        return self.n_answers / self.n_tasks

    def __len__(self) -> int:
        return self.n_answers

    def __repr__(self) -> str:
        return (
            f"AnswerSet(type={self.task_type.value}, tasks={self.n_tasks}, "
            f"workers={self.n_workers}, answers={self.n_answers})"
        )

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def _build_adjacency(self) -> None:
        if self._by_task is not None:
            return
        order = radix_argsort(self.tasks)
        boundaries = np.searchsorted(self.tasks[order], np.arange(self.n_tasks + 1))
        self._by_task = [
            order[boundaries[i]:boundaries[i + 1]] for i in range(self.n_tasks)
        ]
        worder = radix_argsort(self.workers)
        wbound = np.searchsorted(self.workers[worder], np.arange(self.n_workers + 1))
        self._by_worker = [
            worder[wbound[w]:wbound[w + 1]] for w in range(self.n_workers)
        ]

    def answers_of_task(self, task: int) -> np.ndarray:
        """Indices (into the flat answer arrays) of answers to ``task``."""
        self._build_adjacency()
        assert self._by_task is not None
        return self._by_task[task]

    def answers_of_worker(self, worker: int) -> np.ndarray:
        """Indices (into the flat answer arrays) of answers by ``worker``."""
        self._build_adjacency()
        assert self._by_worker is not None
        return self._by_worker[worker]

    def workers_of_task(self, task: int) -> np.ndarray:
        """The worker set ``W_i`` for a task (Definition 2)."""
        return self.workers[self.answers_of_task(task)]

    def tasks_of_worker(self, worker: int) -> np.ndarray:
        """The task set ``T^w`` for a worker (Definition 2)."""
        return self.tasks[self.answers_of_worker(worker)]

    def task_answer_counts(self) -> np.ndarray:
        """Number of answers received by each task (length ``n_tasks``)."""
        return np.bincount(self.tasks, minlength=self.n_tasks)

    def worker_answer_counts(self) -> np.ndarray:
        """Number of answers given by each worker, ``|T^w|`` per worker."""
        return np.bincount(self.workers, minlength=self.n_workers)

    # ------------------------------------------------------------------
    # Categorical helpers
    # ------------------------------------------------------------------
    def require_categorical(self) -> None:
        """Raise unless this answer set holds categorical answers."""
        from ..exceptions import TaskTypeMismatchError

        if not self.task_type.is_categorical:
            raise TaskTypeMismatchError(
                "operation requires categorical (decision-making/single-choice) answers"
            )

    def require_numeric(self) -> None:
        """Raise unless this answer set holds numeric answers."""
        from ..exceptions import TaskTypeMismatchError

        if not self.task_type.is_numeric:
            raise TaskTypeMismatchError("operation requires numeric answers")

    def vote_counts(self) -> np.ndarray:
        """Per-task vote counts, shape ``(n_tasks, n_choices)``.

        Entry ``[i, j]`` is the number of workers who chose label ``j``
        for task ``i`` (the ``n_{i,j}`` of Section 6.2.1).
        """
        self.require_categorical()
        counts = np.zeros((self.n_tasks, self.n_choices), dtype=np.float64)
        np.add.at(counts, (self.tasks, self.values.astype(np.int64)), 1.0)
        return counts

    def onehot(self) -> np.ndarray:
        """One-hot encoding of answers, shape ``(n_answers, n_choices)``."""
        self.require_categorical()
        eye = np.eye(self.n_choices)
        return eye[self.values.astype(np.int64)]

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def select(self, answer_mask: np.ndarray) -> "AnswerSet":
        """Return a new answer set containing only the masked answers.

        The task/worker index spaces (and label tables) are preserved so
        that ground truth arrays remain aligned.
        """
        mask = np.asarray(answer_mask)
        if mask.dtype == bool:
            if len(mask) != self.n_answers:
                raise InvalidAnswerSetError("boolean mask length must equal n_answers")
            idx = np.nonzero(mask)[0]
        else:
            idx = mask.astype(np.int64)
        return AnswerSet(
            task_indices=self.tasks[idx],
            worker_indices=self.workers[idx],
            values=self.values[idx],
            task_type=self.task_type,
            n_choices=self.n_choices or None,
            n_tasks=self.n_tasks,
            n_workers=self.n_workers,
            task_labels=self.task_labels,
            worker_labels=self.worker_labels,
        )

    def subsample_redundancy(self, r: int, rng: np.random.Generator) -> "AnswerSet":
        """Keep at most ``r`` randomly chosen answers per task.

        This is the protocol of Section 6.3.1: "for each specific r, we
        randomly select r out of the answers collected for each task".
        Tasks with fewer than ``r`` answers keep all of them.
        """
        if r < 1:
            raise InvalidAnswerSetError(f"redundancy must be >= 1, got {r}")
        keep: list[np.ndarray] = []
        for task in range(self.n_tasks):
            idx = self.answers_of_task(task)
            if len(idx) <= r:
                keep.append(idx)
            else:
                keep.append(rng.choice(idx, size=r, replace=False))
        flat = np.concatenate(keep) if keep else np.empty(0, dtype=np.int64)
        return self.select(np.sort(flat))
