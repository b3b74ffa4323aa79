"""Task-range sharding of answer sets (the map-reduce layout).

Truth-inference EM is embarrassingly decomposable over tasks: the E-step
of every surveyed method updates each task's posterior from that task's
answers alone, and the M-step reduces per-answer statistics into global
worker parameters.  This module provides the storage layout that makes
the decomposition mechanical:

* :class:`AnswerShard` — a zero-copy view over a contiguous *task range*
  ``[task_start, task_stop)`` of an answer set.  Task, worker and label
  indices remain **global**: a shard never renumbers anything, so
  per-shard posterior blocks concatenate directly into the global
  posterior and per-shard worker statistics merge by plain addition.
* :class:`ShardedAnswerSet` — the partitioner: an answer set
  re-ordered (stably) by task plus the list of shards covering it, cut
  answer-balanced so skewed task sizes still give even shard work.
  With ``n_shards=1`` the original arrays are used as-is, unsorted —
  the single-shard path is *the* plain path, bit-for-bit.

The stable sort keeps each task's answers in their original arrival
order, which is what lets sharded E-steps reproduce the unsharded
per-task accumulation order exactly (see :mod:`repro.inference.segops`).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..exceptions import InvalidAnswerSetError
from .answers import AnswerSet
from .framework import radix_argsort


class AnswerShard:
    """A contiguous task-range view over (possibly re-ordered) answers.

    Parameters
    ----------
    tasks, workers, values:
        Flat answer arrays (typically slices of a task-sorted answer
        set).  All task indices must lie in ``[task_start, task_stop)``;
        worker indices and label codes are global.
    task_start, task_stop:
        The global task range this shard owns.  Every task in the range
        belongs to this shard, even tasks that received no answers.
    n_tasks, n_workers, n_choices:
        Global sizes, identical across all shards of an answer set.
    index:
        Position of this shard within its :class:`ShardedAnswerSet`
        (used as a cache key by per-shard operators).
    """

    __slots__ = ("tasks", "workers", "values", "task_start", "task_stop",
                 "n_tasks", "n_workers", "n_choices", "index",
                 "_local_tasks")

    def __init__(self, tasks: np.ndarray, workers: np.ndarray,
                 values: np.ndarray, task_start: int, task_stop: int,
                 n_tasks: int, n_workers: int, n_choices: int,
                 index: int = 0) -> None:
        if not 0 <= task_start <= task_stop <= n_tasks:
            raise InvalidAnswerSetError(
                f"shard task range [{task_start}, {task_stop}) outside "
                f"[0, {n_tasks})"
            )
        self.tasks = tasks
        self.workers = workers
        self.values = values
        self.task_start = int(task_start)
        self.task_stop = int(task_stop)
        self.n_tasks = int(n_tasks)
        self.n_workers = int(n_workers)
        self.n_choices = int(n_choices)
        self.index = int(index)
        self._local_tasks: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def n_local_tasks(self) -> int:
        """Number of tasks this shard owns (``task_stop - task_start``)."""
        return self.task_stop - self.task_start

    @property
    def n_answers(self) -> int:
        return len(self.tasks)

    @property
    def local_tasks(self) -> np.ndarray:
        """Task indices rebased to the shard (``tasks - task_start``)."""
        if self._local_tasks is None:
            if self.task_start == 0:
                self._local_tasks = self.tasks
            else:
                self._local_tasks = self.tasks - self.task_start
        return self._local_tasks

    def __len__(self) -> int:
        return self.n_answers

    def __repr__(self) -> str:
        return (
            f"AnswerShard(tasks=[{self.task_start}, {self.task_stop}), "
            f"answers={self.n_answers})"
        )


class ShardedAnswerSet:
    """An answer set partitioned into contiguous task-range shards.

    ``n_shards=1`` keeps the original flat arrays untouched (no sort, no
    copy): the one shard *is* the plain answer set, so single-shard EM
    reduces to the unsharded computation bit-for-bit.  With more shards
    the answers are stably sorted by task once, and each shard is a
    zero-copy slice of the sorted arrays.

    Shard task ranges are contiguous, disjoint, and cover ``[0,
    n_tasks)`` in order, so per-shard posterior blocks reassemble into
    the global posterior with a single concatenation.

    A request for more shards than there are tasks is **clamped
    deterministically** to the task count (every shard owns at least
    one task; an answer set with fewer tasks than requested shards
    simply gets fewer, never-empty ranges).  The requested value is
    kept in :attr:`requested_shards`.

    ``task_cuts`` pins the shard boundaries instead of computing
    answer-balanced ones — what a *delta* refit needs so its cached
    per-shard state stays aligned across fits (the cuts must start at
    0, be non-decreasing, and end at ``n_tasks``; the clamp does not
    apply).
    """

    def __init__(self, answers: AnswerSet, n_shards: int,
                 task_cuts: list[int] | None = None) -> None:
        if n_shards < 1:
            raise InvalidAnswerSetError(
                f"n_shards must be >= 1, got {n_shards}"
            )
        self.answers = answers
        #: The caller's shard count, before the task-count clamp.
        self.requested_shards = int(n_shards)
        if task_cuts is not None:
            task_cuts = [int(c) for c in task_cuts]
            if (len(task_cuts) < 2 or task_cuts[0] != 0
                    or task_cuts[-1] != answers.n_tasks
                    or any(a > b for a, b in zip(task_cuts, task_cuts[1:]))):
                raise InvalidAnswerSetError(
                    f"pinned task_cuts must run 0..{answers.n_tasks} "
                    f"non-decreasingly, got {task_cuts}"
                )
            n_shards = len(task_cuts) - 1
        else:
            n_shards = max(1, min(int(n_shards), answers.n_tasks))
        self.n_shards = n_shards

        values = answers.values
        if answers.task_type.is_categorical:
            values = values.astype(np.int64, copy=False)

        if n_shards == 1:
            # Pinned or not, one shard is the original arrays untouched
            # (the plain-path invariant — bit-for-bit the unsharded EM).
            self.order = None
            tasks, workers = answers.tasks, answers.workers
            bounds = [0, answers.n_answers]
            task_cuts = [0, answers.n_tasks]
        else:
            self.order = radix_argsort(answers.tasks)
            tasks = answers.tasks[self.order]
            workers = answers.workers[self.order]
            values = values[self.order]
            if task_cuts is None:
                task_cuts = self._task_cuts(tasks, answers.n_tasks,
                                            n_shards)
            bounds = list(np.searchsorted(tasks, task_cuts, side="left"))

        # The flat (task-sorted) arrays every shard is a slice of; the
        # process runner copies these straight into shared memory.
        self.flat_tasks = tasks
        self.flat_workers = workers
        self.flat_values = values

        self.shards: list[AnswerShard] = []
        for k in range(self.n_shards):
            lo, hi = bounds[k], bounds[k + 1]
            self.shards.append(AnswerShard(
                tasks=tasks[lo:hi],
                workers=workers[lo:hi],
                values=values[lo:hi],
                task_start=task_cuts[k],
                task_stop=task_cuts[k + 1],
                n_tasks=answers.n_tasks,
                n_workers=answers.n_workers,
                n_choices=answers.n_choices,
                index=k,
            ))

    @staticmethod
    def _task_cuts(sorted_tasks: np.ndarray, n_tasks: int,
                   n_shards: int) -> list[int]:
        """Task-range boundaries balancing *answers*, not task counts.

        Interior cuts are placed at the task owning the ``k/n``-th
        answer quantile (so heavy tasks don't overload one shard), made
        non-decreasing, and clamped so every shard gets a valid —
        possibly empty — range.  Falls back to an even task split when
        there are no answers.
        """
        n_answers = len(sorted_tasks)
        cuts = [0]
        for k in range(1, n_shards):
            if n_answers:
                cut = int(sorted_tasks[(k * n_answers) // n_shards])
            else:
                cut = (k * n_tasks) // n_shards
            cuts.append(max(cut, cuts[-1]))
        cuts.append(n_tasks)
        return [min(c, n_tasks) for c in cuts]

    @property
    def task_ranges(self) -> list[tuple[int, int]]:
        """Global ``(task_start, task_stop)`` of every shard, in order."""
        return [(s.task_start, s.task_stop) for s in self.shards]

    def __len__(self) -> int:
        return self.n_shards

    def __iter__(self) -> Iterator[AnswerShard]:
        return iter(self.shards)

    def __getitem__(self, k: int) -> AnswerShard:
        return self.shards[k]

    def __repr__(self) -> str:
        return (
            f"ShardedAnswerSet(n_shards={self.n_shards}, "
            f"answers={self.answers.n_answers}, "
            f"tasks={self.answers.n_tasks})"
        )
