"""Unit tests for the task-range shard layout."""

import numpy as np
import pytest

from repro.core.answers import AnswerSet
from repro.core.shards import AnswerShard, ShardedAnswerSet
from repro.core.tasktypes import TaskType
from repro.exceptions import InvalidAnswerSetError


def build_answers(n_tasks=20, n_workers=6, n_answers=200, seed=0,
                  skew=False):
    rng = np.random.default_rng(seed)
    if skew:
        # A few heavy tasks hold most answers.
        weights = rng.zipf(1.5, n_tasks).astype(float)
        tasks = rng.choice(n_tasks, size=n_answers, p=weights / weights.sum())
    else:
        tasks = rng.integers(0, n_tasks, n_answers)
    return AnswerSet(
        tasks,
        rng.integers(0, n_workers, n_answers),
        rng.integers(0, 2, n_answers),
        TaskType.DECISION_MAKING,
        n_tasks=n_tasks,
        n_workers=n_workers,
    )


class TestPartitioner:
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 7, 19, 40])
    def test_ranges_partition_task_space(self, n_shards):
        answers = build_answers()
        sharded = ShardedAnswerSet(answers, n_shards)
        # Requests beyond the task count clamp deterministically.
        assert sharded.n_shards == min(n_shards, answers.n_tasks)
        assert sharded.requested_shards == n_shards
        assert sharded[0].task_start == 0
        assert sharded[-1].task_stop == answers.n_tasks
        for prev, nxt in zip(sharded, sharded.shards[1:]):
            assert prev.task_stop == nxt.task_start

    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    def test_every_answer_lands_in_its_range(self, n_shards):
        answers = build_answers(seed=3)
        sharded = ShardedAnswerSet(answers, n_shards)
        total = 0
        for shard in sharded:
            if shard.n_answers:
                assert shard.tasks.min() >= shard.task_start
                assert shard.tasks.max() < shard.task_stop
            total += shard.n_answers
        assert total == answers.n_answers

    def test_single_shard_reuses_original_arrays(self):
        answers = build_answers()
        shard = ShardedAnswerSet(answers, 1)[0]
        assert np.shares_memory(shard.tasks, answers.tasks)
        assert np.shares_memory(shard.workers, answers.workers)
        assert np.array_equal(shard.tasks, answers.tasks)  # original order
        assert shard.local_tasks is shard.tasks

    def test_multi_shard_views_are_zero_copy_slices(self):
        answers = build_answers(seed=1)
        sharded = ShardedAnswerSet(answers, 4)
        for shard in sharded:
            if shard.n_answers:
                assert shard.tasks.base is not None

    def test_stable_sort_preserves_within_task_order(self):
        # Two answers to the same task keep their arrival order.
        answers = AnswerSet([1, 0, 1, 0], [0, 1, 2, 3], [1, 0, 0, 1],
                            TaskType.DECISION_MAKING)
        sharded = ShardedAnswerSet(answers, 2)
        flat_workers = np.concatenate([s.workers for s in sharded])
        assert list(flat_workers) == [1, 3, 0, 2]

    def test_answer_balanced_cuts_on_skewed_tasks(self):
        answers = build_answers(n_tasks=50, n_answers=2000, seed=7,
                                skew=True)
        sharded = ShardedAnswerSet(answers, 4)
        sizes = [s.n_answers for s in sharded]
        # No shard may be starved while others hold nearly everything
        # (an even task split would put most answers in shard 0).
        assert max(sizes) <= answers.n_answers
        assert sum(1 for s in sizes if s > 0) >= 2

    def test_more_shards_than_tasks_clamps_to_task_count(self):
        answers = build_answers(n_tasks=3, n_answers=30)
        sharded = ShardedAnswerSet(answers, 8)
        assert sharded.n_shards == 3
        assert sharded.requested_shards == 8
        assert sum(s.n_answers for s in sharded) == 30
        assert sharded[-1].task_stop == 3

    def test_empty_answer_set(self):
        answers = AnswerSet([], [], [], TaskType.DECISION_MAKING,
                            n_tasks=10, n_workers=2)
        sharded = ShardedAnswerSet(answers, 4)
        assert sharded[-1].task_stop == 10
        assert all(s.n_answers == 0 for s in sharded)

    def test_invalid_shard_count(self):
        answers = build_answers()
        with pytest.raises(InvalidAnswerSetError):
            ShardedAnswerSet(answers, 0)

    def test_sharded_set_wraps_its_answer_set(self):
        answers = build_answers()
        sharded = ShardedAnswerSet(answers, 3)
        assert sharded.answers is answers
        assert len(sharded) == sharded.n_shards == 3
        assert list(sharded) == sharded.shards


class TestAnswerShard:
    def test_local_tasks_rebased(self):
        shard = AnswerShard(
            tasks=np.array([5, 6, 5]), workers=np.array([0, 1, 2]),
            values=np.array([1, 0, 1]), task_start=5, task_stop=8,
            n_tasks=10, n_workers=3, n_choices=2, index=1,
        )
        assert shard.n_local_tasks == 3
        assert list(shard.local_tasks) == [0, 1, 0]
        assert shard.n_answers == len(shard) == 3

    def test_range_validation(self):
        with pytest.raises(InvalidAnswerSetError):
            AnswerShard(np.array([0]), np.array([0]), np.array([0]),
                        task_start=4, task_stop=2, n_tasks=10,
                        n_workers=1, n_choices=2)
