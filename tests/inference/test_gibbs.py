"""Control flow of the sharded Gibbs driver, on a scripted spec.

:func:`~repro.inference.sharded.run_gibbs_sharded` runs BCC's and
CBCC's sweeps.  Here the master-side ``sample`` closure hands back a
global label vector and each shard's E-step one-hot encodes its slice,
so the tally, burn-in and chain-continuation rules show on their own.
"""

import numpy as np
import pytest

from repro.core.answers import AnswerSet
from repro.core.registry import create
from repro.core.tasktypes import TaskType
from repro.inference.sharded import (
    ShardedEMSpec,
    SufficientStats,
    make_runner,
    run_gibbs_sharded,
)


class LabelSpec(ShardedEMSpec):
    """Shard statistics are per-label counts of the assignment block;
    the sampled parameters are the global label of every task."""

    def build_ops(self, shard):
        return None

    def init_block(self, shard, ops):
        raise AssertionError("the Gibbs driver starts from initial_state")

    def accumulate(self, shard, ops, block):
        return SufficientStats(counts=block.sum(axis=0))

    def finalize(self, stats):
        return stats

    def e_block(self, shard, ops, labels):
        local = np.asarray(labels)[shard.task_start:shard.task_stop]
        return np.eye(shard.n_choices)[local]


def sweeps(n_tasks, sample, n_choices=2, n_shards=1, **kwargs):
    """Run the driver from an all-zero state over one-answer tasks."""
    answers = AnswerSet(np.arange(n_tasks), np.zeros(n_tasks, dtype=int),
                        np.zeros(n_tasks, dtype=int),
                        TaskType.SINGLE_CHOICE, n_choices=n_choices,
                        n_tasks=n_tasks, n_workers=1)
    kwargs.setdefault("initial_state", np.zeros((n_tasks, n_choices)))
    return run_gibbs_sharded(make_runner(answers, LabelSpec(), n_shards),
                             sample=sample, **kwargs)


def constant(label, n_tasks):
    return lambda merged, sweep: np.full(n_tasks, label)


class TestRunGibbs:
    def test_tally_counts_retained_samples(self):
        outcome = sweeps(4, constant(0, 4), n_sweeps=13, burn_in=3)
        assert outcome.retained == 10
        assert outcome.tally[:, 0].sum() == 40
        assert outcome.tally[:, 1].sum() == 0

    def test_posterior_normalised(self):
        rng = np.random.default_rng(0)
        outcome = sweeps(5, lambda merged, sweep: rng.integers(0, 3, 5),
                         n_choices=3, n_sweeps=25, burn_in=5)
        np.testing.assert_allclose(
            (outcome.tally / outcome.retained).sum(axis=1), 1.0)

    def test_burn_in_samples_discarded(self):
        # Label 1 only during burn-in.
        outcome = sweeps(3, lambda merged, sweep: np.full(3, int(sweep < 5)),
                         n_sweeps=13, burn_in=5)
        assert outcome.retained == 8
        assert outcome.tally[:, 1].sum() == 0

    def test_sample_sees_merged_statistics_each_sweep(self):
        """Every sweep hands ``sample`` the statistics merged over all
        shards at the previous sweep's state, with sweeps in order."""
        seen = []

        def sample(merged, sweep):
            seen.append((sweep, merged["counts"].tolist()))
            return (np.arange(6) + sweep) % 2

        initial = np.tile([0.0, 1.0], (6, 1))
        outcome = sweeps(6, sample, n_shards=2, n_sweeps=4, burn_in=0,
                         initial_state=initial)
        assert seen == [(0, [0, 6]), (1, [3, 3]), (2, [3, 3]), (3, [3, 3])]
        assert outcome.fit_stats.accumulate_calls == 4 * 2
        assert outcome.fit_stats.e_block_calls == 4 * 2

    def test_chain_continuation_accumulates_into_the_given_tally(self):
        previous = np.full((4, 2), 3.0)
        outcome = sweeps(4, constant(1, 4), n_sweeps=4, burn_in=0,
                         tally=previous, retained=6, mode="delta")
        assert outcome.retained == 10
        np.testing.assert_array_equal(outcome.tally, [[3.0, 7.0]] * 4)
        # The caller's cached tally is not written in place.
        np.testing.assert_array_equal(previous, 3.0)
        assert outcome.fit_stats.mode == "delta"

    def test_golden_clamped_every_sweep(self):
        outcome = sweeps(4, constant(0, 4), n_sweeps=7, burn_in=2,
                         golden={0: 1})
        retained = outcome.retained
        np.testing.assert_array_equal(
            outcome.tally, [[0, retained]] + [[retained, 0]] * 3)
        assert list(outcome.state[0]) == [0.0, 1.0]

    def test_invalid_arguments_rejected(self):
        # Chain lengths are validated where they enter: the samplers.
        for name, kwargs in [("BCC", {"burn_in": -1}),
                             ("CBCC", {"n_samples": 0}),
                             ("CBCC", {"burn_in": -1})]:
            with pytest.raises(ValueError):
                create(name, **kwargs)
