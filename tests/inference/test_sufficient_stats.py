"""SufficientStats: the field-wise reduce every statistics M-step runs."""

import numpy as np
import pytest

from repro.core.registry import create
from repro.core.shards import ShardedAnswerSet
from repro.exceptions import InferenceError
from repro.inference.sharded import (
    SufficientStats,
    dirty_shards,
    pad_rows,
)

from .test_delta import DELTA, synthetic


class TestTotal:
    def test_adds_fields_in_bundle_order(self):
        a = SufficientStats(x=np.array([1.0, 2.0]), n=3.0)
        b = SufficientStats(x=np.array([0.5, 0.25]), n=4.0)
        total = SufficientStats.total([a, b])
        assert np.array_equal(total["x"], [1.5, 2.25])
        assert total["n"] == 7.0

    def test_mismatched_fields_raise(self):
        a = SufficientStats(x=np.zeros(2), n=1.0)
        b = SufficientStats(x=np.zeros(2), m=1.0)
        with pytest.raises(InferenceError, match="fields"):
            SufficientStats.total([a, b])

    def test_int_fields_promote_like_the_fold(self):
        ints = [SufficientStats(c=np.array([1, 2], dtype=np.int64))
                for _ in range(2)]
        assert SufficientStats.total(ints)["c"].dtype == np.int64
        mixed = ints + [SufficientStats(c=np.array([0.5, 0.25]))]
        total = SufficientStats.total(mixed)["c"]
        assert total.dtype == np.float64
        assert np.array_equal(total, [2.5, 4.25])

    def test_scalar_fields_stay_scalars(self):
        bundles = [SufficientStats(n=float(k), s=np.float64(k) / 3)
                   for k in range(1, 4)]
        total = SufficientStats.total(bundles)
        assert type(total["n"]) is float and total["n"] == 6.0
        assert type(total["s"]) is np.float64
        assert total["s"] == (np.float64(1) / 3 + np.float64(2) / 3
                              + np.float64(3) / 3)

    def test_one_bundle_is_copied(self):
        x = np.array([1.0, 2.0])
        total = SufficientStats.total([SufficientStats(x=x)])
        assert total["x"] is not x
        total["x"][0] = 99.0
        assert x[0] == 1.0

    def test_never_writes_an_input_bundle(self):
        """``pad_rows`` hands back its input when no padding is needed,
        so a bundle field can be a shard operator's own array."""
        own = np.array([3, 1, 2])
        first = SufficientStats(counts=pad_rows(own, 3))
        assert first["counts"] is own
        second = SufficientStats(counts=np.array([1, 1, 1]))
        for _ in range(2):
            total = SufficientStats.total([first, second])
            assert np.array_equal(total["counts"], [4, 2, 3])
        assert np.array_equal(own, [3, 1, 2])

    def test_shard_operator_counts_survive_repeated_m_steps(self):
        """ZC's ``answer_counts`` field is ``ops.answer_counts`` itself;
        reducing it every iteration must leave the operator intact."""
        answers = synthetic(n_answers=600, n_tasks=60)
        spec = create("ZC").make_em_spec(answers.n_tasks, answers.n_workers,
                                         answers.n_choices)
        shards = ShardedAnswerSet(answers, 3).shards
        saved = [spec.shard_ops(s).answer_counts.copy() for s in shards]
        block = np.full((answers.n_tasks, answers.n_choices), 0.5)
        for _ in range(3):
            stats = [spec.accumulate(s, spec.shard_ops(s),
                                     block[s.task_start:s.task_stop])
                     for s in shards]
            assert stats[0]["answer_counts"] is \
                spec.shard_ops(shards[0]).answer_counts
            SufficientStats.total(stats)
        for shard, before in zip(shards, saved):
            assert np.array_equal(spec.shard_ops(shard).answer_counts,
                                  before)

    def test_delta_refit_leaves_cached_bundles_intact(self):
        """The delta loop reduces a clean shard's cached bundle every
        iteration, starting from shard 0; the cached state a refit
        resumes from must come back unchanged."""
        base = synthetic()
        grown = synthetic(tail_tasks=np.arange(190, 200))
        cold = create("D&S", seed=0).fit(base, policy=DELTA)
        state = cold.shard_state
        saved = [{name: np.array(value, copy=True)
                  for name, value in bundle.fields.items()}
                 for bundle in state.stats]
        dirty = dirty_shards(state.task_cuts, grown.tasks[state.n_answers:],
                             grown.n_tasks)
        assert not dirty[0]
        delta = create("D&S", seed=0).fit(grown, warm_start=cold,
                                          policy=DELTA)
        assert delta.fit_stats.mode == "delta"
        for bundle, before in zip(state.stats, saved):
            for name, value in bundle.fields.items():
                assert np.array_equal(value, before[name]), name
