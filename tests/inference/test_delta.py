"""Delta-refit machinery: dirty flags, freezing, and the runner surface.

Unit-level coverage of :mod:`repro.inference.sharded`'s incremental-EM
additions — the engine-level parity suite lives in
``tests/engine/test_delta_refit.py``.
"""

import itertools
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.answers import AnswerSet
from repro.core.registry import create
from repro.core.policy import ExecutionPolicy
from repro.core.result import FitStats
from repro.core.tasktypes import TaskType
from repro.inference.sharded import (
    DeltaPlan,
    ShardState,
    dirty_shards,
    make_runner,
    pad_rows,
    run_em_sharded,
)

POLICY = ExecutionPolicy(n_shards=4, executor="serial")


def synthetic(n_answers=2000, n_tasks=200, n_workers=12, seed=0,
              tail_tasks=None):
    """Decision answers in task-creation order; an optional appended
    tail confined to ``tail_tasks`` (the dirty range)."""
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, 2, n_tasks)
    acc = rng.beta(6, 2, n_workers)
    tasks = np.sort(rng.integers(0, n_tasks, n_answers), kind="stable")
    if tail_tasks is not None:
        tasks = np.concatenate([tasks, np.asarray(tail_tasks)])
    workers = rng.integers(0, n_workers, len(tasks))
    correct = rng.random(len(tasks)) < acc[workers]
    values = np.where(correct, truth[tasks], 1 - truth[tasks])
    return AnswerSet(tasks, workers, values, TaskType.DECISION_MAKING,
                     n_tasks=n_tasks, n_workers=n_workers)


class TestDirtyShards:
    def test_marks_exactly_the_owning_shards(self):
        cuts = (0, 10, 20, 30)
        assert list(dirty_shards(cuts, np.array([3, 4]), 30)) == \
            [True, False, False]
        assert list(dirty_shards(cuts, np.array([10]), 30)) == \
            [False, True, False]
        assert list(dirty_shards(cuts, np.array([29]), 30)) == \
            [False, False, True]

    def test_empty_batch_marks_nothing(self):
        assert not dirty_shards((0, 10, 20), np.array([], dtype=int),
                                20).any()

    def test_appended_tasks_dirty_the_last_shard(self):
        # Tasks at or beyond the cached last cut extend the last shard.
        dirty = dirty_shards((0, 10, 20), np.array([25]), 26)
        assert list(dirty) == [False, True]
        # Growth of n_tasks alone (adversarial: a new task with no
        # answer in the batch) still dirties the last shard.
        dirty = dirty_shards((0, 10, 20), np.array([5]), 26)
        assert list(dirty) == [True, True]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_property_every_new_answer_lands_in_a_dirty_shard(self, data):
        n_tasks = data.draw(st.integers(2, 60))
        n_cuts = data.draw(st.integers(1, 6))
        interior = sorted(data.draw(st.lists(
            st.integers(0, n_tasks), min_size=n_cuts, max_size=n_cuts)))
        cuts = [0] + interior + [n_tasks]
        grown = data.draw(st.integers(n_tasks, n_tasks + 10))
        new_tasks = data.draw(st.lists(st.integers(0, grown - 1),
                                       max_size=20))
        dirty = dirty_shards(cuts, np.array(new_tasks, dtype=int), grown)
        ext = list(cuts[:-1]) + [grown]
        for t in new_tasks:
            owner = np.searchsorted(ext, t, side="right") - 1
            owner = min(max(owner, 0), len(cuts) - 2)
            assert dirty[owner], (cuts, grown, t)


class TestPadRows:
    def test_pads_with_zeros_and_keeps_wide_arrays(self):
        a = np.arange(6, dtype=np.float64).reshape(3, 2)
        padded = pad_rows(a, 5)
        assert padded.shape == (5, 2)
        assert np.array_equal(padded[:3], a)
        assert not padded[3:].any()
        assert pad_rows(a, 3) is a
        assert pad_rows(a, 2) is a


class TestRunnerOnly:
    def test_only_runs_exactly_the_listed_shards(self):
        answers = synthetic()
        method = create("D&S", seed=0, policy=POLICY)
        spec = method.make_em_spec(answers.n_tasks, answers.n_workers,
                                   answers.n_choices)
        runner = make_runner(answers, spec, 4)
        full = runner.call("init_block")
        some = runner.call("init_block", only=[2, 0])
        assert len(some) == 2
        assert np.array_equal(some[0], full[2])
        assert np.array_equal(some[1], full[0])
        assert runner.call("init_block", only=[]) == []


def _fit_pair(tail_tasks, **delta_kwargs):
    """A collecting full fit on the base plus (full, delta) refits on
    the grown answers; returns (full_result, delta_result, state)."""
    base = synthetic()
    grown = synthetic(tail_tasks=tail_tasks)
    cold = create("D&S", seed=0, policy=POLICY).fit(base,
                                                    delta=DeltaPlan())
    state = cold.shard_state
    full = create("D&S", seed=0, policy=POLICY).fit(grown, warm_start=cold)
    dirty = dirty_shards(state.task_cuts, grown.tasks[state.n_answers:],
                         grown.n_tasks)
    delta = create("D&S", seed=0, policy=POLICY).fit(
        grown, warm_start=cold,
        delta=DeltaPlan(prev=state, dirty=dirty, **delta_kwargs))
    return full, delta, state, dirty


class TestDeltaLoop:
    def test_collecting_full_fit_emits_aligned_state(self):
        answers = synthetic()
        result = create("D&S", seed=0, policy=POLICY).fit(
            answers, delta=DeltaPlan())
        state = result.shard_state
        assert state is not None
        assert state.n_shards == 4
        assert state.task_cuts[0] == 0
        assert state.task_cuts[-1] == answers.n_tasks
        assert state.n_answers == answers.n_answers
        assert state.base_answers == answers.n_answers
        for k, block in enumerate(state.blocks):
            assert len(block) == (state.task_cuts[k + 1]
                                  - state.task_cuts[k])
        assert all(s is not None for s in state.stats)
        # The collected blocks are the final posterior, split.
        assert np.array_equal(np.concatenate(state.blocks),
                              result.posterior)

    def test_collect_does_not_change_the_fit(self):
        answers = synthetic()
        plain = create("D&S", seed=0, policy=POLICY).fit(answers)
        collected = create("D&S", seed=0, policy=POLICY).fit(
            answers, delta=DeltaPlan())
        assert np.array_equal(plain.posterior, collected.posterior)
        assert plain.n_iterations == collected.n_iterations

    def test_delta_refit_matches_full_warm_refit(self):
        rng = np.random.default_rng(3)
        full, delta, state, dirty = _fit_pair(rng.integers(0, 50, 200))
        assert dirty.sum() < len(dirty)  # a genuinely partial refit
        assert delta.fit_stats.mode == "delta"
        assert delta.fit_stats.dirty_shards == int(dirty.sum())
        assert np.abs(full.posterior - delta.posterior).max() < 1e-4
        assert (full.truths == delta.truths).mean() >= 0.999

    def test_clean_shards_skip_the_priming_e_step(self):
        rng = np.random.default_rng(4)
        _, delta, state, dirty = _fit_pair(rng.integers(0, 50, 200))
        stats = delta.fit_stats
        # Priming counted exactly the dirty shards.
        assert stats.active_shards[0] == int(dirty.sum())
        assert stats.frozen_shards[0] == len(dirty) - int(dirty.sum())

    def test_adversarial_freeze_tol_never_skips_a_dirty_shard(self):
        # Even with an absurd freeze tolerance (everything freezes on
        # contact) the dirty shard is primed and its answers change the
        # posterior; clean shards keep their cached blocks.
        rng = np.random.default_rng(5)
        base = synthetic()
        # Concentrate a contradicting tail on shard 0's range so its
        # posterior must move.
        tail = np.zeros(300, dtype=np.int64)
        grown = synthetic(tail_tasks=tail)
        cold = create("D&S", seed=0, policy=POLICY).fit(base,
                                                        delta=DeltaPlan())
        state = cold.shard_state
        dirty = dirty_shards(state.task_cuts, grown.tasks[state.n_answers:],
                             grown.n_tasks)
        assert list(dirty) == [True, False, False, False]
        delta = create("D&S", seed=0, policy=POLICY).fit(
            grown, warm_start=cold,
            delta=DeltaPlan(prev=state, dirty=dirty, freeze_tol=1e9,
                            verify_every=1))
        stats = delta.fit_stats
        assert stats.dirty_shards == 1
        assert stats.e_block_calls >= 1  # the dirty shard was primed
        start, stop = state.task_cuts[0], state.task_cuts[1]
        # The dirty shard's posterior reflects the new answers...
        assert np.abs(delta.posterior[start:stop]
                      - cold.posterior[start:stop]).max() > 1e-3
        # ...while clean shards never entered the per-iteration active
        # set (only the dirty shard iterated; frozen blocks moved only
        # through verify adoptions at the final parameters).
        assert all(active <= 1 for active in stats.active_shards)

    def test_tight_freeze_tol_converges_like_full(self):
        rng = np.random.default_rng(6)
        full, delta, _, _ = _fit_pair(rng.integers(0, 200, 200),
                                      freeze_tol=1e-12, verify_every=1)
        assert np.abs(full.posterior - delta.posterior).max() < 1e-7

    def test_delta_requires_warm_parameters(self):
        answers = synthetic()
        cold = create("D&S", seed=0, policy=POLICY).fit(answers,
                                                        delta=DeltaPlan())
        state = cold.shard_state
        method = create("D&S", seed=0, policy=POLICY)
        spec = method.make_em_spec(answers.n_tasks, answers.n_workers,
                                   answers.n_choices)
        runner = make_runner(answers, spec, 4)
        with pytest.raises(ValueError, match="initial_parameters"):
            run_em_sharded(runner, delta=DeltaPlan(
                prev=state, dirty=[True] * state.n_shards))

    def test_mismatched_layout_is_rejected(self):
        # A runner whose shard layout diverged from the cached state
        # (e.g. a runtime that re-placed with different cuts) must be
        # rejected rather than silently misaligning blocks.
        answers = synthetic()
        cold = create("D&S", seed=0, policy=POLICY).fit(answers,
                                                        delta=DeltaPlan())
        state = cold.shard_state
        method = create("D&S", seed=0, policy=POLICY)
        spec = method.make_em_spec(answers.n_tasks, answers.n_workers,
                                   answers.n_choices)
        runner = make_runner(answers, spec, 2)  # 2 shards vs cached 4
        with pytest.raises(ValueError, match="layout"):
            run_em_sharded(runner, initial_parameters=object(),
                           delta=DeltaPlan(prev=state,
                                           dirty=[True, False]))

    def test_extended_cuts_reject_shrunk_task_space(self):
        state = ShardState(task_cuts=(0, 5, 10), sizes=(10, 3, 2),
                           blocks=[], stats=[])
        assert state.extended_cuts(14) == [0, 5, 14]
        with pytest.raises(ValueError, match="append-only"):
            state.extended_cuts(8)


class TestFitStats:
    def test_full_fit_records_telemetry(self):
        answers = synthetic()
        result = create("D&S", seed=0, policy=POLICY).fit(answers)
        stats = result.fit_stats
        assert stats is not None and stats.mode == "full"
        assert stats.n_shards == 4
        assert stats.iterations == result.n_iterations
        assert stats.e_block_calls == 4 * result.n_iterations
        assert stats.total_seconds >= stats.em_seconds > 0
        assert stats.overhead_seconds >= 0
        assert "full refit" in stats.summary()
        payload = stats.as_dict()
        assert payload["mode"] == "full"
        assert payload["overhead_seconds"] == stats.overhead_seconds

    def test_full_fits_count_an_own_m_step_hooks_shard_calls(self):
        # Specs with their own M-step hook count its map-phase shard
        # calls in full fits too, as their delta refits do.
        answers = synthetic()
        glad = create("GLAD", seed=0, policy=POLICY).fit(answers)
        assert glad.fit_stats.accumulate_calls == 4 * 12 * glad.n_iterations
        vi_bp = create("VI-BP", seed=0, policy=POLICY).fit(answers)
        assert vi_bp.fit_stats.accumulate_calls == 4 * vi_bp.n_iterations
        minimax = create("Minimax", seed=0, policy=POLICY, max_iter=2,
                         gradient_steps=3).fit(answers)
        assert minimax.fit_stats.accumulate_calls == 4 * 3 * 2

    def test_delta_fit_summary_names_the_mode(self):
        rng = np.random.default_rng(7)
        _, delta, _, _ = _fit_pair(rng.integers(0, 50, 200))
        stats = delta.fit_stats
        text = stats.summary()
        assert "delta refit" in text
        assert stats.verify_passes >= 1
        # The active list prints as runs that cover every iteration.
        runs = [run.split("x") for run in
                text.split("active/iter ")[1].split(", ")[0].split(",")]
        assert [int(count) for count, _ in runs] == \
            [k for k, _ in itertools.groupby(stats.active_shards)]
        assert sum(int(length) for _, length in runs) == \
            len(stats.active_shards)

    def test_summary_run_length_compresses_the_active_list(self):
        stats = FitStats(mode="delta", n_shards=8, iterations=200,
                         dirty_shards=1, active_shards=[8] + [1] * 199)
        assert "active/iter 8x1,1x199, " in stats.summary()
        stats.active_shards = [2, 2, 1, 2]
        assert "active/iter 2x2,1x1,2x1, " in stats.summary()


class TestPhaseSeconds:
    def test_full_fit_times_each_runner_phase(self):
        stats = create("D&S", seed=0, policy=POLICY).fit(
            synthetic()).fit_stats
        assert list(stats.phase_seconds) == ["init_block", "accumulate",
                                             "e_block"]
        assert all(spent > 0 for spent in stats.phase_seconds.values())
        assert sum(stats.phase_seconds.values()) <= stats.em_seconds
        assert " phases init_block=" in stats.summary()
        assert stats.as_dict()["phase_seconds"] == stats.phase_seconds

    def test_delta_fit_times_its_verify_e_steps_too(self):
        rng = np.random.default_rng(7)
        _, delta, _, _ = _fit_pair(rng.integers(0, 50, 200))
        stats = delta.fit_stats
        assert stats.verify_passes >= 1
        assert set(stats.phase_seconds) == {"accumulate", "e_block"}

    def test_message_passing_fit_times_its_rounds(self):
        stats = create("KOS", seed=0, policy=POLICY).fit(
            synthetic()).fit_stats
        assert {"task_round", "worker_round"} <= set(stats.phase_seconds)

    def test_fold_adds_per_phase_and_keeps_the_default_unset(self):
        stats = FitStats()
        assert stats.phase_seconds is None
        assert "phases" not in stats.summary()
        runner = types.SimpleNamespace(
            phase_seconds={"e_block": 0.25, "accumulate": 0.5},
            fault_events={"respawns": 1})
        stats.record_runner(runner)
        stats.record_runner(runner)
        assert stats.phase_seconds == {"e_block": 0.5, "accumulate": 1.0}
        assert stats.respawns == 2
        assert runner.phase_seconds == {"e_block": 0.25, "accumulate": 0.5}
        assert FitStats().phase_seconds is None
        # Runners without a clock (or counters) fold nothing.
        bare = FitStats()
        bare.record_runner(object())
        assert bare.phase_seconds is None and bare.respawns == 0
