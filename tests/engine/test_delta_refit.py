"""Engine-level delta refits: parity, bit-identity, sessions, runtime.

The contract under test:

* ``refit="delta"`` matches ``refit="full"`` — final posteriors within
  1e-6, labels agreeing — for **all five** sharded EM methods, on both
  the in-process and the persistent-process tiers;
* ``refit="full"`` (the default) takes literally the pre-delta code
  path and stays **bit-identical** to it;
* the in-process :class:`~repro.engine.runtime.SerialShardSession` and
  the worker-side spec retention extend warm state across refits
  instead of rebuilding it.
"""

import os

import numpy as np
import pytest

from repro.core.policy import ExecutionPolicy
from repro.core.registry import create
from repro.core.tasktypes import TaskType
from repro.engine import InferenceEngine
from repro.engine.runtime import SerialShardSession

N_SHARDS = 4


def make_batches(task_type=TaskType.DECISION_MAKING, n_tasks=150,
                 n_workers=12, base=1600, steps=3, growth=200, seed=0):
    """A base batch (task-creation order) plus growth batches skewed
    toward one task range, as ``(task, worker, value)`` records."""
    rng = np.random.default_rng(seed)
    categorical = task_type is not TaskType.NUMERIC
    truth = (rng.integers(0, 2, n_tasks) if categorical
             else rng.normal(0.0, 2.0, n_tasks))
    acc = rng.beta(6, 2, n_workers)
    batches = []
    tasks = np.sort(rng.integers(0, n_tasks, base), kind="stable")
    for step in range(steps + 1):
        if step:
            tasks = rng.integers(0, n_tasks // 3, growth)
        workers = rng.integers(0, n_workers, len(tasks))
        if categorical:
            correct = rng.random(len(tasks)) < acc[workers]
            values = np.where(correct, truth[tasks], 1 - truth[tasks])
        else:
            values = truth[tasks] + rng.normal(
                0.0, 0.3 + (1 - acc[workers]), len(tasks))
        batches.append(list(zip(tasks.tolist(), workers.tolist(),
                                values.tolist())))
    return batches


def stream_through(batches, task_type, method, refit, executor="serial",
                   tolerance=1e-7, **policy_kwargs):
    # Parity between the full and delta trajectories scales with the
    # convergence tolerance (both stop within it of the same fixed
    # point), so the parity tests run tight.
    policy = ExecutionPolicy(n_shards=N_SHARDS, executor=executor,
                             refit=refit, **policy_kwargs)
    with InferenceEngine(task_type, policy=policy, seed=0) as engine:
        results = []
        for batch in batches:
            engine.add_answers(batch)
            results.append(engine.infer(method, tolerance=tolerance,
                                        max_iter=500))
    return results


CATEGORICAL_METHODS = ["D&S", "LFC", "ZC", "GLAD"]

#: The non-EM families grown into the delta contract: master-driven
#: gradient rounds (minimax), variational blocks (VI) — all with exact
#: warm restarts — plus the message-passing and Gibbs families below.
ZOO_GRADIENT_METHODS = ["Minimax", "Minimax-Ord", "VI-MF", "VI-BP"]


class TestDeltaParity:
    @pytest.mark.parametrize("method", CATEGORICAL_METHODS)
    def test_categorical_parity(self, method):
        batches = make_batches()
        full = stream_through(batches, TaskType.DECISION_MAKING, method,
                              "full")
        delta = stream_through(batches, TaskType.DECISION_MAKING, method,
                               "delta")
        assert delta[-1].fit_stats.mode == "delta"
        assert np.abs(full[-1].posterior
                      - delta[-1].posterior).max() <= 1e-6
        agree = (full[-1].truths == delta[-1].truths).mean()
        assert agree >= 0.999
        quality_diff = np.abs(full[-1].worker_quality
                              - delta[-1].worker_quality).max()
        assert quality_diff < 1e-3

    def test_numeric_parity(self):
        batches = make_batches(task_type=TaskType.NUMERIC)
        full = stream_through(batches, TaskType.NUMERIC, "LFC_N", "full")
        delta = stream_through(batches, TaskType.NUMERIC, "LFC_N", "delta")
        assert delta[-1].fit_stats.mode == "delta"
        assert np.abs(full[-1].truths - delta[-1].truths).max() <= 1e-6

    def test_delta_primes_only_dirty_shards(self):
        batches = make_batches()
        delta = stream_through(batches, TaskType.DECISION_MAKING, "D&S",
                               "delta")
        stats = delta[-1].fit_stats
        # Growth is confined to the low task range: not every shard is
        # dirty, and the clean ones started frozen.
        assert 0 < stats.dirty_shards < stats.n_shards
        assert stats.frozen_shards[0] == stats.n_shards - stats.dirty_shards

    def test_process_tier_matches_serial_delta(self):
        batches = make_batches()
        serial = stream_through(batches, TaskType.DECISION_MAKING, "D&S",
                                "delta")
        process = stream_through(batches, TaskType.DECISION_MAKING, "D&S",
                                 "delta", executor="process",
                                 max_workers=2)
        assert process[-1].fit_stats.mode == "delta"
        assert np.abs(serial[-1].posterior
                      - process[-1].posterior).max() <= 1e-8

    def test_thread_tier_runs_delta(self):
        batches = make_batches()
        threaded = stream_through(batches, TaskType.DECISION_MAKING, "D&S",
                                  "delta", executor="thread",
                                  max_workers=2)
        assert threaded[-1].fit_stats.mode == "delta"


class TestDeltaZooParity:
    """Per-family parity gates for the non-EM delta contracts."""

    @pytest.mark.parametrize("method", ZOO_GRADIENT_METHODS)
    def test_gradient_and_variational_parity(self, method):
        batches = make_batches()
        full = stream_through(batches, TaskType.DECISION_MAKING, method,
                              "full")
        delta = stream_through(batches, TaskType.DECISION_MAKING, method,
                               "delta")
        assert delta[-1].fit_stats.mode == "delta"
        assert delta[-1].extras["warm_started"]
        assert not full[-1].extras["warm_started"]
        assert np.abs(full[-1].posterior
                      - delta[-1].posterior).max() <= 1e-6
        assert (full[-1].truths == delta[-1].truths).mean() >= 0.999

    def test_kos_message_restart_parity(self):
        # A well-separated fixture: KOS posteriors are sign decisions
        # (one-hot), so parity is meaningful only where no task sits on
        # a knife edge.
        batches = make_batches(seed=3, n_tasks=120, n_workers=20,
                               base=2400, growth=150)
        full = stream_through(batches, TaskType.DECISION_MAKING, "KOS",
                              "full")
        delta = stream_through(batches, TaskType.DECISION_MAKING, "KOS",
                               "delta")
        assert delta[-1].fit_stats.mode == "delta"
        assert delta[-1].extras["warm_started"]
        assert np.abs(full[-1].posterior
                      - delta[-1].posterior).max() <= 1e-6
        np.testing.assert_array_equal(full[-1].truths, delta[-1].truths)
        # Frozen message blocks skipped task rounds.
        assert (delta[-1].fit_stats.e_block_calls
                < full[-1].fit_stats.e_block_calls)

    @pytest.mark.parametrize("method", ["BCC", "CBCC"])
    def test_gibbs_chain_continuation(self, method):
        batches = make_batches()
        full = stream_through(batches, TaskType.DECISION_MAKING, method,
                              "full")
        delta = stream_through(batches, TaskType.DECISION_MAKING, method,
                               "delta")
        again = stream_through(batches, TaskType.DECISION_MAKING, method,
                               "delta")
        last = delta[-1]
        assert last.fit_stats.mode == "delta"
        assert last.extras["warm_started"]
        # The continued chain is the lifetime average: more retained
        # sweeps than any single full fit, at a fraction of the cost.
        assert last.n_iterations > full[-1].n_iterations
        assert last.fit_stats.iterations < full[-1].fit_stats.iterations
        # A sampler's delta gate is agreement + determinism, not float
        # parity: the continued trajectory is a different (equally
        # valid) draw from the same posterior.
        assert (full[-1].truths == last.truths).mean() >= 0.98
        for first, second in zip(delta, again):
            np.testing.assert_array_equal(first.posterior,
                                          second.posterior)
            np.testing.assert_array_equal(first.truths, second.truths)

    def test_process_tier_matches_serial_zoo_delta(self):
        batches = make_batches()
        serial = stream_through(batches, TaskType.DECISION_MAKING,
                                "Minimax", "delta")
        process = stream_through(batches, TaskType.DECISION_MAKING,
                                 "Minimax", "delta", executor="process",
                                 max_workers=2)
        assert process[-1].fit_stats.mode == "delta"
        assert np.abs(serial[-1].posterior
                      - process[-1].posterior).max() <= 1e-8


class TestDeltaCapabilityWarning:
    def _answers(self):
        from repro.core.answers import AnswerSet

        rng = np.random.default_rng(0)
        return AnswerSet(np.sort(rng.integers(0, 20, 200)),
                         rng.integers(0, 6, 200),
                         rng.integers(0, 2, 200),
                         TaskType.DECISION_MAKING)

    def test_full_only_method_warns_under_delta_policy(self):
        import warnings

        from repro.core.registry import capabilities

        assert not capabilities("MV").sharding
        method = create("MV", seed=0)
        with pytest.warns(UserWarning, match="can only refit full"):
            method.fit(self._answers(),
                       policy=ExecutionPolicy(refit="delta"))

    def test_delta_capable_method_does_not_warn(self):
        import warnings

        from repro.core.registry import capabilities

        assert capabilities("KOS").sharding
        method = create("KOS", seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            method.fit(self._answers(),
                       policy=ExecutionPolicy(refit="delta"))

    def test_engine_infer_warns_for_full_only_method(self):
        import warnings

        answers = self._answers()
        records = list(zip(answers.tasks.tolist(),
                           answers.workers.tolist(),
                           answers.values.tolist()))
        with InferenceEngine(TaskType.DECISION_MAKING,
                             policy=ExecutionPolicy(refit="delta"),
                             seed=0) as engine:
            engine.add_answers(records)
            with pytest.warns(UserWarning, match="can only refit full"):
                engine.infer("MV")
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)
                engine.infer("D&S", tolerance=1e-6)


class TestFullBitIdentity:
    def test_refit_full_is_bit_identical_to_default_policy(self):
        batches = make_batches()
        policy_default = ExecutionPolicy(n_shards=N_SHARDS,
                                         executor="serial")
        explicit = stream_through(batches, TaskType.DECISION_MAKING,
                                  "D&S", "full")
        with InferenceEngine(TaskType.DECISION_MAKING,
                             policy=policy_default, seed=0) as engine:
            for batch in batches:
                engine.add_answers(batch)
                default = engine.infer("D&S", tolerance=1e-7,
                                       max_iter=500)
        assert np.array_equal(explicit[-1].posterior, default.posterior)
        assert np.array_equal(explicit[-1].truths, default.truths)
        # The default mode never builds delta state.
        assert default.shard_state is None

    @pytest.mark.parametrize("method",
                             ["KOS", "Minimax", "VI-MF", "VI-BP", "BCC",
                              "CBCC"])
    def test_zoo_refit_full_is_bit_identical_to_default_policy(self,
                                                               method):
        """The new families ignore warm state without a true delta
        plan, so refit="full" streams take the historical cold path
        bit-for-bit."""
        batches = make_batches()
        policy_default = ExecutionPolicy(n_shards=N_SHARDS,
                                         executor="serial")
        explicit = stream_through(batches, TaskType.DECISION_MAKING,
                                  method, "full")
        with InferenceEngine(TaskType.DECISION_MAKING,
                             policy=policy_default, seed=0) as engine:
            for batch in batches:
                engine.add_answers(batch)
                default = engine.infer(method, tolerance=1e-7,
                                       max_iter=500)
        assert np.array_equal(explicit[-1].posterior, default.posterior)
        assert np.array_equal(explicit[-1].truths, default.truths)
        assert default.shard_state is None

    def test_refit_full_matches_hand_driven_warm_refits(self):
        batches = make_batches()
        full = stream_through(batches, TaskType.DECISION_MAKING, "D&S",
                              "full")
        # The pre-delta spelling: explicit warm_start chaining.
        policy = ExecutionPolicy(n_shards=N_SHARDS, executor="serial")
        with InferenceEngine(TaskType.DECISION_MAKING, policy=policy,
                             seed=0) as engine:
            previous = None
            for batch in batches:
                engine.add_answers(batch)
                snapshot = engine.stream.snapshot()
                instance = create("D&S", seed=0, tolerance=1e-7,
                                  max_iter=500)
                previous = instance.fit(snapshot, warm_start=previous,
                                        policy=policy)
        assert np.array_equal(full[-1].posterior, previous.posterior)
        assert np.array_equal(full[-1].truths, previous.truths)


class TestDeltaFallbacks:
    def test_replacement_falls_back_to_collecting_full(self):
        # Unique (task, worker) pairs so only the deliberate overwrite
        # replaces in place.
        rng = np.random.default_rng(0)
        n_tasks, n_workers = 40, 30
        pairs = [(t, w) for t in range(n_tasks) for w in range(n_workers)]
        rng.shuffle(pairs)
        records = [(t, w, int(rng.integers(0, 2))) for t, w in pairs]
        policy = ExecutionPolicy(n_shards=N_SHARDS, executor="serial",
                                 refit="delta")
        with InferenceEngine(TaskType.DECISION_MAKING, policy=policy,
                             seed=0, on_duplicate="replace") as engine:
            engine.add_answers(records[:800])
            engine.infer("D&S")
            # Replace an existing answer in place: the warm contract is
            # broken, so the next refit must be cold+full (and still
            # collect state for the following one).
            task, worker, value = records[0]
            engine.add_answer(task, worker, 1 - value)
            result = engine.infer("D&S")
            assert result.fit_stats.mode == "full"
            assert result.shard_state is not None
            engine.add_answers(records[800:900])
            assert engine.infer("D&S").fit_stats.mode == "delta"

    def test_doubled_stream_replaces_and_refits_full(self):
        batches = make_batches(base=400, growth=600, steps=2)
        results = stream_through(batches, TaskType.DECISION_MAKING, "D&S",
                                 "delta")
        # By the time the stream has more than doubled past the placed
        # base, the engine re-places (full refit) instead of extending.
        modes = [r.fit_stats.mode for r in results]
        assert modes[0] == "full"
        assert "full" in modes[1:]

    def test_label_growth_falls_back_to_full(self):
        rng = np.random.default_rng(0)
        base = [(f"t{rng.integers(20)}", f"w{rng.integers(5)}",
                 str(rng.integers(2))) for _ in range(300)]
        policy = ExecutionPolicy(n_shards=2, executor="serial",
                                 refit="delta")
        with InferenceEngine(TaskType.SINGLE_CHOICE, policy=policy,
                             seed=0) as engine:
            engine.add_answers(base)
            engine.infer("D&S")
            engine.add_answers([("t1", "w9", "2")])  # a brand-new label
            result = engine.infer("D&S")
            assert result.fit_stats.mode == "full"


class TestOneResumeRule:
    """A fit decides whether it is a delta refit from its warm start
    and its policy alone, one-shot or inside an engine."""

    DELTA = ExecutionPolicy(n_shards=N_SHARDS, executor="serial",
                            refit="delta")

    @staticmethod
    def cohort_stream():
        """A base batch, then a batch of new tasks only."""
        rng = np.random.default_rng(0)
        tasks = np.concatenate([np.repeat(np.arange(300), 5),
                                np.repeat(np.arange(300, 340), 12)])
        truth = rng.integers(0, 2, 340)
        accuracy = rng.uniform(0.6, 0.9, 12)
        workers = rng.integers(0, 12, len(tasks))
        values = np.where(rng.random(len(tasks)) < accuracy[workers],
                          truth[tasks], 1 - truth[tasks])
        records = list(zip(tasks.tolist(), workers.tolist(),
                           values.tolist()))
        return records[:1500], records[1500:]

    def test_one_shot_fit_is_the_engines_delta_refit(self):
        base, cohort = self.cohort_stream()
        with InferenceEngine(TaskType.DECISION_MAKING, policy=self.DELTA,
                             seed=0) as engine:
            engine.add_answers(base)
            first_answers = engine.stream.snapshot()
            engine.infer("D&S")
            engine.add_answers(cohort)
            grown_answers = engine.stream.snapshot()
            served = engine.infer("D&S")
        first = create("D&S", seed=0).fit(first_answers, policy=self.DELTA)
        result = create("D&S", seed=0).fit(grown_answers, warm_start=first,
                                           policy=self.DELTA)
        assert served.fit_stats.mode == "delta"
        assert result.fit_stats.mode == "delta"
        assert result.n_iterations == served.n_iterations
        assert np.array_equal(result.posterior, served.posterior)

    def test_another_methods_warm_start_collects_full(self):
        base, cohort = self.cohort_stream()
        with InferenceEngine(TaskType.DECISION_MAKING, seed=0) as engine:
            engine.add_answers(base)
            first_answers = engine.stream.snapshot()
            engine.add_answers(cohort)
            grown_answers = engine.stream.snapshot()
        zc = create("ZC", seed=0).fit(first_answers, policy=self.DELTA)
        assert zc.shard_state is not None
        result = create("D&S", seed=0).fit(grown_answers, warm_start=zc,
                                           policy=self.DELTA)
        assert result.fit_stats.mode == "full"
        assert result.shard_state is not None
        assert result.shard_state.sizes == (grown_answers.n_tasks,
                                            grown_answers.n_workers,
                                            grown_answers.n_choices)
        # Collecting the state does not change the fit.
        plain = create("D&S", seed=0).fit(
            grown_answers, warm_start=zc,
            policy=ExecutionPolicy(n_shards=N_SHARDS, executor="serial"))
        assert np.array_equal(result.posterior, plain.posterior)

    def test_padded_labels_drop_the_shard_state(self):
        from repro.core.warmstart import pad_result_labels

        base, _ = self.cohort_stream()
        with InferenceEngine(TaskType.DECISION_MAKING, seed=0) as engine:
            engine.add_answers(base)
            answers = engine.stream.snapshot()
        result = create("D&S", seed=0).fit(answers, policy=self.DELTA)
        assert result.shard_state is not None
        padded = pad_result_labels(result, 3)
        assert padded.shard_state is None
        assert padded.posterior.shape[1] == 3


class TestSerialShardSession:
    def _answers(self, n, seed=0, n_tasks=60, n_workers=8):
        rng = np.random.default_rng(seed)
        from repro.core.answers import AnswerSet

        tasks = np.sort(rng.integers(0, n_tasks, n), kind="stable")
        workers = rng.integers(0, n_workers, n)
        values = rng.integers(0, 2, n)
        return tasks, workers, values, n_tasks, n_workers

    def _answer_set(self, n_total, prefix=None):
        from repro.core.answers import AnswerSet

        tasks, workers, values, n_tasks, n_workers = self._answers(n_total)
        n = prefix or n_total
        return AnswerSet(tasks[:n], workers[:n], values[:n],
                         TaskType.DECISION_MAKING, n_tasks=n_tasks,
                         n_workers=n_workers)

    def test_extend_reuses_layout_and_specs(self):
        base = self._answer_set(800, prefix=600)
        grown = self._answer_set(800)
        session = SerialShardSession(3)
        instance = create("D&S", seed=0)
        r1 = session.runner(base, instance, stream_key="s")
        assert session.last_placement == "place"
        r2 = session.runner(grown, instance, stream_key="s")
        assert session.last_placement == "extend"
        assert session.spec_reuses == 1
        assert r2.spec is r1.spec
        # Same cuts, larger shards.
        assert r2.task_ranges == r1.task_ranges
        assert sum(len(s.tasks) for s in r2.shards) == 800

    def test_extended_shards_match_a_fresh_sort(self):
        from repro.core.shards import ShardedAnswerSet

        base = self._answer_set(800, prefix=600)
        grown = self._answer_set(800)
        session = SerialShardSession(3)
        instance = create("D&S", seed=0)
        session.runner(base, instance, stream_key="s")
        runner = session.runner(grown, instance, stream_key="s")
        fresh = ShardedAnswerSet(grown, 3,
                                 task_cuts=[r[0] for r in
                                            runner.task_ranges]
                                 + [grown.n_tasks])
        for warm_shard, fresh_shard in zip(runner.shards, fresh.shards):
            assert np.array_equal(warm_shard.tasks, fresh_shard.tasks)
            assert np.array_equal(warm_shard.workers, fresh_shard.workers)
            assert np.array_equal(warm_shard.values, fresh_shard.values)

    def test_key_change_replaces(self):
        base = self._answer_set(800, prefix=600)
        grown = self._answer_set(800)
        session = SerialShardSession(3)
        instance = create("D&S", seed=0)
        session.runner(base, instance, stream_key="a")
        session.runner(grown, instance, stream_key="b")
        assert session.last_placement == "place"

    def test_append_only_tripwire(self):
        session = SerialShardSession(2)
        instance = create("D&S", seed=0)
        base = self._answer_set(800, prefix=600)
        session.runner(base, instance, stream_key="s")
        from repro.core.answers import AnswerSet

        rng = np.random.default_rng(9)
        other = AnswerSet(
            np.sort(rng.integers(0, 60, 800)), rng.integers(0, 8, 800),
            rng.integers(0, 2, 800), TaskType.DECISION_MAKING,
            n_tasks=60, n_workers=8)
        with pytest.raises(RuntimeError, match="append-only"):
            session.runner(other, instance, stream_key="s")


class TestWorkerSpecRetention:
    @pytest.mark.skipif(
        bool(os.environ.get("REPRO_FAULTS")),
        reason="a canned fault plan may respawn workers, resetting "
               "their retained specs")
    def test_process_workers_retain_specs_across_refits(self):
        from repro.engine.runtime import ShardRuntime, _rt_probe

        batches = make_batches(steps=2)
        policy = ExecutionPolicy(n_shards=2, executor="process",
                                 refit="delta", max_workers=1)
        with InferenceEngine(TaskType.DECISION_MAKING, policy=policy,
                             seed=0) as engine:
            for batch in batches:
                engine.add_answers(batch)
                engine.infer("D&S")
            runtime = engine._runtime
            probes = [worker.call(_rt_probe)
                      for worker in runtime._workers]
        # Three fits of the same method over a fixed universe: at least
        # one refit reused the worker-side spec (the first extension
        # may reallocate segments, which re-attaches and rebuilds).
        assert sum(p["spec_reuses"] for p in probes) >= 1
