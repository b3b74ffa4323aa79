"""Control flow of the sharded EM and alternating drivers.

:func:`~repro.inference.sharded.run_em_sharded` and
:func:`~repro.inference.sharded.run_alternating_sharded` are the loops
every EM-family method runs through.  These tests drive them with a spec
whose phases are test callables, so each property of a loop (stopping
rule, iteration cap, golden clamping, starting points) shows on its own.
"""

import collections
import itertools

import numpy as np
import pytest

from repro.core.answers import AnswerSet
from repro.core.tasktypes import TaskType
from repro.exceptions import ConvergenceError, InferenceError
from repro.inference.sharded import (
    AlternatingSpec,
    DeltaPlan,
    SerialShardRunner,
    ShardState,
    SufficientStats,
    make_runner,
    run_alternating_sharded,
    run_em_sharded,
)


class ScriptedSpec(AlternatingSpec):
    """The M-step (or weight step) is ``m_step(state) -> params``; the
    E-step (or truth step) is ``e_step(params) -> block``."""

    def __init__(self, m_step=None, e_step=None, init=None):
        super().__init__()
        self.m_fn, self.e_fn, self.init = m_step, e_step, init

    def build_ops(self, shard):
        return None

    def init_block(self, shard, ops):
        return np.array(self.init, dtype=np.float64)

    def accumulate(self, shard, ops, block):
        return SufficientStats(state=block)

    def finalize(self, stats):
        return self.m_fn(stats["state"])

    def e_block(self, shard, ops, params):
        return np.array(self.e_fn(params), dtype=np.float64)


def scripted(n_tasks, m_step=None, e_step=None, init=None, n_shards=1,
             spec=None):
    """A runner over ``n_tasks`` tasks, one answer each."""
    answers = AnswerSet(np.arange(n_tasks), np.zeros(n_tasks, dtype=int),
                        np.zeros(n_tasks, dtype=int),
                        TaskType.DECISION_MAKING, n_tasks=n_tasks,
                        n_workers=1)
    return make_runner(answers, spec or ScriptedSpec(m_step, e_step, init),
                       n_shards=n_shards)


def recording(seen, result=None):
    """An M-step that records a copy of every state it is given."""
    return lambda state: seen.append(np.array(state)) or result


class Creeping(ScriptedSpec):
    """Shard ``k``'s ``n``-th E-step returns uniform rows plus
    ``step(k, n)``.  More than ``limit`` E-blocks means the loop never
    stopped, and fails the test instead of hanging it."""

    def __init__(self, m_step, step, limit=200):
        super().__init__(m_step)
        self.step, self.limit = step, limit
        self.calls = collections.Counter()

    def e_block(self, shard, ops, params):
        self.calls[shard.index] += 1
        if sum(self.calls.values()) > self.limit:
            raise RuntimeError("the loop ran past its iteration cap")
        return np.full((shard.n_local_tasks, 2), 0.5) + self.step(
            shard.index, self.calls[shard.index])


def weight_steps(first, *cycle, limit=60):
    """A weight step returning ``first``, then ``cycle`` over and over;
    more than ``limit`` steps fail the test."""
    weights = itertools.chain([first], itertools.cycle(cycle))
    calls = itertools.count(1)

    def step(state):
        if next(calls) > limit:
            raise RuntimeError("the loop ran past its iteration cap")
        return np.array([next(weights)])
    return step


def creeping_refit(spec, **plan):
    """A runner over two 2-task shards, and a delta plan over a
    hand-built cache of uniform blocks: shard 0 dirty, shard 1 clean."""
    runner = scripted(4, n_shards=2, spec=spec)
    cuts = (0,) + tuple(stop for _, stop in runner.task_ranges)
    prev = ShardState(task_cuts=cuts, sizes=(0, 0, 0),
                      blocks=[np.full((2, 2), 0.5)] * 2, stats=[None] * 2)
    return runner, DeltaPlan(prev=prev, dirty=[True, False], **plan)


class TestRunEM:
    def test_fixed_point_converges_immediately(self):
        start = np.array([[0.9, 0.1], [0.2, 0.8]])
        outcome = run_em_sharded(
            scripted(2, lambda post: None, lambda params: start),
            initial_posterior=start, tolerance=1e-6, max_iter=50)
        assert outcome.converged
        assert outcome.n_iterations == 2  # one to set, one to confirm

    def test_iteration_cap_respected(self):
        flips = iter([[[1.0, 0.0]], [[0.0, 1.0]]] * 10)
        outcome = run_em_sharded(
            scripted(1, lambda p: None, lambda p: next(flips)),
            initial_posterior=[[1.0, 0.0]], tolerance=1e-6, max_iter=7)
        assert not outcome.converged
        assert outcome.n_iterations == 7

    def test_golden_clamped_in_initial_and_updates(self):
        seen = []
        outcome = run_em_sharded(
            scripted(2, recording(seen), lambda p: np.full((2, 2), 0.5)),
            initial_posterior=np.full((2, 2), 0.5), tolerance=1e-6,
            max_iter=5, golden={0: 1})
        assert len(seen) >= 2
        for posterior in seen + [outcome.posterior]:
            assert list(posterior[0]) == [0.0, 1.0]

    def test_parameters_returned_from_last_m_step(self):
        outcome = run_em_sharded(
            scripted(1, lambda post: "params!", lambda p: [[0.6, 0.4]]),
            initial_posterior=[[0.5, 0.5]], tolerance=1e-6, max_iter=10)
        assert outcome.parameters == "params!"

    def test_nan_posterior_raises(self):
        with pytest.raises(ConvergenceError):
            run_em_sharded(
                scripted(1, lambda post: None, lambda p: [[np.nan, 1.0]]),
                initial_posterior=[[0.5, 0.5]], tolerance=1e-6, max_iter=5)

    def test_cold_start_opens_from_the_spec_init_block(self):
        seen = []
        init = np.array([[0.7, 0.3], [0.1, 0.9]])
        outcome = run_em_sharded(
            scripted(2, recording(seen), lambda p: init, init=init),
            tolerance=1e-6, max_iter=10)
        np.testing.assert_array_equal(seen[0], init)
        assert outcome.converged

    def test_blocks_assemble_in_shard_order(self):
        class ByTask(ScriptedSpec):
            def e_block(self, shard, ops, params):
                rows = np.arange(shard.task_start, shard.task_stop)
                return np.stack([rows, -rows], axis=1).astype(float)

        runner = scripted(9, n_shards=3, spec=ByTask(lambda post: None))
        assert runner.n_shards == 3
        outcome = run_em_sharded(runner, initial_posterior=np.zeros((9, 2)),
                                 tolerance=1e-6, max_iter=5)
        np.testing.assert_array_equal(outcome.posterior[:, 0], np.arange(9))
        np.testing.assert_array_equal(outcome.posterior[:, 1], -np.arange(9))

    def test_incomplete_dispatch_raises(self):
        # A runner handing back fewer blocks than shards broke its
        # recovery contract: no short state may be assembled from them.
        class DropsOne(SerialShardRunner):
            def call(self, phase, per_shard=None, shared=(), only=None):
                results = super().call(phase, per_shard, shared, only)
                return results[:-1] if phase == "e_block" else results

        plain = scripted(4, lambda post: None, lambda p: np.full((2, 2), .5),
                         n_shards=2)
        with pytest.raises(InferenceError, match="idempotent and complete"):
            run_em_sharded(DropsOne(plain.spec, plain.shards),
                           initial_posterior=np.full((4, 2), 0.5),
                           tolerance=1e-6, max_iter=5)


class TestRunEMWarmAPI:
    def test_initial_parameters_take_precedence(self):
        target = np.array([[0.9, 0.1]])
        seen = []
        outcome = run_em_sharded(
            scripted(1, recording(seen, "params"), lambda params: target),
            initial_posterior=[[0.5, 0.5]], initial_parameters="warm",
            tolerance=1e-6, max_iter=10)
        # The first M-step saw e_step(initial_parameters), not the
        # initial_posterior: parameters took precedence.
        np.testing.assert_allclose(seen[0], target)
        assert outcome.converged
        # e_step is a fixed point: one update to set, one to confirm.
        assert outcome.n_iterations == 2

    def test_priming_e_step_counts_as_an_iteration(self):
        """At a fixed point, a warm start from parameters stops after a
        single M-step (its priming E-step was the first iteration); a
        start from the same posterior needs two."""
        target = np.array([[0.9, 0.1]])
        warm_seen, cold_seen = [], []
        warm = run_em_sharded(
            scripted(1, recording(warm_seen), lambda p: target),
            initial_parameters="warm", tolerance=1e-6, max_iter=10)
        cold = run_em_sharded(
            scripted(1, recording(cold_seen), lambda p: target),
            initial_posterior=target, tolerance=1e-6, max_iter=10)
        assert (len(warm_seen), len(cold_seen)) == (1, 2)
        assert warm.n_iterations == cold.n_iterations == 2
        assert warm.fit_stats.e_block_calls == cold.fit_stats.e_block_calls


class TestRunAlternating:
    def test_requires_initial_weights(self):
        runner = scripted(1, lambda s: [1.0], lambda w: [[0.5, 0.5]])
        with pytest.raises(InferenceError, match="initial_parameters"):
            run_alternating_sharded(runner)

    def test_truth_step_opens_at_the_initial_weights(self):
        seen = []
        outcome = run_alternating_sharded(
            scripted(1, lambda s: [2.0], recording(seen, [[0.5, 0.5]])),
            initial_parameters=np.array([7.0]), tolerance=1e-6, max_iter=10)
        np.testing.assert_array_equal(seen[:2], [[7.0], [2.0]])
        np.testing.assert_array_equal(outcome.parameters, [2.0])

    def test_convergence_is_tracked_on_the_weights(self):
        """The truth state keeps moving while the weights hold still:
        the loop stops anyway, because it grades the weights."""
        steps = iter(range(1, 100))
        outcome = run_alternating_sharded(
            scripted(1, lambda s: [1.0], lambda w: [[next(steps), 0.0]]),
            initial_parameters=np.array([1.0]), tolerance=1e-6, max_iter=50)
        assert outcome.converged
        assert outcome.n_iterations == 2

    def test_counted_prime_lets_a_warm_refit_stop_after_one_step(self):
        runner = scripted(1, lambda s: [3.0], lambda w: [[0.5, 0.5]])
        warm, cold = (run_alternating_sharded(
            runner, initial_parameters=np.array([3.0]), tolerance=1e-6,
            max_iter=50, count_prime=prime) for prime in (True, False))
        assert warm.converged and cold.converged
        assert warm.fit_stats.e_block_calls == 1
        assert cold.fit_stats.e_block_calls == 2

    def test_golden_clamped_before_the_weight_step(self):
        seen = []
        run_alternating_sharded(
            scripted(2, recording(seen, [1.0]), lambda w: np.full((2, 2), .5)),
            initial_parameters=np.array([1.0]), tolerance=1e-6, max_iter=5,
            golden={1: 0})
        for state in seen:
            assert list(state[0]) == [0.5, 0.5]
            assert list(state[1]) == [1.0, 0.0]


class TestDeltaCap:
    """The iteration cap holds on every path of a delta refit, the
    verify before declaring convergence included."""

    def test_em_refit_stops_at_the_cap_while_verifies_keep_drifting(self):
        # Every E-step moves its block by 1e-7: the active shard counts
        # as converged (tolerance 1e-6) but never freezes (1e-8), and
        # every verify finds the frozen shard drifted.
        runner, plan = creeping_refit(
            Creeping(lambda state: None, lambda k, n: 1e-7 * n),
            freeze_tol=1e-8)
        outcome = run_em_sharded(runner, initial_parameters="warm",
                                 tolerance=1e-6, max_iter=5, delta=plan)
        assert outcome.n_iterations == 5
        assert not outcome.converged
        assert outcome.fit_stats.iterations == 5

    def test_alternating_refit_stops_at_the_cap_when_weights_oscillate(self):
        # The weights settle once (the verify then finds drift) and
        # oscillate by 0.4 from there on.
        runner, plan = creeping_refit(
            Creeping(weight_steps(1.0, 1.4, 1.0), lambda k, n: 1e-3 * n),
            freeze_tol=1e-6)
        outcome = run_alternating_sharded(
            runner, initial_parameters=np.array([1.0]), tolerance=1e-6,
            max_iter=3, delta=plan)
        assert outcome.n_iterations == 3
        assert not outcome.converged

    def test_a_capped_alternating_refit_is_not_converged(self):
        # The weights settle once, the verify finds drift, and the cap
        # stops the loop right after a weight step of 0.4; the final
        # verify finds nothing left to drift.
        runner, plan = creeping_refit(
            Creeping(weight_steps(1.0, 1.4, 1.0), lambda k, n: 1e-3),
            freeze_tol=1e-6)
        outcome = run_alternating_sharded(
            runner, initial_parameters=np.array([1.0]), tolerance=1e-6,
            max_iter=3, delta=plan)
        np.testing.assert_array_equal(outcome.parameters, [1.4])
        assert outcome.n_iterations == 3
        assert not outcome.converged
