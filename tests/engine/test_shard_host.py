"""One shard host per process: recovery of worker-held state, warm
layouts adopted on the process tier, and the EM specs kept between fits.

* GLAD, Minimax and Minimax-Ord cache per-shard tensors in ``ops`` at
  ``begin_m_step`` that every ``grad_step`` reads.  A worker lost
  during the gradient rounds — respawned, or degraded to the master —
  must recover them from the phase log, bit for bit, in full fits and
  in delta refits.
* A recovered process-tier engine adopts its snapshot's pinned cuts
  into the runtime, so its first refit is a delta refit.
* A host keeps one spec per method construction, up to
  ``MAX_SPECS``, so a mix of refresher and reader fits reuses them; an
  extend fits the segment capacity its placement reserved, so it keeps
  them too.
"""

import os

import numpy as np
import pytest

from repro.core.answers import AnswerSet
from repro.core.policy import (
    ExecutionPolicy,
    FaultPolicy,
    MethodSpec,
    StorePolicy,
)
from repro.core.registry import create
from repro.core.tasktypes import TaskType
from repro.engine import InferenceEngine, SerialShardSession
from repro.engine.placement import MAX_SPECS
from repro.engine.runtime import ShardRuntime, _rt_probe
from repro.faults import FaultPlan, FaultTrigger
from tests.fault_arming import armed

GRADIENT_METHODS = ["GLAD", "Minimax", "Minimax-Ord"]

#: Delta refits over a supplied lease: the runner is the lease's, the
#: policy only says how to refit.
DELTA = ExecutionPolicy(refit="delta")

#: Recovery modes: a respawn within the retry budget, or a degrade to
#: the master once the budget (none) is spent.
MODES = {
    "respawn": FaultPolicy(deadline=30.0),
    "degrade": FaultPolicy(deadline=30.0, retries=0),
}


def build_answers(n_tasks, n_answers, seed=0, n_workers=8, first_task=0):
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, 2, first_task + n_tasks)
    acc = rng.uniform(0.55, 0.95, n_workers)
    tasks = np.sort(rng.integers(first_task, first_task + n_tasks,
                                 n_answers))
    workers = rng.integers(0, n_workers, n_answers)
    correct = rng.random(n_answers) < acc[workers]
    values = np.where(correct, truth[tasks], 1 - truth[tasks])
    return tasks, workers, values


def answer_set(*parts):
    tasks, workers, values = (np.concatenate(arrays)
                              for arrays in zip(*parts))
    return AnswerSet(tasks, workers, values, TaskType.DECISION_MAKING,
                     n_tasks=int(tasks.max()) + 1, n_workers=8)


def grad_step_kill():
    return FaultPlan([FaultTrigger("kill", phase="grad_step", on=2)])


@pytest.fixture(scope="module")
def base_part():
    return build_answers(60, 400)


class TestGradientRoundRecovery:
    """The state ``begin_m_step`` leaves in a worker survives its loss."""

    @staticmethod
    def fit(answers, method, plan=None, policy=None):
        spec = MethodSpec(method, seed=0)
        with ShardRuntime(n_shards=2, max_workers=2) as rt:
            with armed(plan), rt.lease(answers, spec,
                                       fault_policy=policy) as lease:
                result = create(spec).fit(answers, shard_runner=lease)
        return result, lease.fault_events

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("method", GRADIENT_METHODS)
    def test_full_fit(self, base_part, method, mode):
        answers = answer_set(base_part)
        clean, _ = self.fit(answers, method)
        plan = grad_step_kill()
        out, events = self.fit(answers, method, plan, MODES[mode])
        assert plan.fired["kill"] == 1
        assert events["respawns"] >= 1
        assert (events["degraded"] >= 1) == (mode == "degrade")
        assert np.array_equal(clean.posterior, out.posterior)

    @staticmethod
    def refit(base, grown, method, plan=None, policy=None):
        """A collecting fit of ``base``, then a delta refit of
        ``grown`` under ``plan`` on the same runtime."""
        spec = MethodSpec(method, seed=0)
        with ShardRuntime(n_shards=4, max_workers=2) as rt:
            with rt.lease(base, spec, stream_key="s") as lease:
                first = create(spec).fit(base, shard_runner=lease,
                                         policy=DELTA)
            with armed(plan), rt.lease(grown, spec, stream_key="s",
                                       fault_policy=policy) as lease:
                result = create(spec).fit(grown, shard_runner=lease,
                                          warm_start=first, policy=DELTA)
        return result, lease.fault_events

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("method", GRADIENT_METHODS)
    def test_delta_refit(self, base_part, method, mode):
        base = answer_set(base_part)
        # New tasks only: they extend the last shard, the other three
        # stay clean and start frozen.
        grown = answer_set(base_part,
                           build_answers(6, 60, seed=1, first_task=60))
        clean, _ = self.refit(base, grown, method)
        assert clean.fit_stats.mode == "delta"
        assert clean.fit_stats.frozen_shards[0] == 3
        plan = grad_step_kill()
        out, events = self.refit(base, grown, method, plan, MODES[mode])
        assert plan.fired["kill"] == 1
        assert events["respawns"] >= 1
        assert (events["degraded"] >= 1) == (mode == "degrade")
        assert out.fit_stats.mode == "delta"
        assert np.array_equal(clean.posterior, out.posterior)


class TestProcessAdoption:
    def test_recovered_engine_refits_delta_first(self, tmp_path):
        """Both tiers resume the snapshot's cuts: the first refit after
        recovery is a delta refit, and the tiers agree bit for bit."""
        tasks, workers, values = build_answers(420, 2100)
        records = list(zip(tasks.tolist(), workers.tolist(),
                           values.tolist()))
        before = int(np.searchsorted(tasks, 400))
        results = {}
        for executor in ("serial", "process"):
            path = str(tmp_path / executor)
            policy = ExecutionPolicy(
                n_shards=4, executor=executor, max_workers=2,
                refit="delta", store=StorePolicy(path=path,
                                                 snapshot_every=1))
            with InferenceEngine(TaskType.DECISION_MAKING, seed=0,
                                 label_order=[0, 1],
                                 policy=policy) as engine:
                engine.add_answers(records[:before])
                engine.infer("D&S")
            with InferenceEngine.recover(path, policy=policy) as engine:
                engine.add_answers(records[before:])
                results[executor] = engine.infer("D&S")
        for result in results.values():
            assert result.fit_stats.mode == "delta"
        assert np.array_equal(results["serial"].posterior,
                              results["process"].posterior)

    def test_lease_after_adopt_may_reallocate(self, base_part):
        """An adopt queues an attach for the current segments; a lease
        whose extend reallocates them must not send it."""
        spec = MethodSpec("D&S", seed=0)
        base = answer_set(base_part)
        grown = answer_set(base_part,
                           build_answers(60, 400, seed=1, first_task=60))
        state = create(spec).fit(
            base, policy=ExecutionPolicy(n_shards=4, executor="serial",
                                         refit="delta")).shard_state
        with ShardRuntime(n_shards=4, max_workers=1) as rt:
            rt.adopt(base, state, stream_key="s")
            with rt.lease(grown, spec, stream_key="s") as lease:
                blocks = lease.call("init_block")
            assert rt.last_placement == "extend"
        assert sum(len(block) for block in blocks) == grown.n_tasks


class TestSpecRetention:
    """A mixed refresher/reader sequence reuses the kept specs."""

    ROUNDS = 6

    @staticmethod
    def engine(**policy):
        return InferenceEngine(
            TaskType.DECISION_MAKING, seed=0, label_order=[0, 1],
            policy=ExecutionPolicy(n_shards=4, refit="delta", **policy))

    def run_mix(self, engine):
        """A 2,000-task stream, then rounds of 50 new tasks, each
        followed by a refresher and two reader fits."""
        tasks, workers, values = build_answers(
            2000 + 50 * self.ROUNDS, 4 * (2000 + 50 * self.ROUNDS))
        bounds = [int(np.searchsorted(tasks, 2000 + 50 * r))
                  for r in range(self.ROUNDS + 1)]
        records = list(zip(tasks.tolist(), workers.tolist(),
                           values.tolist()))
        engine.add_answers(records[:bounds[0]])
        for r in range(self.ROUNDS):
            engine.add_answers(records[bounds[r]:bounds[r + 1]])
            engine.infer("D&S", tolerance=1e-6)
            engine.infer("KOS")
            engine.infer("D&S")

    def test_serial_session_reuses_every_spec_after_the_first_round(self):
        with self.engine(executor="serial") as engine:
            self.run_mix(engine)
            assert engine._sessions[4].spec_reuses == 15

    @pytest.mark.skipif(
        bool(os.environ.get("REPRO_FAULTS")),
        reason="a canned fault plan may respawn workers, resetting "
               "their kept specs")
    def test_process_worker_reuses_specs(self):
        with self.engine(executor="process", max_workers=1) as engine:
            self.run_mix(engine)
            probe = engine._runtime._workers[0].call(_rt_probe)
        assert probe["spec_reuses"] == 15

    @pytest.mark.skipif(
        bool(os.environ.get("REPRO_FAULTS")),
        reason="a canned fault plan may respawn workers, resetting "
               "their kept specs")
    def test_extends_keep_the_segments_and_the_specs(self):
        """A placement reserves room for every extend it allows, so
        extends append in place and the worker keeps its spec."""
        tasks, workers, values = build_answers(1000, 3300)
        spec = MethodSpec("D&S", seed=0)
        names, reuses = [], []
        with ShardRuntime(n_shards=4, max_workers=1) as rt:
            for n in (3000, 3100, 3200, 3300):
                answers = answer_set((tasks[:n], workers[:n], values[:n]))
                with rt.lease(answers, spec, stream_key="s") as lease:
                    create(spec).fit(answers, shard_runner=lease)
                names.append(rt.segment_names())
                reuses.append(rt._workers[0].call(_rt_probe)["spec_reuses"])
            assert rt.extends == 3
        assert all(n == names[0] for n in names)
        assert reuses == [0, 1, 2, 3]

    def test_the_oldest_spec_is_evicted_past_the_bound(self, base_part):
        answers = answer_set(base_part)
        session = SerialShardSession(2)
        tolerances = [10.0 ** -(3 + i) for i in range(MAX_SPECS + 1)]

        def configure(tolerance):
            instance = create("D&S", seed=0, tolerance=tolerance)
            return session.runner(answers, instance).spec

        specs = [configure(t) for t in tolerances]
        assert session.spec_reuses == 0
        assert len(session._host._specs) == MAX_SPECS
        # The newest MAX_SPECS are kept...
        assert configure(tolerances[-1]) is specs[-1]
        assert configure(tolerances[1]) is specs[1]
        assert session.spec_reuses == 2
        # ...and the first was evicted, so it is rebuilt.
        assert configure(tolerances[0]) is not specs[0]
        assert session.spec_reuses == 2
        assert len(session._host._specs) == MAX_SPECS


def test_crashes_reach_fit_stats_and_engine_totals(base_part):
    answers = answer_set(base_part)
    plan = FaultPlan([FaultTrigger("kill", shard=1, on=2)])
    policy = ExecutionPolicy(n_shards=2, executor="process", max_workers=2,
                             fault_policy=FaultPolicy(deadline=30.0))
    with InferenceEngine(TaskType.DECISION_MAKING, seed=0,
                         label_order=[0, 1], policy=policy) as engine:
        engine.add_answers(list(zip(*(part.tolist()
                                      for part in base_part))))
        with armed(plan):
            stats = engine.infer("D&S").fit_stats
        totals = dict(engine.fault_totals)
    assert stats.crashes >= 1
    assert f"{stats.crashes} crashes" in stats.summary()
    assert totals["crashes"] == stats.crashes
