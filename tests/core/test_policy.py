"""ExecutionPolicy / ExecutionPlan / MethodSpec — the one vocabulary."""

import os
import pickle

import pytest

from repro.core.policy import (
    DEFAULT_PROCESS_THRESHOLD,
    ExecutionPlan,
    ExecutionPolicy,
    MethodSpec,
    resolve_process_workers,
)
from repro.core.registry import create
from repro.core.tasktypes import TaskType


class TestExecutionPolicy:
    def test_defaults(self):
        policy = ExecutionPolicy()
        assert policy.n_shards is None
        assert policy.executor == "auto"

    def test_frozen(self):
        policy = ExecutionPolicy()
        with pytest.raises(Exception):
            policy.n_shards = 4

    @pytest.mark.parametrize("bad", [
        dict(executor="gpu"),
        dict(n_shards=0),
        dict(max_workers=0),
        dict(refit="sometimes"),
        dict(freeze_tol=0.0),
        dict(verify_every=0),
        dict(store="wal"),
        dict(fault_policy="strict"),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ExecutionPolicy(**bad)

    def test_auto_shards_default(self):
        cpus = os.cpu_count() or 1
        assert ExecutionPolicy().resolve(
            n_answers=0).n_shards == max(2, min(8, cpus))
        assert ExecutionPolicy(n_shards=5).resolve(
            n_answers=0).n_shards == 5

    def test_serial_plan(self):
        plan = ExecutionPolicy(n_shards=4, executor="serial").resolve(
            n_answers=10)
        assert plan == ExecutionPlan(mode="serial", n_shards=4,
                                     max_workers=0)
        assert plan.sharded

    def test_thread_plan_defaults_width(self):
        plan = ExecutionPolicy(n_shards=4, executor="thread").resolve(
            n_answers=10)
        cpus = os.cpu_count() or 1
        assert plan.mode == "thread"
        assert plan.max_workers == min(4, max(2, cpus))

    def test_process_plan_clamps_width_to_shards(self):
        plan = ExecutionPolicy(n_shards=2, executor="process",
                               max_workers=16).resolve(n_answers=10)
        assert plan.mode == "process"
        assert plan.max_workers == 2
        assert plan.runtime_key == (2, 2)

    def test_auto_reaches_for_processes_above_threshold(self):
        policy = ExecutionPolicy(n_shards=2)
        plan = policy.resolve(n_answers=DEFAULT_PROCESS_THRESHOLD)
        if (os.cpu_count() or 1) > 1:
            assert plan.mode == "process"
        else:
            assert plan.mode in ("serial", "thread")

    def test_auto_stays_in_process_below_threshold(self):
        policy = ExecutionPolicy(n_shards=2)
        assert policy.resolve(
            n_answers=DEFAULT_PROCESS_THRESHOLD - 1).mode in ("serial",
                                                              "thread")

    def test_resolve_reads_n_answers_off_answer_objects(self):
        class Fake:
            n_answers = 10**9

        policy = ExecutionPolicy(n_shards=2)
        assert policy.resolve(Fake()) == policy.resolve(n_answers=10**9)

    def test_resolve_process_workers_formula(self):
        cpus = os.cpu_count() or 1
        assert resolve_process_workers(4, None) == min(4, cpus)
        assert resolve_process_workers(2, 8) == 2
        assert resolve_process_workers(8, 3) == 3


class TestMethodSpec:
    def test_name_and_kwargs(self):
        spec = MethodSpec("D&S", max_iter=9, seed=0)
        assert spec.name == "D&S"
        assert spec.kwargs == {"max_iter": 9, "seed": 0}

    def test_equality_ignores_kwarg_order(self):
        assert MethodSpec("ZC", a=1, b=2) == MethodSpec("ZC", b=2, a=1)
        assert MethodSpec("ZC", a=1) != MethodSpec("ZC", a=2)

    def test_with_defaults_does_not_override(self):
        spec = MethodSpec("GLAD", seed=7).with_defaults(seed=0, max_iter=3)
        assert spec.kwargs == {"seed": 7, "max_iter": 3}

    def test_coerce(self):
        spec = MethodSpec("D&S", seed=1)
        assert MethodSpec.coerce(spec) is not None
        assert MethodSpec.coerce(spec).kwargs == {"seed": 1}
        assert MethodSpec.coerce("D&S", {"seed": 1}) == spec
        # extra kwargs become defaults only
        assert MethodSpec.coerce(spec, {"seed": 9}).kwargs == {"seed": 1}

    def test_requires_name(self):
        with pytest.raises(ValueError):
            MethodSpec("")

    def test_picklable(self):
        spec = MethodSpec("D&S", seed=0, max_iter=5)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_create_and_capabilities(self):
        spec = MethodSpec("D&S", seed=0)
        instance = spec.create()
        assert instance.name == "D&S"
        assert instance.method_spec == spec
        assert spec.capabilities().sharding is True


class TestFitPolicy:
    """fit(policy=...) drives the in-process tiers end to end."""

    def _answers(self):
        import numpy as np

        from repro.core.answers import AnswerSet

        rng = np.random.default_rng(0)
        return AnswerSet(rng.integers(0, 30, 300), rng.integers(0, 6, 300),
                         rng.integers(0, 2, 300), TaskType.DECISION_MAKING,
                         n_tasks=30, n_workers=6)

    def test_process_plan_requires_registry_built_method(self):
        from repro.methods.dawid_skene import DawidSkene

        answers = self._answers()
        direct = DawidSkene(seed=0)  # no method_spec recorded
        with pytest.raises(ValueError, match="registry-created"):
            direct.fit(answers, policy=ExecutionPolicy(
                n_shards=2, executor="process"))


class TestIgnoredPolicyWarning:
    """A non-sharding method handed explicit parallelism says so."""

    def _answers(self):
        import numpy as np

        from repro.core.answers import AnswerSet

        rng = np.random.default_rng(0)
        return AnswerSet(rng.integers(0, 30, 300), rng.integers(0, 6, 300),
                         rng.integers(0, 2, 300), TaskType.DECISION_MAKING,
                         n_tasks=30, n_workers=6)

    def test_warns_once_naming_method_and_fields(self):
        answers = self._answers()
        policy = ExecutionPolicy(n_shards=4, executor="process")
        with pytest.warns(UserWarning) as caught:
            create("MV", seed=0).fit(answers, policy=policy)
        messages = [str(w.message) for w in caught
                    if w.category is UserWarning]
        assert len(messages) == 1
        assert "MV" in messages[0]
        assert "n_shards=4" in messages[0]
        assert "executor='process'" in messages[0]

    def test_resolved_plan_warns_with_mode(self):
        answers = self._answers()
        plan = ExecutionPolicy(n_shards=4, executor="thread").resolve(
            answers)
        with pytest.warns(UserWarning, match="mode='thread'"):
            create("MV", seed=0).fit(answers, policy=plan)

    def test_default_policy_stays_silent(self):
        import warnings as _warnings

        answers = self._answers()
        # Auto tiering with no explicit shard count — how grids apply
        # one policy across the zoo — must not warn on MV.
        with _warnings.catch_warnings():
            _warnings.simplefilter("error", UserWarning)
            create("MV", seed=0).fit(answers,
                                     policy=ExecutionPolicy())
            create("MV", seed=0).fit(
                answers, policy=ExecutionPolicy(n_shards=1,
                                                executor="serial"))

    def test_sharded_method_does_not_warn(self):
        import warnings as _warnings

        answers = self._answers()
        with _warnings.catch_warnings():
            _warnings.simplefilter("error", UserWarning)
            create("D&S", seed=0).fit(
                answers, policy=ExecutionPolicy(n_shards=3,
                                                executor="serial"))
