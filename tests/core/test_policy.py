"""ExecutionPolicy / ExecutionPlan / MethodSpec — the one vocabulary."""

import os
import pickle
import warnings

import pytest

from repro.core.policy import (
    DEFAULT_PROCESS_THRESHOLD,
    ExecutionPlan,
    ExecutionPolicy,
    MethodSpec,
    resolve_process_workers,
)
from repro.core.registry import create, create_all
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
        assert ExecutionPolicy().resolved_shards == max(2, min(8, cpus))
        assert ExecutionPolicy(n_shards=5).resolved_shards == 5

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

    def test_create_with_policy_sets_sharding(self):
        spec = MethodSpec("D&S", seed=0)
        policy = ExecutionPolicy(n_shards=3, executor="serial")
        assert spec.create(policy=policy).n_shards == 3
        # Methods without sharded EM ignore the policy outright.
        assert MethodSpec("MV").create(policy=policy).n_shards == 1

    @pytest.mark.parametrize("policy", [
        ExecutionPolicy(n_shards=2, executor="process"),
        ExecutionPolicy(n_shards=2, executor="process").resolve(
            n_answers=0),
    ], ids=["policy", "plan"])
    def test_create_rejects_the_process_tier(self, policy):
        # A process-tier instance needs a runner at fit time; create()
        # must not hand back a silently serial instance instead.
        with pytest.raises(ValueError, match=r"fit\(policy=\.\.\.\)"):
            MethodSpec("D&S", seed=0).create(policy=policy)
        with pytest.raises(ValueError, match="process"):
            create_all(TaskType.DECISION_MAKING, names=["D&S"],
                       policy=policy)

    def test_create_ignores_process_tier_for_non_sharding_methods(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            instance = create("MV", policy=ExecutionPolicy(
                n_shards=4, executor="process"))
        assert instance.n_shards == 1

    def test_create_thread_policy_defaults_a_real_width(self):
        # A forced thread tier must actually thread: the default pool
        # width resolves like ExecutionPolicy.resolve, not to 0.
        instance = MethodSpec("D&S").create(
            policy=ExecutionPolicy(n_shards=4, executor="thread"))
        expected = ExecutionPolicy(
            n_shards=4, executor="thread").resolve(n_answers=0)
        assert instance.shard_workers == expected.max_workers
        assert instance.shard_workers >= 1


class TestFitPolicy:
    """fit(policy=...) drives the in-process tiers end to end."""

    def _answers(self):
        import numpy as np

        from repro.core.answers import AnswerSet

        rng = np.random.default_rng(0)
        return AnswerSet(rng.integers(0, 30, 300), rng.integers(0, 6, 300),
                         rng.integers(0, 2, 300), TaskType.DECISION_MAKING,
                         n_tasks=30, n_workers=6)

    def test_fit_policy_matches_constructor_sharding(self):
        import numpy as np

        answers = self._answers()
        policy = ExecutionPolicy(n_shards=3, executor="serial")
        via_create = create("D&S", seed=0, policy=policy).fit(answers)
        via_fit = create("D&S", seed=0).fit(answers, policy=policy)
        assert np.array_equal(via_create.posterior, via_fit.posterior)

    def test_fit_policy_overrides_constructor(self):
        answers = self._answers()
        instance = create("D&S", seed=0,
                          policy=ExecutionPolicy(n_shards=2,
                                                 executor="serial"))
        # The per-fit policy wins over construction-time sharding.
        result = instance.fit(
            answers, policy=ExecutionPolicy(n_shards=1, executor="serial"))
        assert result.posterior is not None

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
