"""Public API surface: export snapshots and the one execution entry point.

1. The ``__all__`` exports of :mod:`repro` and :mod:`repro.engine`, and
   the fields of ``ExecutionPolicy``/``ExecutionPlan``, are pinned, so a
   refactor cannot silently drop (or leak) a public name or knob.
2. Grid-level and per-job policies reach each fit the way the batch
   layer documents, on every tier.
3. ``fit(policy=...)`` is the one execution entry point and
   ``warm_start`` the one resume input: knobs with no entry point left
   fail at the call with a ``TypeError``.
"""

import dataclasses

import numpy as np
import pytest

import repro
import repro.engine
from repro.core.answers import AnswerSet
from repro.core.policy import ExecutionPlan, ExecutionPolicy, MethodSpec
from repro.core.registry import Capabilities, create, create_all
from repro.core.tasktypes import TaskType
from repro.datasets.schema import Dataset
from repro.engine import BatchJob, BatchRunner, InferenceEngine
from repro.engine.runtime import RuntimeRegistry, ShardRuntime
from repro.experiments.runner import run_grid, run_many, run_method
from repro.faults import FaultPlan

REPRO_ALL = [
    "AnswerSet",
    "Capabilities",
    "Dataset",
    "ExecutionPlan",
    "ExecutionPolicy",
    "FitStats",
    "InferenceResult",
    "MethodSpec",
    "ReproError",
    "StorePolicy",
    "TaskType",
    "TruthInferenceMethod",
    "__version__",
    "all_paper_datasets",
    "available_methods",
    "capabilities",
    "create",
    "create_all",
    "load_paper_dataset",
    "methods_for_task_type",
]

ENGINE_ALL = [
    "AnswerSource",
    "BatchJob",
    "BatchRunner",
    "CsvAnswerSource",
    "ExecutionPlan",
    "ExecutionPolicy",
    "InferenceEngine",
    "IterableAnswerSource",
    "LineAnswerSource",
    "MethodSpec",
    "RuntimeLease",
    "RuntimeRegistry",
    "SerialShardSession",
    "ShardRuntime",
    "StorePolicy",
    "StreamingAnswerSet",
    "TaskSchema",
    "get_runtime_registry",
]


#: Every execution knob a fit can be given, in declaration order.
POLICY_FIELDS = ["n_shards", "executor", "max_workers", "refit",
                 "freeze_tol", "verify_every", "store", "fault_policy"]
PLAN_FIELDS = ["mode", "n_shards", "max_workers", "refit", "freeze_tol",
               "verify_every", "fault_policy"]


class TestExports:
    def test_repro_all_snapshot(self):
        assert repro.__all__ == REPRO_ALL

    def test_engine_all_snapshot(self):
        assert repro.engine.__all__ == ENGINE_ALL

    @pytest.mark.parametrize("cls,names", [
        (ExecutionPolicy, POLICY_FIELDS), (ExecutionPlan, PLAN_FIELDS)])
    def test_execution_fields_snapshot(self, cls, names):
        assert [f.name for f in dataclasses.fields(cls)] == names

    @pytest.mark.parametrize("module,names", [
        (repro, REPRO_ALL), (repro.engine, ENGINE_ALL)])
    def test_every_export_resolves(self, module, names):
        for name in names:
            assert getattr(module, name) is not None


# ----------------------------------------------------------------------
# Grid policies and per-job shard counts
# ----------------------------------------------------------------------
def build_answers(seed=0, n_tasks=40, n_workers=6, n_answers=320):
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, 2, n_tasks)
    acc = rng.uniform(0.55, 0.95, n_workers)
    tasks = rng.integers(0, n_tasks, n_answers)
    workers = rng.integers(0, n_workers, n_answers)
    correct = rng.random(n_answers) < acc[workers]
    values = np.where(correct, truth[tasks], 1 - truth[tasks])
    return AnswerSet(tasks, workers, values, TaskType.DECISION_MAKING,
                     n_tasks=n_tasks, n_workers=n_workers), truth


@pytest.fixture()
def dataset():
    answers, truth = build_answers(seed=2)
    return Dataset(name="synthetic", answers=answers, truth=truth)


#: Execution knobs with no entry point left, each spelled at the call it
#: used to be accepted by.
REMOVED_SPELLINGS = {
    "engine-n_shards": lambda ds: InferenceEngine(
        TaskType.DECISION_MAKING, n_shards=3),
    "engine-shard_workers": lambda ds: InferenceEngine(
        TaskType.DECISION_MAKING, shard_workers=2),
    "run_method-method_kwargs": lambda ds: run_method(
        "D&S", ds, method_kwargs={"max_iter": 7}),
    "run_method-n_shards": lambda ds: run_method("D&S", ds, n_shards=3),
    "run_method-shard_workers": lambda ds: run_method(
        "D&S", ds, shard_workers=2),
    "run_many-method_names": lambda ds: run_many(ds, method_names=["MV"]),
    "run_many-executor": lambda ds: run_many(
        ds, ["MV"], max_workers=2, executor="thread"),
    "run_many-n_shards": lambda ds: run_many(ds, ["MV"], n_shards=3),
    "run_grid-n_shards": lambda ds: run_grid([ds], methods=["MV"],
                                             n_shards=3),
    "run_grid-executor": lambda ds: run_grid([ds], executor="thread"),
    "BatchJob-method_kwargs": lambda ds: BatchJob(
        dataset=ds, method="D&S", method_kwargs={"max_iter": 7}),
    "BatchRunner-executor": lambda ds: BatchRunner(max_workers=2,
                                                   executor="thread"),
    "BatchRunner.run_grid-n_shards": lambda ds: BatchRunner(
        max_workers=1).run_grid([ds], methods=["MV"], n_shards=3),
    "lease-positional": lambda ds: RuntimeRegistry().lease(
        2, None, ds.answers, "D&S", {}),
    # The registry keys on a resolved plan only.
    "registry.acquire-pair": lambda ds: RuntimeRegistry().acquire(2, 1),
    # How a fit runs is given to fit(policy=...), never to the method.
    "create-policy": lambda ds: create(
        "D&S", policy=ExecutionPolicy(n_shards=2, executor="serial")),
    "create-n_shards": lambda ds: create("D&S", n_shards=3),
    "create-shard_workers": lambda ds: create("D&S", shard_workers=2),
    "create_all-policy": lambda ds: create_all(
        TaskType.DECISION_MAKING, names=["D&S"],
        policy=ExecutionPolicy(n_shards=2, executor="serial")),
    "MethodSpec.create-policy": lambda ds: MethodSpec("D&S").create(
        policy=ExecutionPolicy(n_shards=2, executor="serial")),
    # A fault plan is armed process-wide (repro.faults.arm), never
    # through a policy or a lease.
    "ExecutionPolicy-faults": lambda ds: ExecutionPolicy(
        faults=FaultPlan.parse("kill")),
    "ShardRuntime.lease-faults": lambda ds: ShardRuntime(
        n_shards=2, max_workers=1).lease(ds.answers, "D&S",
                                         faults=FaultPlan.parse("kill")),
    # A fit resumes from its warm start alone: it derives its delta
    # plan and its majority-vote start.
    "fit-delta": lambda ds: create("D&S").fit(ds.answers, delta=None),
    "fit-seed_posterior": lambda ds: create("D&S").fit(
        ds.answers, seed_posterior=None),
    "run_method-seed_posterior": lambda ds: run_method(
        "D&S", ds, seed_posterior=None),
    "BatchRunner-share_mv_seed": lambda ds: BatchRunner(
        max_workers=1, share_mv_seed=False),
    "BatchJob-seed_posterior": lambda ds: BatchJob(
        dataset=ds, method="D&S", seed_posterior=None),
    # Sharding is the one execution capability.
    "Capabilities-warm_start": lambda ds: Capabilities(
        warm_start=True, seed_posterior=True, sharding=True, golden=True,
        initial_quality=True, task_types=frozenset(), delta=True),
}


class TestRemovedSpellings:
    @pytest.mark.parametrize("spelling", sorted(REMOVED_SPELLINGS))
    def test_fails_at_the_call(self, spelling, dataset):
        with pytest.raises(TypeError, match="unexpected keyword argument"
                           "|positional arguments but"):
            REMOVED_SPELLINGS[spelling](dataset)


class TestBatchPolicies:
    def test_unsharded_jobs_stay_plain_under_a_process_policy(
            self, dataset):
        """Jobs with no shard count must not be silently auto-sharded
        (and must not spawn the process runtime) just because the
        runner carries a process-tier policy."""
        from repro.engine.runtime import get_runtime_registry

        registry = get_runtime_registry()
        before = len(registry)
        runner = BatchRunner(max_workers=1,
                             policy=ExecutionPolicy(n_shards=1,
                                                    executor="process"))
        runs = runner.run([BatchJob(dataset=dataset, method="D&S",
                                    seed=0)])
        plain = run_method("D&S", dataset, seed=0)
        assert len(registry) == before
        assert runs[0].scores == plain.scores
        assert runs[0].n_iterations == plain.n_iterations

    def test_spec_shard_counts_reach_the_runtime(self, dataset):
        """A shard count spelled in the job's own policy wins over the
        runner's process-tier policy: the fit must actually run on the
        leased runtime at that shard count."""
        from repro.engine.runtime import get_runtime_registry

        job = BatchJob(dataset=dataset, method="D&S",
                       policy=ExecutionPolicy(n_shards=2,
                                              executor="process"))
        registry = get_runtime_registry()
        try:
            runs = BatchRunner(
                max_workers=1, policy=ExecutionPolicy(
                    n_shards=1, executor="process")).run([job])
            runtime = registry.acquire(job.policy.resolve(dataset.answers))
            assert runtime.placements >= 1  # the lease really happened
        finally:
            registry.close_all()
        serial = run_method("D&S", dataset, seed=0,
                            policy=ExecutionPolicy(n_shards=2,
                                                   executor="serial"))
        assert runs[0].scores == serial.scores
        assert runs[0].n_iterations == serial.n_iterations


    def test_run_leaves_its_jobs_as_given(self, dataset, monkeypatch):
        """A runner resolves each job's policy when the job runs and
        writes nothing into it, so a job run under a second runner
        gets that runner's policy."""
        import repro.engine.batch as batch

        seen = []

        def record(*args, policy=None, **kwargs):
            seen.append(policy)
            return run_method(*args, policy=policy, **kwargs)

        monkeypatch.setattr(batch, "run_method", record)
        job = BatchJob(dataset=dataset, method="D&S")
        first = ExecutionPolicy(n_shards=2, executor="serial")
        second = ExecutionPolicy(n_shards=3, executor="serial")
        BatchRunner(max_workers=1, policy=first).run([job])
        BatchRunner(max_workers=1, policy=second).run([job])
        assert job.policy is None
        assert seen == [first, second]


class TestCliFlags:
    def test_batch_executor_without_shards_notes_new_meaning(self,
                                                             capsys):
        """batch --executor used to pick the job pool; the unified flag
        configures the fit tier, which is a no-op at --shards 1 — the
        CLI says so instead of silently differing."""
        from repro.cli import main

        code = main(["batch", "--datasets", "D_PosSent", "--methods",
                     "MV", "--scale", "0.05", "--workers", "1",
                     "--executor", "process"])
        assert code == 0
        assert "no effect with --shards 1" in capsys.readouterr().err

    def test_cli_choices_track_the_policy_and_source_layers(self):
        from repro.cli import EXECUTOR_CHOICES, TASK_TYPE_CHOICES
        from repro.core.policy import EXECUTORS
        from repro.engine.sources import TASK_TYPE_ALIASES

        assert EXECUTOR_CHOICES == list(EXECUTORS)
        assert TASK_TYPE_CHOICES == sorted(TASK_TYPE_ALIASES)
