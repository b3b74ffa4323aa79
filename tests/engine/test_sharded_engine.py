"""Sharded fits on every tier, BatchRunner pools, and the MV seed cache."""

import numpy as np
import pytest

from repro.core.answers import AnswerSet
from repro.core.policy import ExecutionPolicy, MethodSpec
from repro.core.registry import create
from repro.core.tasktypes import TaskType
from repro.datasets.schema import Dataset
from repro.engine.batch import BatchRunner
from repro.engine.runtime import ShardRuntime, get_runtime_registry


def build_answers(seed=0, n_tasks=80, n_workers=10, n_choices=2,
                  n_answers=600):
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, n_choices, n_tasks)
    acc = rng.uniform(0.5, 0.95, n_workers)
    tasks = rng.integers(0, n_tasks, n_answers)
    workers = rng.integers(0, n_workers, n_answers)
    correct = rng.random(n_answers) < acc[workers]
    values = np.where(correct, truth[tasks],
                      rng.integers(0, n_choices, n_answers))
    answers = AnswerSet(tasks, workers, values,
                        TaskType.DECISION_MAKING if n_choices == 2
                        else TaskType.SINGLE_CHOICE,
                        n_choices=None if n_choices == 2 else n_choices,
                        n_tasks=n_tasks, n_workers=n_workers)
    return answers, truth


def build_dataset(seed=0, **kwargs):
    answers, truth = build_answers(seed=seed, **kwargs)
    return Dataset(name=f"synthetic-{seed}", answers=answers, truth=truth)


@pytest.fixture
def process_registry():
    """The process-wide runtime registry ``fit(policy=...)`` leases
    from, closed afterwards so no warm pools outlive the test."""
    registry = get_runtime_registry()
    yield registry
    registry.close_all()


class TestProcessTierFit:
    def test_matches_in_process_sharded_fit_bitwise(self,
                                                     process_registry):
        answers, _ = build_answers()
        serial = create("D&S", seed=0).fit(
            answers, policy=ExecutionPolicy(n_shards=3, executor="serial"))
        proc = create("D&S", seed=0).fit(
            answers, policy=ExecutionPolicy(n_shards=3, executor="process",
                                            max_workers=2))
        assert proc.fit_stats.ipc["messages"] > 0
        assert np.array_equal(serial.posterior, proc.posterior)
        assert np.array_equal(serial.worker_quality, proc.worker_quality)

    def test_glad_gradient_rounds_through_processes(self,
                                                    process_registry):
        answers, _ = build_answers(seed=1)
        serial = create(MethodSpec("GLAD", seed=0, max_iter=8)).fit(
            answers, policy=ExecutionPolicy(n_shards=2, executor="serial"))
        proc = create(MethodSpec("GLAD", seed=0, max_iter=8)).fit(
            answers, policy=ExecutionPolicy(n_shards=2, executor="process",
                                            max_workers=2))
        assert proc.fit_stats.ipc["messages"] > 0
        assert np.array_equal(serial.posterior, proc.posterior)

    def test_close_releases_shared_memory(self):
        from multiprocessing import shared_memory

        answers, _ = build_answers()
        runtime = ShardRuntime(n_shards=2, max_workers=1)
        lease = runtime.lease(answers, "ZC", {"seed": 0})
        names = runtime.segment_names()
        create("ZC", seed=0).fit(answers, shard_runner=lease)
        lease.close()
        runtime.close()
        runtime.close()  # idempotent
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_rejects_methods_without_sharding(self):
        answers, _ = build_answers()
        with ShardRuntime(n_shards=2) as runtime:
            with pytest.raises(ValueError, match="sharded"):
                runtime.lease(answers, "MV")


class TestPolicyTiers:
    def test_tiers_agree_bitwise(self, process_registry):
        answers, _ = build_answers(seed=2)
        results = {}
        for mode in ("serial", "thread", "process"):
            policy = ExecutionPolicy(n_shards=4, executor=mode,
                                     max_workers=2)
            assert policy.resolve(answers).mode == mode
            results[mode] = create("D&S", seed=0).fit(answers,
                                                      policy=policy)
        assert results["serial"].fit_stats.ipc is None
        assert results["process"].fit_stats.ipc["messages"] > 0
        assert np.array_equal(results["serial"].posterior,
                              results["thread"].posterior)
        assert np.array_equal(results["serial"].posterior,
                              results["process"].posterior)

    def test_auto_stays_in_process_below_threshold(self):
        answers, _ = build_answers()
        policy = ExecutionPolicy(n_shards=2, executor="auto")
        assert policy.resolve(answers).mode in ("serial", "thread")
        result = create("ZC", seed=0).fit(answers, policy=policy)
        assert result.fit_stats.ipc is None

    def test_rejects_unsupported_method(self, process_registry):
        answers, _ = build_answers()
        with pytest.raises(ValueError, match="sharded"):
            process_registry.lease(
                ExecutionPolicy(n_shards=2, executor="process").resolve(
                    answers), answers, MethodSpec("MV"))

    def test_invalid_executor_name(self):
        with pytest.raises(ValueError, match="executor"):
            ExecutionPolicy(executor="gpu")

    def test_warm_start_passes_through(self):
        answers, _ = build_answers(seed=4)
        policy = ExecutionPolicy(n_shards=3, executor="serial")
        first = create("D&S", seed=0).fit(answers, policy=policy)
        warm = create("D&S", seed=0).fit(answers, policy=policy,
                                         warm_start=first)
        assert warm.extras["warm_started"] is True


class TestBatchRunnerPools:
    def test_process_executor_matches_threads(self):
        datasets = [build_dataset(seed=s, n_answers=300) for s in (0, 1)]
        thread_runs = BatchRunner(max_workers=2).run_grid(
            datasets, methods=["MV", "D&S"])
        from concurrent.futures import ProcessPoolExecutor

        process_runs = BatchRunner(
            max_workers=2,
            executor_factory=ProcessPoolExecutor).run_grid(
            datasets, methods=["MV", "D&S"])
        assert [r.method for r in thread_runs] == \
            [r.method for r in process_runs]
        for a, b in zip(thread_runs, process_runs):
            assert a.scores == b.scores

    def test_run_grid_with_sharding(self):
        dataset = build_dataset(seed=3, n_answers=400)
        runs = BatchRunner(
            max_workers=1,
            policy=ExecutionPolicy(n_shards=4, executor="serial"),
        ).run_grid([dataset], methods=["MV", "D&S"])
        baseline = BatchRunner(max_workers=1).run_grid(
            [dataset], methods=["MV", "D&S"])
        for sharded, plain in zip(runs, baseline):
            assert sharded.scores == pytest.approx(plain.scores)


class TestSharedMVSeed:
    """Batch fits start from their own majority-vote initialisation;
    the serial ``run_many`` path keeps method order."""

    def test_run_many_serial_path_shares_seed(self):
        from repro.experiments.runner import run_many

        dataset = build_dataset(seed=7)
        runs = run_many(dataset, ["MV", "D&S", "ZC"], seed=0)
        assert [r.method for r in runs] == ["MV", "D&S", "ZC"]
