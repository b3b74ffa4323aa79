"""Persistent shard runtime: reuse, incremental extend, eviction, leaks.

Covers the PR-3 contracts:

* same-version reuse is bit-identical to a fresh private runtime;
* a grown stream extends the placed segments (not a rebuild) and the
  result matches the unsharded fit to 1e-10;
* eviction/close tears everything down exactly once;
* a mid-EM exception leaves no live ``/dev/shm`` segments or child
  processes (the historical leak);
* worker processes detach their shared-memory handles at shutdown
  without resource-tracker warnings.
"""

import multiprocessing
import subprocess
import sys
import threading
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.answers import AnswerSet
from repro.core.policy import (
    ExecutionPlan,
    ExecutionPolicy,
    MethodSpec,
    resolve_process_workers,
)
from repro.core.registry import create
from repro.core.tasktypes import TaskType
from repro.engine import placement
from repro.engine.engine import InferenceEngine
from repro.engine.runtime import (
    RuntimeRegistry,
    ShardRuntime,
    get_runtime_registry,
)
from repro.exceptions import ProtocolError


def build_answers(seed=0, n_tasks=60, n_workers=8, n_answers=400):
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, 2, n_tasks)
    acc = rng.uniform(0.55, 0.95, n_workers)
    tasks = rng.integers(0, n_tasks, n_answers)
    workers = rng.integers(0, n_workers, n_answers)
    correct = rng.random(n_answers) < acc[workers]
    values = np.where(correct, truth[tasks], 1 - truth[tasks])
    return AnswerSet(tasks, workers, values, TaskType.DECISION_MAKING,
                     n_tasks=n_tasks, n_workers=n_workers)


def grow_answers(answers, extra, n_tasks=None, seed=99):
    """A strictly larger answer set with ``answers`` as its prefix."""
    rng = np.random.default_rng(seed)
    n_tasks = n_tasks or answers.n_tasks
    tasks = np.concatenate([answers.tasks,
                            rng.integers(0, n_tasks, extra)])
    workers = np.concatenate([answers.workers,
                              rng.integers(0, answers.n_workers, extra)])
    values = np.concatenate([answers.values, rng.integers(0, 2, extra)])
    return AnswerSet(tasks, workers, values, TaskType.DECISION_MAKING,
                     n_tasks=n_tasks, n_workers=answers.n_workers)


def process_plan(n_shards, max_workers):
    """The resolved process-tier plan the registry keys on."""
    return ExecutionPlan(mode="process", n_shards=n_shards,
                         max_workers=max_workers)


def assert_unlinked(names):
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestLeaseReuse:
    def test_method_sweep_spawns_once_and_reuses_segments(self):
        answers = build_answers()
        with ShardRuntime(n_shards=3, max_workers=2) as rt:
            for method in ("D&S", "ZC", "LFC"):
                with rt.lease(answers, method, {"seed": 0}) as runner:
                    create(method, seed=0).fit(answers, shard_runner=runner)
            assert rt.pool_spawns == 1
            assert rt.placements == 1
            assert rt.reuses == 2

    def test_same_version_reuse_bit_identical_to_fresh_runner(self):
        answers = build_answers(seed=3)
        with ShardRuntime(n_shards=3, max_workers=2) as private, \
                private.lease(answers, "D&S", {"seed": 0}) as runner:
            fresh = create("D&S", seed=0).fit(answers, shard_runner=runner)
        with ShardRuntime(n_shards=3, max_workers=2) as rt:
            # Warm the runtime on another fit first, then reuse.
            with rt.lease(answers, "ZC", {"seed": 0}) as runner:
                create("ZC", seed=0).fit(answers, shard_runner=runner)
            with rt.lease(answers, "D&S", {"seed": 0}) as runner:
                reused = create("D&S", seed=0).fit(answers,
                                                   shard_runner=runner)
            assert rt.last_placement == "reuse"
        assert np.array_equal(fresh.posterior, reused.posterior)
        assert np.array_equal(fresh.worker_quality, reused.worker_quality)

    def test_lease_rejects_methods_without_sharding(self):
        answers = build_answers()
        with ShardRuntime(n_shards=2, max_workers=1) as rt:
            with pytest.raises(ValueError, match="sharded"):
                rt.lease(answers, "MV")

    def test_closed_runtime_refuses_leases(self):
        rt = ShardRuntime(n_shards=2)
        rt.close()
        with pytest.raises(RuntimeError, match="closed"):
            rt.lease(build_answers(), "D&S")


class TestPhaseTimes:
    def test_lease_times_each_dispatch_round_trip(self):
        answers = build_answers()
        with ShardRuntime(n_shards=2, max_workers=1) as runtime, \
                runtime.lease(answers, "D&S", {"seed": 0}) as runner:
            stats = create("D&S", seed=0).fit(
                answers, shard_runner=runner).fit_stats
            assert stats.phase_seconds == runner.phase_seconds
        assert list(stats.phase_seconds) == ["init_block", "accumulate",
                                             "e_block"]
        assert all(spent > 0 for spent in stats.phase_seconds.values())


class TestIncrementalExtend:
    def test_growth_extends_instead_of_rebuilding(self):
        answers = build_answers()
        grown = grow_answers(answers, 80, n_tasks=70)
        with ShardRuntime(n_shards=4, max_workers=2) as rt:
            with rt.lease(answers, "D&S", {"seed": 0},
                          stream_key="s") as runner:
                create("D&S", seed=0).fit(answers, shard_runner=runner)
            names_before = rt.segment_names()
            with rt.lease(grown, "D&S", {"seed": 0},
                          stream_key="s") as runner:
                result = create("D&S", seed=0).fit(grown,
                                                   shard_runner=runner)
            assert rt.last_placement == "extend"
            assert rt.placements == 1
        # Matches the unsharded fit to far better than 1e-10.
        reference = create("D&S", seed=0).fit(grown)
        assert np.abs(result.posterior
                      - reference.posterior).max() < 1e-10
        assert names_before  # sanity: segments existed before growth

    def test_extend_keeps_matching_across_methods_and_growths(self):
        answers = build_answers(seed=5)
        with ShardRuntime(n_shards=4, max_workers=2) as rt:
            current = answers
            for step, extra in enumerate((40, 60)):
                current = grow_answers(current, extra, seed=step)
                for method in ("ZC", "GLAD"):
                    kwargs = {"seed": 0, "max_iter": 8}
                    with rt.lease(current, method, kwargs,
                                  stream_key="s") as runner:
                        got = create(method, **kwargs).fit(
                            current, shard_runner=runner)
                    ref = create(method, **kwargs).fit(current)
                    assert np.abs(got.posterior
                                  - ref.posterior).max() < 1e-10
            # First growth step is the initial placement; the second
            # extends it.  Methods sweeping in between are pure reuses.
            assert rt.placements == 1
            assert rt.extends == 1
            assert rt.reuses == 2
            assert rt.pool_spawns == 1

    def test_growth_up_to_the_replace_threshold_keeps_the_segments(self):
        answers = build_answers(n_answers=100)
        # 90% growth stays under the 2x re-place threshold, so it fits
        # the capacity the placement reserved: no reallocation.
        grown = grow_answers(answers, 90)
        with ShardRuntime(n_shards=3, max_workers=2) as rt:
            with rt.lease(answers, "D&S", {"seed": 0},
                          stream_key="s") as runner:
                create("D&S", seed=0).fit(answers, shard_runner=runner)
            old_names = set(rt.segment_names())
            with rt.lease(grown, "D&S", {"seed": 0},
                          stream_key="s") as runner:
                result = create("D&S", seed=0).fit(grown,
                                                   shard_runner=runner)
            assert rt.last_placement == "extend"
            assert set(rt.segment_names()) == old_names
        reference = create("D&S", seed=0).fit(grown)
        assert np.abs(result.posterior
                      - reference.posterior).max() < 1e-10
        assert_unlinked(old_names)

    def test_an_extend_past_the_reserve_raises(self, monkeypatch):
        """The reserve covers every extend the placement layer allows;
        one it does not allow (here: cuts that always hold) raises
        instead of writing past the segments."""
        answers = build_answers(n_answers=100)
        with ShardRuntime(n_shards=3, max_workers=1) as rt:
            with rt.lease(answers, "D&S", {"seed": 0}, stream_key="s"):
                pass
            monkeypatch.setattr(placement, "cuts_hold",
                                lambda *args: True)
            with pytest.raises(ProtocolError, match="overruns"), \
                    rt.lease(grow_answers(answers, 150), "D&S",
                             {"seed": 0}, stream_key="s"):
                pass

    def test_doubled_stream_replaces_to_rebalance(self):
        answers = build_answers(n_answers=100)
        grown = grow_answers(answers, 150)  # > 2x since last sort
        with ShardRuntime(n_shards=3, max_workers=2) as rt:
            with rt.lease(answers, "D&S", {"seed": 0},
                          stream_key="s") as runner:
                create("D&S", seed=0).fit(answers, shard_runner=runner)
            with rt.lease(grown, "D&S", {"seed": 0},
                          stream_key="s") as runner:
                create("D&S", seed=0).fit(grown, shard_runner=runner)
            assert rt.last_placement == "place"
            assert rt.pool_spawns == 1  # pools survive the re-place

    def test_append_only_tripwire_rejects_mutated_prefix(self):
        answers = build_answers()
        tasks = np.concatenate([answers.tasks,
                                np.zeros(10, dtype=np.int64)])
        # Contradict the placed prefix: change its first task index.
        tasks[0] = (answers.tasks[0] + 1) % answers.n_tasks
        mutated = AnswerSet(
            tasks,
            np.concatenate([answers.workers, np.zeros(10, dtype=np.int64)]),
            np.concatenate([answers.values, np.zeros(10, dtype=np.int64)]),
            TaskType.DECISION_MAKING, n_tasks=answers.n_tasks,
            n_workers=answers.n_workers)
        rt = ShardRuntime(n_shards=3, max_workers=1)
        try:
            with rt.lease(answers, "D&S", {"seed": 0},
                          stream_key="s") as runner:
                create("D&S", seed=0).fit(answers, shard_runner=runner)
            with pytest.raises(RuntimeError, match="append-only"):
                rt.lease(mutated, "D&S", {"seed": 0}, stream_key="s")
        finally:
            rt.close()


class TestEvictionAndClose:
    def test_eviction_closes_everything_exactly_once(self, monkeypatch):
        registry = RuntimeRegistry(idle_ttl=0.0)
        rt = registry.acquire(process_plan(2, 1))
        answers = build_answers()
        with rt.lease(answers, "ZC", {"seed": 0}) as runner:
            create("ZC", seed=0).fit(answers, shard_runner=runner)
        names = rt.segment_names()
        teardowns = []
        original = ShardRuntime._teardown
        monkeypatch.setattr(
            ShardRuntime, "_teardown",
            lambda self: (teardowns.append(1), original(self))[1])
        assert registry.evict_idle() == 1
        assert rt.closed
        rt.close()   # further closes are no-ops
        rt.close()
        assert teardowns == [1]
        assert_unlinked(names)
        assert multiprocessing.active_children() == []
        # The registry respawns on the next acquire.
        fresh = registry.acquire(process_plan(2, 1))
        assert fresh is not rt and not fresh.closed
        registry.close_all()

    def test_eviction_skips_leased_runtime(self):
        registry = RuntimeRegistry(idle_ttl=0.0)
        rt = registry.acquire(process_plan(2, 1))
        answers = build_answers()
        lease = rt.lease(answers, "ZC", {"seed": 0})
        try:
            assert registry.evict_idle() == 0
            assert not rt.closed
        finally:
            lease.close()
        registry.close_all()
        assert rt.closed

    def test_acquire_reuses_open_runtime(self):
        registry = RuntimeRegistry()
        a = registry.acquire(process_plan(3, 2))
        b = registry.acquire(process_plan(3, 2))
        assert a is b
        assert registry.acquire(process_plan(4, 2)) is not a
        registry.close_all()
        assert len(registry) == 0

    def test_registry_key_normalizes_max_workers(self):
        # An unset width and its resolved slot count are the same
        # configuration; keying them separately would duplicate pools
        # and segments.
        registry = RuntimeRegistry()
        resolved = resolve_process_workers(4, None)
        assert registry.acquire(process_plan(4, 0)) is registry.acquire(
            process_plan(4, resolved))
        registry.close_all()

    def test_registry_lease_retries_past_concurrent_close(self):
        # Any holder may close a shared runtime between another
        # caller's acquire and lease; registry.lease must respawn
        # instead of failing the fit.
        registry = RuntimeRegistry()
        answers = build_answers()
        stale = registry.acquire(process_plan(2, 1))
        stale.close()
        runtime, lease = registry.lease(
            process_plan(2, 1), answers, MethodSpec("ZC", seed=0))
        try:
            assert runtime is not stale and not runtime.closed
            create("ZC", seed=0).fit(answers, shard_runner=lease)
        finally:
            lease.close()
            registry.close_all()

    def test_pre_dispatch_error_keeps_runtime_warm(self):
        # Master-side validation failures never touched the workers, so
        # they must not forfeit the warm pools and placed segments.
        answers = build_answers()
        with ShardRuntime(n_shards=2, max_workers=1) as rt:
            with rt.lease(answers, "D&S", {"seed": 0}) as runner:
                create("D&S", seed=0).fit(answers, shard_runner=runner)
            names = rt.segment_names()
            with pytest.raises(ValueError, match="initial_quality"):
                with rt.lease(answers, "D&S", {"seed": 0}) as runner:
                    create("D&S", seed=0).fit(
                        answers, shard_runner=runner,
                        initial_quality=np.ones(3))
            assert rt.segment_names() == names
            with rt.lease(answers, "ZC", {"seed": 0}) as runner:
                create("ZC", seed=0).fit(answers, shard_runner=runner)
            assert rt.pool_spawns == 1

    def test_close_from_the_lease_holder_tears_down(self):
        # An exception leaves ``with ShardRuntime(...)`` while its lease
        # is still open: the close runs on the thread holding the lease,
        # so it must not wait for that lease to be released.
        answers = build_answers()
        error = KeyError("mid-lease")
        seen = {}

        def scenario():
            try:
                with ShardRuntime(n_shards=2, max_workers=1) as rt:
                    seen["rt"] = rt
                    seen["lease"] = lease = rt.lease(answers, "ZC",
                                                     {"seed": 0})
                    create("ZC", seed=0).fit(answers, shard_runner=lease)
                    raise error
            except KeyError as exc:
                seen["raised"] = exc

        thread = threading.Thread(target=scenario, daemon=True)
        thread.start()
        thread.join(timeout=30)
        if thread.is_alive():
            # Let the waiting close() through, so nothing leaks.
            seen["lease"].close()
            thread.join(timeout=30)
            pytest.fail("close() from the lease holder did not return")
        assert seen["raised"] is error
        rt, lease = seen["rt"], seen["lease"]
        assert rt.closed
        assert rt.segment_names() == []
        lease.close()  # already closed: a no-op
        with pytest.raises(ProtocolError, match="lease already closed"):
            lease.call("e_block", shared=(None,))


class TestExceptionLeaks:
    """Satellite regression: a spec phase raising mid-EM must not leak
    pools or ``/dev/shm`` segments."""

    def test_mid_em_exception_leaves_no_leaks(self, monkeypatch):
        from repro.methods.dawid_skene import _ConfusionSpec

        answers = build_answers()

        def boom(self, stats):
            raise RuntimeError("m-step exploded")

        policy = ExecutionPolicy(n_shards=2, max_workers=1,
                                 executor="process")
        registry = get_runtime_registry()
        try:
            # First a clean fit, so the runtime is warm and placed.
            create("D&S", seed=0).fit(answers, policy=policy)
            runtime = registry.acquire(policy.resolve(answers))
            names = runtime.segment_names()
            assert names
            # The master-side spec finalize runs in this process: patch
            # it to blow up in the middle of EM.
            monkeypatch.setattr(_ConfusionSpec, "finalize", boom)
            with pytest.raises(RuntimeError, match="exploded"):
                create("D&S", seed=0).fit(answers, policy=policy)
            # The failing lease reset the runtime: nothing may linger.
            assert_unlinked(names)
            assert multiprocessing.active_children() == []
            monkeypatch.undo()
            # The runtime recovers on the next fit.
            result = create("D&S", seed=0).fit(answers, policy=policy)
            assert result.posterior is not None
        finally:
            registry.close_all()
        assert multiprocessing.active_children() == []

    def test_one_shot_runner_context_exits_clean_on_error(self):
        answers = build_answers()
        runtime = ShardRuntime(n_shards=2, max_workers=1)
        lease = runtime.lease(answers, "ZC", {"seed": 0})
        names = runtime.segment_names()
        with pytest.raises(AttributeError):
            with runtime, lease:
                lease.call("phase_that_does_not_exist")
        assert_unlinked(names)
        assert multiprocessing.active_children() == []


_SHUTDOWN_SCRIPT = """
import numpy as np
from repro.core.answers import AnswerSet
from repro.core.registry import create
from repro.core.tasktypes import TaskType
from repro.engine.runtime import ShardRuntime

rng = np.random.default_rng(0)
answers = AnswerSet(rng.integers(0, 30, 200), rng.integers(0, 6, 200),
                    rng.integers(0, 2, 200), TaskType.DECISION_MAKING,
                    n_tasks=30, n_workers=6)
with ShardRuntime(n_shards=2, max_workers=2) as runtime, \
        runtime.lease(answers, "D&S", {"seed": 0}) as runner:
    create("D&S", seed=0).fit(answers, shard_runner=runner)
print("OK")
"""

_LEASED_EXIT_SCRIPT = """
import numpy as np
from repro.core.answers import AnswerSet
from repro.core.policy import ExecutionPolicy, MethodSpec
from repro.core.tasktypes import TaskType
from repro.engine.runtime import get_runtime_registry

rng = np.random.default_rng(0)
answers = AnswerSet(rng.integers(0, 30, 200), rng.integers(0, 6, 200),
                    rng.integers(0, 2, 200), TaskType.DECISION_MAKING,
                    n_tasks=30, n_workers=6)
registry = get_runtime_registry()
plan = ExecutionPolicy(n_shards=2, executor="process").resolve(answers)
runtime, lease = registry.lease(plan, answers, MethodSpec("D&S", seed=0))
lease.call("init_block")
print("OK")
# Exit WITHOUT closing the lease: the process-wide atexit hook must
# tear the runtime down even though the lease lock is still held by
# this (the exiting) thread.
"""


class TestWorkerShutdown:
    def test_shutdown_is_warning_free(self):
        """Workers detach their SharedMemory handles via the atexit
        finalizer, so a full fit + close emits no resource-tracker or
        interpreter-teardown warnings (satellite bugfix)."""
        proc = subprocess.run(
            [sys.executable, "-W", "error::UserWarning", "-c",
             _SHUTDOWN_SCRIPT],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout
        assert "leaked" not in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr

    def test_exit_while_leased_is_warning_free(self):
        """Regression: exiting with a live lease used to deadlock the
        registry's atexit hook — ``close_all`` blocked forever on the
        lease lock the exiting main thread itself held.  The atexit
        path now steals teardown (workers are already done by then:
        concurrent.futures joins them before atexit hooks run)."""
        proc = subprocess.run(
            [sys.executable, "-W", "error::UserWarning", "-c",
             _LEASED_EXIT_SCRIPT],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout
        assert "leaked" not in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr


class TestEngineIntegration:
    def test_inference_engine_process_tier_extends_stream(self):
        rng = np.random.default_rng(7)

        def batch(n):
            return [(f"t{rng.integers(0, 50)}", f"w{rng.integers(0, 6)}",
                     int(rng.integers(0, 2))) for _ in range(n)]

        with InferenceEngine(TaskType.DECISION_MAKING, seed=0,
                             policy=ExecutionPolicy(n_shards=3,
                                                    max_workers=2,
                                                    executor="process"),
                             registry=RuntimeRegistry()) as engine:
            reference = InferenceEngine(TaskType.DECISION_MAKING, seed=0)
            first, second = batch(300), batch(80)
            engine.add_answers(first)
            reference.add_answers(first)
            r1 = engine.infer("D&S")
            ref1 = reference.infer("D&S")
            assert engine._runtime.last_placement == "place"
            assert np.abs(r1.posterior - ref1.posterior).max() < 1e-10
            engine.add_answers(second)
            reference.add_answers(second)
            r2 = engine.infer("D&S")
            ref2 = reference.infer("D&S")
            assert engine._runtime.last_placement == "extend"
            assert engine._runtime.pool_spawns == 1
            assert np.abs(r2.posterior - ref2.posterior).max() < 1e-10

    def test_successive_engines_never_collide_on_stream_identity(self):
        # Regression: stream keys once used id(stream); a dead engine's
        # id can be reused by a fresh one, which then matched the stale
        # placed segments and tripped the append-only guard (or worse,
        # silently extended them).  Keys are now process-unique tokens.
        registry = RuntimeRegistry()

        def run_engine(n):
            engine = InferenceEngine(TaskType.DECISION_MAKING, seed=0,
                                     policy=ExecutionPolicy(
                                         n_shards=2, max_workers=1,
                                         executor="process"),
                                     registry=registry)
            rng = np.random.default_rng(n)
            engine.add_answers([
                (f"t{rng.integers(0, 20)}", f"w{rng.integers(0, 4)}",
                 int(rng.integers(0, 2)))
                for _ in range(120 + 40 * n)
            ])
            return engine.infer("D&S")  # dropped without close()

        try:
            assert run_engine(0).posterior is not None
            assert run_engine(1).posterior is not None
        finally:
            registry.close_all()

    def test_sharded_engine_persistent_reuses_runtime(self):
        answers = build_answers(seed=11)
        policy = ExecutionPolicy(n_shards=2, max_workers=1,
                                 executor="process")
        registry = get_runtime_registry()
        # Start from no runtime at this key, so the counters below are
        # this test's own.
        registry.close_all()
        try:
            a = create("D&S", seed=0).fit(answers, policy=policy)
            b = create("ZC", seed=0).fit(answers, policy=policy)
            runtime = registry.acquire(policy.resolve(answers))
            assert runtime.pool_spawns == 1
            assert runtime.reuses >= 1
        finally:
            registry.close_all()
        assert runtime.closed
        serial = ExecutionPolicy(n_shards=2, executor="serial")
        assert np.array_equal(
            a.posterior,
            create("D&S", seed=0).fit(answers, policy=serial).posterior)
        assert np.array_equal(
            b.posterior,
            create("ZC", seed=0).fit(answers, policy=serial).posterior)

    def test_run_many_process_shard_executor_matches_serial(self):
        from repro.datasets.schema import Dataset
        from repro.experiments.runner import run_many

        answers = build_answers(seed=13)
        truth = np.zeros(answers.n_tasks, dtype=np.int64)
        dataset = Dataset(name="synthetic", answers=answers, truth=truth)
        try:
            sharded = run_many(
                dataset, ["MV", "D&S", "ZC"], seed=0,
                policy=ExecutionPolicy(n_shards=2, executor="process"))
        finally:
            # run_method leases from the process-wide registry; close it
            # so no warm pools outlive this test.
            from repro.engine.runtime import get_runtime_registry

            get_runtime_registry().close_all()
        plain = run_many(dataset, ["MV", "D&S", "ZC"], seed=0,
                         policy=ExecutionPolicy(n_shards=2,
                                                executor="serial"))
        for a, b in zip(sharded, plain):
            assert a.method == b.method
            assert a.scores == pytest.approx(b.scores)
            assert a.n_iterations == b.n_iterations
