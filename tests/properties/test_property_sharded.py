"""Sharded-EM parity properties.

Two guarantees are pinned here:

1. **Bit-for-bit single-shard parity** — ``fit(n_shards=1)`` of every
   refactored method reproduces the *pre-refactor* global-array EM
   exactly (not merely to a tolerance).  The reference implementations
   live in :mod:`benchmarks.reference_em` — faithful copies of the
   method code before the map-reduce refactor, shared with the
   ``bench_sharded`` baseline so the reference cannot drift.

2. **Multi-shard numerical parity** — for any ``n_shards`` in 1..8 and
   any iteration budget, sharded EM matches the unsharded posterior to
   1e-10 per iteration (only the merge order of worker-side partial
   sums differs, a last-ulp effect).
"""

import numpy as np
import pytest

from benchmarks.reference_em import (
    reference_confusion_em,
    reference_glad,
    reference_lfc_n,
    reference_zc,
)
from repro.core.answers import AnswerSet
from repro.core.policy import ExecutionPolicy
from repro.core.registry import create
from repro.core.tasktypes import TaskType

CATEGORICAL_METHODS = ["D&S", "LFC", "ZC", "GLAD"]
SHARD_COUNTS = [1, 2, 3, 5, 8]


def random_categorical(seed, n_tasks=60, n_workers=12, n_choices=3,
                       n_answers=600):
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, n_choices, n_tasks)
    acc = rng.uniform(0.35, 0.95, n_workers)
    tasks = rng.integers(0, n_tasks, n_answers)
    workers = rng.integers(0, n_workers, n_answers)
    correct = rng.random(n_answers) < acc[workers]
    noise = rng.integers(0, n_choices, n_answers)
    values = np.where(correct, truth[tasks], noise)
    return AnswerSet(tasks, workers, values, TaskType.SINGLE_CHOICE,
                     n_choices=n_choices, n_tasks=n_tasks,
                     n_workers=n_workers)


def random_numeric(seed, n_tasks=50, n_workers=10, n_answers=400):
    rng = np.random.default_rng(seed)
    truth = rng.normal(0.0, 3.0, n_tasks)
    sigma = rng.uniform(0.2, 2.0, n_workers)
    tasks = rng.integers(0, n_tasks, n_answers)
    workers = rng.integers(0, n_workers, n_answers)
    values = truth[tasks] + rng.normal(0, 1, n_answers) * sigma[workers]
    return AnswerSet(tasks, workers, values, TaskType.NUMERIC,
                     n_tasks=n_tasks, n_workers=n_workers)


# ----------------------------------------------------------------------
# 1. Bit-for-bit: single-shard refactored EM == pre-refactor EM
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ds_bitwise_matches_prerefactor(seed):
    answers = random_categorical(seed)
    method = create("D&S", seed=0)
    ref = reference_confusion_em(answers, 0.01, 0.0,
                                 method.tolerance, method.max_iter)
    new = method.fit(answers)
    assert ref.n_iterations == new.n_iterations
    assert np.array_equal(ref.posterior, new.posterior)
    assert np.array_equal(ref.parameters.confusion, new.extras["confusion"])
    assert np.array_equal(ref.parameters.prior, new.extras["class_prior"])


@pytest.mark.parametrize("seed", [0, 1])
def test_lfc_bitwise_matches_prerefactor(seed):
    answers = random_categorical(seed)
    method = create("LFC", seed=0)
    ref = reference_confusion_em(answers, 0.2, 0.2,
                                 method.tolerance, method.max_iter)
    new = method.fit(answers)
    assert np.array_equal(ref.posterior, new.posterior)


@pytest.mark.parametrize("seed", [0, 1])
def test_zc_bitwise_matches_prerefactor(seed):
    answers = random_categorical(seed)
    method = create("ZC", seed=0)
    (ref, ref_quality) = reference_zc(answers, method.tolerance,
                                      method.max_iter)
    new = method.fit(answers)
    assert ref.n_iterations == new.n_iterations
    assert np.array_equal(ref.posterior, new.posterior)
    assert np.array_equal(ref_quality, new.worker_quality)


@pytest.mark.parametrize("seed", [0, 1])
def test_glad_bitwise_matches_prerefactor(seed):
    answers = random_categorical(seed)
    method = create("GLAD", seed=0, max_iter=30)
    posterior, alpha, easiness, tracker = reference_glad(
        answers, method.tolerance, method.max_iter)
    new = method.fit(answers)
    assert tracker.iteration == new.n_iterations
    assert np.array_equal(posterior, new.posterior)
    assert np.array_equal(alpha, new.worker_quality)
    assert np.array_equal(easiness, new.extras["task_easiness"])


@pytest.mark.parametrize("seed", [0, 1])
def test_lfc_n_bitwise_matches_prerefactor(seed):
    answers = random_numeric(seed)
    method = create("LFC_N", seed=0)
    truths, variance, tracker = reference_lfc_n(
        answers, method.tolerance, method.max_iter)
    new = method.fit(answers)
    assert tracker.iteration == new.n_iterations
    assert np.array_equal(truths, new.truths)
    assert np.array_equal(variance, new.extras["worker_variance"])


def test_lfc_n_bitwise_with_golden():
    answers = random_numeric(3)
    golden = {0: 1.5, 7: -2.0}
    method = create("LFC_N", seed=0)
    truths, _, _ = reference_lfc_n(answers, method.tolerance,
                                   method.max_iter, golden=golden)
    new = method.fit(answers, golden=golden)
    assert np.array_equal(truths, new.truths)
    assert new.truths[0] == 1.5 and new.truths[7] == -2.0


# ----------------------------------------------------------------------
# 2. Multi-shard: 1e-10 parity per iteration budget, any shard count
# ----------------------------------------------------------------------

@pytest.mark.parametrize("method_name", CATEGORICAL_METHODS)
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_sharded_matches_unsharded_categorical(method_name, n_shards):
    answers = random_categorical(7)
    for max_iter in (1, 4, 9):
        base = create(method_name, seed=0, max_iter=max_iter).fit(answers)
        sharded = create(method_name, seed=0, max_iter=max_iter).fit(
            answers, policy=ExecutionPolicy(n_shards=n_shards,
                                            executor="serial"))
        assert sharded.n_iterations == base.n_iterations
        diff = np.max(np.abs(sharded.posterior - base.posterior))
        if n_shards == 1:
            assert diff == 0.0
        else:
            assert diff <= 1e-10, (
                f"{method_name} n_shards={n_shards} max_iter={max_iter}: "
                f"posterior diff {diff:.2e}"
            )


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_sharded_matches_unsharded_numeric(n_shards):
    answers = random_numeric(11)
    for max_iter in (1, 4, 9):
        base = create("LFC_N", seed=0, max_iter=max_iter).fit(answers)
        sharded = create("LFC_N", seed=0, max_iter=max_iter).fit(
            answers, policy=ExecutionPolicy(n_shards=n_shards,
                                            executor="serial"))
        diff = np.max(np.abs(sharded.truths - base.truths))
        if n_shards == 1:
            assert diff == 0.0
        else:
            assert diff <= 1e-10


@pytest.mark.parametrize("method_name", ["D&S", "ZC"])
def test_sharded_with_golden_and_warm(method_name):
    """Sharding composes with golden clamping and warm starts."""
    answers = random_categorical(5)
    golden = {0: 1, 3: 2}
    base = create(method_name, seed=0).fit(answers, golden=golden)
    sharded = create(method_name, seed=0).fit(
        answers, golden=golden,
        policy=ExecutionPolicy(n_shards=4, executor="serial"))
    assert int(sharded.truths[0]) == 1 and int(sharded.truths[3]) == 2
    assert np.max(np.abs(sharded.posterior - base.posterior)) <= 1e-10

    warm_base = create(method_name, seed=0).fit(answers, warm_start=base)
    warm_sharded = create(method_name, seed=0).fit(
        answers, warm_start=base,
        policy=ExecutionPolicy(n_shards=4, executor="serial"))
    assert warm_sharded.extras["warm_started"]
    assert warm_sharded.n_iterations == warm_base.n_iterations
    assert np.max(np.abs(warm_sharded.posterior
                         - warm_base.posterior)) <= 1e-10


def test_sharded_thread_pool_matches_serial():
    """The thread tier only changes where shards run, never the numbers."""
    answers = random_categorical(9)
    serial = create("D&S", seed=0).fit(
        answers, policy=ExecutionPolicy(n_shards=4, executor="serial"))
    threaded = create("D&S", seed=0).fit(
        answers, policy=ExecutionPolicy(n_shards=4, executor="thread",
                                        max_workers=3))
    assert np.array_equal(serial.posterior, threaded.posterior)
    assert np.array_equal(serial.worker_quality, threaded.worker_quality)


def test_sharded_handles_empty_and_tiny_shards():
    """More shards than tasks: trailing shards own empty task ranges."""
    answers = random_categorical(13, n_tasks=5, n_workers=4, n_answers=30)
    base = create("D&S", seed=0).fit(answers)
    sharded = create("D&S", seed=0).fit(
        answers, policy=ExecutionPolicy(n_shards=8, executor="serial"))
    assert np.max(np.abs(sharded.posterior - base.posterior)) <= 1e-10
