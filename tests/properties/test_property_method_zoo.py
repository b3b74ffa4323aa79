"""Sharded parity for the method zoo (CATD/PM/KOS/minimax/BCC/CBCC/VI).

Companion of :mod:`tests.properties.test_property_sharded`, pinning the
same three guarantees for the methods converted in the method-zoo
sharding pass:

1. **Bit-for-bit single-shard parity** — a default ``fit()`` (one
   shard) reproduces the pre-refactor loop exactly, against the frozen
   copies in :mod:`benchmarks.reference_em`.
2. **Multi-shard numerical parity** — any shard count in 2..8 on the
   serial tier matches the unsharded posterior to 1e-10; the process
   tier matches to 1e-8.  The Gibbs samplers (BCC/CBCC) are exempt
   from the multi-shard bound — merging per-shard statistics reorders
   the reductions feeding the rejection samplers — and instead pin
   **seeded determinism**: same seed + same shard count ⇒ identical
   draws, on every tier.
3. **Golden/qualification composition** — clamping and initial-quality
   paths survive the refactor bit-for-bit too.
"""

import numpy as np
import pytest

from benchmarks.reference_em import (
    reference_bcc,
    reference_catd,
    reference_cbcc,
    reference_kos,
    reference_minimax,
    reference_minimax_ordinal,
    reference_pm,
    reference_vi_bp,
    reference_vi_mf,
)
from repro.core.answers import AnswerSet
from repro.core.policy import ExecutionPolicy
from repro.core.registry import create
from repro.core.tasktypes import TaskType

from .test_property_sharded import random_categorical, random_numeric

SHARD_COUNTS = [2, 5, 8]

#: Methods whose sharded phases are deterministic reductions, so any
#: serial shard count stays within float-reassociation distance of the
#: unsharded run.  (BCC/CBCC are Gibbs: see the determinism tests.)
REDUCTION_METHODS = [
    "CATD", "PM", "Minimax", "Minimax-Ord", "VI-MF", "VI-BP", "KOS",
]


def random_decision(seed, n_tasks=40, n_workers=10, n_answers=400):
    """Binary decision-making answers (KOS and VI reject SINGLE_CHOICE)."""
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, 2, n_tasks)
    acc = rng.uniform(0.3, 0.95, n_workers)
    tasks = rng.integers(0, n_tasks, n_answers)
    workers = rng.integers(0, n_workers, n_answers)
    correct = rng.random(n_answers) < acc[workers]
    values = np.where(correct, truth[tasks], 1 - truth[tasks])
    return AnswerSet(tasks, workers, values, TaskType.DECISION_MAKING,
                     n_tasks=n_tasks, n_workers=n_workers)


def _answers_for(method_name, seed=7):
    if method_name in ("KOS", "VI-MF", "VI-BP"):
        return random_decision(seed)
    return random_categorical(seed)


# ----------------------------------------------------------------------
# 1. Bit-for-bit: default fit == pre-refactor loop
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1])
def test_catd_bitwise_matches_prerefactor(seed):
    answers = random_categorical(seed)
    method = create("CATD", seed=0)
    truths, weights, posterior, tracker = reference_catd(
        answers, method.tolerance, method.max_iter, seed=0)
    new = method.fit(answers)
    assert tracker.iteration == new.n_iterations
    assert np.array_equal(truths, new.truths)
    assert np.array_equal(weights, new.worker_quality)
    assert np.array_equal(posterior, new.posterior)


def test_catd_bitwise_numeric_with_golden_and_quality():
    answers = random_numeric(3)
    golden = {0: 1.5, 7: -2.0}
    quality = np.linspace(0.5, 0.95, answers.n_workers)
    method = create("CATD", seed=0)
    truths, weights, _, _ = reference_catd(
        answers, method.tolerance, method.max_iter, seed=0,
        golden=golden, initial_quality=quality)
    new = method.fit(answers, golden=golden, initial_quality=quality)
    assert np.array_equal(truths, new.truths)
    assert np.array_equal(weights, new.worker_quality)
    assert new.truths[0] == 1.5 and new.truths[7] == -2.0


@pytest.mark.parametrize("seed", [0, 1])
def test_pm_bitwise_matches_prerefactor(seed):
    answers = random_categorical(seed)
    method = create("PM", seed=0)
    truths, weights, posterior, tracker = reference_pm(
        answers, method.tolerance, method.max_iter, seed=0)
    new = method.fit(answers)
    assert tracker.iteration == new.n_iterations
    assert np.array_equal(truths, new.truths)
    assert np.array_equal(weights, new.worker_quality)
    assert np.array_equal(posterior, new.posterior)


def test_pm_bitwise_numeric_with_golden():
    answers = random_numeric(5)
    golden = {1: 0.25}
    method = create("PM", seed=0)
    truths, weights, _, _ = reference_pm(
        answers, method.tolerance, method.max_iter, seed=0, golden=golden)
    new = method.fit(answers, golden=golden)
    assert np.array_equal(truths, new.truths)
    assert np.array_equal(weights, new.worker_quality)


@pytest.mark.parametrize("name,reference", [
    ("VI-MF", reference_vi_mf), ("VI-BP", reference_vi_bp)])
@pytest.mark.parametrize("seed", [0, 1])
def test_vi_bitwise_matches_prerefactor(name, reference, seed):
    answers = random_decision(seed)
    golden = {0: 1.0} if seed else None
    quality = (np.linspace(0.55, 0.9, answers.n_workers)
               if seed else None)
    method = create(name, seed=0)
    truths, vi_quality, posterior, tracker = reference(
        answers, method.tolerance, method.max_iter, seed=0,
        golden=golden, initial_quality=quality)
    new = method.fit(answers, golden=golden, initial_quality=quality)
    assert tracker.iteration == new.n_iterations
    assert tracker.converged == new.converged
    assert np.array_equal(truths, new.truths)
    assert np.array_equal(vi_quality, new.worker_quality)
    assert np.array_equal(posterior, new.posterior)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kos_bitwise_matches_prerefactor(seed):
    answers = random_decision(seed)
    method = create("KOS", seed=seed)
    truths, quality, posterior, scores = reference_kos(
        answers, method.n_rounds, seed=seed)
    new = method.fit(answers)
    assert np.array_equal(truths, new.truths)
    assert np.array_equal(quality, new.worker_quality)
    assert np.array_equal(posterior, new.posterior)
    assert np.array_equal(scores, new.extras["task_scores"])


@pytest.mark.parametrize("golden", [None, {0: 1, 3: 2}])
def test_minimax_bitwise_matches_prerefactor(golden):
    answers = random_categorical(4)
    method = create("Minimax", seed=0)
    truths, quality, posterior, tracker, tau, sigma = reference_minimax(
        answers, method.tolerance, method.max_iter, seed=0, golden=golden)
    new = method.fit(answers, golden=golden)
    assert tracker.iteration == new.n_iterations
    assert np.array_equal(truths, new.truths)
    assert np.array_equal(quality, new.worker_quality)
    assert np.array_equal(posterior, new.posterior)
    assert np.array_equal(tau, new.extras["tau"])
    assert np.array_equal(sigma, new.extras["sigma"])


def test_minimax_ordinal_bitwise_matches_prerefactor():
    answers = random_categorical(6)
    method = create("Minimax-Ord", seed=0)
    (truths, quality, posterior, tracker, tau, omega,
     sigma) = reference_minimax_ordinal(
        answers, method.tolerance, method.max_iter, seed=0)
    new = method.fit(answers)
    assert tracker.iteration == new.n_iterations
    assert np.array_equal(truths, new.truths)
    assert np.array_equal(posterior, new.posterior)
    assert np.array_equal(tau, new.extras["tau"])
    assert np.array_equal(omega, new.extras["omega"])
    assert np.array_equal(sigma, new.extras["sigma"])


@pytest.mark.parametrize("golden", [None, {0: 1, 3: 0}])
def test_bcc_bitwise_matches_prerefactor(golden):
    answers = random_categorical(8)
    method = create("BCC", seed=0)
    truths, quality, posterior, mean_confusion = reference_bcc(
        answers, method.n_samples, method.burn_in, seed=0, golden=golden)
    new = method.fit(answers, golden=golden)
    assert np.array_equal(truths, new.truths)
    assert np.array_equal(quality, new.worker_quality)
    assert np.array_equal(posterior, new.posterior)
    assert np.array_equal(mean_confusion, new.extras["confusion"])


def test_cbcc_bitwise_matches_prerefactor():
    answers = random_categorical(9)
    method = create("CBCC", seed=0)
    truths, quality, posterior, membership = reference_cbcc(
        answers, method.n_communities, method.n_samples, method.burn_in,
        seed=0)
    new = method.fit(answers)
    assert np.array_equal(truths, new.truths)
    assert np.array_equal(quality, new.worker_quality)
    assert np.array_equal(posterior, new.posterior)
    assert np.array_equal(membership, new.extras["community"])


# ----------------------------------------------------------------------
# 2a. Multi-shard serial: 1e-10 of the unsharded run
# ----------------------------------------------------------------------

@pytest.mark.parametrize("method_name", REDUCTION_METHODS)
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_sharded_matches_unsharded(method_name, n_shards):
    answers = _answers_for(method_name)
    base = create(method_name, seed=0).fit(answers)
    sharded = create(method_name, seed=0).fit(
        answers, policy=ExecutionPolicy(n_shards=n_shards, executor="serial"))
    assert sharded.n_iterations == base.n_iterations
    diff = np.max(np.abs(sharded.posterior - base.posterior))
    assert diff <= 1e-10, (
        f"{method_name} n_shards={n_shards}: posterior diff {diff:.2e}")
    assert np.max(np.abs(sharded.worker_quality
                         - base.worker_quality)) <= 1e-10


def test_sharded_single_shard_policy_stays_bitwise():
    """n_shards=1 through the policy path is still the legacy layout."""
    for name in REDUCTION_METHODS + ["BCC", "CBCC"]:
        answers = _answers_for(name)
        base = create(name, seed=0).fit(answers)
        one = create(name, seed=0).fit(
            answers, policy=ExecutionPolicy(n_shards=1, executor="serial"))
        assert np.array_equal(base.posterior, one.posterior), name


# ----------------------------------------------------------------------
# 2b. Gibbs determinism: same (seed, shard count) ⇒ identical draws
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ["BCC", "CBCC"])
@pytest.mark.parametrize("n_shards", [1, 4])
def test_gibbs_seeded_determinism(name, n_shards):
    answers = random_categorical(10)
    policy = ExecutionPolicy(n_shards=n_shards, executor="serial")
    first = create(name, seed=3).fit(answers, policy=policy)
    second = create(name, seed=3).fit(answers, policy=policy)
    assert np.array_equal(first.posterior, second.posterior)
    assert np.array_equal(first.truths, second.truths)
    assert np.array_equal(first.worker_quality, second.worker_quality)


# ----------------------------------------------------------------------
# 2c. Process tier: 1e-8 of the serial tier at the same shard count
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", REDUCTION_METHODS + ["BCC", "CBCC"])
def test_process_tier_matches_serial(name):
    answers = _answers_for(name)
    serial = create(name, seed=0).fit(
        answers, policy=ExecutionPolicy(n_shards=4, executor="serial"))
    process = create(name, seed=0).fit(
        answers, policy=ExecutionPolicy(n_shards=4, executor="process"))
    # The fit really crossed the pipe (not a serial fit in disguise).
    assert process.fit_stats.ipc["messages"] > 0
    diff = np.max(np.abs(process.posterior - serial.posterior))
    assert diff <= 1e-8, f"{name}: process-tier posterior diff {diff:.2e}"
