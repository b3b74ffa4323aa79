"""Warm-start regression tests: warm refits must match cold fits.

The contract (see :mod:`repro.engine`): after a stream grows by a small
increment, refitting with ``warm_start=<previous result>`` must (a) land
on the same labels as a cold fit and (b) use strictly fewer EM
iterations.  These tests pin that on a fixed-seed synthetic dataset for
every warm-capable method.
"""

import numpy as np
import pytest

from repro.core import create
from repro.core.answers import AnswerSet
from repro.core.result import InferenceResult
from repro.core.tasktypes import TaskType
from repro.core.warmstart import (
    diagonal_confusion,
    expand_posterior,
    expand_task_vector,
    expand_worker_vector,
)
from repro.engine import StreamingAnswerSet

WARM_CATEGORICAL = ["D&S", "ZC", "GLAD", "LFC"]


def _grown_stream(seed=0, n_tasks=300, n_workers=12, growth=0.05):
    """A stream plus its pre-growth snapshot: last ``growth`` of the
    answers (including one brand-new task and one brand-new worker)
    arrive after the first snapshot.

    Workers are decent (accuracy 0.65-0.95) and redundancy is 6: in
    noisier regimes EM can land in *different* local optima warm vs
    cold, so strict iteration/label parity is only a contract on
    well-posed data (the paper's replicas are comparably clean).
    """
    rng = np.random.default_rng(seed)
    acc = rng.uniform(0.65, 0.95, n_workers)
    truth = rng.integers(0, 2, n_tasks)
    records = []
    for task in range(n_tasks):
        for worker in rng.choice(n_workers, 6, replace=False):
            correct = rng.random() < acc[worker]
            value = int(truth[task] if correct else 1 - truth[task])
            records.append((f"t{task}", f"w{worker}", value))
    # Shuffle so the withheld increment is spread across tasks (every
    # task keeps some answers in the first snapshot).
    records = [records[i] for i in rng.permutation(len(records))]
    n_new = int(len(records) * growth)
    stream = StreamingAnswerSet(TaskType.DECISION_MAKING, label_order=[0, 1])
    stream.add_answers(records[:-n_new])
    before = stream.snapshot()
    stream.add_answers(records[-n_new:])
    # One unseen task and one unseen worker in the increment.
    stream.add_answers([(f"t{n_tasks}", "w_new", 1),
                        (f"t{n_tasks}", "w0", 1)])
    after = stream.snapshot()
    assert after.n_tasks == before.n_tasks + 1
    assert after.n_workers == before.n_workers + 1
    return before, after


class TestWarmColdParity:
    @pytest.mark.parametrize("name", WARM_CATEGORICAL)
    def test_labels_match_and_iterations_drop(self, name):
        before, after = _grown_stream(seed=0)
        method = create(name, seed=0, max_iter=200)
        previous = method.fit(before)
        cold = method.fit(after)
        warm = method.fit(after, warm_start=previous)

        assert warm.extras.get("warm_started") is True
        assert cold.extras.get("warm_started") is False
        np.testing.assert_array_equal(warm.truths, cold.truths)
        assert warm.n_iterations < cold.n_iterations

    @pytest.mark.parametrize("name", WARM_CATEGORICAL)
    def test_warm_converges(self, name):
        before, after = _grown_stream(seed=1)
        method = create(name, seed=0, max_iter=200)
        warm = method.fit(after, warm_start=method.fit(before))
        assert warm.converged

    def test_numeric_lfc_warm_matches_cold(self, clean_numeric):
        answers, truth, _ = clean_numeric
        # Split off the last 5% of answers as the "new" increment.
        n_new = answers.n_answers // 20
        keep = np.arange(answers.n_answers - n_new)
        before = answers.select(keep)
        method = create("LFC_N", seed=0, max_iter=200)
        previous = method.fit(before)
        cold = method.fit(answers)
        warm = method.fit(answers, warm_start=previous)
        assert warm.extras["warm_started"] is True
        np.testing.assert_allclose(warm.truths, cold.truths, atol=1e-2)
        assert warm.n_iterations <= cold.n_iterations


class TestLabelPadding:
    """Dynamic-label warm starts: state expansion along the choice axis."""

    def test_pad_posterior_adds_seed_mass_and_renormalises(self):
        from repro.core.warmstart import pad_posterior_labels

        posterior = np.array([[0.9, 0.1], [0.2, 0.8]])
        padded = pad_posterior_labels(posterior, 3)
        assert padded.shape == (2, 3)
        np.testing.assert_allclose(padded.sum(axis=1), 1.0)
        assert np.all(padded[:, 2] > 0)
        assert padded[0, 0] > padded[0, 1] > padded[0, 2]

    def test_pad_posterior_rejects_shrinking(self):
        from repro.core.warmstart import pad_posterior_labels

        with pytest.raises(ValueError, match="append-only"):
            pad_posterior_labels(np.ones((2, 3)) / 3, 2)

    def test_pad_confusion_rows_stay_stochastic(self):
        from repro.core.warmstart import pad_confusion_labels

        confusion = np.array([[[0.8, 0.2], [0.3, 0.7]]])
        padded = pad_confusion_labels(confusion, 3)
        assert padded.shape == (1, 3, 3)
        np.testing.assert_allclose(padded.sum(axis=2), 1.0)
        # Old beliefs dominate, new truth rows are uniform.
        assert padded[0, 0, 0] > padded[0, 0, 2]
        np.testing.assert_allclose(padded[0, 2], padded[0, 2, ::-1])

    def test_pad_result_labels_produces_valid_warm_start(self):
        from repro.core.warmstart import pad_result_labels

        records = [("t1", "w1", "a"), ("t1", "w2", "a"), ("t2", "w1", "b"),
                   ("t2", "w2", "b"), ("t3", "w1", "a")]
        # Fit while only labels a/b exist, then the stream discovers "c".
        small = AnswerSet.from_records(records, TaskType.SINGLE_CHOICE,
                                       label_order=["a", "b"])
        previous = create("D&S", seed=0).fit(small)
        assert previous.posterior.shape[1] == 2
        grown = AnswerSet.from_records(records + [("t3", "w2", "c")],
                                       TaskType.SINGLE_CHOICE,
                                       label_order=["a", "b", "c"])
        padded = pad_result_labels(previous, 3)
        assert padded.posterior.shape[1] == 3
        warm = create("D&S", seed=0).fit(grown, warm_start=padded)
        assert warm.extras["warm_started"] is True
        assert warm.posterior.shape == (3, 3)
        cold = create("D&S", seed=0).fit(grown)
        assert (warm.truths == cold.truths).mean() == 1.0

    def test_pad_result_without_posterior_rejected(self):
        from repro.core.result import InferenceResult
        from repro.core.warmstart import pad_result_labels

        result = InferenceResult(method="x", truths=np.zeros(2),
                                 worker_quality=np.ones(1), posterior=None)
        with pytest.raises(ValueError, match="posterior"):
            pad_result_labels(result, 3)


class TestWarmStartValidation:
    def test_shrunken_stream_rejected(self):
        before, after = _grown_stream(seed=2)
        method = create("D&S", seed=0)
        bigger = method.fit(after)
        with pytest.raises(ValueError, match="append-only"):
            method.fit(before, warm_start=bigger)

    def test_choice_count_mismatch_rejected(self, clean_single_choice):
        answers, _ = clean_single_choice
        method = create("D&S", seed=0)
        previous = method.fit(answers)
        binary = AnswerSet([0, 0], [0, 1], [1, 0], TaskType.DECISION_MAKING,
                           n_tasks=answers.n_tasks,
                           n_workers=answers.n_workers)
        with pytest.raises(ValueError, match="choices"):
            method.fit(binary, warm_start=previous)

    def test_non_result_rejected(self, clean_binary):
        answers, _ = clean_binary
        with pytest.raises(ValueError, match="InferenceResult"):
            create("ZC", seed=0).fit(answers, warm_start={"posterior": None})

    def test_methods_without_support_ignore_warm_start(self, clean_binary):
        answers, _ = clean_binary
        method = create("MV", seed=0)
        result = method.fit(answers)
        again = method.fit(answers, warm_start=result)
        np.testing.assert_array_equal(result.truths, again.truths)

    def test_posterior_only_warm_start_uses_mv_fallback(self):
        """A warm state without method extras (e.g. built by hand from a
        posterior) still warm-starts via the expanded posterior."""
        before, after = _grown_stream(seed=3)
        method = create("D&S", seed=0, max_iter=200)
        previous = method.fit(before)
        stripped = InferenceResult(
            method="D&S",
            truths=previous.truths,
            worker_quality=previous.worker_quality,
            posterior=previous.posterior,
        )
        cold = method.fit(after)
        warm = method.fit(after, warm_start=stripped)
        assert warm.extras["warm_started"] is True
        np.testing.assert_array_equal(warm.truths, cold.truths)
        assert warm.n_iterations < cold.n_iterations


class TestExpansionHelpers:
    def test_expand_posterior_keeps_prefix_and_seeds_majority(self):
        answers = AnswerSet([0, 1, 1, 2, 2, 2], [0, 0, 1, 0, 1, 2],
                            [1, 0, 0, 1, 1, 0], TaskType.DECISION_MAKING)
        previous = np.array([[0.2, 0.8], [0.7, 0.3]])
        out = expand_posterior(previous, answers)
        np.testing.assert_allclose(out[:2], previous)
        # Task 2 got votes [1, 1, 0] -> majority row [1/3, 2/3].
        np.testing.assert_allclose(out[2], [1 / 3, 2 / 3])

    def test_expand_posterior_rejects_too_many_tasks(self):
        answers = AnswerSet([0], [0], [1], TaskType.DECISION_MAKING)
        with pytest.raises(ValueError):
            expand_posterior(np.full((3, 2), 0.5), answers)

    def test_expand_vectors(self):
        out = expand_worker_vector(np.array([1.0, 2.0]), 4, 9.0)
        np.testing.assert_allclose(out, [1.0, 2.0, 9.0, 9.0])
        out = expand_task_vector(np.array([5.0]), 3,
                                 np.array([0.0, 1.0, 2.0]))
        np.testing.assert_allclose(out, [5.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            expand_task_vector(np.array([1.0, 2.0]), 1, 0.0)

    def test_diagonal_confusion_rows_normalised(self):
        confusion = diagonal_confusion(3, 4, accuracy=0.7)
        assert confusion.shape == (3, 4, 4)
        np.testing.assert_allclose(confusion.sum(axis=2), 1.0)
        np.testing.assert_allclose(confusion[:, 0, 0], 0.7)
