"""StreamingAnswerSet: append-only buffer + snapshot edge cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.answers import AnswerSet
from repro.core.tasktypes import TaskType
from repro.engine import StreamingAnswerSet
from repro.exceptions import InvalidAnswerSetError


def _assert_same_answer_set(a: AnswerSet, b: AnswerSet) -> None:
    assert a.task_type == b.task_type
    assert a.n_choices == b.n_choices
    assert a.n_tasks == b.n_tasks
    assert a.n_workers == b.n_workers
    np.testing.assert_array_equal(a.tasks, b.tasks)
    np.testing.assert_array_equal(a.workers, b.workers)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.task_labels == b.task_labels
    assert a.worker_labels == b.worker_labels


class TestRoundTrip:
    def test_matches_from_records_with_fixed_label_order(self):
        records = [
            ("t1", "w1", "cat"), ("t2", "w1", "dog"), ("t1", "w2", "cat"),
            ("t3", "w3", "bird"), ("t2", "w2", "cat"), ("t3", "w1", "dog"),
        ]
        order = ["bird", "cat", "dog"]
        stream = StreamingAnswerSet(TaskType.SINGLE_CHOICE, label_order=order)
        assert stream.add_answers(records) == len(records)
        reference = AnswerSet.from_records(records, TaskType.SINGLE_CHOICE,
                                           label_order=order)
        _assert_same_answer_set(stream.snapshot(), reference)

    def test_matches_from_records_decision_making(self):
        records = [("a", "x", 1), ("b", "x", 0), ("a", "y", 1), ("c", "z", 0)]
        stream = StreamingAnswerSet(TaskType.DECISION_MAKING,
                                    label_order=[0, 1])
        stream.add_answers(records)
        reference = AnswerSet.from_records(records, TaskType.DECISION_MAKING,
                                           label_order=[0, 1])
        _assert_same_answer_set(stream.snapshot(), reference)

    def test_from_answer_set_round_trip(self, paper_example):
        stream = StreamingAnswerSet.from_answer_set(paper_example)
        snap = stream.snapshot()
        assert snap.n_tasks == paper_example.n_tasks
        assert snap.n_workers == paper_example.n_workers
        np.testing.assert_array_equal(snap.values, paper_example.values)
        np.testing.assert_array_equal(snap.tasks, paper_example.tasks)

    @given(st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 4), st.integers(0, 2)),
        min_size=1, max_size=60,
    ))
    @settings(max_examples=60, deadline=None)
    def test_property_round_trip(self, triples):
        """Any record sequence snapshots identically to from_records."""
        order = [0, 1, 2]
        stream = StreamingAnswerSet(TaskType.SINGLE_CHOICE, label_order=order)
        stream.add_answers(triples)
        reference = AnswerSet.from_records(triples, TaskType.SINGLE_CHOICE,
                                           label_order=order)
        _assert_same_answer_set(stream.snapshot(), reference)


class TestAppendOnlyGrowth:
    def test_interleaved_new_tasks_and_workers_keep_indices_stable(self):
        stream = StreamingAnswerSet(TaskType.DECISION_MAKING,
                                    label_order=[0, 1])
        stream.add_answers([("t1", "w1", 1), ("t2", "w1", 0)])
        first = stream.snapshot()
        # New worker on an old task, then a new task by an old worker,
        # then a brand-new (task, worker) pair.
        stream.add_answers([("t1", "w2", 1), ("t3", "w1", 1),
                            ("t4", "w3", 0)])
        second = stream.snapshot()

        assert second.n_tasks == 4
        assert second.n_workers == 3
        # The earlier snapshot's flat arrays are a strict prefix.
        np.testing.assert_array_equal(second.tasks[: len(first)], first.tasks)
        np.testing.assert_array_equal(second.workers[: len(first)],
                                      first.workers)
        np.testing.assert_array_equal(second.values[: len(first)],
                                      first.values)
        # ...and the label tables extend, never reorder.
        assert second.task_labels[: first.n_tasks] == first.task_labels
        assert second.worker_labels[: first.n_workers] == first.worker_labels

    def test_snapshots_are_immutable_and_independent(self):
        stream = StreamingAnswerSet(TaskType.DECISION_MAKING,
                                    label_order=[0, 1])
        stream.add_answers([("t1", "w1", 1)])
        first = stream.snapshot()
        stream.add_answers([("t2", "w2", 0)])
        assert first.n_answers == 1  # unchanged by later appends
        with pytest.raises((ValueError, RuntimeError)):
            first.values[0] = 0

    def test_snapshot_cached_until_append(self):
        stream = StreamingAnswerSet(TaskType.DECISION_MAKING,
                                    label_order=[0, 1])
        stream.add_answers([("t1", "w1", 1)])
        assert stream.snapshot() is stream.snapshot()
        before = stream.snapshot()
        stream.add_answer("t1", "w2", 0)
        assert stream.snapshot() is not before


class TestDuplicates:
    def test_keep_policy_keeps_both(self):
        stream = StreamingAnswerSet(TaskType.DECISION_MAKING,
                                    label_order=[0, 1])
        stream.add_answers([("t1", "w1", 1), ("t1", "w1", 0)])
        snap = stream.snapshot()
        assert snap.n_answers == 2
        np.testing.assert_array_equal(snap.values, [1, 0])

    def test_replace_policy_overwrites_in_place(self):
        stream = StreamingAnswerSet(TaskType.DECISION_MAKING,
                                    label_order=[0, 1], on_duplicate="replace")
        stream.add_answers([("t1", "w1", 1), ("t2", "w1", 0),
                            ("t1", "w1", 0)])
        snap = stream.snapshot()
        assert snap.n_answers == 2
        np.testing.assert_array_equal(snap.values, [0, 0])

    def test_replace_after_snapshot_invalidates_cached_snapshot(self):
        # Regression: a cached snapshot must never serve a value that an
        # in-place replacement has since overwritten.
        stream = StreamingAnswerSet(TaskType.DECISION_MAKING,
                                    label_order=[0, 1],
                                    on_duplicate="replace")
        stream.add_answers([("t1", "w1", 1), ("t1", "w2", 0)])
        before = stream.snapshot()
        assert stream.snapshot() is before  # cached while unchanged
        stream.add_answer("t1", "w1", 0)    # in-place replacement
        after = stream.snapshot()
        assert after is not before
        np.testing.assert_array_equal(before.values, [1, 0])  # immutable
        np.testing.assert_array_equal(after.values, [0, 0])

    def test_replace_after_snapshot_forces_engine_cold_refit(self):
        from repro.engine import InferenceEngine

        engine = InferenceEngine(TaskType.DECISION_MAKING,
                                 label_order=[0, 1],
                                 on_duplicate="replace", seed=0)
        engine.add_answers([("t1", "w1", 1), ("t1", "w2", 1),
                            ("t2", "w1", 0), ("t2", "w2", 0)])
        assert engine.current_truth("D&S")["t1"] == 1
        # Contradict t1 in place: the replacement invalidates both the
        # snapshot cache and the warm-start contract.
        engine.add_answers([("t1", "w1", 0), ("t1", "w2", 0)])
        truth = engine.current_truth("D&S")
        assert truth["t1"] == 0
        assert engine.last_fit_was_warm("D&S") is False

    def test_replace_bumps_version(self):
        stream = StreamingAnswerSet(TaskType.DECISION_MAKING,
                                    label_order=[0, 1], on_duplicate="replace")
        stream.add_answer("t1", "w1", 1)
        version = stream.version
        stream.add_answer("t1", "w1", 0)
        assert stream.version > version

    def test_error_policy_raises(self):
        stream = StreamingAnswerSet(TaskType.DECISION_MAKING,
                                    label_order=[0, 1], on_duplicate="error")
        stream.add_answer("t1", "w1", 1)
        with pytest.raises(InvalidAnswerSetError, match="duplicate"):
            stream.add_answer("t1", "w1", 0)

    def test_rejected_duplicate_does_not_leak_new_label(self):
        """A duplicate rejection must also roll back the label its value
        would have registered — otherwise n_choices silently grows."""
        stream = StreamingAnswerSet(TaskType.SINGLE_CHOICE,
                                    on_duplicate="error")
        stream.add_answers([("t1", "w1", "a"), ("t2", "w1", "b"),
                            ("t3", "w2", "c")])
        with pytest.raises(InvalidAnswerSetError, match="duplicate"):
            stream.add_answer("t1", "w1", "d")
        assert stream.labels == ["a", "b", "c"]
        assert stream.n_choices == 3

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="on_duplicate"):
            StreamingAnswerSet(TaskType.DECISION_MAKING, on_duplicate="merge")

    def test_batch_rejection_rolls_back_everything(self):
        """add_answers is all-or-nothing: a bad record mid-batch leaves
        no trace of the earlier records in the same batch."""
        stream = StreamingAnswerSet(TaskType.SINGLE_CHOICE,
                                    label_order=["a", "b"])
        stream.add_answers([("t1", "w1", "a")])
        version = stream.version
        with pytest.raises(InvalidAnswerSetError):
            stream.add_answers([("t2", "w2", "b"), ("t3", "w3", "BAD"),
                                ("t4", "w4", "a")])
        assert stream.n_answers == 1
        assert stream.n_tasks == 1
        assert stream.n_workers == 1
        assert stream.version == version
        snap = stream.snapshot()
        assert snap.task_labels == ["t1"]

    def test_batch_rollback_restores_replaced_values(self):
        stream = StreamingAnswerSet(TaskType.SINGLE_CHOICE,
                                    label_order=["a", "b"],
                                    on_duplicate="replace")
        stream.add_answers([("t1", "w1", "a"), ("t2", "w1", "b")])
        with pytest.raises(InvalidAnswerSetError):
            # Replaces (t1, w1) in place, then an unknown label aborts
            # the batch — the overwrite must be undone too.
            stream.add_answers([("t1", "w1", "b"), ("t3", "w2", "c")])
        assert stream.replacements == 0
        assert stream.n_answers == 2
        np.testing.assert_array_equal(stream.snapshot().values, [0, 1])

    def test_replacements_counter_tracks_overwrites(self):
        stream = StreamingAnswerSet(TaskType.DECISION_MAKING,
                                    label_order=[0, 1], on_duplicate="replace")
        stream.add_answers([("t1", "w1", 1), ("t2", "w1", 0)])
        assert stream.replacements == 0
        stream.add_answer("t1", "w1", 0)
        assert stream.replacements == 1
        stream.add_answer("t3", "w2", 1)  # plain append: no bump
        assert stream.replacements == 1

    def test_batch_rollback_pins_replacement_counter(self):
        """A failed batch that overwrote in place before dying must
        restore ``replacements`` to its pre-batch value exactly.

        The engine's warm gate and the durable log's replay check both
        key on this counter; a drifted counter after rollback would
        poison every later warm fit (or fail recovery verification)."""
        stream = StreamingAnswerSet(TaskType.SINGLE_CHOICE,
                                    label_order=["a", "b"],
                                    on_duplicate="replace")
        stream.add_answers([("t1", "w1", "a"), ("t2", "w1", "b")])
        stream.add_answer("t1", "w1", "b")  # acknowledged overwrite
        assert stream.replacements == 1
        before = stream.snapshot()
        version = stream.version
        with pytest.raises(InvalidAnswerSetError):
            # Two more overwrites land mid-batch, then an unknown label
            # aborts: neither landed overwrite may tick the counter.
            stream.add_answers([("t1", "w1", "a"), ("t2", "w1", "a"),
                                ("t3", "w9", "NOPE")])
        assert stream.replacements == 1
        assert stream.version == version
        _assert_same_answer_set(stream.snapshot(), before)


class _RecordingLog:
    """An ``append_batch`` duck type that remembers every commit,
    decoded back to records through the id and label tables it is
    sent."""

    def __init__(self, fail: bool = False):
        self.batches: list[dict] = []
        self.fail = fail
        self.tables = ([], [], [])
        self.replacements = 0

    def append_batch(self, tasks, workers, values, outcomes, new_ids, *,
                     version):
        if self.fail:
            raise OSError("disk full")
        for table, new in zip(self.tables, new_ids):
            table.extend(new)
        task_ids, worker_ids, labels = self.tables
        values = values.tolist()
        if self.tables[2]:
            values = [labels[code] for code in values]
        self.replacements += int(np.count_nonzero(outcomes))
        self.batches.append({
            "records": list(zip([task_ids[t] for t in tasks.tolist()],
                                [worker_ids[w] for w in workers.tolist()],
                                values)),
            "outcomes": [int(o) for o in outcomes],
            "version": version, "replacements": self.replacements,
        })


class TestWriteThrough:
    def test_each_batch_commits_once_with_outcomes(self):
        stream = StreamingAnswerSet(TaskType.DECISION_MAKING,
                                    label_order=[0, 1],
                                    on_duplicate="replace")
        log = _RecordingLog()
        stream.attach_log(log)
        stream.add_answers([("t1", "w1", 1), ("t2", "w1", 0)])
        stream.add_answers([("t1", "w1", 0), ("t3", "w2", 1)])
        assert len(log.batches) == 2
        first, second = log.batches
        assert first["records"] == [("t1", "w1", 1), ("t2", "w1", 0)]
        assert first["outcomes"] == [0, 0]
        assert first["version"] == 2
        assert second["outcomes"] == [1, 0]  # the in-place replacement
        assert second["version"] == stream.version
        assert second["replacements"] == 1

    def test_failed_commit_rolls_back_memory(self):
        """A batch whose log write fails is invisible in memory too —
        acknowledgement is transactional across both."""
        stream = StreamingAnswerSet(TaskType.DECISION_MAKING,
                                    label_order=[0, 1])
        stream.add_answers([("t1", "w1", 1)])
        before = stream.snapshot()
        version = stream.version
        stream.attach_log(_RecordingLog(fail=True))
        with pytest.raises(OSError, match="disk full"):
            stream.add_answers([("t2", "w2", 0), ("t3", "w1", 1)])
        assert stream.version == version
        assert stream.n_answers == 1
        _assert_same_answer_set(stream.snapshot(), before)

    def test_detach_stops_writing(self):
        stream = StreamingAnswerSet(TaskType.DECISION_MAKING,
                                    label_order=[0, 1])
        log = _RecordingLog()
        stream.attach_log(log)
        stream.add_answers([("t1", "w1", 1)])
        stream.attach_log(None)
        stream.add_answers([("t2", "w1", 0)])
        assert len(log.batches) == 1

    def test_rejected_batch_never_reaches_the_log(self):
        stream = StreamingAnswerSet(TaskType.SINGLE_CHOICE,
                                    label_order=["a", "b"])
        log = _RecordingLog()
        stream.attach_log(log)
        with pytest.raises(InvalidAnswerSetError):
            stream.add_answers([("t1", "w1", "a"), ("t2", "w1", "BAD")])
        assert log.batches == []


class TestEdgeCases:
    def test_empty_snapshot(self):
        stream = StreamingAnswerSet(TaskType.DECISION_MAKING)
        snap = stream.snapshot()
        assert snap.n_answers == 0
        assert snap.n_tasks == 0
        assert snap.n_workers == 0
        assert snap.n_choices == 2

    def test_empty_numeric_snapshot(self):
        snap = StreamingAnswerSet(TaskType.NUMERIC).snapshot()
        assert snap.n_answers == 0
        assert snap.task_type is TaskType.NUMERIC

    def test_dynamic_labels_discovered_in_first_appearance_order(self):
        stream = StreamingAnswerSet(TaskType.SINGLE_CHOICE)
        stream.add_answers([("t1", "w1", "dog"), ("t2", "w1", "cat")])
        assert stream.labels == ["dog", "cat"]
        np.testing.assert_array_equal(stream.snapshot().values, [0, 1])
        assert stream.decode_values(np.array([1, 0, 1])) == \
            ["cat", "dog", "cat"]

    @pytest.mark.parametrize("codes, bad", [([0, 2], 2), ([-1, 0], -1),
                                            ([1, -2, 5], -2)])
    def test_decode_values_rejects_codes_outside_the_label_table(
            self, codes, bad):
        stream = StreamingAnswerSet(TaskType.SINGLE_CHOICE)
        stream.add_answers([("t1", "w1", "dog"), ("t2", "w1", "cat")])
        with pytest.raises(InvalidAnswerSetError,
                           match=f"unknown label code {bad}"):
            stream.decode_values(np.array(codes))

    def test_decode_values_numeric_returns_floats(self):
        stream = StreamingAnswerSet(TaskType.NUMERIC)
        decoded = stream.decode_values(np.array([1, 2.5]))
        assert decoded == [1.0, 2.5]
        assert all(type(value) is float for value in decoded)

    def test_fixed_label_order_rejects_unknown_label(self):
        stream = StreamingAnswerSet(TaskType.SINGLE_CHOICE,
                                    label_order=["a", "b", "c"])
        with pytest.raises(InvalidAnswerSetError, match="label"):
            stream.add_answer("t1", "w1", "d")

    def test_fixed_n_choices_overflow_rejected(self):
        stream = StreamingAnswerSet(TaskType.SINGLE_CHOICE, n_choices=2)
        stream.add_answers([("t1", "w1", "a"), ("t1", "w2", "b")])
        with pytest.raises(InvalidAnswerSetError, match="n_choices"):
            stream.add_answer("t1", "w3", "c")

    def test_oversized_label_order_rejected_at_construction(self):
        """A label_order wider than the fixed choice space must fail up
        front, not poison later snapshots."""
        with pytest.raises(InvalidAnswerSetError, match="n_choices"):
            StreamingAnswerSet(TaskType.DECISION_MAKING,
                               label_order=["a", "b", "c"])
        with pytest.raises(InvalidAnswerSetError, match="n_choices"):
            StreamingAnswerSet(TaskType.SINGLE_CHOICE, n_choices=2,
                               label_order=["a", "b", "c"])

    def test_decision_making_third_label_rejected_at_ingestion(self):
        """A 3rd distinct label must fail on add, not poison the
        append-only stream so every later snapshot raises."""
        stream = StreamingAnswerSet(TaskType.DECISION_MAKING)
        stream.add_answers([("t1", "w1", "yes"), ("t1", "w2", "no")])
        with pytest.raises(InvalidAnswerSetError, match="n_choices"):
            stream.add_answer("t2", "w1", "maybe")
        # The stream stays healthy after the rejected add.
        assert stream.snapshot().n_answers == 2
        stream = StreamingAnswerSet(TaskType.NUMERIC)
        with pytest.raises(InvalidAnswerSetError, match="finite"):
            stream.add_answer("t1", "w1", float("nan"))

    def test_label_order_on_numeric_rejected(self):
        with pytest.raises(InvalidAnswerSetError):
            StreamingAnswerSet(TaskType.NUMERIC, label_order=[0, 1])

    def test_numeric_stream_snapshot(self):
        stream = StreamingAnswerSet(TaskType.NUMERIC)
        stream.add_answers([("t1", "w1", 2.5), ("t1", "w2", "3.5")])
        snap = stream.snapshot()
        assert snap.values.dtype == np.float64
        np.testing.assert_allclose(snap.values, [2.5, 3.5])
