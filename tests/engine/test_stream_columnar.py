"""The columnar ``add_answers`` against a per-record reference model.

``_Reference`` ingests one record at a time with the historical
semantics: labels, tasks and workers are indexed in order of first
appearance, each record bumps the version, a repeated pair replaces in
place or raises, and a rejected batch leaves no trace.  The stream
must agree with it on every state it exposes, on the outcomes it logs
and, for a rejected batch, on the exception.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import ExecutionPolicy, StorePolicy
from repro.core.tasktypes import TaskType
from repro.engine import InferenceEngine, StreamingAnswerSet
from repro.exceptions import InvalidAnswerSetError
from tests.engine.test_stream import _RecordingLog

#: ``1`` and ``True`` are one dict key, ``"1"`` is another.
IDS = [0, 1, "1", True, 2, "2", "x"]

MODES = {
    "fixed": {"task_type": TaskType.SINGLE_CHOICE,
              "label_order": ["a", "b", "c"]},
    "discovered": {"task_type": TaskType.SINGLE_CHOICE},
    "capped": {"task_type": TaskType.SINGLE_CHOICE, "n_choices": 3},
    "numeric": {"task_type": TaskType.NUMERIC},
}

VALUES = {
    "fixed": st.sampled_from(["a", "b", "c"]),
    "discovered": st.sampled_from(["a", "b", 1, "1", True, ("t", 1)]),
    "capped": st.sampled_from(["a", "b", "c", "d"]),
    "numeric": st.one_of(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.integers(-5, 5), st.sampled_from(["2.5", "1e3", True])),
}

#: Values the mode rejects (a label past ``n_choices`` only once the
#: stream holds three labels).
BAD_VALUES = {
    "fixed": st.sampled_from(["zzz", ["a"]]),
    "discovered": st.just(["unhashable"]),
    "capped": st.sampled_from(["e", "f"]),
    "numeric": st.sampled_from([math.nan, math.inf, -math.inf, "abc",
                                None]),
}


class _Reference:
    """Per-record ingest with the historical semantics (the oracle)."""

    def __init__(self, task_type, n_choices=None, label_order=None,
                 on_duplicate="keep"):
        self.categorical = task_type.is_categorical
        self.on_duplicate = on_duplicate
        self.fixed_choices = n_choices
        self.fixed_labels = label_order is not None
        self.labels = {label: code
                       for code, label in enumerate(label_order or [])}
        self.tasks, self.workers, self.pairs = {}, {}, {}
        self.answers = []
        self.version = self.replacements = 0

    def _state(self):
        return (dict(self.labels), dict(self.tasks), dict(self.workers),
                dict(self.pairs), [list(a) for a in self.answers],
                self.version, self.replacements)

    def _restore(self, saved):
        (self.labels, self.tasks, self.workers, self.pairs,
         self.answers, self.version, self.replacements) = saved

    def add_answers(self, records):
        """Per-record outcomes (1 = replaced in place), or the raise."""
        saved = self._state()
        try:
            return [self._ingest(task, worker, value)
                    for task, worker, value in records]
        except Exception:
            self._restore(saved)
            raise

    def _ingest(self, task, worker, value):
        coded = self._encode_value(value)
        t = self.tasks.setdefault(task, len(self.tasks))
        w = self.workers.setdefault(worker, len(self.workers))
        self.version += 1
        if self.on_duplicate != "keep":
            slot = self.pairs.get((t, w))
            if slot is not None:
                if self.on_duplicate == "error":
                    raise InvalidAnswerSetError(
                        f"duplicate answer for task {task!r} by worker "
                        f"{worker!r}"
                    )
                self.answers[slot][2] = coded
                self.replacements += 1
                return 1
            self.pairs[(t, w)] = len(self.answers)
        self.answers.append([t, w, coded])
        return 0

    def _encode_value(self, value):
        if not self.categorical:
            value = float(value)
            if not np.isfinite(value):
                raise InvalidAnswerSetError("numeric answers must be finite")
            return value
        code = self.labels.get(value)
        if code is None:
            if self.fixed_labels:
                raise InvalidAnswerSetError(
                    f"answer label {value!r} not in the fixed label_order "
                    f"{list(self.labels)}"
                )
            code = len(self.labels)
            if self.fixed_choices is not None and code >= self.fixed_choices:
                raise InvalidAnswerSetError(
                    f"label {value!r} would be choice #{code + 1} but "
                    f"n_choices is fixed at {self.fixed_choices}"
                )
            self.labels[value] = code
        return code


def _typed(keys) -> list:
    return [(key, type(key)) for key in keys]


def _state(stream: StreamingAnswerSet) -> tuple:
    """Everything a stream exposes, in comparable form."""
    snap = stream.snapshot()
    return (
        [(a.dtype, a.tolist()) for a in (snap.tasks, snap.workers,
                                         snap.values)],
        _typed(stream._task_index), _typed(stream._worker_index),
        _typed(stream.labels), snap.task_labels, snap.worker_labels,
        snap.n_choices, stream.version, stream.replacements,
    )


def _reference_state(ref: _Reference) -> tuple:
    columns = list(zip(*ref.answers)) or [(), (), ()]
    vdtype = np.int64 if ref.categorical else np.float64
    return (
        [(np.dtype(np.int64), list(columns[0])),
         (np.dtype(np.int64), list(columns[1])),
         (np.dtype(vdtype), list(columns[2]))],
        _typed(ref.tasks), _typed(ref.workers), _typed(ref.labels),
        [str(task) for task in ref.tasks],
        [str(worker) for worker in ref.workers],
        (max(len(ref.labels), 2) if ref.fixed_choices is None
         else ref.fixed_choices) if ref.categorical else 0,
        ref.version, ref.replacements,
    )


@st.composite
def scenarios(draw):
    policy = draw(st.sampled_from(["keep", "replace", "error"]))
    mode = draw(st.sampled_from(sorted(MODES)))
    batches = []
    for _ in range(draw(st.integers(1, 5))):
        records = draw(st.lists(
            st.tuples(st.sampled_from(IDS), st.sampled_from(IDS),
                      VALUES[mode]),
            min_size=1, max_size=10))
        if draw(st.booleans()):  # one faulty record, anywhere
            task, worker, value = draw(st.sampled_from(records))
            faulty = draw(st.sampled_from([
                (task, worker, draw(BAD_VALUES[mode])),
                (task, worker),
                (task, worker, value, value),
                (["x"], worker, value),
                (task, {"y"}, value),
            ]))
            records.insert(draw(st.integers(0, len(records))), faulty)
        if draw(st.booleans()):
            records = [list(record) for record in records]
        commit_fails = draw(st.integers(0, 3)) == 0
        batches.append((records, commit_fails))
    return policy, mode, batches


class TestAgainstPerRecordReference:
    @given(scenarios())
    @settings(max_examples=300, deadline=None)
    def test_same_state_outcomes_and_errors(self, scenario):
        policy, mode, batches = scenario
        stream = StreamingAnswerSet(on_duplicate=policy, **MODES[mode])
        log = _RecordingLog()
        stream.attach_log(log)
        ref = _Reference(on_duplicate=policy, **MODES[mode])
        for batch, commit_fails in batches:
            before, saved = _state(stream), ref._state()
            logged = len(log.batches)
            log.fail = commit_fails
            try:
                outcomes = ref.add_answers(batch)
            except Exception as expected:
                with pytest.raises(type(expected)) as raised:
                    stream.add_answers(batch)
                assert type(raised.value) is type(expected)
                assert str(raised.value) == str(expected)
                assert _state(stream) == before
                assert len(log.batches) == logged
            else:
                if commit_fails:
                    # A failed commit rolls the accepted batch back too.
                    with pytest.raises(OSError, match="disk full"):
                        stream.add_answers(batch)
                    ref._restore(saved)
                    assert _state(stream) == before
                else:
                    assert stream.add_answers(batch) == len(batch)
                    assert log.batches[-1]["outcomes"] == outcomes
                    assert log.batches[-1]["version"] == ref.version
                    assert (log.batches[-1]["replacements"]
                            == ref.replacements)
            assert _state(stream) == _reference_state(ref)

    def test_repeats_within_a_batch_end_on_the_last_value(self):
        stream = StreamingAnswerSet(TaskType.SINGLE_CHOICE,
                                    label_order=["a", "b", "c"],
                                    on_duplicate="replace")
        stream.add_answers([("t1", "w1", "a")])
        stream.add_answers([("t2", "w1", "a"), ("t1", "w1", "b"),
                            ("t2", "w1", "c"), ("t1", "w1", "c"),
                            ("t2", "w1", "b")])
        snap = stream.snapshot()
        assert snap.values.tolist() == [2, 1]
        assert stream.replacements == 4
        assert stream.version == 6

    def test_failed_commit_restores_replaced_answers(self):
        stream = StreamingAnswerSet(TaskType.SINGLE_CHOICE,
                                    label_order=["a", "b"],
                                    on_duplicate="replace")
        stream.add_answers([("t1", "w1", "a"), ("t2", "w1", "a")])
        before = _state(stream)
        stream.attach_log(_RecordingLog(fail=True))
        with pytest.raises(OSError, match="disk full"):
            stream.add_answers([("t1", "w1", "b"), ("t3", "w1", "b"),
                                ("t3", "w1", "a")])
        assert _state(stream) == before
        stream.attach_log(None)
        # The failed batch's new pair is gone: this appends.
        stream.add_answers([("t3", "w1", "b")])
        assert stream.replacements == 0
        assert stream.snapshot().values.tolist() == [0, 0, 1]

    def test_earliest_faulty_record_wins(self):
        stream = StreamingAnswerSet(TaskType.SINGLE_CHOICE,
                                    label_order=["a", "b"],
                                    on_duplicate="error")
        stream.add_answers([("t1", "w1", "a")])
        # A duplicate comes first; the unknown label and the short
        # record after it are never reached.
        with pytest.raises(InvalidAnswerSetError,
                           match="duplicate answer for task 't1'"):
            stream.add_answers([("t2", "w2", "a"), ("t1", "w1", "b"),
                                ("t3", "w3", "NOPE"), ("t4", "w4")])
        # Within one record the value is checked before the ids.
        with pytest.raises(InvalidAnswerSetError, match="NOPE"):
            stream.add_answers([(["unhashable"], "w3", "NOPE")])
        assert stream.n_answers == 1 and stream.n_tasks == 1


def _batches(numeric: bool):
    rng = np.random.default_rng(3)
    ids = [1, "1", True, 2.5, ("t", 1), "x"]
    batches = []
    for size in (5, 40, 3, 25):  # 40 and 25 exceed the replay chunk
        batch = []
        for _ in range(size):
            task = ids[int(rng.integers(0, len(ids)))]
            worker = f"w{int(rng.integers(0, 4))}"
            value = (float(rng.normal()) if numeric
                     else ["no", "yes", "maybe"][int(rng.integers(0, 3))])
            batch.append((task, worker, value))
        batches.append(batch)
    return batches


class TestStoreRoundTrip:
    """stream -> AnswerStore -> ``InferenceEngine.recover`` rebuilds the
    stream bit for bit, id object types included."""

    @pytest.mark.parametrize("policy", ["keep", "replace", "error"])
    @pytest.mark.parametrize("numeric", [False, True])
    def test_recover_reproduces_the_stream(self, tmp_path, policy, numeric):
        path = str(tmp_path / "store")
        kwargs = ({"task_type": TaskType.NUMERIC} if numeric else
                  {"task_type": TaskType.SINGLE_CHOICE,
                   "label_order": ["maybe", "no", "yes"]})
        with InferenceEngine(
                on_duplicate=policy, seed=0,
                policy=ExecutionPolicy(store=StorePolicy(path=path)),
                **kwargs) as engine:
            accepted = 0
            for batch in _batches(numeric):
                try:
                    engine.add_answers(batch)
                    accepted += 1
                except InvalidAnswerSetError:
                    assert policy == "error"  # rejected, never logged
            assert accepted
            expected = _state(engine.stream)
        with InferenceEngine.recover(path, replay_chunk=7) as recovered:
            assert _state(recovered.stream) == expected
