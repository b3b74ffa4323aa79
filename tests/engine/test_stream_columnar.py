"""The columnar ``add_answers`` against a per-record reference model.

``_Reference`` ingests one record at a time with the historical
semantics: labels, tasks and workers are indexed in order of first
appearance, each record bumps the version, a repeated pair replaces in
place or raises, and a rejected batch leaves no trace.  The stream
must agree with it on every state it exposes, on the outcomes it logs
and, for a rejected batch, on the exception.
"""

import gc
import math
import tracemalloc

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


def _index(stream: StreamingAnswerSet) -> dict:
    """The stream's pair index as ``{key: slot}``; checks that each run
    is sorted and that the runs share no key."""
    runs = stream._pairs._runs
    index = {}
    for keys, slots in runs:
        assert (np.diff(keys) > 0).all()
        index.update(zip(keys.tolist(), slots.tolist()))
    assert len(index) == sum(len(keys) for keys, _ in runs)
    return index


def _live_index(stream: StreamingAnswerSet) -> dict:
    """``{tasks[s] << 32 | workers[s]: s}`` over the snapshot's slots."""
    snap = stream.snapshot()
    return {key: slot for slot, key in
            enumerate((snap.tasks << 32 | snap.workers).tolist())}


def _runs_holding(stream: StreamingAnswerSet, records) -> set:
    """Which index runs (``"main"``, ``"recent"``) hold a pair that
    ``records`` repeat."""
    tasks, workers = stream._task_index, stream._worker_index
    keys = {tasks[task] << 32 | workers[worker]
            for task, worker, _ in records
            if task in tasks and worker in workers}
    return {name for name, (run, _) in zip(("main", "recent"),
                                           stream._pairs._runs)
            if keys.intersection(run.tolist())}


def _merge_batches(policy: str, n_batches: int, size: int = 320):
    """Batches of ``size`` pairs new to the stream, over string ids.

    Under ``"replace"`` each batch also repeats pairs sent long ago and
    in the batch before, and one of its own.  Under ``"error"`` every
    fifth batch instead repeats one earlier pair (long ago and just
    now, in turn), and is rejected.
    """
    rng = np.random.default_rng(11)
    pairs = [(f"t{p // 200}", f"w{p % 200}")
             for p in rng.permutation(500 * 200).tolist()]
    batches = []
    for b in range(n_batches):
        sent = b * size
        records = pairs[sent:sent + size]
        if sent:
            old = [pairs[i] for i in rng.integers(0, sent // 2, 5)]
            recent = [pairs[i] for i in rng.integers(sent - size, sent, 5)]
            if policy == "replace":
                records += old + recent + records[:3]
            elif b % 5 == 4:
                records.append((old if b % 10 == 4 else recent)[0])
        batches.append([(task, worker, "abc"[int(rng.integers(3))])
                        for task, worker in
                        (records[i] for i in rng.permutation(len(records)))])
    return batches


class TestPairIndexAcrossMerges:
    """The two-run pair index against the per-record reference, past
    several merges of its recent run into its main run."""

    @pytest.mark.parametrize("policy", ["replace", "error"])
    def test_index_is_the_live_slots_after_every_batch(self, policy):
        stream = StreamingAnswerSet(on_duplicate=policy, **MODES["fixed"])
        log = _RecordingLog()
        stream.attach_log(log)
        ref = _Reference(on_duplicate=policy, **MODES["fixed"])
        held, failed_merges = set(), 0
        for batch in _merge_batches(policy, 80):
            held |= _runs_holding(stream, batch)
            before = (_state(stream), _index(stream))
            main = len(stream._pairs._runs[0][0])
            try:
                outcomes = ref.add_answers(batch)
            except InvalidAnswerSetError as expected:
                with pytest.raises(InvalidAnswerSetError) as raised:
                    stream.add_answers(batch)
                assert str(raised.value) == str(expected)
                assert (_state(stream), _index(stream)) == before
            else:
                # A failed commit first: the stream, its index and the
                # retry's outcomes are as if the batch never came.
                log.fail = True
                with pytest.raises(OSError, match="disk full"):
                    stream.add_answers(batch)
                assert (_state(stream), _index(stream)) == before
                log.fail = False
                assert stream.add_answers(batch) == len(batch)
                assert log.batches[-1]["outcomes"] == outcomes
                failed_merges += len(stream._pairs._runs[0][0]) != main
            assert _state(stream) == _reference_state(ref)
            assert _index(stream) == _live_index(stream)
        assert len(_live_index(stream)) >= 20_000
        assert failed_merges >= 3
        assert held == {"main", "recent"}

    def test_duplicates_in_either_run_raise(self):
        stream = StreamingAnswerSet(TaskType.DECISION_MAKING,
                                    on_duplicate="error")
        pairs = [(f"t{i // 64}", f"w{i % 64}") for i in range(5_000)]
        for i in range(0, len(pairs), 250):
            stream.add_answers([(task, worker, i % 2)
                                for task, worker in pairs[i:i + 250]])
        early, late = pairs[0], pairs[-1]
        assert _runs_holding(stream, [(*early, 0)]) == {"main"}
        assert _runs_holding(stream, [(*late, 0)]) == {"recent"}
        before = (_state(stream), _index(stream))
        for task, worker in (early, late):
            message = (f"duplicate answer for task '{task}' by worker "
                       f"'{worker}'")
            with pytest.raises(InvalidAnswerSetError, match=message):
                stream.add_answers([("t-new", "w-new", 1),
                                    (task, worker, 1)])
            # Before a record that fails to encode, the duplicate wins;
            # after one, the encode fault does.
            with pytest.raises(InvalidAnswerSetError, match=message):
                stream.add_answers([("t-new", "w-new", 1),
                                    (task, worker, 1), ("t", "w", 2)])
            with pytest.raises(InvalidAnswerSetError, match="choice #3"):
                stream.add_answers([("t-new", "w-new", 1), ("t", "w", 2),
                                    (task, worker, 1)])
            assert (_state(stream), _index(stream)) == before


class TestPairIndexMemory:
    def test_replace_stream_bytes_per_answer(self):
        side = 256
        records = [(f"t{t}", f"w{w}", (t + w) % 2)
                   for t in range(side) for w in range(side)]
        revisions = [(f"t{t}", f"w{t}", 1) for t in range(side)]
        gc.collect()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stream = StreamingAnswerSet(TaskType.DECISION_MAKING,
                                        on_duplicate="replace")
            for i in range(0, len(records), 512):
                stream.add_answers(records[i:i + 512])
            stream.add_answers(revisions)
            gc.collect()
            traced = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert stream.n_answers == side * side
        assert stream.replacements == side
        # Three int64 answer buffers and the 16-byte pair index: 40.3
        # bytes per answer measured, against 128 with a dict of pairs.
        assert traced / stream.n_answers < 64


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

    @pytest.mark.parametrize("policy", ["replace", "error"])
    def test_recover_crosses_a_merge(self, tmp_path, policy):
        path = str(tmp_path / "store")
        with InferenceEngine(
                on_duplicate=policy, seed=0,
                policy=ExecutionPolicy(store=StorePolicy(path=path)),
                **MODES["fixed"]) as engine:
            for batch in _merge_batches(policy, 18):
                try:
                    engine.add_answers(batch)
                except InvalidAnswerSetError:
                    assert policy == "error"
            expected = (_state(engine.stream), _index(engine.stream))
        assert len(expected[1]) > 4_096
        with InferenceEngine.recover(path, replay_chunk=7) as recovered:
            stream = recovered.stream
            assert (_state(stream), _index(stream)) == expected
            assert len(stream._pairs._runs[0][0])  # merged on replay
            assert _index(stream) == _live_index(stream)
