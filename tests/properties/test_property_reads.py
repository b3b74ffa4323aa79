"""Read-path property: every read is the per-task decode, copied.

Random interleavings of ingest, fits with mixed kwargs, reads,
invalidation and recovery, over the stream shapes reads decode
differently: int labels, string labels that grow, a fixed
``label_order``, tuple labels, numeric truths and in-place revisions.
Every ``current_truth``/``worker_quality`` must equal an inline
per-task decode of the fit it serves (the reference below, the decode
reads ran before they were served from a per-fit view), a dict a
caller mutated must never leak into a later read, and a label code
outside the label table must raise.
"""

import math
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.policy import ExecutionPolicy, MethodSpec, StorePolicy
from repro.core.tasktypes import TaskType
from repro.engine import InferenceEngine
from repro.exceptions import InvalidAnswerSetError

CATEGORICAL = [("MV", {}), ("MV", {"random_ties": False}), ("D&S", {}),
               ("D&S", {"max_iter": 5}), ("ZC", {"max_iter": 5})]
NUMERIC = [("Mean", {}), ("Median", {}), ("LFC_N", {"max_iter": 5})]

#: name -> engine kwargs, answer values, method specs, durable store?
STREAMS = {
    "int_labels": dict(
        engine=dict(task_type=TaskType.DECISION_MAKING),
        values=[0, 1],
        methods=[("D&S", {}), ("D&S", {"max_iter": 5}),
                 ("ZC", {"max_iter": 5})],
        policy=dict(n_shards=2, executor="serial", refit="delta"),
        store=True),
    "growing_str_labels": dict(
        engine=dict(task_type=TaskType.SINGLE_CHOICE),
        values=["a", "b", "c", "d"], methods=CATEGORICAL, store=True),
    "fixed_label_order": dict(
        engine=dict(task_type=TaskType.SINGLE_CHOICE,
                    label_order=["z", "y", "x"]),
        values=["x", "y", "z"], methods=CATEGORICAL, store=True),
    # The store logs tuples as JSON lists, which cannot be labels again.
    "tuple_labels": dict(
        engine=dict(task_type=TaskType.SINGLE_CHOICE),
        values=[("a", 1), ("b", 2), ("c", 3)], methods=CATEGORICAL,
        store=False),
    "numeric": dict(
        engine=dict(task_type=TaskType.NUMERIC),
        values=[-3.0, 0.5, 1.0, 2.5], methods=NUMERIC, store=True),
    "revisions": dict(
        engine=dict(task_type=TaskType.DECISION_MAKING,
                    on_duplicate="replace"),
        values=["no", "yes"], methods=CATEGORICAL, store=True),
}
# Int ids print unlike every string id, so no two ids collide in reads.
TASKS = ["t0", "t1", "t2", "t3", "t4", 100, 101]
WORKERS = ["w0", "w1", "w2", "w3", 7]


def reference(engine, kind: str, name: str, kwargs: dict) -> dict:
    """The per-task decode of the fit a read of ``name`` serves."""
    result = engine.infer(name, **kwargs)
    snapshot = engine.stream.snapshot()
    if kind == "worker_quality":
        worker_ids = snapshot.worker_labels or [
            str(i) for i in range(snapshot.n_workers)]
        return {worker_ids[w]: float(result.worker_quality[w])
                for w in range(snapshot.n_workers)}
    task_ids = snapshot.task_labels or [str(i)
                                        for i in range(snapshot.n_tasks)]
    if not engine.stream.task_type.is_categorical:
        return {task_ids[i]: float(result.truths[i])
                for i in range(snapshot.n_tasks)}
    labels = engine.stream.labels

    def decode_value(code):
        code = int(code)
        if not 0 <= code < len(labels):
            raise InvalidAnswerSetError(f"unknown label code {code}")
        return labels[code]

    return {task_ids[i]: decode_value(result.truths[i])
            for i in range(snapshot.n_tasks)}


def same(got: dict, want: dict) -> bool:
    """Equal keys, and values equal in type and value (NaN == NaN)."""
    return got.keys() == want.keys() and all(
        type(got[key]) is type(want[key])
        and (got[key] == want[key]
             or (isinstance(want[key], float) and math.isnan(want[key])
                 and math.isnan(got[key])))
        for key in want)


def check_read(engine, kind: str, name: str, kwargs: dict, as_spec: bool):
    read = getattr(engine, kind)

    def call():
        if as_spec:
            return read(MethodSpec(name, **kwargs))
        return read(name, **kwargs)

    try:
        got = call()
    except InvalidAnswerSetError:
        # A fit may pick a label no answer used yet (outside the table).
        with pytest.raises(InvalidAnswerSetError):
            reference(engine, kind, name, kwargs)
        return
    assert same(got, reference(engine, kind, name, kwargs))
    got.clear()
    got["mutated"] = None
    assert same(call(), reference(engine, kind, name, kwargs))


def answers(stream: dict):
    return st.tuples(st.sampled_from(TASKS), st.sampled_from(WORKERS),
                     st.sampled_from(stream["values"]))


def operations(stream: dict):
    method = st.integers(0, len(stream["methods"]) - 1)
    return st.one_of(
        st.tuples(st.just("add"),
                  st.lists(answers(stream), min_size=1, max_size=6)),
        st.tuples(st.just("infer"), method),
        st.tuples(st.just("current_truth"), method, st.booleans()),
        st.tuples(st.just("worker_quality"), method, st.booleans()),
        st.tuples(st.just("invalidate"), st.none() | method, st.booleans()),
        st.tuples(st.just("recover")),
        st.tuples(st.just("bad_code"), st.integers(1, 3), st.booleans()),
    )


def check_bad_code(engine, offset: int, negative: bool) -> None:
    labels = engine.stream.labels
    if not engine.stream.task_type.is_categorical or not labels:
        return
    codes = list(range(len(labels)))
    assert engine.stream.decode_values(codes) == labels
    bad = -offset if negative else len(labels) - 1 + offset
    with pytest.raises(InvalidAnswerSetError,
                       match=f"unknown label code {bad}"):
        engine.stream.decode_values(codes + [bad] + codes)


@given(data=st.data())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_reads_match_the_per_task_decode(data):
    stream = STREAMS[data.draw(st.sampled_from(sorted(STREAMS)))]
    base = data.draw(st.lists(answers(stream), min_size=2, max_size=10))
    ops = data.draw(st.lists(operations(stream), max_size=12))
    methods = stream["methods"]
    with tempfile.TemporaryDirectory() as workdir:
        policy = ExecutionPolicy(
            **stream.get("policy", {}),
            store=(StorePolicy(path=os.path.join(workdir, "store"),
                               snapshot_every=1)
                   if stream["store"] else None))
        engine = InferenceEngine(seed=0, policy=policy, **stream["engine"])
        try:
            engine.add_answers(base)
            for op, *args in ops:
                if op == "add":
                    engine.add_answers(args[0])
                elif op == "infer":
                    name, kwargs = methods[args[0]]
                    engine.infer(name, **kwargs)
                elif op in ("current_truth", "worker_quality"):
                    name, kwargs = methods[args[0]]
                    check_read(engine, op, name, kwargs, as_spec=args[1])
                elif op == "invalidate":
                    if args[0] is None:
                        engine.invalidate()
                    else:
                        name, kwargs = methods[args[0]]
                        engine.invalidate(MethodSpec(name, **kwargs)
                                          if args[1] else name)
                        assert name not in engine.cached_methods()
                elif op == "recover" and stream["store"]:
                    engine.close()
                    engine = InferenceEngine.recover(policy.store.path,
                                                     policy=policy)
                elif op == "bad_code":
                    check_bad_code(engine, *args)
            for name, kwargs in methods:
                for kind in ("current_truth", "worker_quality"):
                    check_read(engine, kind, name, kwargs, as_spec=False)
        finally:
            engine.close()
