"""Crash recovery: acknowledged answers survive, truth matches.

Two layers:

* a hypothesis property — over random record tails, batch splits,
  duplicate policies and snapshot cadences, abandon the store after an
  arbitrary acknowledged prefix and require the recovered engine to
  recover the acknowledged stream bit-exactly, and to serve what a fit
  of it from where recovery started serves (posterior parity <=
  1e-10): the uninterrupted engine's fit when a snapshot exists at the
  stream head, else a batch fit from the newest snapshot (or cold);
* a real ``SIGKILL`` integration test — a child process streams batches
  through a durable engine and prints ``ACK <version>`` after each
  acknowledged batch; the parent kills it with ``-9`` mid-stream,
  recovers the store, and verifies nothing acknowledged was lost and
  the posterior matches an uninterrupted replay bit-closely.
"""

import os
import signal
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.policy import ExecutionPolicy, StorePolicy
from repro.core.registry import create
from repro.core.tasktypes import TaskType
from repro.engine import InferenceEngine

records_strategy = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 3), st.integers(0, 1)),
    min_size=1, max_size=60,
)


def _batched(records, size):
    return [records[i:i + size] for i in range(0, len(records), size)]


@given(
    records=records_strategy,
    batch_size=st.integers(1, 7),
    crash_fraction=st.floats(0.0, 1.0),
    on_duplicate=st.sampled_from(["keep", "replace"]),
    snapshot_every=st.sampled_from([1, 5, 10**9]),
    infer_during=st.booleans(),
)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
# Small streams have several EM fixed points.  Recovery's one warm
# refit from the seq-1 snapshot stops at max_iter at [0.31, 0.69]; the
# uninterrupted engine's warm refits stay at [0, 1].
@example(records=[(0, 0, 1)] + [(0, 0, 0)] * 7, batch_size=1,
         crash_fraction=1.0, on_duplicate="keep", snapshot_every=10**9,
         infer_during=True)
# The replayed replacement makes recovery refit cold, to [0.5, 0.5];
# the uninterrupted engine refits warm from its post-replacement fit,
# to [1, 0].
@example(records=[(0, 0, 0), (0, 0, 0), (0, 1, 1)], batch_size=1,
         crash_fraction=1.0, on_duplicate="replace", snapshot_every=5,
         infer_during=True)
# The warm second fit snapshots at the head, and recovery serves that
# snapshot as it is; one more warm refit from it would move off it.
@example(records=[(1, 1, 1), (2, 0, 0), (2, 2, 0), (0, 2, 0), (0, 2, 0),
                  (1, 1, 1), (0, 0, 1), (2, 2, 1), (2, 0, 0), (2, 0, 0)],
         batch_size=5, crash_fraction=1.0, on_duplicate="keep",
         snapshot_every=5, infer_during=True)
def test_recovery_serves_the_acknowledged_truth(
        records, batch_size, crash_fraction, on_duplicate,
        snapshot_every, infer_during):
    batches = _batched(records, batch_size)
    n_acked = int(round(crash_fraction * len(batches)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "store")
        policy = ExecutionPolicy(store=StorePolicy(
            path=path, snapshot_every=snapshot_every))
        engine = InferenceEngine(TaskType.DECISION_MAKING,
                                 label_order=[0, 1], seed=0,
                                 on_duplicate=on_duplicate,
                                 policy=policy)
        for batch in batches[:n_acked]:
            engine.add_answers(batch)
            if infer_during:
                engine.infer("D&S", tolerance=1e-7)
        acked_version = engine.stream.version
        acked_replacements = engine.stream.replacements
        # Simulate the crash: the process dies without engine.close();
        # only what the log committed exists afterwards.
        engine._store.close()
        del engine

        # The uninterrupted run: same records, same refit cadence.
        reference = InferenceEngine(TaskType.DECISION_MAKING,
                                    label_order=[0, 1], seed=0,
                                    on_duplicate=on_duplicate)
        for batch in batches[:n_acked]:
            reference.add_answers(batch)
            if infer_during:
                reference.infer("D&S", tolerance=1e-7)

        with InferenceEngine.recover(path) as recovered:
            assert recovered.stream.version == acked_version
            assert recovered.stream.replacements == acked_replacements
            assert recovered.stream.n_answers == reference.stream.n_answers
            if acked_version == 0:
                return
            # The stream itself recovers bit-exactly — the zero-loss
            # guarantee, regardless of snapshot cadence.
            snap = recovered.stream.snapshot()
            ref_snap = reference.stream.snapshot()
            np.testing.assert_array_equal(snap.tasks, ref_snap.tasks)
            np.testing.assert_array_equal(snap.values, ref_snap.values)
            assert snap.task_labels == ref_snap.task_labels
            result = recovered.infer("D&S", tolerance=1e-7)
            ref = reference.infer("D&S", tolerance=1e-7)
            gap = np.abs(result.posterior - ref.posterior).max()
            if infer_during and snapshot_every == 1:
                # A snapshot exists at the stream head, so recovery is
                # a pure cache hit: bit-identical to the fit the
                # uninterrupted engine served.
                assert gap <= 1e-10
                np.testing.assert_array_equal(result.truths, ref.truths)
            else:
                # Recovery resumes EM from an older snapshot, or cold.
                # A small stream has several fixed points, so it need
                # not reach the uninterrupted engine's; it must reach
                # what a batch fit of the recovered answers reaches
                # from where recovery started.  A snapshot at the head
                # is served as it is.
                row = recovered.store.snapshots.load_latest(
                    "D&S", max_seq=acked_version)
                if row is not None and row[0] == acked_version:
                    expected = row[2]["result"]
                else:
                    start = (row[2]["result"]
                             if result.extras.get("warm_started") else None)
                    expected = create("D&S", seed=0, tolerance=1e-7).fit(
                        snap, warm_start=start)
                assert np.abs(result.posterior
                              - expected.posterior).max() <= 1e-10
                np.testing.assert_array_equal(result.truths,
                                              expected.truths)


_WRITER_SCRIPT = """
import sys
import numpy as np
from repro.core.policy import ExecutionPolicy, StorePolicy
from repro.core.tasktypes import TaskType
from repro.engine import InferenceEngine

path = sys.argv[1]
rng = np.random.default_rng(42)
truth = rng.integers(0, 2, 40)
engine = InferenceEngine(
    TaskType.DECISION_MAKING, label_order=[0, 1], seed=0,
    policy=ExecutionPolicy(store=StorePolicy(path=path,
                                             snapshot_every=60)))
for i in range(100000):
    batch = []
    for _ in range(20):
        t = int(rng.integers(0, 40))
        w = int(rng.integers(0, 8))
        v = int(truth[t] if rng.random() < 0.8 else 1 - truth[t])
        batch.append((f"t{t}", f"w{w}", v))
    engine.add_answers(batch)
    if i % 5 == 4:
        engine.infer("D&S", tolerance=1e-7)
    print(f"ACK {engine.stream.version}", flush=True)
"""


def _regenerate_batches(n_batches):
    """The writer script's exact record sequence, re-derived."""
    rng = np.random.default_rng(42)
    truth = rng.integers(0, 2, 40)
    batches = []
    for _ in range(n_batches):
        batch = []
        for _ in range(20):
            t = int(rng.integers(0, 40))
            w = int(rng.integers(0, 8))
            v = int(truth[t] if rng.random() < 0.8 else 1 - truth[t])
            batch.append((f"t{t}", f"w{w}", v))
        batches.append(batch)
    return batches


_DELTA_WRITER_SCRIPT = """
import sys
import numpy as np
from repro.core.policy import ExecutionPolicy, StorePolicy
from repro.core.tasktypes import TaskType
from repro.engine import InferenceEngine

path = sys.argv[1]
rng = np.random.default_rng(11)
pairs = [(t, w) for t in range(60) for w in range(30)]
order = rng.permutation(len(pairs))
values = rng.integers(0, 2, len(pairs))
policy = ExecutionPolicy(
    n_shards=3, executor="serial", refit="delta",
    store=StorePolicy(path=path, snapshot_every=40))
engine = InferenceEngine(TaskType.DECISION_MAKING, label_order=[0, 1],
                         seed=0, policy=policy)
offset = 0
for size in [400] + [20] * 60:
    batch = [(f"t{pairs[order[i]][0]}", f"w{pairs[order[i]][1]}",
              int(values[order[i]])) for i in range(offset, offset + size)]
    offset += size
    engine.add_answers(batch)
    engine.infer("BCC", n_samples=10, burn_in=5)
    print(f"ACK {engine.stream.version}", flush=True)
"""


def test_sigkill_recovery_resumes_gibbs_chain_warm(tmp_path):
    """Session payloads (the Gibbs chain state) ride fit snapshots:
    after a SIGKILL the recovered engine's next refit must *continue*
    the cached chain — a warm delta refit, not a cold resample."""
    path = str(tmp_path / "store")
    proc = subprocess.Popen(
        [sys.executable, "-c", _DELTA_WRITER_SCRIPT, path],
        stdout=subprocess.PIPE, text=True)
    try:
        version = 0
        for _ in range(6):
            line = proc.stdout.readline()
            assert line.startswith("ACK ")
            version = int(line.split()[1])
        os.kill(proc.pid, signal.SIGKILL)
    finally:
        proc.wait(timeout=60)
        proc.stdout.close()
    assert proc.returncode == -signal.SIGKILL

    policy = ExecutionPolicy(n_shards=3, executor="serial", refit="delta",
                             store=StorePolicy(path=path))
    with InferenceEngine.recover(path, policy=policy) as recovered:
        assert recovered.stream.version >= version
        # The writer's record sequence, re-derived, so the post-crash
        # batch continues the unique-pair stream.
        rng = np.random.default_rng(11)
        pairs = [(t, w) for t in range(60) for w in range(30)]
        order = rng.permutation(len(pairs))
        values = rng.integers(0, 2, len(pairs))
        start = recovered.stream.version
        recovered.add_answers(
            [(f"t{pairs[order[i]][0]}", f"w{pairs[order[i]][1]}",
              int(values[order[i]])) for i in range(start, start + 20)])
        result = recovered.infer("BCC", n_samples=10, burn_in=5)
        assert result.fit_stats.mode == "delta"
        assert result.extras["warm_started"]
        # Lifetime sweep count proves the chain picked up where the
        # snapshot left it (a cold fit would report 15).
        assert result.n_iterations > 15


def test_sigkill_mid_stream_loses_nothing_acknowledged(tmp_path):
    path = str(tmp_path / "store")
    proc = subprocess.Popen(
        [sys.executable, "-c", _WRITER_SCRIPT, path],
        stdout=subprocess.PIPE, text=True)
    try:
        acked = 0
        for _ in range(12):  # let a dozen batches be acknowledged
            line = proc.stdout.readline()
            assert line.startswith("ACK ")
            acked = int(line.split()[1])
        os.kill(proc.pid, signal.SIGKILL)
    finally:
        proc.wait(timeout=60)
        proc.stdout.close()
    assert proc.returncode == -signal.SIGKILL

    with InferenceEngine.recover(path) as recovered:
        version = recovered.stream.version
        # Zero lost acknowledged answers; batch atomicity means the log
        # ends on a batch boundary (possibly one batch past the last
        # ACK the parent managed to read).
        assert version >= acked
        assert version % 20 == 0
        batches = _regenerate_batches(version // 20)
        reference = InferenceEngine(TaskType.DECISION_MAKING,
                                    label_order=[0, 1], seed=0)
        for i, batch in enumerate(batches):
            reference.add_answers(batch)
            if i % 5 == 4:  # the writer's periodic-refit cadence
                reference.infer("D&S", tolerance=1e-7)
        assert reference.stream.version == version
        result = recovered.infer("D&S", tolerance=1e-7)
        ref = reference.infer("D&S", tolerance=1e-7)
        # Recovery resumes EM from the last *snapshot*; the reference
        # resumes from its last in-memory fit.  Both converge to the
        # same fixed point within the EM tolerance — the acceptance
        # gate is 1e-6 — and must agree exactly on the truth labels.
        assert np.abs(result.posterior - ref.posterior).max() <= 1e-6
        assert (recovered.current_truth("D&S")
                == reference.current_truth("D&S"))
