"""InferenceEngine + AnswerStore: write-through, snapshots, recovery."""

import dataclasses
import os

import numpy as np
import pytest

from repro.core.policy import ExecutionPolicy, StorePolicy
from repro.core.tasktypes import TaskType
from repro.engine import InferenceEngine
from repro.exceptions import RecoveryError, StoreError
from repro.store import AnswerStore


def make_batches(n_batches=6, per_batch=40, n_tasks=30, n_workers=8,
                 seed=0):
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, 2, n_tasks)
    batches = []
    for _ in range(n_batches):
        batch = []
        for _ in range(per_batch):
            t = int(rng.integers(0, n_tasks))
            w = int(rng.integers(0, n_workers))
            v = int(truth[t] if rng.random() < 0.8 else 1 - truth[t])
            batch.append((f"t{t}", f"w{w}", v))
        batches.append(batch)
    return batches


def store_policy(tmp_path, **kwargs):
    return StorePolicy(path=str(tmp_path / "store"), **kwargs)


def engine_with_store(tmp_path, *, policy_kwargs=None, **store_kwargs):
    policy = ExecutionPolicy(store=store_policy(tmp_path, **store_kwargs),
                             **(policy_kwargs or {}))
    return InferenceEngine(TaskType.DECISION_MAKING, label_order=[0, 1],
                           seed=0, policy=policy)


class TestWriteThrough:
    def test_every_acknowledged_batch_is_logged(self, tmp_path):
        batches = make_batches()
        with engine_with_store(tmp_path) as engine:
            for batch in batches:
                engine.add_answers(batch)
            assert len(engine.store.log) == engine.stream.version
            assert engine.store.log.last_seq == engine.stream.version

    def test_snapshot_cadence(self, tmp_path):
        batches = make_batches(n_batches=4, per_batch=50)
        with engine_with_store(tmp_path, snapshot_every=100) as engine:
            for batch in batches:
                engine.add_answers(batch)
                engine.infer("D&S", tolerance=1e-7)
            # First fit snapshots (seq 50); then every >=100 answers:
            # seq 150 (and nothing at 100 or 200).
            assert engine.store.snapshots.latest_seq("D&S") == 150

    def test_refuses_writing_through_a_used_store(self, tmp_path):
        with engine_with_store(tmp_path) as engine:
            engine.add_answers(make_batches(1)[0])
        with pytest.raises(StoreError, match="recover"):
            engine_with_store(tmp_path)

    def test_close_detaches_the_log(self, tmp_path):
        engine = engine_with_store(tmp_path)
        engine.add_answers(make_batches(1)[0])
        engine.close()
        assert engine.store is None
        engine.add_answers([("tX", "wX", 1)])  # no write-through crash


class TestRecovery:
    def test_replay_parity_with_uninterrupted_run(self, tmp_path):
        batches = make_batches()
        live = InferenceEngine(TaskType.DECISION_MAKING,
                               label_order=[0, 1], seed=0)
        with engine_with_store(tmp_path) as engine:
            for batch in batches:
                engine.add_answers(batch)
                live.add_answers(batch)
        recovered = InferenceEngine.recover(str(tmp_path / "store"))
        with recovered:
            assert recovered.stream.version == live.stream.version
            assert (recovered.current_truth("D&S")
                    == live.current_truth("D&S"))
            r = recovered.infer("D&S", tolerance=1e-7)
            ref = live.infer("D&S", tolerance=1e-7)
            assert np.abs(r.posterior - ref.posterior).max() == 0.0

    def test_recovered_engine_keeps_writing_through(self, tmp_path):
        with engine_with_store(tmp_path) as engine:
            engine.add_answers(make_batches(1)[0])
        with InferenceEngine.recover(str(tmp_path / "store")) as engine:
            engine.add_answers([("tZ", "wZ", 1)])
            assert len(engine.store.log) == engine.stream.version
        # ...and that resumed history recovers again.
        with InferenceEngine.recover(str(tmp_path / "store")) as engine:
            assert "tZ" in engine.current_truth("MV")

    def test_snapshot_seeds_cache_without_refit(self, tmp_path):
        batches = make_batches()
        with engine_with_store(tmp_path, snapshot_every=1) as engine:
            for batch in batches:
                engine.add_answers(batch)
            live = engine.infer("D&S", tolerance=1e-7)
        with InferenceEngine.recover(str(tmp_path / "store")) as engine:
            # The snapshot is at the stream head: infer() is a pure
            # cache hit, bit-identical to the pre-crash fit.
            result = engine.infer("D&S", tolerance=1e-7)
            assert np.abs(result.posterior - live.posterior).max() == 0.0

    def test_replace_policy_round_trips(self, tmp_path):
        policy = ExecutionPolicy(store=store_policy(tmp_path))
        live = InferenceEngine(TaskType.DECISION_MAKING,
                               label_order=[0, 1], seed=0,
                               on_duplicate="replace")
        with InferenceEngine(TaskType.DECISION_MAKING, label_order=[0, 1],
                             seed=0, on_duplicate="replace",
                             policy=policy) as engine:
            for batch in make_batches(3):
                engine.add_answers(batch)
                live.add_answers(batch)
            assert engine.stream.replacements > 0
            assert (engine.store.log.replace_count
                    == engine.stream.replacements)
        with InferenceEngine.recover(str(tmp_path / "store")) as engine:
            assert engine.stream.on_duplicate == "replace"
            assert engine.stream.replacements == live.stream.replacements
            assert (engine.current_truth("D&S")
                    == live.current_truth("D&S"))

    def test_tuple_labels_round_trip(self, tmp_path):
        # The meta codec keeps tuple labels tuples; a JSON list would be
        # unhashable as a label.
        order = [("a", 1), ("b", 2), ("c", 3)]
        policy = ExecutionPolicy(store=store_policy(tmp_path))
        with InferenceEngine(TaskType.SINGLE_CHOICE, label_order=order,
                             seed=0, policy=policy) as engine:
            engine.add_answers([("t1", "w1", ("a", 1)),
                                ("t1", "w2", ("b", 2)),
                                ("t2", "w1", ("c", 3))])
            live = engine.current_truth("MV")
        with InferenceEngine.recover(str(tmp_path / "store")) as engine:
            assert engine.stream.labels == order
            assert engine.current_truth("MV") == live
            assert isinstance(live["t2"], tuple)

    def test_empty_store_path_raises_recovery_error(self, tmp_path):
        with pytest.raises(RecoveryError, match="no answer store"):
            InferenceEngine.recover(str(tmp_path / "virgin"))

    def test_tampered_log_fails_verification(self, tmp_path):
        with engine_with_store(tmp_path) as engine:
            for batch in make_batches(2):
                engine.add_answers(batch)
        path = str(tmp_path / "store")
        with AnswerStore(path) as store:
            # Inflate one batch's replace tally: the replayed stream's
            # replacement counter can no longer match the log's.
            store.connection.execute(
                "UPDATE log SET n_replaced = n_replaced + 1 "
                "WHERE first_seq = (SELECT MIN(first_seq) FROM log)")
            store.connection.commit()
        with pytest.raises(RecoveryError, match="replacement"):
            InferenceEngine.recover(path)

    def test_mismatched_policy_path_rejected(self, tmp_path):
        policy = ExecutionPolicy(store=StorePolicy(path="/elsewhere"))
        with pytest.raises(ValueError, match="does not match"):
            InferenceEngine.recover(str(tmp_path / "store"),
                                    policy=policy)


class TestWarmRecovery:
    def test_delta_session_adopted_from_snapshot(self, tmp_path):
        """Recovering a sharded delta stream resumes with a true delta
        refit over the snapshot's adopted cuts, not a cold fit."""
        policy_kwargs = dict(n_shards=4, executor="serial",
                             refit="delta")
        batches = make_batches(n_batches=8, per_batch=60, n_tasks=80)
        live = InferenceEngine(
            TaskType.DECISION_MAKING, label_order=[0, 1], seed=0,
            policy=ExecutionPolicy(**policy_kwargs))
        with engine_with_store(tmp_path, policy_kwargs=policy_kwargs,
                               snapshot_every=200) as engine:
            for batch in batches[:6]:
                engine.add_answers(batch)
                engine.infer("D&S", tolerance=1e-7)
                live.add_answers(batch)
                live.infer("D&S", tolerance=1e-7)
            # The log now runs past the newest snapshot: recovery must
            # replay the tail, then delta-refit it.
            assert (engine.store.snapshots.latest_seq("D&S")
                    < engine.stream.version)
        recovered = InferenceEngine.recover(
            str(tmp_path / "store"),
            policy=ExecutionPolicy(**policy_kwargs))
        with recovered:
            session = recovered._sessions.get(4)
            assert session is not None
            assert session.last_placement == "adopt"
            result = recovered.infer("D&S", tolerance=1e-7)
            ref = live.infer("D&S", tolerance=1e-7)
            assert result.fit_stats.mode == "delta"
            assert recovered.last_fit_was_warm("D&S")
            assert np.abs(result.posterior - ref.posterior).max() < 1e-10
            # ...and keeps streaming deltas afterwards.
            recovered.add_answers(batches[6])
            live.add_answers(batches[6])
            r2 = recovered.infer("D&S", tolerance=1e-7)
            ref2 = live.infer("D&S", tolerance=1e-7)
            assert np.abs(r2.posterior - ref2.posterior).max() < 1e-10


class TestOlderSnapshots:
    def test_fit_stats_pickled_without_phase_seconds(self, tmp_path,
                                                     monkeypatch):
        """Snapshots written before ``FitStats.phase_seconds`` existed
        hold fit stats without it: they unpickle with the class default,
        serve reads, and the next refit times its phases again."""
        from repro.store.snapshots import SnapshotStore

        save = SnapshotStore.save

        def save_without_phase_seconds(self, method, *, payload, **kwargs):
            vars(payload["result"].fit_stats).pop("phase_seconds")
            return save(self, method, payload=payload, **kwargs)

        monkeypatch.setattr(SnapshotStore, "save",
                            save_without_phase_seconds)
        policy_kwargs = dict(n_shards=4, executor="serial", refit="delta")
        batches = make_batches(n_batches=3, per_batch=60, n_tasks=40)
        with engine_with_store(tmp_path, policy_kwargs=policy_kwargs,
                               snapshot_every=1) as engine:
            for batch in batches[:2]:
                engine.add_answers(batch)
                live = engine.infer("D&S", tolerance=1e-7)
        monkeypatch.undo()
        with InferenceEngine.recover(
                str(tmp_path / "store"),
                policy=ExecutionPolicy(**policy_kwargs)) as engine:
            cached = engine.infer("D&S", tolerance=1e-7)
            assert "phase_seconds" not in vars(cached.fit_stats)
            assert cached.fit_stats.phase_seconds is None
            assert "phases" not in cached.fit_stats.summary()
            assert np.array_equal(cached.posterior, live.posterior)
            engine.add_answers(batches[2])
            refit = engine.infer("D&S", tolerance=1e-7)
            assert refit.fit_stats.phase_seconds["e_block"] > 0

    def test_fit_stats_pickled_without_ipc(self, tmp_path, monkeypatch):
        """Snapshots written before ``FitStats.ipc`` existed recover
        with the class default; the next process-tier refit measures
        its pipes again."""
        from repro.store.snapshots import SnapshotStore

        save = SnapshotStore.save

        def save_without_ipc(self, method, *, payload, **kwargs):
            vars(payload["result"].fit_stats).pop("ipc")
            return save(self, method, payload=payload, **kwargs)

        monkeypatch.setattr(SnapshotStore, "save", save_without_ipc)
        policy_kwargs = dict(n_shards=2, executor="process",
                             max_workers=1, refit="delta")
        batches = make_batches(n_batches=3, per_batch=60, n_tasks=40)
        with engine_with_store(tmp_path, policy_kwargs=policy_kwargs,
                               snapshot_every=1) as engine:
            for batch in batches[:2]:
                engine.add_answers(batch)
                live = engine.infer("D&S", tolerance=1e-7)
        monkeypatch.undo()
        with InferenceEngine.recover(
                str(tmp_path / "store"),
                policy=ExecutionPolicy(**policy_kwargs)) as engine:
            cached = engine.infer("D&S", tolerance=1e-7)
            assert "ipc" not in vars(cached.fit_stats)
            assert cached.fit_stats.ipc is None
            assert " ipc " not in cached.fit_stats.summary()
            assert np.array_equal(cached.posterior, live.posterior)
            engine.add_answers(batches[2])
            refit = engine.infer("D&S", tolerance=1e-7)
            assert refit.fit_stats.ipc["messages"] > 0


class TestSpill:
    def test_spill_idle_and_transparent_reads(self, tmp_path):
        policy_kwargs = dict(n_shards=4, executor="serial",
                             refit="delta")
        batches = make_batches(n_batches=4, per_batch=60, n_tasks=80)
        with engine_with_store(tmp_path, policy_kwargs=policy_kwargs,
                               spill_ttl=0.0) as engine:
            for batch in batches[:3]:
                engine.add_answers(batch)
            before = engine.infer("D&S", tolerance=1e-7)
            # ttl=0: the post-fit sweep spills every shard immediately.
            session = engine._sessions[4]
            assert session.spilled == {0, 1, 2, 3}
            spill_dir = engine.store.spill_dir
            assert len(os.listdir(spill_dir)) == 12  # 4 shards x 3 arrays
            # A forced refit reads the mmapped arrays transparently.
            again = engine.infer("D&S", force_cold=True, tolerance=1e-7)
            assert np.abs(again.posterior - before.posterior).max() == 0.0
            # New answers re-materialise the receiving shards (hot again)
            # and drop their spill files.
            engine.add_answers(batches[3])
            engine.infer("D&S", tolerance=1e-7)
            assert engine._spill.restores > 0

    def test_spill_policy_validation(self):
        with pytest.raises(ValueError, match="spill_ttl"):
            StorePolicy(path="/x", spill_ttl=-1.0)
        with pytest.raises(ValueError, match="snapshot_every"):
            StorePolicy(path="/x", snapshot_every=0)
        with pytest.raises(ValueError, match="sync"):
            StorePolicy(path="/x", sync="turbo")
        with pytest.raises(ValueError, match="StorePolicy"):
            ExecutionPolicy(store="/a/path")


class TestRecoverPolicyRoundTrip:
    def test_policy_store_field_survives_recovery(self, tmp_path):
        store = store_policy(tmp_path, snapshot_every=7)
        with engine_with_store(tmp_path) as engine:
            engine.add_answers(make_batches(1)[0])
        policy = ExecutionPolicy(store=store)
        with InferenceEngine.recover(store.path, policy=policy) as engine:
            assert engine.policy.store == store
            assert engine._store_policy.snapshot_every == 7
