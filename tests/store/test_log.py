"""AnswerLog: type-tagged field codec + append/replay round trips."""

import pickle
import sqlite3

import numpy as np
import pytest

from repro.exceptions import StoreError
from repro.store import AnswerLog, decode_field, encode_field


class _Writer:
    """Hands record batches to ``append_batch`` in the columnar form a
    stream writes: indices into id and label tables grown in order of
    first appearance, plus the entries each batch introduced."""

    def __init__(self, log):
        self.log = log
        self.tables = ({}, {}, {})

    def append(self, records, outcomes, *, version):
        columns, new = ([], [], []), ([], [], [])
        for record in records:
            for field, table, column, added in zip(record, self.tables,
                                                   columns, new):
                if field not in table:
                    table[field] = len(table)
                    added.append(field)
                column.append(table[field])
        self.log.append_batch(
            *(np.asarray(column, dtype=np.int64) for column in columns),
            outcomes, new, version=version)


@pytest.fixture
def log():
    return AnswerLog(sqlite3.connect(":memory:"))


@pytest.fixture
def writer(log):
    return _Writer(log)


class TestFieldCodec:
    @pytest.mark.parametrize("value", [
        "t1", "", "with,comma", "né", 0, 7, -3, 2**40, 0.5, -1e-9,
        float("inf"), True, False, None, [1, "a"], {"k": 2},
        ("a", 1), (1, ("b", 2.5)),
    ])
    def test_round_trip_identity(self, value):
        decoded = decode_field(encode_field(value))
        assert decoded == value
        assert type(decoded) is type(value)

    def test_float_round_trips_exactly(self):
        # repr-based encoding: bit-exact, not just approximately equal.
        value = 0.1 + 0.2
        assert decode_field(encode_field(value)) == value

    def test_numpy_scalars_unwrap(self):
        assert decode_field(encode_field(np.int64(3))) == 3
        assert type(decode_field(encode_field(np.int64(3)))) is int
        assert decode_field(encode_field(np.float64(0.25))) == 0.25

    def test_string_that_looks_like_an_int_stays_a_string(self):
        # "1" and 1 are distinct stream index keys; the tag keeps them so.
        assert decode_field(encode_field("1")) == "1"
        assert decode_field(encode_field(1)) == 1

    def test_bool_does_not_collapse_to_int(self):
        assert decode_field(encode_field(True)) is True
        assert decode_field(encode_field(1)) == 1
        assert decode_field(encode_field(1)) is not True

    def test_unserialisable_value_raises_store_error(self):
        with pytest.raises(StoreError, match="not JSON-serialisable"):
            encode_field(object())

    def test_unknown_tag_raises_store_error(self):
        with pytest.raises(StoreError, match="unknown type tag"):
            decode_field("x?!")


class TestAppendReplay:
    def test_append_assigns_consecutive_seqs_ending_at_version(self, log,
                                                               writer):
        writer.append([("t1", "w1", 1), ("t2", "w1", 0)],
                      [0, 0], version=2)
        writer.append([("t3", "w2", 1)], [0], version=3)
        assert log.last_seq == 3
        assert len(log) == 3
        replayed = [r for chunk in log.replay() for r in chunk]
        assert replayed == [("t1", "w1", 1), ("t2", "w1", 0),
                            ("t3", "w2", 1)]

    def test_replace_outcomes_counted(self, log, writer):
        writer.append([("t1", "w1", 1)], [0], version=1)
        writer.append([("t1", "w1", 0)], [1], version=2)
        assert log.replace_count == 1
        assert len(log) == 2

    def test_replay_chunking_preserves_order(self, log, writer):
        records = [(f"t{i}", f"w{i % 3}", i % 2) for i in range(10)]
        writer.append(records, [0] * 10, version=10)
        chunks = list(log.replay(chunk_size=3))
        assert [len(c) for c in chunks] == [3, 3, 3, 1]
        assert [r for c in chunks for r in c] == records

    def test_empty_batch_is_a_no_op(self, log, writer):
        writer.append([], [], version=0)
        assert len(log) == 0
        assert log.last_seq == 0

    def test_mismatched_outcomes_rejected(self, writer):
        with pytest.raises(StoreError, match="2 records but 1 outcomes"):
            writer.append([("t1", "w1", 1), ("t2", "w1", 0)],
                          [0], version=2)

    def test_duplicate_seq_raises_store_error(self, writer):
        writer.append([("t1", "w1", 1)], [0], version=1)
        with pytest.raises(StoreError, match="failed to commit"):
            writer.append([("t1", "w1", 0)], [0], version=1)

    def test_mixed_key_types_round_trip(self, log, writer):
        records = [(1, "w1", 0.5), ("1", 2, True), ("t", "w", None)]
        writer.append(records, [0, 0, 0], version=3)
        replayed = [r for chunk in log.replay() for r in chunk]
        assert replayed == records
        assert type(replayed[0][0]) is int
        assert type(replayed[1][0]) is str

    def test_unpicklable_field_rejected_before_commit(self, log, writer):
        with pytest.raises(StoreError, match="cannot log a batch"):
            writer.append([("t1", "w1", lambda: None)], [0], version=1)
        assert len(log) == 0

    def test_corrupt_payload_raises_store_error(self, log, writer):
        writer.append([("t1", "w1", 1)], [0], version=1)
        log._conn.execute("UPDATE log SET payload = ?", (b"garbage",))
        with pytest.raises(StoreError, match="corrupt log batch"):
            list(log.replay())

    def test_row_carries_only_the_ids_it_introduced(self, log, writer):
        writer.append([("t1", "w1", "a"), ("t2", "w1", "b")], [0, 0],
                      version=2)
        writer.append([("t2", "w1", "a"), ("t3", "w2", "a")], [0, 0],
                      version=4)
        rows = [pickle.loads(blob) for (blob,) in log._conn.execute(
            "SELECT payload FROM log ORDER BY first_seq")]
        assert rows[0][4] == (["t1", "t2"], ["w1"], ["a", "b"])
        assert rows[1][4] == (["t3"], ["w2"], [])
        # Index and code columns are stored in the narrowest type.
        assert rows[1][0].dtype == np.uint8
        assert rows[1][0].tolist() == [1, 2]

    def test_index_outside_the_tables_raises_store_error(self, log,
                                                         writer):
        writer.append([("t1", "w1", 1)], [0], version=1)
        blob = log._conn.execute("SELECT payload FROM log").fetchone()[0]
        tasks, workers, values, bits, new_ids = pickle.loads(blob)
        tampered = pickle.dumps((tasks + 1, workers, values, bits, new_ids))
        log._conn.execute("UPDATE log SET payload = ?", (tampered,))
        with pytest.raises(StoreError, match="outside the log's 1 tasks"):
            list(log.replay())

    def test_truncated_batch_detected(self, log, writer):
        writer.append([("t1", "w1", 1), ("t2", "w1", 0)],
                      [0, 0], version=2)
        log._conn.execute("UPDATE log SET last_seq = 3")
        with pytest.raises(StoreError, match="seq range"):
            list(log.replay())


class TestMeta:
    def test_meta_round_trip(self, log):
        assert log.read_meta() == {}
        log.write_meta({"format": 1, "task_type": "decision_making",
                        "label_order": None})
        assert log.read_meta() == {"format": 1,
                                   "task_type": "decision_making",
                                   "label_order": None}

    def test_meta_upsert_overwrites(self, log):
        log.write_meta({"seed": 0})
        log.write_meta({"seed": 7})
        assert log.read_meta()["seed"] == 7


class TestCommitRetry:
    """Transient ``database is locked`` commits are waited out with
    bounded backoff; everything else keeps the rollback contract."""

    def test_injected_lock_fault_is_retried_through(self, log, writer):
        from repro import faults
        from tests.fault_arming import armed

        plan = faults.FaultPlan.parse("commit")
        with armed(plan):
            writer.append([("t1", "w1", 1)], [0], version=1)
        assert plan.fired["commit"] == 1
        assert len(log) == 1
        assert log.last_seq == 1

    def test_fault_outlasting_the_budget_raises_store_error(self, log,
                                                            writer):
        from repro import faults
        from repro.store.log import COMMIT_RETRIES
        from tests.fault_arming import armed

        plan = faults.FaultPlan.parse(f"commit:count={COMMIT_RETRIES + 5}")
        with armed(plan), pytest.raises(StoreError,
                                        match="failed to commit"):
            writer.append([("t1", "w1", 1)], [0], version=1)
        # All-or-nothing: the exhausted batch left no partial row.
        assert len(log) == 0
        assert plan.fired["commit"] == COMMIT_RETRIES + 1

    def test_real_write_lock_is_waited_out(self, tmp_path):
        import threading

        path = str(tmp_path / "log.db")
        holder = sqlite3.connect(path, check_same_thread=False)
        log = AnswerLog(sqlite3.connect(path, timeout=0.05))
        holder.execute("BEGIN IMMEDIATE")  # hold the write lock
        release = threading.Timer(0.3, holder.commit)
        release.start()
        try:
            _Writer(log).append([("t1", "w1", 1)], [0], version=1)
        finally:
            release.cancel()
            holder.close()
        assert len(log) == 1

    def test_non_transient_errors_fail_immediately(self, log, writer):
        writer.append([("t1", "w1", 1)], [0], version=1)
        # Same seq range again: a UNIQUE violation, not a lock — no
        # retries, straight to the rollback contract.
        with pytest.raises(StoreError, match="failed to commit"):
            writer.append([("t1", "w1", 1)], [0], version=1)
        assert len(log) == 1
