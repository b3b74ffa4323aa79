"""Declared-schema answer sources (CSV, in-memory, live line streams)."""

import csv
import io

import pytest

from repro.core.tasktypes import TaskType
from repro.engine import InferenceEngine
from repro.engine.sources import (
    CsvAnswerSource,
    IterableAnswerSource,
    LineAnswerSource,
    TaskSchema,
    TcpAnswerSource,
    infer_schema,
    parse_task_type,
)

RECORDS = [
    ("t1", "w1", "yes"), ("t1", "w2", "yes"), ("t1", "w3", "no"),
    ("t2", "w1", "no"), ("t2", "w2", "no"), ("t2", "w3", "no"),
]


def write_csv(path, records, header=True):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        if header:
            writer.writerow(["task", "worker", "answer"])
        writer.writerows(records)


class TestTaskSchema:
    def test_declare_from_cli_spelling(self):
        schema = TaskSchema.declare("decision", labels=["no", "yes"])
        assert schema.task_type is TaskType.DECISION_MAKING
        assert schema.labels == ("no", "yes")

    @pytest.mark.parametrize("alias,expected", [
        ("decision", TaskType.DECISION_MAKING),
        ("single", TaskType.SINGLE_CHOICE),
        ("numeric", TaskType.NUMERIC),
    ])
    def test_aliases(self, alias, expected):
        assert parse_task_type(alias) is expected

    def test_unknown_alias_rejected(self):
        with pytest.raises(ValueError, match="task type"):
            parse_task_type("regression")

    def test_numeric_schema_rejects_labels(self):
        with pytest.raises(ValueError, match="labels"):
            TaskSchema(TaskType.NUMERIC, labels=("a", "b"))

    def test_engine_kwargs_round_trip(self):
        schema = TaskSchema.declare("decision", labels=["no", "yes"])
        engine = InferenceEngine(**schema.engine_kwargs())
        engine.add_answers(RECORDS)
        assert engine.current_truth("MV") == {"t1": "yes", "t2": "no"}

    def test_infer_schema_matches_legacy_classification(self):
        assert infer_schema(RECORDS).task_type is TaskType.DECISION_MAKING
        three = RECORDS + [("t3", "w1", "maybe")]
        assert infer_schema(three).task_type is TaskType.SINGLE_CHOICE
        assert infer_schema(three).labels == ("maybe", "no", "yes")


class TestIterableSource:
    def test_batches_and_schema(self):
        source = IterableAnswerSource(RECORDS)
        assert source.schema.task_type is TaskType.DECISION_MAKING
        batches = list(source.batches(4))
        assert [len(b) for b in batches] == [4, 2]
        assert [r for b in batches for r in b] == RECORDS

    def test_declared_schema_wins(self):
        schema = TaskSchema(TaskType.SINGLE_CHOICE,
                            labels=("no", "yes", "maybe"))
        assert IterableAnswerSource(RECORDS, schema).schema is schema

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            list(IterableAnswerSource(RECORDS).batches(0))


class TestCsvSource:
    def test_undeclared_schema_pre_scans(self, tmp_path):
        path = tmp_path / "answers.csv"
        write_csv(path, RECORDS)
        source = CsvAnswerSource(str(path))
        assert not source.declared
        assert source.schema.labels == ("no", "yes")
        assert sum(len(b) for b in source.batches(4)) == len(RECORDS)

    def test_declared_schema_streams_without_pre_scan(self, tmp_path,
                                                      monkeypatch):
        import repro.engine.sources as sources

        path = tmp_path / "answers.csv"
        write_csv(path, RECORDS)
        monkeypatch.setattr(
            sources, "infer_schema",
            lambda records: pytest.fail("declared schema must not scan"))
        source = CsvAnswerSource(str(path),
                                 TaskSchema.declare("decision"))
        assert source.declared
        assert [r for b in source.batches(3) for r in b] == RECORDS

    def test_malformed_row_raises_with_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t1,w1,yes\nt2,w2\n")
        with pytest.raises(ValueError, match="malformed row"):
            list(CsvAnswerSource(str(path)).batches(10))


class TestLineSource:
    def test_requires_declared_schema(self):
        with pytest.raises(ValueError, match="pre-scan"):
            LineAnswerSource(io.StringIO(""), None)

    def test_streams_incrementally(self):
        """A batch is served before the producer finished writing —
        the property that makes a live socket source possible."""
        produced = []

        def lines():
            for task in range(6):
                row = f"t{task},w1,{task % 2}\n"
                produced.append(row)
                yield row

        class LazyStream:
            def __init__(self):
                self._lines = lines()

            def __iter__(self):
                return self._lines

        source = LineAnswerSource(LazyStream(),
                                  TaskSchema.declare("decision"))
        batches = source.batches(2)
        first = next(batches)
        assert len(first) == 2
        # Only the rows needed for the first chunk were consumed.
        assert len(produced) == 2
        assert sum(len(b) for b in batches) == 4

    def test_numeric_stdin_style_stream(self):
        stream = io.StringIO("t1,w1,2.0\nt1,w2,4.0\nt2,w1,1.0\n")
        source = LineAnswerSource(stream, TaskSchema.declare("numeric"))
        engine = InferenceEngine(**source.schema.engine_kwargs())
        for batch in source.batches(2):
            engine.add_answers(batch)
        truth = engine.current_truth("Mean")
        assert truth["t1"] == pytest.approx(3.0)

    def test_header_rows_skipped(self):
        stream = io.StringIO("task,worker,answer\nt1,w1,yes\nt1,w2,yes\n")
        source = LineAnswerSource(stream, TaskSchema.declare("decision"))
        assert sum(len(b) for b in source.batches(10)) == 2


class TestBadLineTolerance:
    """Live-stream malformed lines are skipped and counted, not fatal."""

    def test_skips_and_counts_bad_lines(self):
        stream = io.StringIO("t1,w1,1\nt2,w2\nGARBAGE\nt2,w1,0\n")
        source = LineAnswerSource(stream, TaskSchema.declare("decision"))
        records = [r for batch in source.batches(2) for r in batch]
        assert [r[0] for r in records] == ["t1", "t2"]
        assert source.bad_lines == 2

    def test_budget_zero_restores_strict_behaviour(self):
        stream = io.StringIO("t1,w1,1\nt2,w2\nt2,w1,0\n")
        source = LineAnswerSource(stream, TaskSchema.declare("decision"),
                                  name="<test>", max_bad_lines=0)
        with pytest.raises(ValueError, match="<test>.*line 2"):
            list(source.batches(10))

    def test_exceeding_budget_names_last_offender(self):
        rows = "t1,w1,1\n" + "broken\n" * 3
        source = LineAnswerSource(io.StringIO(rows),
                                  TaskSchema.declare("decision"),
                                  name="tcp:feed:9000", max_bad_lines=2)
        with pytest.raises(ValueError) as excinfo:
            list(source.batches(10))
        message = str(excinfo.value)
        assert "tcp:feed:9000" in message
        assert "max_bad_lines=2" in message
        assert "line 4" in message

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="max_bad_lines"):
            LineAnswerSource(io.StringIO(""),
                             TaskSchema.declare("decision"),
                             max_bad_lines=-1)

    def test_socket_peer_with_garbled_line(self):
        """Regression: one garbled write from a live socket peer used to
        kill the whole stream mid-batch.  The source must keep serving
        the well-formed tail and report the skip count."""
        import socket
        import threading

        server, client = socket.socketpair()
        payload = b"t1,w1,1\nt2,w2\nGARBAGE\nt2,w1,0\nt3,w2,1\n"

        def produce():
            client.sendall(payload)
            client.close()

        thread = threading.Thread(target=produce)
        thread.start()
        reader = server.makefile("r")
        try:
            source = LineAnswerSource(reader,
                                      TaskSchema.declare("decision"),
                                      name="tcp:peer")
            batches = list(source.batches(2))
        finally:
            thread.join()
            reader.close()
            server.close()
        records = [r for batch in batches for r in batch]
        assert [r[0] for r in records] == ["t1", "t2", "t3"]
        assert source.bad_lines == 2
        engine = InferenceEngine(**source.schema.engine_kwargs())
        engine.add_answers(records)
        assert set(engine.current_truth("MV")) == {"t1", "t2", "t3"}


class TestSourceErrorPaths:
    """Empty/missing inputs fail as repro errors naming the file."""

    def test_infer_schema_rejects_zero_records(self):
        from repro.exceptions import AnswerSourceError

        with pytest.raises(AnswerSourceError, match="zero answer"):
            infer_schema([])

    def test_empty_csv_schema_names_path(self, tmp_path):
        from repro.exceptions import AnswerSourceError

        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(AnswerSourceError) as excinfo:
            CsvAnswerSource(str(path)).schema
        assert str(path) in str(excinfo.value)
        assert "header-only" in str(excinfo.value)

    def test_header_only_csv_schema_names_path(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("task,worker,answer\n")
        # Legacy callers catch ValueError; the new error must stay one.
        with pytest.raises(ValueError, match="cannot infer a schema"):
            CsvAnswerSource(str(path)).schema

    def test_missing_file_names_path(self, tmp_path):
        from repro.exceptions import AnswerSourceError

        path = tmp_path / "nope.csv"
        with pytest.raises(AnswerSourceError,
                           match="cannot read answers"):
            list(CsvAnswerSource(str(path)).batches(10))

    def test_malformed_row_error_is_a_repro_error(self, tmp_path):
        from repro.exceptions import AnswerSourceError, ReproError

        path = tmp_path / "bad.csv"
        path.write_text("t1,w1,yes\nt2,w2\n")
        with pytest.raises(AnswerSourceError) as excinfo:
            list(CsvAnswerSource(str(path)).batches(10))
        assert isinstance(excinfo.value, ReproError)
        assert isinstance(excinfo.value, ValueError)
        assert f"{path}:2" in str(excinfo.value)


class _ResetTail:
    """Replays its stream's lines, then raises ``ConnectionResetError``
    instead of EOF — a dropped connection, deterministically."""

    def __init__(self, stream):
        self._stream = stream

    def __iter__(self):
        return self

    def __next__(self):
        line = self._stream.readline()
        if not line:
            raise ConnectionResetError("simulated transport drop")
        return line

    def close(self):
        self._stream.close()


def socketpair_feed(segments):
    """A dial callable over real socketpairs: each call returns the
    read end of a fresh pair preloaded with the next segment's rows.
    ``drop`` segments end in a transport reset instead of a clean EOF.
    Returns ``(connect, state)``; ``state["dials"]`` counts the calls.
    """
    import socket

    state = {"dials": 0}

    def connect():
        index = state["dials"]
        state["dials"] += 1
        if index >= len(segments):
            raise OSError("feeder exhausted")
        rows, drop = segments[index]
        reader, writer = socket.socketpair()
        with writer, writer.makefile("w", newline="") as sink:
            csv.writer(sink).writerows(rows)
        stream = reader.makefile("r")
        reader.close()  # the file object keeps the fd alive
        return _ResetTail(stream) if drop else stream

    return connect, state


class TestTcpAnswerSource:
    SCHEMA = TaskSchema.declare("decision")
    ROWS = [(f"t{i % 4}", f"w{i % 3}", str(i % 2)) for i in range(8)]

    def make_source(self, segments, **kwargs):
        from repro.faults import Backoff

        connect, state = socketpair_feed(segments)
        kwargs.setdefault("backoff", Backoff(base=0.0, cap=0.0))
        source = TcpAnswerSource("feed.test", 9, self.SCHEMA,
                                 connect=connect, **kwargs)
        return source, state

    def drain(self, source, chunk_size=3):
        try:
            return [record for batch in source.batches(chunk_size)
                    for record in batch]
        finally:
            source.close()

    def test_reconnect_resumes_mid_stream(self):
        segments = [(self.ROWS[:5], True), (self.ROWS[5:], False)]
        source, state = self.make_source(segments, reconnect=1)
        assert self.drain(source) == self.ROWS
        assert source.reconnects == 1
        assert source.records_read == len(self.ROWS)
        assert state["dials"] == 2

    def test_redial_closes_the_dropped_connection(self):
        from repro.faults import Backoff

        connect, _ = socketpair_feed(
            [(self.ROWS[:5], True), (self.ROWS[5:], False)])
        dialled = []

        def recording_connect():
            dialled.append(connect())
            return dialled[-1]

        source = TcpAnswerSource("feed.test", 9, self.SCHEMA,
                                 connect=recording_connect, reconnect=1,
                                 backoff=Backoff(base=0.0, cap=0.0))
        records = source.batches(3)
        next(records)
        assert not dialled[0]._stream.closed
        assert [r for batch in records for r in batch] == self.ROWS[3:]
        assert len(dialled) == 2
        assert dialled[0]._stream.closed  # the dropped connection
        source.close()
        assert dialled[1].closed

    def test_close_closes_the_dialled_socket(self):
        import socket

        reader, writer = socket.socketpair()
        with writer:
            source = TcpAnswerSource("feed.test", 9, self.SCHEMA,
                                     connect=lambda: reader)
            source.close()
            source.close()  # idempotent
        assert reader.fileno() == -1

    def test_default_budget_fails_fast(self):
        from repro.exceptions import AnswerSourceError

        segments = [(self.ROWS[:5], True), (self.ROWS[5:], False)]
        source, _ = self.make_source(segments)
        with pytest.raises(AnswerSourceError, match="budget spent"):
            self.drain(source)

    def test_exhausted_budget_reports_resume_point(self):
        from repro.exceptions import AnswerSourceError

        segments = [(self.ROWS[:5], True), (self.ROWS[5:], True)]
        source, _ = self.make_source(segments, reconnect=1)
        with pytest.raises(AnswerSourceError, match="8 records"):
            self.drain(source)
        assert source.reconnects == 1

    def test_clean_eof_never_redials(self):
        source, state = self.make_source([(self.ROWS, False)],
                                         reconnect=5)
        assert self.drain(source) == self.ROWS
        assert source.reconnects == 0
        assert state["dials"] == 1

    def test_failed_redial_consumes_budget_and_retries(self):
        import socket

        from repro.faults import Backoff

        inner, state = socketpair_feed(
            [(self.ROWS[:5], True), (self.ROWS[5:], False)])
        refusals = {"left": 1}

        def flaky_connect():
            if 0 < state["dials"] and refusals["left"] > 0:
                refusals["left"] -= 1
                raise socket.error("connection refused")
            return inner()

        source = TcpAnswerSource("feed.test", 9, self.SCHEMA,
                                 connect=flaky_connect, reconnect=3,
                                 backoff=Backoff(base=0.0, cap=0.0))
        assert self.drain(source) == self.ROWS
        assert source.reconnects == 2  # one refused, one that served

    def test_bad_line_budget_spans_reconnects(self):
        from repro.exceptions import AnswerSourceError

        bad = [("t1", "w1"), ("t2", "w2")]  # two-field rows: malformed
        segments = [(self.ROWS[:2] + bad[:1], True),
                    (bad[1:] + self.ROWS[2:], False)]
        source, _ = self.make_source(segments, reconnect=1,
                                     max_bad_lines=1)
        with pytest.raises(AnswerSourceError, match="max_bad_lines"):
            self.drain(source)
        assert source.bad_lines == 2

    def test_initial_connect_failure_raises(self):
        from repro.exceptions import AnswerSourceError

        def refuse():
            raise OSError("connection refused")

        with pytest.raises(AnswerSourceError, match="initial connect"):
            TcpAnswerSource("feed.test", 9, self.SCHEMA, connect=refuse)

    def test_negative_reconnect_rejected(self):
        with pytest.raises(ValueError, match="reconnect"):
            TcpAnswerSource("feed.test", 9, self.SCHEMA, reconnect=-1)

    def test_feeds_an_engine_across_a_drop(self):
        segments = [(self.ROWS[:5], True), (self.ROWS[5:], False)]
        source, _ = self.make_source(segments, reconnect=1)
        engine = InferenceEngine(**source.schema.engine_kwargs())
        for batch in source.batches(3):
            engine.add_answers(batch)
        assert set(engine.current_truth("MV")) == {"t0", "t1", "t2", "t3"}


class TestGarbleFault:
    def test_garbled_line_is_skipped_and_counted(self):
        from repro import faults
        from tests.fault_arming import armed

        plan = faults.FaultPlan.parse("garble:on=2")
        with armed(plan):
            stream = io.StringIO("t1,w1,yes\nt2,w2,no\nt3,w3,yes\n")
            source = LineAnswerSource(stream,
                                      TaskSchema.declare("decision"))
            records = [r for b in source.batches(10) for r in b]
        assert records == [("t1", "w1", "yes"), ("t3", "w3", "yes")]
        assert source.bad_lines == 1
        assert plan.fired["garble"] == 1

    def test_unarmed_plane_reads_every_line(self):
        stream = io.StringIO("t1,w1,yes\nt2,w2,no\n")
        source = LineAnswerSource(stream, TaskSchema.declare("decision"))
        assert len([r for b in source.batches(10) for r in b]) == 2
        assert source.bad_lines == 0
