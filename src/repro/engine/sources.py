"""Declared-schema answer sources feeding the streaming engine.

``repro stream`` historically had to *pre-scan* its CSV to classify the
task type (two distinct labels → decision-making, more →
single-choice) before a single answer reached the engine — workable
for a file, impossible for a socket.  This module turns the input side
into a first-class protocol:

* :class:`TaskSchema` — the declaration that replaces the pre-scan: a
  task type plus (optionally) a fixed label order.  Since label growth
  warm-starts (PR 2), declaring only the task type is enough — labels
  may be discovered as they arrive.
* :class:`AnswerSource` — anything with a ``schema`` and a
  ``batches(chunk_size)`` iterator of ``(task, worker, value)``
  triples.  Three implementations cover the serving spectrum:
  :class:`CsvAnswerSource` (files; infers a schema by pre-scan *only*
  when none was declared), :class:`IterableAnswerSource` (in-memory
  records), and :class:`LineAnswerSource` (line-delimited CSV from a
  live file object — stdin, a socket's ``makefile()`` — which is
  consumed strictly incrementally and therefore *requires* a declared
  schema).

Every source feeds a
:class:`~repro.engine.stream.StreamingAnswerSet`-backed
:class:`~repro.engine.engine.InferenceEngine` the same way; the CLI's
``repro stream --source {csv,stdin} --task-type {decision,single,numeric}``
is a thin wrapper over this module.
"""

from __future__ import annotations

import csv
import dataclasses
from typing import Iterable, Iterator, Protocol, Sequence, runtime_checkable

from .. import faults as _faults
from ..core.tasktypes import TaskType
from ..exceptions import AnswerSourceError, EngineError

__all__ = [
    "AnswerSource",
    "CsvAnswerSource",
    "IterableAnswerSource",
    "LineAnswerSource",
    "TaskSchema",
    "TcpAnswerSource",
    "infer_schema",
    "parse_task_type",
]

#: CLI spellings for the task types a stream can declare.
TASK_TYPE_ALIASES = {
    "decision": TaskType.DECISION_MAKING,
    "decision-making": TaskType.DECISION_MAKING,
    "single": TaskType.SINGLE_CHOICE,
    "single-choice": TaskType.SINGLE_CHOICE,
    "numeric": TaskType.NUMERIC,
}


def parse_task_type(name: str | TaskType) -> TaskType:
    """A :class:`TaskType` from its CLI spelling (or itself)."""
    if isinstance(name, TaskType):
        return name
    try:
        return TASK_TYPE_ALIASES[name]
    except KeyError:
        raise EngineError(
            f"unknown task type {name!r}; expected one of "
            f"{sorted(set(TASK_TYPE_ALIASES))}"
        ) from None


@dataclasses.dataclass(frozen=True)
class TaskSchema:
    """The declared shape of an answer stream.

    Parameters
    ----------
    task_type:
        The stream's task type (accepts CLI spellings like
        ``"decision"`` via :meth:`declare`).
    labels:
        Optional fixed label order for categorical streams.  When
        omitted, labels are indexed in order of first appearance —
        valid because label growth warm-starts.
    """

    task_type: TaskType
    labels: tuple | None = None

    def __post_init__(self) -> None:
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if not self.task_type.is_categorical:
                raise EngineError(
                    "labels only apply to categorical task types"
                )

    @classmethod
    def declare(cls, task_type: str | TaskType,
                labels: Sequence | None = None) -> "TaskSchema":
        """Build a schema from a CLI-style task-type spelling."""
        return cls(task_type=parse_task_type(task_type),
                   labels=tuple(labels) if labels is not None else None)

    def engine_kwargs(self) -> dict:
        """Constructor kwargs for an :class:`~repro.engine.InferenceEngine`."""
        return {
            "task_type": self.task_type,
            "label_order": list(self.labels) if self.labels else None,
        }


def infer_schema(records: Sequence[tuple]) -> TaskSchema:
    """The schema a fully materialised record list implies.

    The historical pre-scan, now explicit and opt-in: two distinct
    labels mean decision-making, more mean single-choice; the sorted
    label set becomes the fixed label order (which keeps label codes —
    and therefore printed output — deterministic).

    Zero records imply nothing: raises
    :class:`~repro.exceptions.AnswerSourceError` instead of minting a
    degenerate zero-label schema that only fails later, far from the
    empty input that caused it.
    """
    if not records:
        raise AnswerSourceError(
            "cannot infer a schema from zero answer records; the input "
            "is empty (or header-only) — declare a schema instead "
            "(e.g. --task-type on the CLI)"
        )
    labels = sorted({str(value) for _, _, value in records})
    task_type = (TaskType.DECISION_MAKING if len(labels) == 2
                 else TaskType.SINGLE_CHOICE)
    return TaskSchema(task_type=task_type, labels=tuple(labels))


@runtime_checkable
class AnswerSource(Protocol):
    """Anything that can feed a streaming engine.

    ``schema`` declares what the records mean; ``batches(chunk_size)``
    yields lists of ``(task, worker, value)`` triples, each ready for
    :meth:`~repro.engine.engine.InferenceEngine.add_answers`.
    """

    @property
    def schema(self) -> TaskSchema: ...

    def batches(self, chunk_size: int) -> Iterator[list[tuple]]: ...


def _batched(records: Iterable[tuple],
             chunk_size: int) -> Iterator[list[tuple]]:
    if chunk_size < 1:
        raise EngineError(f"chunk_size must be >= 1, got {chunk_size}")
    batch: list[tuple] = []
    for record in records:
        batch.append(record)
        if len(batch) >= chunk_size:
            yield batch
            batch = []
    if batch:
        yield batch


def _parse_row(row: list, where: str) -> tuple:
    if len(row) < 3:
        raise AnswerSourceError(
            f"{where}: malformed row {row!r} (expected task,worker,answer)"
        )
    return (row[0].strip(), row[1].strip(), row[2].strip())


def _is_header(row: list) -> bool:
    return not row or row[0].strip().lower() in ("task", "#task")


class IterableAnswerSource:
    """In-memory ``(task, worker, value)`` records as a source.

    With no declared schema the records are classified by
    :func:`infer_schema` (they are already materialised, so the scan is
    free of the streaming concern the other sources have).
    """

    def __init__(self, records: Iterable[tuple],
                 schema: TaskSchema | None = None) -> None:
        self._records = list(records)
        self._schema = schema

    @property
    def schema(self) -> TaskSchema:
        if self._schema is None:
            self._schema = infer_schema(self._records)
        return self._schema

    def __len__(self) -> int:
        return len(self._records)

    def batches(self, chunk_size: int) -> Iterator[list[tuple]]:
        return _batched(self._records, chunk_size)


class CsvAnswerSource:
    """A ``task,worker,answer`` CSV file as a source.

    With a declared ``schema`` the file is read strictly in
    ``chunk_size`` batches — no pre-scan, no second pass.  Without one,
    asking for :attr:`schema` reads the file once and infers it (the
    legacy CLI behaviour, kept for undeclared streams).
    """

    def __init__(self, path: str,
                 schema: TaskSchema | None = None) -> None:
        self.path = path
        self._schema = schema
        self._scanned: list[tuple] | None = None

    @property
    def declared(self) -> bool:
        """Whether the schema was declared (no pre-scan will happen)."""
        return self._schema is not None

    @property
    def schema(self) -> TaskSchema:
        if self._schema is None:
            # Pre-scan once and keep the records: batches() then serves
            # from memory instead of parsing the file a second time
            # (which would also race any concurrent appends).
            self._scanned = self._read_all()
            if not self._scanned:
                raise AnswerSourceError(
                    f"{self.path}: no answer rows found (empty or "
                    f"header-only CSV); cannot infer a schema — declare "
                    f"one (e.g. --task-type) or supply data"
                )
            self._schema = infer_schema(self._scanned)
        return self._schema

    def _read_all(self) -> list[tuple]:
        return [record for batch in self.batches(4096) for record in batch]

    def batches(self, chunk_size: int) -> Iterator[list[tuple]]:
        if self._scanned is not None:
            yield from _batched(self._scanned, chunk_size)
            return
        try:
            handle = open(self.path, newline="")
        except OSError as exc:
            raise AnswerSourceError(
                f"cannot read answers from {self.path}: {exc}"
            ) from exc
        with handle:
            yield from _batched(
                (_parse_row(row, f"{self.path}:{number}")
                 for number, row in enumerate(csv.reader(handle), start=1)
                 if not _is_header(row)),
                chunk_size,
            )


class LineAnswerSource:
    """Line-delimited ``task,worker,answer`` CSV from a live stream.

    Wraps any text file object — ``sys.stdin``, a pipe, a socket's
    ``makefile("r")`` — and parses it strictly incrementally: a batch
    is emitted as soon as ``chunk_size`` rows arrived (or the stream
    ends), so inference starts while the producer is still writing.
    Because the input cannot be rewound, the schema **must** be
    declared up front.

    A malformed line from a live peer must not kill the whole stream
    (one garbled TCP write would take down every task already being
    inferred), so bad lines are *skipped and counted*: each one bumps
    :attr:`bad_lines`, and only when the count exceeds
    ``max_bad_lines`` does the source raise
    :class:`~repro.exceptions.AnswerSourceError` — with the line
    number and content of the offending row.  ``max_bad_lines=0``
    restores the strict historical behaviour (first bad line is
    fatal); blank lines are ignored outright, as before.
    """

    #: Default malformed-line budget before the stream is abandoned.
    DEFAULT_MAX_BAD_LINES = 100

    def __init__(self, stream, schema: TaskSchema,
                 name: str = "<stream>",
                 max_bad_lines: int = DEFAULT_MAX_BAD_LINES) -> None:
        if schema is None:
            raise EngineError(
                "a live stream cannot be pre-scanned; declare a "
                "TaskSchema (e.g. --task-type on the CLI)"
            )
        if max_bad_lines < 0:
            raise EngineError(
                f"max_bad_lines must be >= 0, got {max_bad_lines}"
            )
        self._stream = stream
        self._schema = schema
        self.name = name
        self.max_bad_lines = int(max_bad_lines)
        #: Malformed lines skipped so far (for post-stream reporting).
        self.bad_lines = 0

    @property
    def schema(self) -> TaskSchema:
        return self._schema

    def _records(self) -> Iterator[tuple]:
        plan = _faults.get_plan()
        for number, row in enumerate(csv.reader(self._stream), start=1):
            if _is_header(row):
                continue
            if plan is not None and plan.on_source_line():
                # Injected garble: the tail of the line is lost in
                # transit, exactly like a torn TCP write.
                row = row[:1]
            try:
                yield _parse_row(row, f"{self.name}:{number}")
            except AnswerSourceError as exc:
                self.bad_lines += 1
                if self.bad_lines > self.max_bad_lines:
                    raise AnswerSourceError(
                        f"{self.name}: {self.bad_lines} malformed lines "
                        f"exceed max_bad_lines={self.max_bad_lines}; "
                        f"last offender at line {number}: {exc}"
                    ) from exc

    def batches(self, chunk_size: int) -> Iterator[list[tuple]]:
        return _batched(self._records(), chunk_size)


class TcpAnswerSource:
    """A reconnecting ``tcp:HOST:PORT`` line source.

    The plain spelling (connect once, wrap the socket's
    ``makefile("r")`` in a :class:`LineAnswerSource`) dies with the
    first transport drop — one flaky switch and every task already
    being inferred is abandoned.  This source owns the connection
    lifecycle instead: a mid-stream ``OSError`` (reset, broken pipe)
    consumes one unit of the ``reconnect`` budget, sleeps a shared
    :class:`~repro.faults.Backoff` delay, redials, and **resumes the
    record stream in place** — batch numbering, the malformed-line
    budget and the engine feeding off :meth:`batches` all carry on as
    if the drop never happened.  ``reconnect=0`` (the default, and the
    CLI's) keeps the historical fail-fast behaviour.

    Clean EOF (the peer closed after finishing) ends the stream
    normally and never redials: a reconnect budget is for *drops*, not
    for polling a finished producer.

    Parameters
    ----------
    host, port:
        The peer to dial.
    schema:
        Required, as for :class:`LineAnswerSource` — a socket cannot
        be pre-scanned.
    reconnect:
        How many drops (mid-stream or while redialling) to survive
        before raising :class:`~repro.exceptions.AnswerSourceError`.
    max_bad_lines:
        Malformed-line budget, shared across reconnects (a peer that
        garbles lines does not get a fresh budget by dropping).
    connect:
        Injectable dial callable returning a connected socket (or any
        object with ``makefile``/``readline``); defaults to
        ``socket.create_connection((host, port))``.  Tests hand in a
        socketpair factory here.
    backoff:
        The :class:`~repro.faults.Backoff` used between redials;
        defaults to ``Backoff()``.
    """

    def __init__(self, host: str, port: int, schema: TaskSchema,
                 name: str | None = None, reconnect: int = 0,
                 max_bad_lines: int = LineAnswerSource.DEFAULT_MAX_BAD_LINES,
                 connect=None, backoff=None) -> None:
        if schema is None:
            raise EngineError(
                "a live stream cannot be pre-scanned; declare a "
                "TaskSchema (e.g. --task-type on the CLI)"
            )
        if reconnect < 0:
            raise EngineError(
                f"reconnect must be >= 0, got {reconnect}"
            )
        self.host = host
        self.port = int(port)
        self._schema = schema
        self.name = name or f"tcp:{host}:{port}"
        self.reconnect = int(reconnect)
        self.max_bad_lines = int(max_bad_lines)
        self._connect = connect or self._dial
        self._backoff = backoff if backoff is not None else _faults.Backoff()
        #: Successful redials so far (for post-stream reporting).
        self.reconnects = 0
        #: Malformed lines skipped so far, across all connections.
        self.bad_lines = 0
        #: Records yielded so far (where a resume picks up).
        self.records_read = 0
        self._open("initial connect")

    def _dial(self):
        import socket

        return socket.create_connection((self.host, self.port))

    def _open(self, why: str) -> None:
        """Dial the peer and make it the current connection: the dialled
        object, and the text stream read from it (its ``makefile("r")``,
        or the object itself when it has none)."""
        try:
            peer = self._connect()
        except OSError as exc:
            raise AnswerSourceError(
                f"cannot connect to {self.name} ({why}): {exc}"
            ) from exc
        self._peer = peer
        self._stream = (peer.makefile("r") if hasattr(peer, "makefile")
                        else peer)

    @property
    def schema(self) -> TaskSchema:
        return self._schema

    def close(self) -> None:
        """Close the current connection, its stream and the dialled
        socket both (idempotent)."""
        stream, self._stream = self._stream, None
        peer, self._peer = self._peer, None
        for handle in (stream, peer):
            if handle is not None:
                handle.close()

    def _records(self) -> Iterator[tuple]:
        budget = self.reconnect
        while True:
            inner = LineAnswerSource(self._stream, self._schema,
                                     name=self.name,
                                     max_bad_lines=self.max_bad_lines)
            inner.bad_lines = self.bad_lines
            dropped = None
            try:
                for record in inner._records():
                    self.records_read += 1
                    yield record
            except OSError as exc:
                dropped = exc
            finally:
                self.bad_lines = inner.bad_lines
            if dropped is None:
                return
            while True:
                if budget <= 0:
                    raise AnswerSourceError(
                        f"{self.name}: connection lost after "
                        f"{self.records_read} records with the reconnect "
                        f"budget spent (reconnect={self.reconnect}): "
                        f"{dropped}"
                    ) from dropped
                budget -= 1
                self.reconnects += 1
                self.close()  # the dropped connection
                self._backoff.sleep(self.reconnects - 1)
                try:
                    self._open(f"reconnect {self.reconnects}")
                except AnswerSourceError as exc:
                    dropped = exc
                    continue
                break

    def batches(self, chunk_size: int) -> Iterator[list[tuple]]:
        return _batched(self._records(), chunk_size)
