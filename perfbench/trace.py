"""In-memory span recorder for the traced benchmark run.

The recorder wraps public methods *at class level* (so every instance,
including ones the engine builds internally, is traced), keeps one span
per call in memory, and restores the original methods when the traced
region ends.  Spans nest by call stack: a span's parent is the span
that was open when it started, and every span carries the cycle id the
workload loop set when it started.  :func:`self_times` turns the spans
into per-name self time (duration minus the part covered by children).

Generator-returning methods (a source's ``batches``, the log's
``replay``) are traced per ``next()``: each step of the iterator is one
span, so parsing or reading is attributed where it happens rather than
to whoever iterates.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from typing import Callable, Iterator


class Span:
    """One traced call: ``[start, end)`` in ``perf_counter`` seconds."""

    __slots__ = ("id", "name", "start", "end", "parent", "cycle", "attrs")

    def __init__(self, id: int, name: str, start: float, parent: int | None,
                 cycle) -> None:
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.cycle = cycle
        self.attrs: dict = {}

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "cycle": self.cycle,
                **({"attrs": self.attrs} if self.attrs else {})}


class Tracer:
    """Records spans around wrapped methods; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.cycle = None
        self._stack: list[Span] = []
        self._patches: list[tuple[type, str, object]] = []

    # -- recording -------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        record = Span(len(self.spans), name, time.perf_counter(), parent,
                      self.cycle)
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    # -- class-level wrapping -------------------------------------------
    def wrap(self, cls: type, attr: str, name: str,
             annotate: Callable | None = None) -> None:
        """Trace ``cls.attr`` as spans called ``name``.

        ``annotate(span, args, kwargs, result)`` may attach attributes
        (counts, sizes) once the call returned.
        """
        original = cls.__dict__[attr]
        func = original.__func__ if isinstance(original, classmethod) \
            else original
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with tracer.span(name) as record:
                result = func(*args, **kwargs)
                if annotate is not None:
                    annotate(record, args, kwargs, result)
            return result

        self._patches.append((cls, attr, original))
        setattr(cls, attr, classmethod(traced)
                if isinstance(original, classmethod) else traced)

    def wrap_iter(self, cls: type, attr: str, name: str,
                  annotate: Callable | None = None) -> None:
        """Trace each ``next()`` of the iterator ``cls.attr`` returns."""
        original = cls.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer._steps(original(*args, **kwargs), name, annotate)

        self._patches.append((cls, attr, original))
        setattr(cls, attr, traced)

    def _steps(self, iterator, name: str, annotate) -> Iterator:
        iterator = iter(iterator)
        while True:
            with self.span(name) as record:
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                if annotate is not None:
                    annotate(record, item)
            yield item

    def restore(self) -> None:
        """Put every wrapped method back (newest first)."""
        while self._patches:
            cls, attr, original = self._patches.pop()
            setattr(cls, attr, original)

    # -- output ----------------------------------------------------------
    def write_jsonl(self, path) -> None:
        with open(path, "w") as out:
            for record in self.spans:
                out.write(json.dumps(record.as_dict(), default=float))
                out.write("\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: duration minus its children's coverage.

    Coverage is the length of the union of the children's intervals,
    clipped to the parent's, so overlapping children (a thread pool)
    are not counted twice.
    """
    children: dict[int, list[Span]] = {}
    for record in spans:
        if record.parent is not None:
            children.setdefault(record.parent, []).append(record)
    out = {}
    for record in spans:
        covered = 0.0
        reach = record.start
        for child in sorted(children.get(record.id, ()),
                            key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, record.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[record.id] = (record.end - record.start) - covered
    return out
