"""R004 — SharedMemory / pool / process / pipe / sqlite3 acquisitions
are paired with a release.

A ``SharedMemory`` segment outlives the process unless unlinked; a
``ProcessPoolExecutor`` or a ``multiprocessing`` ``Process`` left
running leaks children, and a ``Pipe`` left open leaks its two
descriptors; an open sqlite connection pins the WAL.  Every
acquisition must therefore sit in one of the shapes teardown can
reach:

- a ``with`` block (context manager owns the release),
- a function whose ``try``/``finally`` calls a release method,
- a function that registers an ``atexit`` hook,
- a class that exposes a release method (``close`` / ``release`` /
  ``shutdown`` / ``terminate`` / ``_teardown`` / ``__exit__`` /
  ``__del__`` / ``stop``) — the runtime/store idiom, where
  ``close()`` walks the acquired handles.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..lint import SourceFile

#: Callables whose return value is an acquired resource.
_ACQUIRERS = frozenset({
    "SharedMemory", "ProcessPoolExecutor", "ThreadPoolExecutor", "Pool",
    "Process", "Pipe",
})

#: ``module.attr`` acquisitions (checked on the attribute chain).
_ATTR_ACQUIRERS = {
    ("sqlite3", "connect"),
    ("shared_memory", "SharedMemory"),
    ("multiprocessing", "Pool"),
}

_RELEASE_METHODS = frozenset({
    "close", "release", "shutdown", "terminate", "unlink",
    "_teardown", "__exit__", "__del__", "stop",
})

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _acquisition_name(func: ast.AST) -> str | None:
    if isinstance(func, ast.Name) and func.id in _ACQUIRERS:
        return func.id
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name):
            if (func.value.id, func.attr) in _ATTR_ACQUIRERS:
                return f"{func.value.id}.{func.attr}"
        if func.attr in _ACQUIRERS:
            return func.attr
    return None


def _calls_release(body: list[ast.stmt]) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _RELEASE_METHODS):
                return True
    return False


def _registers_atexit(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "register"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "atexit"):
            return True
    return False


def _has_releasing_finally(func: ast.AST) -> bool:
    """Whether any ``try``/``finally`` in the function releases —
    covers the acquire-then-``try``/``finally`` idiom, where the
    acquisition is a sibling of the ``try``, not inside it."""
    for node in ast.walk(func):
        if (isinstance(node, ast.Try) and node.finalbody
                and _calls_release(node.finalbody)):
            return True
    return False


class PairedLifecycleRule:
    id = "R004"
    slug = "unpaired-acquire"
    description = ("SharedMemory/pool/process/pipe/sqlite3 acquisitions "
                   "need a paired release (with-block, try/finally, "
                   "atexit hook, or owning class with a close method)")

    def check(self, src: SourceFile) -> Iterator[Finding]:
        parents = src.parent_map()
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _acquisition_name(node.func)
            if name is None:
                continue
            if self._is_paired(node, parents):
                continue
            yield Finding(
                rule=self.id, path=src.rel, line=node.lineno,
                message=(f"{name}(...) acquisition has no paired "
                         f"release in reach (no with-block, "
                         f"try/finally release, atexit hook, or "
                         f"owning class close method)"),
            )

    def _is_paired(self, node: ast.Call,
                   parents: dict[ast.AST, ast.AST]) -> bool:
        cursor: ast.AST | None = node
        while cursor is not None:
            parent = parents.get(cursor)
            if isinstance(parent, ast.withitem):
                return True
            if isinstance(parent, _FUNCTION_NODES):
                if _registers_atexit(parent):
                    return True
                if _has_releasing_finally(parent):
                    return True
                # Walk on: the enclosing class may own the release.
            if isinstance(parent, ast.ClassDef):
                methods = {
                    stmt.name for stmt in parent.body
                    if isinstance(stmt, _FUNCTION_NODES)
                }
                if methods & _RELEASE_METHODS:
                    return True
            cursor = parent
        return False
