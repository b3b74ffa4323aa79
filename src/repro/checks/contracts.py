"""Capability contract checker: declared ``Capabilities`` vs reality.

Every registry method declares ``supports_*`` ClassVars that
:class:`~repro.core.registry.Capabilities` mirrors.  This module
derives what each class *actually* supports from its implementation
and cross-checks the declaration, so the capability table is a derived
artifact instead of a hand-maintained parallel truth:

- ``sharding`` — the one execution flag (sharded EM, warm starts and
  delta refits) rests on two facts: ``_fit`` accepts the
  ``warm_start``, ``shard_runner`` and ``delta`` keywords the base
  class forwards exactly when the flag is set, and the class overrides
  the sharded-spec hook
  :meth:`~repro.core.base.TruthInferenceMethod.make_em_spec`.
- ``golden`` / ``initial_quality`` — ``_fit`` always receives both
  (masked to ``None`` when the flag is off), so an honest flag means
  the body actually *reads* the parameter.

``task_types`` and ``is_extension`` are declarations of paper
semantics with no implementation signal to check; they pass through.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import TYPE_CHECKING, Any, Iterable

from .findings import Finding

if TYPE_CHECKING:
    from ..core.registry import Capabilities

#: Declared-but-unread flags that are documented, deliberate debt.
#: Keyed ``(method name, capability field)``; the declaration wins.
KNOWN_EXEMPTIONS = {
    ("LFC_N", "initial_quality"):
        "documented in lfc.py: initial_quality is accepted but has "
        "never influenced the numeric fit",
}

#: The `_fit` parameters the base class forwards to a sharding method.
_SHARDING_PARAMS = ("warm_start", "shard_runner", "delta")

#: Capability field -> `_fit` parameter whose *body read* backs it.
_BODY_FLAGS = {
    "golden": "golden",
    "initial_quality": "initial_quality",
}


def _fit_params(cls: Any) -> tuple[frozenset, bool]:
    params = inspect.signature(cls._fit).parameters
    accepts_kwargs = any(p.kind is inspect.Parameter.VAR_KEYWORD
                         for p in params.values())
    return frozenset(params), accepts_kwargs


def _fit_body(cls: Any) -> list[ast.stmt]:
    source = textwrap.dedent(inspect.getsource(cls._fit))
    func = ast.parse(source).body[0]
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    return func.body


def _body_reads(cls: Any, name: str) -> bool:
    """Whether the resolved ``_fit`` body loads ``name`` anywhere
    (direct reads and forwarding both count; ``kwargs.get("name")``
    style reads are caught via the string constant)."""
    for stmt in _fit_body(cls):
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Name) and node.id == name
                    and isinstance(node.ctx, ast.Load)):
                return True
            if isinstance(node, ast.Constant) and node.value == name:
                return True
    return False


def _overrides_em_spec(cls: Any) -> bool:
    from ..core.base import TruthInferenceMethod

    return cls.make_em_spec is not TruthInferenceMethod.make_em_spec


def _derive_flags(name: str, cls: Any) -> dict[str, bool]:
    params, accepts_kwargs = _fit_params(cls)
    # The spec hook is the second half of the sharding contract; the
    # forwarded parameters without it can never run a phase.
    derived = {"sharding": (
        (accepts_kwargs or all(p in params for p in _SHARDING_PARAMS))
        and _overrides_em_spec(cls))}
    for field, parameter in _BODY_FLAGS.items():
        derived[field] = _body_reads(cls, parameter)
    for (exempt_name, field), _reason in KNOWN_EXEMPTIONS.items():
        if exempt_name == name:
            derived[field] = bool(getattr(cls, f"supports_{field}"))
    return derived


def derive_capabilities(name: str) -> "Capabilities":
    """The :class:`~repro.core.registry.Capabilities` the
    implementation itself implies (``task_types`` / ``is_extension``
    carried over from the declaration — they are paper semantics, not
    implementation facts)."""
    from ..core.registry import Capabilities, method_class

    cls = method_class(name)
    declared = Capabilities.of(cls)
    return Capabilities(
        task_types=declared.task_types,
        is_extension=declared.is_extension,
        **_derive_flags(name, cls),
    )


def derived_table() -> dict:
    """``{method name: derived Capabilities}`` for the whole registry."""
    from ..core.registry import available_methods

    return {name: derive_capabilities(name)
            for name in available_methods()}


def check_contracts(names: Iterable[str] | None = None) -> list[Finding]:
    """Findings for every declared/derived capability mismatch.

    Declarations are read off the classes (not the registry's frozen
    cache), so a drifted ClassVar is caught even mid-process.
    """
    from ..core.registry import Capabilities, available_methods, method_class

    findings = []
    for name in sorted(names if names is not None else available_methods()):
        cls = method_class(name)
        declared = Capabilities.of(cls)
        derived = _derive_flags(name, cls)
        for field, implied in sorted(derived.items()):
            stated = getattr(declared, field)
            if stated == implied:
                continue
            findings.append(Finding(
                rule="C001", path="<registry>", line=0,
                message=(
                    f"{name}: declared Capabilities.{field}={stated} "
                    f"but the implementation implies {implied} "
                    f"(class {cls.__name__})"
                ),
            ))
    return findings
