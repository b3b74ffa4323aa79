"""Method registry: look up algorithms and their capabilities by name.

The experiment harness and benchmarks refer to methods by the exact
names used in the paper's tables (``MV``, ``ZC``, ``GLAD``, ``D&S``,
``Minimax``, ``BCC``, ``CBCC``, ``LFC``, ``CATD``, ``PM``, ``Multi``,
``KOS``, ``VI-BP``, ``VI-MF``, ``LFC_N``, ``Mean``, ``Median``).

Besides instantiation (:func:`create`), the registry is the *only*
sanctioned way to ask what a method can do: :func:`capabilities`
returns a frozen :class:`Capabilities` struct built from the method
class's declared ``supports_*`` flags, replacing the scattered
``getattr(method_class(name), "supports_...", False)`` probes the
engine and experiment layers used to carry.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable

from ..exceptions import UnknownMethodError
from .base import TruthInferenceMethod
from .policy import MethodSpec
from .tasktypes import TaskType

_REGISTRY: dict[str, Callable[..., TruthInferenceMethod]] = {}
_CAPABILITIES: dict[str, "Capabilities"] = {}


@dataclasses.dataclass(frozen=True)
class Capabilities:
    """A method's declared abilities, as one frozen struct.

    Mirrors the ``supports_*`` ClassVars on
    :class:`~repro.core.base.TruthInferenceMethod` (see that docstring
    for what each ability means), plus the task types (paper Table 4)
    and the extension marker.  ``sharding`` is the one execution
    ability: a sharding method also warm-starts and delta-refits.
    """

    sharding: bool
    golden: bool
    initial_quality: bool
    task_types: frozenset
    is_extension: bool = False

    @classmethod
    def of(cls, factory) -> "Capabilities":
        """The capabilities a method factory declares.

        ``register()`` accepts any factory, not only
        :class:`~repro.core.base.TruthInferenceMethod` subclasses, so
        every flag defaults to absent rather than crashing the
        registry-wide capability scans on an exotic factory.
        """
        return cls(
            sharding=bool(getattr(factory, "supports_sharding", False)),
            golden=bool(getattr(factory, "supports_golden", False)),
            initial_quality=bool(getattr(factory,
                                         "supports_initial_quality", False)),
            task_types=frozenset(getattr(factory, "task_types",
                                         frozenset())),
            is_extension=bool(getattr(factory, "is_extension", False)),
        )


def register(factory: Callable[..., TruthInferenceMethod]) -> Callable:
    """Class decorator registering a method under its ``name`` attribute."""
    name = getattr(factory, "name", None)
    if not name or name == "abstract":
        raise ValueError(f"{factory!r} must define a class-level 'name'")
    if name in _REGISTRY:
        raise ValueError(f"method {name!r} already registered")
    _REGISTRY[name] = factory
    return factory


def available_methods() -> list[str]:
    """All registered method names, in registration order."""
    _ensure_loaded()
    return list(_REGISTRY)


def capabilities(name: str) -> Capabilities:
    """The declared :class:`Capabilities` of a registered method.

    The one sanctioned capability probe: engines, batch runners and
    experiment harnesses ask here instead of ``getattr``-ing
    ``supports_*`` flags off the class.
    """
    cached = _CAPABILITIES.get(name)
    if cached is None:
        cached = _CAPABILITIES[name] = Capabilities.of(method_class(name))
    return cached


def create(method: str | MethodSpec, **kwargs) -> TruthInferenceMethod:
    """Instantiate a method by its paper name or :class:`MethodSpec`.

    Extra keyword arguments are forwarded to the method constructor
    (e.g. ``seed=0``, ``max_iter=50``); with a spec, the spec's kwargs
    win over same-named extras.  How a fit runs is not the method's:
    pass an :class:`~repro.core.policy.ExecutionPolicy` to
    ``fit(answers, policy=...)``, the one place it is given.

    >>> from repro.core.answers import AnswerSet
    >>> from repro.core.policy import ExecutionPolicy
    >>> answers = AnswerSet([0, 0, 1, 1], [0, 1, 0, 1], [1, 1, 0, 0],
    ...                     TaskType.DECISION_MAKING)
    >>> policy = ExecutionPolicy(n_shards=2, executor="serial")
    >>> create("D&S", seed=0).fit(answers, policy=policy).truths.tolist()
    [1, 0]
    """
    spec = MethodSpec.coerce(method, kwargs)
    instance = method_class(spec.name)(**spec.kwargs)
    # Record the spec so fit(policy=...) can rebuild the method inside
    # worker processes.
    instance.method_spec = spec
    return instance


def method_class(name: str) -> Callable[..., TruthInferenceMethod]:
    """The registered factory (class) for a method name, uninstantiated.

    Prefer :func:`capabilities` for capability checks; this exists for
    construction and for tests that need the raw class.
    """
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownMethodError(
            f"unknown method {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def methods_for_task_type(task_type: TaskType,
                          include_extensions: bool = False) -> list[str]:
    """Names of methods applicable to a task type (paper Table 4).

    By default only the paper's 17 methods are returned, so the
    experiment harness stays faithful to the survey; pass
    ``include_extensions=True`` to also get post-paper extensions
    (methods whose class sets ``is_extension = True``).
    """
    _ensure_loaded()
    return [
        name
        for name in _REGISTRY
        if task_type in capabilities(name).task_types
        and (include_extensions or not capabilities(name).is_extension)
    ]


def create_all(task_type: TaskType, names: Iterable[str] | None = None,
               **kwargs) -> dict[str, TruthInferenceMethod]:
    """Instantiate every method applicable to ``task_type``.

    ``names`` optionally restricts (and orders) the selection; extra
    keyword arguments go to every constructor as :func:`create` passes
    them.  Each fit's execution is given to its ``fit(policy=...)``.
    """
    selected = list(names) if names is not None else methods_for_task_type(task_type)
    instances = {}
    for name in selected:
        method = create(name, **kwargs)
        if task_type in method.task_types:
            instances[name] = method
    return instances


def _ensure_loaded() -> None:
    """Import the methods package so its decorators populate the registry."""
    from .. import methods as _methods  # noqa: F401
