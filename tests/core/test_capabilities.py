"""Registry-wide capability audit (satellite of the API redesign).

Every method's declared :class:`~repro.core.registry.Capabilities` is
pinned against an expected table, so a new method (or a refactor of a
shared base class) can no longer silently drop — or accidentally gain —
a capability.  A second audit cross-checks the declarations against the
``_fit`` signatures: the sharding flag is only honest if the
implementation actually accepts the keywords it is forwarded.
"""

import inspect

import pytest

from repro.core.registry import (
    Capabilities,
    available_methods,
    capabilities,
    method_class,
)
from repro.core.tasktypes import TaskType

D = TaskType.DECISION_MAKING
S = TaskType.SINGLE_CHOICE
N = TaskType.NUMERIC


def caps(shard=False, golden=False, quality=False, types=(),
         ext=False) -> Capabilities:
    return Capabilities(
        sharding=shard, golden=golden, initial_quality=quality,
        task_types=frozenset(types), is_extension=ext,
    )


#: The authoritative table: paper Table 4 task types, Table 7
#: qualification support, Section 6.3.3 golden support, plus the one
#: execution capability — sharded EM, which also warm-starts and
#: delta-refits — grown in PRs 1-3, the method-zoo sharding pass
#: (CATD/PM/KOS/Minimax/BCC/CBCC/VI) and the per-family delta-refit
#: contracts.  LFC mirrors D&S exactly — it shares the same EM.
EXPECTED = {
    "MV": caps(types=(D, S)),
    "Mean": caps(types=(N,)),
    "Median": caps(types=(N,)),
    "D&S": caps(shard=True, golden=True, quality=True, types=(D, S)),
    "LFC": caps(shard=True, golden=True, quality=True, types=(D, S)),
    "ZC": caps(shard=True, golden=True, quality=True, types=(D, S)),
    "GLAD": caps(shard=True, golden=True, quality=True, types=(D, S)),
    "LFC_N": caps(shard=True, golden=True, quality=True, types=(N,)),
    "BCC": caps(shard=True, golden=True, types=(D, S)),
    "CBCC": caps(shard=True, types=(D, S)),
    "CATD": caps(shard=True, golden=True, quality=True, types=(D, S, N)),
    "PM": caps(shard=True, golden=True, quality=True, types=(D, S, N)),
    "Minimax": caps(shard=True, golden=True, types=(D, S)),
    "Minimax-Ord": caps(shard=True, golden=True, types=(D, S), ext=True),
    "KOS": caps(shard=True, types=(D,)),
    "VI-BP": caps(shard=True, golden=True, quality=True, types=(D,)),
    "VI-MF": caps(shard=True, golden=True, quality=True, types=(D,)),
    "Multi": caps(types=(D,)),
}


def test_expected_table_covers_the_whole_registry():
    assert set(EXPECTED) == set(available_methods())


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_declared_capabilities_match_table(name):
    assert capabilities(name) == EXPECTED[name]


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_flags_match_fit_signatures(name):
    """The sharding flag must be backed by the ``_fit`` signature.

    The base class forwards the ``warm_start``, ``shard_runner`` and
    ``delta`` keywords exactly when the flag is set, so a flag without
    the parameters breaks every fit, and parameters without the flag
    are a capability silently dropped (the LFC-style mismatch this
    audit exists to catch).
    """
    cls = method_class(name)
    params = inspect.signature(cls._fit).parameters
    accepts_kwargs = any(p.kind is inspect.Parameter.VAR_KEYWORD
                         for p in params.values())
    for parameter in ("warm_start", "shard_runner", "delta"):
        declared = capabilities(name).sharding
        implemented = parameter in params or accepts_kwargs
        assert declared == implemented, (
            f"{name}: capabilities().sharding is {declared} but _fit "
            f"{'accepts' if implemented else 'lacks'} {parameter!r}"
        )


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_expected_table_is_a_derived_artifact(name):
    """The table above is no longer a parallel truth: the static
    contract checker (``repro check``) derives the same capabilities
    from each implementation's ``_fit`` signature, body reads, and
    sharded-spec hook.  A drift in either direction fails here *and*
    in CI's ``repro check`` gate."""
    from repro.checks.contracts import derive_capabilities

    assert derive_capabilities(name) == EXPECTED[name]


def test_lfc_declares_its_capabilities_explicitly():
    """The audit's concrete fix: LFC's capabilities live on the LFC
    class itself, not only on the base it shares with D&S."""
    cls = method_class("LFC")
    for flag in ("supports_sharding", "supports_golden",
                 "supports_initial_quality"):
        assert flag in vars(cls), f"LFC must declare {flag} explicitly"


def test_capabilities_cached_and_frozen():
    first = capabilities("D&S")
    assert capabilities("D&S") is first
    with pytest.raises(Exception):
        first.sharding = False
