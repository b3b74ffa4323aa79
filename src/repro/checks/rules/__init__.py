"""The repo-specific lint rules (R001-R005 and R007; retired ids are
not reused).

Each rule is a small object with an ``id`` (``"R001"``), a pragma
``slug`` (``"global-rng"`` — suppressed via
``# checks: allow-global-rng(reason)``), a one-line ``description``
and a ``check(src)`` generator yielding
:class:`~repro.checks.findings.Finding`.
"""

from .rng import GlobalRngRule
from .crash_paths import TypedCrashPathRule
from .probes import CapabilityProbeRule
from .lifecycle import PairedLifecycleRule
from .broad_except import BroadExceptRule
from .retry import AdhocRetryRule

#: Registry order == report order.
ALL_RULES = (
    GlobalRngRule(),
    TypedCrashPathRule(),
    CapabilityProbeRule(),
    PairedLifecycleRule(),
    BroadExceptRule(),
    AdhocRetryRule(),
)

_SLUGS = {rule.id: rule.slug for rule in ALL_RULES}


def slug_of(rule_id: str) -> str:
    """The pragma slug for a rule id (id itself if unknown)."""
    return _SLUGS.get(rule_id, rule_id)


__all__ = [
    "ALL_RULES",
    "slug_of",
    "GlobalRngRule",
    "TypedCrashPathRule",
    "CapabilityProbeRule",
    "PairedLifecycleRule",
    "BroadExceptRule",
    "AdhocRetryRule",
]
