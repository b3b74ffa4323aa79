"""Repo-native static analysis: the ``repro check`` subsystem.

Three layers, one CLI gate:

- :mod:`repro.checks.lint` — an AST-walking rule engine enforcing the
  repo-specific invariants (the rules in :mod:`repro.checks.rules`)
  over the source tree, with a per-line pragma escape hatch
  (``# checks: allow-<slug>(reason)``).
- :mod:`repro.checks.contracts` — cross-checks every registry method's
  declared :class:`~repro.core.registry.Capabilities` against what its
  implementation actually supports, so the capability table is a
  derived artifact instead of a parallel truth.
- :mod:`repro.checks.protocol` — opt-in (``REPRO_CHECKS=1``) debug
  instrumentation of the persistent shard runtime: a lease state
  machine plus segment/pool leak ledgers.

Named ``checks`` (not ``analysis``) because ``repro.analysis`` is the
worker-quality analytics package.
"""

from .findings import Finding
from .lint import LintReport, run_lint
from .contracts import check_contracts, derive_capabilities, derived_table

__all__ = [
    "Finding",
    "LintReport",
    "run_lint",
    "check_contracts",
    "derive_capabilities",
    "derived_table",
]
