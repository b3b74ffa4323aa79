"""Scoped arming of a fault plan, for the chaos tests and benchmarks.

A plan is armed process-wide (:func:`repro.faults.arm`), so a test
that arms one for a block must hand the plane back as it found it:
under a chaos run that is the ``REPRO_FAULTS`` plan.
"""

from __future__ import annotations

import contextlib

from repro import faults


@contextlib.contextmanager
def armed(plan: faults.FaultPlan | None):
    """Arm ``plan`` for the block (``None``: no plan), then re-arm the
    plan armed before."""
    before = faults.get_plan()
    faults.arm(plan)
    try:
        yield plan
    finally:
        faults.arm(before)
