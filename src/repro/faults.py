"""Deterministic fault injection and the shared backoff helper.

The fault plane is the chaos counterpart of the PR-9 lease-protocol
verifier: an opt-in hook surface the runtime, store and sources consult
at their failure-prone edges, costing one ``is None`` test when
unarmed.  A :class:`FaultPlan` is a *seeded, counted* script — "kill
worker 1 on its 2nd dispatch", "fail the next sqlite commit", "garble
the 5th line read" — so a chaos test is exactly reproducible: the same
plan over the same stream injects the same faults at the same events.

Arming
------
A plan is armed one way: process-wide, and every hook site finds it
with one :func:`get_plan` call.

- In-process: ``arm(plan)``; ``arm(None)`` or ``disarm()`` disarms.
  To scope a plan to a block, arm it and re-arm the one
  :func:`get_plan` returned before.
- Across a process boundary (subprocess tests, CI chaos runs): set
  ``REPRO_FAULTS`` to the :meth:`FaultPlan.parse` spec, e.g.
  ``REPRO_FAULTS='kill:shard=1,on=2;commit:count=3'``.

How the process tier recovers from an injected fault is the lease's
:class:`~repro.core.policy.FaultPolicy`; what it recovered from is
counted once, in the lease's ``fault_events``.

Triggers are counted per *matching event*, 1-based: ``on=2,count=3``
fires on the 2nd, 3rd and 4th matching events.  Kill/delay triggers
match dispatch events ``(shard, phase)``; commit and garble triggers
match store commits and line-source reads.

:class:`Backoff` is the one retry/backoff implementation in the tree —
capped exponential with seeded jitter.  Lint rule R007 bans ad-hoc
``time.sleep`` retry loops everywhere else, so every retry path
(dispatch re-tries, sqlite busy commits, tcp reconnects) shares these
delays and stays deterministic under a fixed seed.
"""

from __future__ import annotations

import dataclasses
import os
import random
import time
from typing import Iterable

__all__ = ["Backoff", "FaultPlan", "FaultTrigger", "arm", "disarm",
           "get_plan"]

_ENV_FLAG = "REPRO_FAULTS"

#: Trigger kinds and the event stream each one matches.
KINDS = ("kill", "delay", "commit", "garble")


@dataclasses.dataclass
class FaultTrigger:
    """One scripted fault.

    ``shard``/``phase`` restrict dispatch-event triggers (``kill``,
    ``delay``); ``None`` matches everything.  ``on`` is the 1-based
    index of the first matching event that fires; ``count`` is how many
    consecutive matching events fire after that.  ``seconds`` is the
    delay magnitude for ``delay`` triggers.
    """

    kind: str
    shard: int | None = None
    phase: str | None = None
    on: int = 1
    count: int = 1
    seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {KINDS}")
        if self.on < 1 or self.count < 1:
            raise ValueError("fault trigger on/count are 1-based and "
                             "must be >= 1")

    def matches(self, shard: int | None, phase: str | None) -> bool:
        return ((self.shard is None or self.shard == shard)
                and (self.phase is None or self.phase == phase))


class FaultPlan:
    """A counted script of deterministic faults.

    The plan is consumed by the hook sites (the runtime's dispatch
    loop, the store's commit path, the line sources); each hook asks
    the plan whether the *current* event should fault.  Counters are
    per-trigger, so a plan is single-use per fit — build a fresh one
    (or :meth:`reset`) to replay the same script.
    """

    def __init__(self, triggers: Iterable[FaultTrigger] = ()) -> None:
        self.triggers = list(triggers)
        self._seen = [0] * len(self.triggers)
        #: Fired-fault counters by kind, for tests and FitStats.
        self.fired: dict[str, int] = {kind: 0 for kind in KINDS}
        #: Chronological ledger of fired faults (kind, event detail).
        self.log: list[tuple[str, tuple]] = []

    # -- construction --------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` spec string.

        Format: ``;``-separated triggers, each
        ``kind[:key=value,...]`` — e.g.
        ``'kill:shard=1,on=2;delay:phase=e_block,seconds=0.5;commit'``.
        """
        triggers = []
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            kind, _, rest = chunk.partition(":")
            kwargs: dict = {}
            for pair in filter(None, rest.split(",")):
                key, sep, value = pair.partition("=")
                if not sep:
                    raise ValueError(
                        f"malformed fault spec field {pair!r} in "
                        f"{chunk!r} (expected key=value)")
                key = key.strip()
                if key == "seconds":
                    kwargs[key] = float(value)
                elif key in ("shard", "on", "count"):
                    kwargs[key] = int(value)
                else:
                    kwargs[key] = value.strip()
            triggers.append(FaultTrigger(kind=kind.strip(), **kwargs))
        return cls(triggers)

    def reset(self) -> None:
        """Rewind every trigger counter (replay the same script)."""
        self._seen = [0] * len(self.triggers)
        self.fired = {kind: 0 for kind in KINDS}
        self.log = []

    # -- hook sites ----------------------------------------------------
    def _fire(self, kinds: tuple[str, ...], shard: int | None,
              phase: str | None, detail: tuple) -> FaultTrigger | None:
        """Count this event against matching triggers; return the first
        trigger whose firing window covers it."""
        hit = None
        for i, trigger in enumerate(self.triggers):
            if trigger.kind not in kinds:
                continue
            if not trigger.matches(shard, phase):
                continue
            self._seen[i] += 1
            n = self._seen[i]
            if hit is None and trigger.on <= n < trigger.on + trigger.count:
                hit = trigger
        if hit is not None:
            self.fired[hit.kind] += 1
            self.log.append((hit.kind, detail))
        return hit

    def on_dispatch(self, shard: int, phase: str) -> tuple | None:
        """Consult kill/delay triggers for one phase dispatch.

        Returns ``None`` (no fault), ``("kill",)`` — SIGKILL the
        worker before this dispatch — or ``("delay", seconds)`` — the
        worker sleeps that long before it runs the phase.
        """
        hit = self._fire(("kill", "delay"), shard, phase, (shard, phase))
        if hit is None:
            return None
        if hit.kind == "kill":
            return ("kill",)
        return ("delay", hit.seconds)

    def on_commit(self) -> bool:
        """``True`` when the next store commit should fail locked."""
        return self._fire(("commit",), None, None, ()) is not None

    def on_source_line(self) -> bool:
        """``True`` when the next line-source read should be garbled."""
        return self._fire(("garble",), None, None, ()) is not None

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"FaultPlan({self.triggers!r})"


class Backoff:
    """Capped exponential backoff with seeded jitter.

    The one sanctioned retry-delay implementation (lint rule R007):
    ``delay(attempt)`` for attempt 0, 1, 2, ... is
    ``min(cap, base * 2**attempt)`` scaled by a jitter factor drawn
    from a seeded :class:`random.Random` — deterministic per seed, so
    chaos tests and recovery timings replay exactly.
    """

    def __init__(self, base: float = 0.05, cap: float = 2.0,
                 seed: int = 0) -> None:
        if base < 0 or cap < 0:
            raise ValueError("backoff base/cap must be >= 0")
        self.base = base
        self.cap = cap
        self._rng = random.Random(seed)

    def delay(self, attempt: int) -> float:
        """Jittered delay for the given 0-based attempt number."""
        raw = min(self.cap, self.base * (2.0 ** attempt))
        return raw * (0.5 + 0.5 * self._rng.random())

    def sleep(self, attempt: int) -> float:
        """Sleep for :meth:`delay`, returning the slept duration."""
        # checks: allow-adhoc-retry(this is the shared backoff helper
        # every retry loop is required to route through)
        duration = self.delay(attempt)
        if duration > 0.0:
            time.sleep(duration)
        return duration


_PLAN: FaultPlan | None = None
_ENV_PARSED = False


def arm(plan: FaultPlan | None) -> None:
    """Arm ``plan`` process-wide (``None`` disarms)."""
    global _PLAN, _ENV_PARSED
    _PLAN = plan
    _ENV_PARSED = True


def disarm() -> None:
    """Disarm the process-wide plan (env spec stays consumed)."""
    arm(None)


def get_plan() -> FaultPlan | None:
    """The armed plan, or ``None`` when the plane is cold.

    ``REPRO_FAULTS`` is parsed lazily on the first call so subprocess
    tests can arm workers through the environment; an explicit
    :func:`arm`/:func:`disarm` takes precedence over the env spec.
    """
    global _PLAN, _ENV_PARSED
    if not _ENV_PARSED:
        _ENV_PARSED = True
        spec = os.environ.get(_ENV_FLAG, "")
        if spec:
            _PLAN = FaultPlan.parse(spec)
    return _PLAN
