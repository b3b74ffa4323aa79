"""Lease-protocol verifier: opt-in runtime instrumentation.

Set ``REPRO_CHECKS=1`` and the persistent shard runtime
(:mod:`repro.engine.runtime`) reports its lifecycle events here; the
verifier enforces the lease state machine and keeps leak ledgers:

- **Lease legality** — acquire → dispatch* → release.  Dispatching
  without the live lease, releasing a lease twice, or a second lease
  appearing while one is live on the same runtime raise
  :class:`~repro.exceptions.ProtocolError` at the violation site.
- **Leak ledgers** — every ``/dev/shm`` segment, worker pool and lease
  is recorded on creation and crossed off on release;
  :meth:`LeaseProtocolVerifier.assert_clean` fails if anything is
  outstanding (the pytest session gate under ``REPRO_CHECKS=1``).
- **Lock discipline** — runtime lease-lock holds are timed, and
  acquiring the registry lock while holding a runtime lock raises
  (the fabric's lock order is registry → runtime; the reverse is a
  deadlock waiting for contention).
- **Recovery legality** — a pool respawn, a phase retry or a degraded
  phase is legal only under the live lease.  The verifier checks them
  and does not count them: each is counted once, in the lease's
  ``fault_events``.

The verifier observes the *master* process only: worker-side segment
attachments are guarded by their own atexit detach hooks.
Master-process overhead when disabled is one ``is None`` test per
event.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time

from ..exceptions import ProtocolError

_ENV_FLAG = "REPRO_CHECKS"


def enabled() -> bool:
    """Whether ``REPRO_CHECKS=1`` opts the process in."""
    return os.environ.get(_ENV_FLAG, "") == "1"


@dataclasses.dataclass
class LockHold:
    """One completed runtime lease-lock hold (the contention ledger)."""

    name: str
    key: int
    held_seconds: float


class _ThreadHeldLocks(threading.local):
    """Per-thread stack of held lock names (the ordering assertion)."""

    def __init__(self) -> None:
        self.stack: list[tuple[str, int]] = []


class LeaseProtocolVerifier:
    """State machine + ledgers for the runtime lease protocol.

    Thread-safe: every transition runs under one internal mutex, so
    ledgers stay consistent when fits lease from a thread pool.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        #: segment name -> creation timestamp.
        self.segments: dict[str, float] = {}
        #: pool key -> creation timestamp.
        self.pools: dict[int, float] = {}
        #: runtime key -> {"lease": lease key, "since": t, "dispatches": n}.
        self.leases: dict[int, dict] = {}
        #: (lock name, key) -> (thread id, acquire timestamp).
        self.held_locks: dict[tuple[str, int], tuple[int, float]] = {}
        #: Completed holds, for hold-time assertions in tests/benchmarks.
        self.lock_holds: list[LockHold] = []
        self._thread_held = _ThreadHeldLocks()

    # -- segments ------------------------------------------------------
    def segment_created(self, name: str) -> None:
        with self._mutex:
            if name in self.segments:
                raise ProtocolError(
                    f"segment {name!r} created twice without release")
            self.segments[name] = time.monotonic()

    def segment_released(self, name: str) -> None:
        with self._mutex:
            if name not in self.segments:
                raise ProtocolError(
                    f"segment {name!r} released twice (or never created)")
            del self.segments[name]

    # -- pools ---------------------------------------------------------
    def pool_spawned(self, key: int) -> None:
        with self._mutex:
            self.pools[key] = time.monotonic()

    def pool_shutdown(self, key: int) -> None:
        with self._mutex:
            if key not in self.pools:
                raise ProtocolError(
                    f"pool {key} shut down twice (or never spawned)")
            del self.pools[key]

    def pool_respawned(self, old_key: int, new_key: int) -> None:
        """A dead/hung pool was replaced: cross the old one off the
        ledger and record its replacement atomically (respawn is a
        single recovery event, not an unmatched shutdown + spawn)."""
        with self._mutex:
            if old_key not in self.pools:
                raise ProtocolError(
                    f"pool {old_key} respawned but was never spawned "
                    f"(or already shut down)")
            del self.pools[old_key]
            self.pools[new_key] = time.monotonic()

    # -- leases --------------------------------------------------------
    def lease_acquired(self, runtime_key: int, lease_key: int) -> None:
        with self._mutex:
            live = self.leases.get(runtime_key)
            if live is not None:
                raise ProtocolError(
                    f"runtime {runtime_key} handed out a second lease "
                    f"while one is live (leases are exclusive)")
            self.leases[runtime_key] = {
                "lease": lease_key,
                "since": time.monotonic(),
                "dispatches": 0,
            }

    def lease_dispatch(self, runtime_key: int, lease_key: int) -> None:
        with self._mutex:
            self._live_lease(runtime_key, lease_key,
                             "phase dispatched")["dispatches"] += 1

    def _live_lease(self, runtime_key: int, lease_key: int,
                    event: str) -> dict:
        """The live lease entry, or a :class:`ProtocolError` — dispatch
        and recovery events are only legal while the fit holds the
        lease."""
        live = self.leases.get(runtime_key)
        if live is None:
            raise ProtocolError(
                f"{event} on runtime {runtime_key} with no live lease")
        if live["lease"] != lease_key:
            raise ProtocolError(
                f"{event} on runtime {runtime_key} by a stale lease "
                f"(not the current holder)")
        return live

    def phase_retry(self, runtime_key: int, lease_key: int) -> None:
        """A failed phase dispatch is being re-tried under a respawned
        pool (legal only under the live lease)."""
        with self._mutex:
            self._live_lease(runtime_key, lease_key, "phase retry")

    def phase_degraded(self, runtime_key: int, lease_key: int,
                       shard: int) -> None:
        """A shard's phase degraded to the master's serial path after
        the retry budget (legal only under the live lease)."""
        with self._mutex:
            self._live_lease(runtime_key, lease_key,
                             f"degraded shard {shard} phase")

    def lease_released(self, runtime_key: int) -> None:
        with self._mutex:
            if runtime_key not in self.leases:
                raise ProtocolError(
                    f"lease on runtime {runtime_key} released twice "
                    f"(or never acquired)")
            del self.leases[runtime_key]

    # -- locks ---------------------------------------------------------
    def lock_acquired(self, name: str, key: int) -> None:
        stack = self._thread_held.stack
        if name == "registry" and any(n == "runtime" for n, _ in stack):
            raise ProtocolError(
                "registry lock acquired while holding a runtime lock; "
                "the lock order is registry -> runtime")
        stack.append((name, key))
        with self._mutex:
            self.held_locks[(name, key)] = (
                threading.get_ident(), time.monotonic())

    def lock_released(self, name: str, key: int) -> None:
        stack = self._thread_held.stack
        if (name, key) in stack:
            stack.remove((name, key))
        with self._mutex:
            held = self.held_locks.pop((name, key), None)
            if held is not None:
                self.lock_holds.append(LockHold(
                    name=name, key=key,
                    held_seconds=time.monotonic() - held[1]))

    def registry_checkpoint(self) -> None:
        """Ordering assertion for the registry-lock acquisition path
        (the registry uses ``with``-scoped locks, so only the order is
        checked, not the hold)."""
        if any(n == "runtime" for n, _ in self._thread_held.stack):
            raise ProtocolError(
                "registry lock acquired while holding a runtime lock; "
                "the lock order is registry -> runtime")

    # -- reporting -----------------------------------------------------
    def outstanding(self) -> dict:
        """Snapshot of everything still live (the leak ledgers)."""
        with self._mutex:
            return {
                "segments": sorted(self.segments),
                "pools": sorted(self.pools),
                "leases": sorted(self.leases),
                "locks": sorted(self.held_locks),
            }

    def max_lock_hold(self) -> float:
        """Longest completed runtime-lock hold in seconds."""
        with self._mutex:
            return max((h.held_seconds for h in self.lock_holds),
                       default=0.0)

    def report(self) -> str:
        out = self.outstanding()
        lines = [f"lease-protocol ledger: "
                 f"{len(out['segments'])} segments, "
                 f"{len(out['pools'])} pools, "
                 f"{len(out['leases'])} leases, "
                 f"{len(out['locks'])} locks outstanding"]
        for kind in ("segments", "pools", "leases", "locks"):
            for item in out[kind]:
                lines.append(f"  leaked {kind[:-1]}: {item}")
        return "\n".join(lines)

    def assert_clean(self) -> None:
        """Raise :class:`ProtocolError` unless every ledger is empty."""
        out = self.outstanding()
        if any(out.values()):
            raise ProtocolError(self.report())


_VERIFIER: LeaseProtocolVerifier | None = None
_VERIFIER_LOCK = threading.Lock()


def get_verifier() -> LeaseProtocolVerifier | None:
    """The process-wide verifier, or ``None`` unless ``REPRO_CHECKS=1``."""
    global _VERIFIER
    if not enabled():
        return None
    with _VERIFIER_LOCK:
        if _VERIFIER is None:
            _VERIFIER = LeaseProtocolVerifier()
        return _VERIFIER
