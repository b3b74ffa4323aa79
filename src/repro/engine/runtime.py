"""Warm shard layouts that outlive fits: the in-process session and the
persistent process runtime.

Process-parallel EM has a fixed cost per runtime: spawn one worker
process per slot, allocate three ``/dev/shm`` segments, copy the
task-sorted answer arrays in.  The workloads this repo reproduces are
*repeated-fit* workloads — method sweeps over one dataset, streaming
refits over a growing answer set, redundancy grids — so paying that on
every fit would dominate once the EM itself is warm-started and fast.
This module makes the expensive parts persistent:

* :class:`ShardRuntime` — owns the shared-memory answer segments and
  the pinned worker processes *across* fits.  A fit acquires a
  :class:`RuntimeLease` (``with runtime.lease(answers, method, …) as
  runner``), which places or reuses the data and sends the workers a
  cheap per-method **spec reset message** instead of tearing the
  workers down.  A sweep of five methods or a stream of fifty refits
  spawns processes exactly once.
* **Incremental segment append** — when a lease presents answers that
  *extend* the currently placed data (same ``stream_key``, more
  answers), only the new tail is sorted and appended to the existing
  segments as a new *epoch*; workers fold the epoch into their shard
  views ("extend your shard view") instead of rebuilding from scratch.
  A placement reserves segment capacity for twice the answers it
  places, the most a layout may grow before it is re-placed
  (:func:`~repro.engine.placement.cuts_hold`), so an extend never
  reallocates or re-attaches.  When a lease reuses, extends or
  re-places is decided by :mod:`repro.engine.placement`, the one
  placement layer every tier shares.
* :class:`RuntimeRegistry` — a process-wide pool of runtimes keyed by
  ``(n_shards, max_workers)`` with idle-TTL eviction, so independent
  call sites (``fit(policy=...)``,
  :class:`~repro.engine.engine.InferenceEngine`,
  :class:`~repro.engine.batch.BatchRunner`, the CLI) share warm
  workers instead of each spawning their own.

Transport
---------
Each pool slot is one pinned worker process behind a duplex
``multiprocessing`` pipe.  A phase costs **one message per slot**, not
one per shard: the slot's shards with their per-shard arguments, the
``shared`` arguments once, and one reply list back.  A worker owes at
most one reply: the master reads it before it sends the worker another
request, so the sync messages (attach / place / extend / configure)
always apply before the phases that depend on them.  Replies are
awaited under the lease's :class:`~repro.core.policy.FaultPolicy`
deadline through a poll registration kept for the worker's lifetime
(the pipe plus the process sentinel), so a bounded wait costs what an
unbounded one does.
A slot whose reply timed out, or whose worker died, is killed and
replaced by a fresh worker on a fresh pipe before it is used again: a
late reply is never read as the next phase's.  A phase that raises in
the worker is re-raised on the master with its type and message, and
the worker keeps serving.

Shard hosts
-----------
A worker keeps its copy of the placed layout in one
:class:`~repro.engine.placement._ShardHost`: the shard arrays, sliced
from the attached segments on first use; the shards over them; and
the EM specs kept between fits, one per method construction.  A fresh
worker is rebuilt by a ledger: attach the live segments, place the
master's layout, configure the lease's spec, then replay the lease's
log of the phases that wrote per-shard state (the spec's
``stateful_phases``).  A slot degraded past the retry budget runs its
phases on a master-side host synced from that same ledger over the
live segment views, so a degraded phase runs the worker's own code on
the same bytes and stays bit-identical.  The in-process tiers keep
their shards and specs in the same host class.

The shared-memory resource tracker is started before any worker is
forked.  A worker forked before the tracker exists starts a tracker of
its own on its first attach, and that tracker reports the master's
segments as leaked when the worker exits.

Lease / eviction contract
-------------------------
A lease grants **exclusive** use of the runtime: ``lease()`` takes an
internal lock that is released by :meth:`RuntimeLease.close` (or the
``with`` block).  Concurrent fits from different threads serialise on
the lock — each fit is internally parallel over the workers, so this
is the intended schedule, not a bottleneck.  Taking a second lease
from the thread that already holds one deadlocks; don't nest.
Closing the runtime from that thread does not wait: it tears the
runtime down and closes the lease with it.

If a fit raises mid-EM while holding a lease, the lease's ``__exit__``
**resets** the runtime — workers are stopped (a busy one is killed)
and segments unlinked — because in-flight worker state can no longer
be trusted.  The runtime object stays usable: the next ``lease()``
respawns lazily.  This is what makes the exception path leak-free: an
abandoned half-fit never strands ``/dev/shm`` segments or child
processes.

Runtimes obtained from a :class:`RuntimeRegistry` are closed by (a) an
explicit ``close()`` from any holder — safe, the registry re-creates on
next acquire, (b) idle-TTL eviction, checked lazily on each acquire,
and (c) the registry's ``atexit`` hook, so a interpreter never exits
with live workers.  Closing is idempotent.

A one-shot fit on a private runtime is a :class:`ShardRuntime` plus
one lease, closed together (``with ShardRuntime(...) as runtime,
runtime.lease(...) as runner``).  Sweeps and streams lease from the
registry, directly or through ``fit(policy=...)`` and the engine.

The in-process serial/thread tiers use no workers and no shared memory,
but the engine's delta refits on them keep a warm layout too:
:class:`SerialShardSession` is this module's in-process analogue of a
runtime, the same placement and host in the calling process.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import select
import threading
import time
import traceback
from multiprocessing import resource_tracker, shared_memory
from multiprocessing.reduction import ForkingPickler
from typing import Mapping, Sequence

import numpy as np

from .. import faults as _faults
from ..checks.protocol import get_verifier as _get_protocol_verifier
from ..core.answers import AnswerSet
from ..exceptions import (
    EngineError,
    PhaseTimeoutError,
    ProtocolError,
    WorkerCrashError,
    WorkerReplyError,
)
from ..core.policy import (
    ExecutionPlan,
    FaultPolicy,
    MethodSpec,
    resolve_process_workers,
)
from ..core.registry import method_class
from ..core.result import FAULT_EVENTS
from ..core.shards import AnswerShard, ShardedAnswerSet
from ..inference.sharded import SerialShardRunner
from .placement import FIELDS, Placement, _ShardHost

__all__ = [
    "SerialShardSession",
    "ShardRuntime",
    "RuntimeLease",
    "RuntimeRegistry",
    "get_runtime_registry",
]

#: Default idle TTL (seconds) for registry eviction.
DEFAULT_IDLE_TTL = 300.0

#: Seconds a stopped worker gets to exit before it is killed.
STOP_GRACE = 5.0


class _WorkerLost(WorkerCrashError):
    """A pinned worker died or its pipe tore; the slot needs a respawn."""


#: Failures a dispatch round recovers from: the worker was lost (died,
#: pipe torn) or the phase blew its deadline (hung worker).
_DISPATCH_FAILURES = (_WorkerLost, TimeoutError)

#: Lease-protocol verifier (None unless ``REPRO_CHECKS=1``): the
#: master-side hooks below report segment/pool/lease lifecycle events
#: to :mod:`repro.checks.protocol`.  Disabled cost is one ``is None``
#: test per event.
_VERIFIER = _get_protocol_verifier()


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------
# A worker answers one request before the master sends the next, so the
# master's sync messages (attach / place / extend / configure / replay)
# are always applied before the phases that depend on them — no
# worker-side locking is needed.

#: This worker's shared-memory attachments (field -> SharedMemory).
_SEGMENTS: dict = {}

#: This worker's copy of the placed layout, over views of ``_SEGMENTS``.
_HOST = _ShardHost()


def _worker_detach() -> None:
    """Release every shared-memory attachment held by this worker.

    Registered ``atexit`` on first attach, so the resource tracker
    reports no ``leaked shared_memory``: the host's arrays, shards and
    specs and the numpy views are dropped first, so
    ``SharedMemory.close()`` does not trip over exported buffers during
    interpreter teardown.
    """
    _HOST.place(None)
    _HOST.views.clear()
    for shm in _SEGMENTS.values():
        try:
            shm.close()
        except BufferError:  # a stray view survived; the OS cleans up
            pass
    _SEGMENTS.clear()


def _apply_attach(seg_desc: dict) -> None:
    """(Re-)attach the answer segments named in ``seg_desc``.

    ``seg_desc`` maps field -> (shm_name, dtype_str, capacity).  Stale
    attachments (renamed segments after a capacity reallocation) are
    closed; a full placement always follows, which drops the host's
    arrays and specs built over them.
    """
    if not _SEGMENTS:
        atexit.register(_worker_detach)
    views = _HOST.views
    for field, (name, dtype, capacity) in seg_desc.items():
        old = _SEGMENTS.get(field)
        if old is not None and old.name.lstrip("/") == name.lstrip("/"):
            continue
        if old is not None:
            views.pop(field, None)
            try:
                old.close()
            except BufferError:
                pass
        shm = _SEGMENTS[field] = shared_memory.SharedMemory(name=name)
        views[field] = np.ndarray((capacity,), dtype=np.dtype(dtype),
                                  buffer=shm.buf)


def _rt_sync(ops: Sequence[tuple]) -> int:
    """Apply a batch of sync operations in order — ``attach``, or a
    :class:`~repro.engine.placement._ShardHost` method by name — and
    return the worker pid (handy for asserting pool reuse in tests)."""
    for name, args in ops:
        if name == "attach":
            _apply_attach(*args)
        else:
            getattr(_HOST, name)(*args)
    return os.getpid()


def _materialize_shard(k: int) -> AnswerShard:
    """This worker's view of shard ``k``."""
    return _HOST.shard(k)


def _rt_phase(phase: str, items: Sequence[tuple], shared: tuple,
              delay: float) -> list:
    """One phase over a slot's ``(shard, args)`` items, with ``shared``
    appended to every shard's arguments; the results in item order.

    ``delay`` is the ``delay`` fault: the seconds the armed fault plan
    stalls this slot's phase, slept before it runs, so the reply
    arrives late (past the lease's deadline if the delay is long
    enough).  It is 0 unless a plan is armed.
    """
    if delay:
        time.sleep(delay)
    return [_HOST.run(k, phase, args + shared) for k, args in items]


def _rt_probe() -> dict:
    """Worker-side introspection for tests: what survived the last
    configure (send it through a runtime worker's ``call``)."""
    spec = _HOST.spec
    return {
        "pid": os.getpid(),
        "spec_reuses": _HOST.spec_reuses,
        "cached_ops": sorted(spec._ops) if spec is not None else [],
    }


class _RemoteTraceback(Exception):
    """The worker-side traceback, chained as the ``__cause__`` of a
    phase exception re-raised on the master."""

    def __str__(self) -> str:
        return "\n" + self.args[0]


def _serve(conn) -> None:
    """A pinned worker's loop.

    Reads ``(fn, args)`` requests off the pipe in FIFO order and answers
    each with exactly one ``(ok, value, seconds)`` reply: the call's
    result, or the exception it raised with its formatted traceback,
    plus the seconds the call took here.  A reply that will not pickle,
    or an exception that will not unpickle again, is replaced by a
    :class:`~repro.exceptions.WorkerReplyError` naming it, so the
    worker keeps serving and the pipe stays in step.  ``None`` (or the
    master hanging up) ends the loop.
    """
    while True:
        try:
            request = ForkingPickler.loads(conn.recv_bytes())
        except EOFError:
            return
        if request is None:
            return
        fn, args = request
        started = time.perf_counter()
        try:
            ok, value = True, fn(*args)
        # checks: allow-broad-except(shipped to the master to re-raise)
        except Exception as exc:
            ok, value = False, (exc, traceback.format_exc())
        seconds = time.perf_counter() - started
        try:
            payload = ForkingPickler.dumps((ok, value, seconds))
            if not ok:
                ForkingPickler.loads(payload)
        # checks: allow-broad-except(sent on as a WorkerReplyError)
        except Exception as exc:
            culprit = value if ok else value[0]
            described = (type(culprit).__name__ if ok
                         else f"{type(culprit).__name__}: {culprit}")
            error = WorkerReplyError(
                f"a worker {'result' if ok else 'exception'} cannot "
                f"cross the pipe ({described}; {type(exc).__name__}: "
                f"{exc})")
            payload = ForkingPickler.dumps(
                (False, (error, traceback.format_exc()), seconds))
        conn.send_bytes(payload)


# ----------------------------------------------------------------------
# In-process tier: the serial/thread analogue of worker retention
# ----------------------------------------------------------------------
class SerialShardSession(Placement):
    """Warm in-process shard layout + spec caches for delta refits.

    What :class:`ShardRuntime` keeps warm in worker processes, this
    keeps warm in the calling process for the serial/thread tiers: the
    per-shard answer arrays and the methods'
    :class:`~repro.inference.sharded.ShardedEMSpec`\\ s (with their
    per-shard frozen operators), in the same
    :class:`~repro.engine.placement._ShardHost` a worker keeps them in.
    A refit on a grown stream sorts and slices only the new answer
    tail, concatenates it onto the shards it touches, and drops exactly
    those shards' cached operators — so a delta refit's per-fit setup
    cost scales with the delta, like its EM.

    When to reuse, extend, re-place or adopt is decided by
    :class:`~repro.engine.placement.Placement`, the one placement layer
    every tier shares.

    With a :class:`~repro.store.spill.ShardSpill` attached, shards
    that sat untouched past the spill TTL swap their resident arrays
    for memory-mapped copies (:meth:`spill_idle`) and page back in on
    demand; an extension re-materialises the shards it touches.
    """

    def __init__(self, n_shards: int, *, spill=None) -> None:
        super().__init__(n_shards)
        self._host = _ShardHost()
        self._spill = spill
        self._spill_tag = f"s{self.n_shards}"
        self._spilled: set[int] = set()
        self._touched: list[float] = []

    @property
    def spec_reuses(self) -> int:
        """Fits that reused a kept spec (monotonically increasing)."""
        return self._host.spec_reuses

    # -- storage ---------------------------------------------------------
    def _store_placed(self, sharded: ShardedAnswerSet) -> None:
        self._host.place(self._layout.copy(),
                         [(s.tasks, s.workers, s.values)
                          for s in sharded.shards])
        self._unspill_all()
        self._touched = [time.monotonic()] * len(sharded.shards)

    def _store_tail(self, tail: list) -> None:
        epoch = self._layout.epochs[-1]
        self._host.extend(epoch, self._layout.sizes, tail)
        for k, (lo, hi) in enumerate(epoch[2]):
            if hi > lo:
                # A shard receiving answers is hot again: the extend
                # re-materialised it in RAM, so drop its spill files
                # and refresh its touch time.
                self._unspill(k)
                self._touched[k] = time.monotonic()

    # -- runners ---------------------------------------------------------
    def runner(self, answers: AnswerSet, instance, *, stream_key=None,
               pool=None) -> SerialShardRunner:
        """A :class:`~repro.inference.sharded.SerialShardRunner` over
        the warm layout (placed, extended or reused for ``answers``),
        with the method's EM spec kept across fits."""
        self._refresh(answers, stream_key)
        host = self._host
        spec = host.configure(instance.method_spec, instance.make_em_spec)
        return SerialShardRunner(
            spec, [host.shard(k) for k in range(host.n_shards)], pool=pool)

    # -- cold-shard spill ----------------------------------------------
    @property
    def spilled(self) -> set[int]:
        """Indices of shards currently backed by spill files."""
        return set(self._spilled)

    def _unspill(self, k: int) -> None:
        if k in self._spilled:
            self._spilled.discard(k)
            if self._spill is not None:
                self._spill.discard(self._spill_tag, k)

    def _unspill_all(self) -> None:
        for k in list(self._spilled):
            self._unspill(k)

    def spill_idle(self, *, now: float | None = None,
                   ttl: float | None = None) -> int:
        """Spill shards untouched for ``ttl`` seconds; returns how many.

        A spilled shard's arrays become read-only memory-maps of the
        same bytes — every existing :class:`AnswerShard` view and the
        next :meth:`runner` read them transparently, paged in on
        demand.  No-op without an attached
        :class:`~repro.store.spill.ShardSpill`.
        """
        if self._spill is None:
            return 0
        now = time.monotonic() if now is None else now
        ttl = self._spill.ttl if ttl is None else ttl
        count = 0
        for k, touched in enumerate(self._touched):
            if k in self._spilled or now - touched < ttl:
                continue
            self._host.swap(k, self._spill.spill(
                self._spill_tag, k, self._host.arrays[k]))
            self._spilled.add(k)
            count += 1
        return count


# ----------------------------------------------------------------------
# Master side
# ----------------------------------------------------------------------
class _PinnedWorker:
    """One pool slot: a worker process serving :func:`_serve` behind a
    duplex pipe.

    :meth:`send` pickles a ``(fn, args)`` request onto the pipe and
    :meth:`result` reads its reply.  A worker owes at most one reply:
    a second :meth:`send` before :meth:`result` raises
    :class:`~repro.exceptions.ProtocolError`.  Every message's pickled
    size and every reply's worker-side seconds are added to ``tally``,
    the current lease's transport counters.  A worker whose reply timed
    out, or whose pipe or process died, is ``lost``: it is never read
    again, and the runtime replaces it before the slot serves another
    request.
    """

    def __init__(self, tally: dict) -> None:
        # Forking before the tracker exists would give the worker a
        # tracker of its own (see the module docstring).
        resource_tracker.ensure_running()
        ctx = multiprocessing.get_context()
        self._conn, child = ctx.Pipe()
        self.process = ctx.Process(target=_serve, args=(child,),
                                   daemon=True)
        try:
            self.process.start()
        except BaseException:
            self._conn.close()
            raise
        finally:
            child.close()
        self._fd = self._conn.fileno()
        # Registered once for the worker's lifetime: a deadline-bounded
        # wait then costs one poll, like an unbounded one.  The process
        # sentinel makes a death visible even while another process
        # still holds a copy of the child's end of the pipe.
        self._poller = select.poll()
        self._poller.register(self._fd, select.POLLIN)
        self._poller.register(self.process.sentinel, select.POLLIN)
        self.tally = tally
        self.owed = False
        self.lost = False

    @property
    def pid(self) -> int | None:
        return self.process.pid

    def send(self, fn, *args) -> None:
        """Send ``fn(*args)`` to the worker, which must owe no reply."""
        if self.lost:
            raise _WorkerLost(f"worker {self.pid} is lost")
        if self.owed:
            raise ProtocolError(
                f"worker {self.pid} still owes the reply to its last "
                f"request")
        payload = ForkingPickler.dumps((fn, args))
        try:
            self._conn.send_bytes(payload)
        except BaseException as exc:
            # A torn pipe, or an interrupt mid-message: either way the
            # framing can no longer be trusted.
            self.lost = True
            if isinstance(exc, OSError):
                raise _WorkerLost(f"worker {self.pid} hung up") from exc
            raise
        self.owed = True
        tally = self.tally
        tally["messages"] += 1
        tally["bytes_out"] += len(payload)

    def result(self, timeout: float | None):
        """The owed reply's result, read within ``timeout`` seconds
        (``None``: unbounded).  Raises the worker-side exception,
        :class:`TimeoutError` or :class:`_WorkerLost`."""
        if self.lost:
            raise _WorkerLost(f"worker {self.pid} is lost")
        ready = self._poller.poll(None if timeout is None
                                  else timeout * 1e3)
        if not ready:
            self.lost = True
            raise TimeoutError(f"worker {self.pid} missed its deadline")
        if len(ready) == 1 and ready[0][0] != self._fd:
            # Only the sentinel fired: the process is gone.
            self.lost = True
            raise _WorkerLost(f"worker {self.pid} exited")
        try:
            payload = self._conn.recv_bytes()
        except BaseException as exc:
            self.lost = True  # as in send: the framing is gone
            if isinstance(exc, (EOFError, OSError)):
                raise _WorkerLost(f"worker {self.pid} died") from exc
            raise
        self.owed = False
        try:
            ok, value, seconds = ForkingPickler.loads(payload)
        except Exception as exc:
            raise WorkerReplyError(
                f"a worker reply cannot be unpickled on the master "
                f"({type(exc).__name__}: {exc})") from exc
        tally = self.tally
        tally["bytes_in"] += len(payload)
        tally["worker_seconds"] += seconds
        if ok:
            return value
        error, remote = value
        raise error from _RemoteTraceback(remote)

    def call(self, fn, *args, timeout: float | None = None):
        """One round trip: :meth:`send`, then :meth:`result`."""
        self.send(fn, *args)
        return self.result(timeout)

    def kill(self) -> None:
        """SIGKILL the worker (dead or hung: a stuck worker cannot be
        joined, only killed); the slot is lost."""
        self.lost = True
        self.process.kill()

    def close(self) -> None:
        """Stop and reap the worker, then close the pipe.  An idle
        worker is asked to exit; a lost or busy one is killed, since
        neither its state nor its unread replies are of use."""
        if not self.lost and not self.owed:
            try:
                self._conn.send_bytes(ForkingPickler.dumps(None))
            except OSError:
                pass
            self.process.join(STOP_GRACE)
        if self.process.exitcode is None:
            self.kill()
            self.process.join()
        self._conn.close()
        self.process.close()


class _Segment:
    """One master-owned shared-memory block with element capacity."""

    __slots__ = ("shm", "dtype", "capacity", "view")

    def __init__(self, dtype: np.dtype, capacity: int) -> None:
        capacity = max(int(capacity), 1)
        self.shm = shared_memory.SharedMemory(
            create=True, size=max(capacity * dtype.itemsize, 1))
        self.dtype = dtype
        self.capacity = capacity
        self.view = np.ndarray((capacity,), dtype=dtype, buffer=self.shm.buf)
        if _VERIFIER is not None:
            _VERIFIER.segment_created(self.shm.name)

    @property
    def name(self) -> str:
        return self.shm.name

    def release(self) -> None:
        if _VERIFIER is not None:
            _VERIFIER.segment_released(self.shm.name)
        self.view = None
        try:
            self.shm.close()
            self.shm.unlink()
        except FileNotFoundError:  # already unlinked elsewhere
            pass


class RuntimeLease(SerialShardRunner):
    """Exclusive, short-lived handle on a :class:`ShardRuntime` for one
    fit — the object methods receive as ``shard_runner``.

    Exposes the :class:`~repro.inference.sharded.SerialShardRunner`
    surface (``spec`` / ``call`` / ``m_step`` / ``task_ranges``) but
    dispatches phases to the runtime's pinned workers, and holds what
    lives for one fit: the :class:`~repro.core.policy.FaultPolicy` it
    recovers under, the fault-event and transport tallies, the log of
    the phases that wrote per-shard state, and the slots degraded to
    the master with the master-side shard host their phases run on.
    ``close()`` releases the runtime for the next fit; exiting the
    ``with`` block on an exception additionally resets the runtime (see
    module docstring).
    """

    def __init__(self, runtime: "ShardRuntime", spec,
                 task_ranges: Sequence[tuple[int, int]], *,
                 fault_policy: FaultPolicy, fault_events: dict,
                 ipc: dict) -> None:
        super().__init__(spec, shards=())
        self._runtime = runtime
        self._ranges = [tuple(r) for r in task_ranges]
        self._released = False
        self._dispatched = False
        #: The leasing thread, whose close of the runtime cannot wait.
        self._thread = threading.get_ident()
        #: The :class:`~repro.core.policy.FaultPolicy` this lease's
        #: dispatches recover under.
        self.fault_policy = fault_policy
        #: Per-lease fault-recovery counters — the one count of every
        #: respawn, retry, crash, timeout and degraded phase — folded
        #: into ``FitStats`` by the drivers.
        self.fault_events = fault_events
        #: Per-lease transport counters measured on the pipes (messages,
        #: bytes_out, bytes_in, worker_seconds), the lease's sync
        #: included; folded into ``FitStats.ipc`` the same way.
        self.ipc = ipc
        #: ``(shard, phase, args)`` of every dispatched phase in
        #: ``spec.stateful_phases``, in dispatch order: replayed into a
        #: respawned worker and onto a degraded slot's master-side host.
        self._phase_log: list[tuple] = []
        #: Pool slots whose shards run on the master for the rest of
        #: the lease, and the host they run on.
        self._degraded: set[int] = set()
        self._host: _ShardHost | None = None

    # The lease has no master-side shard views; everything that
    # SerialShardRunner derives from ``shards`` is overridden here.
    @property
    def n_shards(self) -> int:  # type: ignore[override]
        return len(self._ranges)

    @property
    def task_ranges(self) -> list[tuple[int, int]]:  # type: ignore[override]
        return list(self._ranges)

    def call(self, phase: str, per_shard=None, shared: tuple = (),
             only=None) -> list:
        if self._released:
            raise ProtocolError("lease already closed")
        if _VERIFIER is not None:
            _VERIFIER.lease_dispatch(id(self._runtime), id(self))
        self._dispatched = True
        started = time.perf_counter()
        indices = (list(only) if only is not None
                   else list(range(self.n_shards)))
        args_of: dict[int, tuple] = {}
        for pos, k in enumerate(indices):
            args: tuple = ()
            if per_shard is not None:
                entry = per_shard[pos]
                args = entry if isinstance(entry, tuple) else (entry,)
            args_of[k] = args
        results = self._dispatch(phase, args_of, shared)
        if phase in self.spec.stateful_phases:
            self._phase_log += [(k, phase, args_of[k] + shared)
                                for k in indices]
        self._clock(phase, started)
        return [results[k] for k in indices]

    def close(self) -> None:
        """Release the runtime for the next lease (idempotent)."""
        if self._released:
            return
        self._released = True
        self._host = None
        self._runtime._release_lease()

    def __enter__(self) -> "RuntimeLease":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        if exc_type is not None and not self._released and self._dispatched:
            # In-flight worker state is suspect after a mid-fit
            # exception: tear workers and segments down before releasing
            # so nothing leaks.  The runtime respawns on next lease.
            # Exceptions raised *before* any phase was dispatched
            # (master-side validation, a bad warm-start shape) never
            # touched the workers, so the warm state survives them.
            self._host = None  # it views the segments torn down next
            self._runtime._teardown()
        self.close()

    # -- dispatch --------------------------------------------------------
    def _dispatch(self, phase: str, args_of: dict, shared: tuple) -> dict:
        """Run ``phase`` on the shards keyed in ``args_of``, one message
        per slot (a slot with none of them gets no message or wake-up
        at all), and return the results by shard.

        Self-healing: reply waits are deadline-bounded, a lost or hung
        worker is respawned (replaying the message ledger over the
        still-live segments) and only the failed shards' phases are
        re-dispatched, with capped-backoff retries between attempts.
        Once the retry budget is spent the orphaned slots degrade to
        the master for the rest of the lease — or the failure is
        raised, per the lease's :class:`FaultPolicy`.
        """
        runtime = self._runtime
        width = runtime.max_workers
        policy = self.fault_policy
        events = self.fault_events
        results: dict[int, object] = {}
        pending = []
        for k in args_of:
            if k % width in self._degraded:
                results[k] = self._run_degraded(k, phase, args_of[k] + shared)
            else:
                pending.append(k)
        backoff = _faults.Backoff(policy.backoff_base, policy.backoff_cap)
        attempt = 0
        while pending:
            failed = self._round(pending, phase, args_of, shared, results)
            if not failed:
                break
            if attempt >= policy.retries:
                if not policy.degrade:
                    if events["timeouts"]:
                        raise PhaseTimeoutError(
                            f"phase {phase!r} timed out on shards "
                            f"{failed} after {policy.retries} retries "
                            f"(deadline {policy.deadline}s; degrade "
                            f"disabled)")
                    raise WorkerCrashError(
                        f"phase {phase!r} lost its workers on shards "
                        f"{failed} after {policy.retries} retries "
                        f"(degrade disabled)")
                for k in failed:
                    if k % width not in self._degraded:
                        self._degrade(k % width)
                    results[k] = self._run_degraded(k, phase,
                                                    args_of[k] + shared)
                break
            attempt += 1
            events["retries"] += len(failed)
            if _VERIFIER is not None:
                _VERIFIER.phase_retry(id(runtime), id(self))
            for slot in sorted({k % width for k in failed}):
                runtime._respawn_slot(slot, events, policy.deadline,
                                      self._slot_log(slot))
            backoff.sleep(attempt - 1)
            pending = failed
        return results

    def _round(self, indices: list, phase: str, args_of: dict,
               shared: tuple, results: dict) -> list:
        """One send-and-collect pass; returns the failed shards.

        Each slot gets one message carrying its shards' per-shard
        arguments and ``shared`` once, and sends back one reply list.
        The armed fault plan (if any) is still consulted per shard, in
        shard order, before any phase message goes out — ``kill``
        SIGKILLs the shard's worker, ``delay`` adds its seconds to the
        stall the slot's message asks the worker for.  A slot that
        fails fails all of its shards.  Every sent slot's reply is read
        before a phase exception raised on a worker is re-raised, so
        no worker is left owing one.
        """
        workers = self._runtime._workers
        width = len(workers)
        events = self.fault_events
        by_slot: dict[int, list[int]] = {}
        for k in indices:
            by_slot.setdefault(k % width, []).append(k)
        delays: dict[int, float] = {}
        plan = _faults.get_plan()
        if plan is not None:
            for k in indices:
                action = plan.on_dispatch(k, phase)
                if action is None:
                    continue
                if action[0] == "kill":
                    workers[k % width].kill()
                else:
                    delays[k % width] = delays.get(k % width, 0.0) + action[1]
        failed: list[int] = []
        sent: list[int] = []
        for slot, shards in by_slot.items():
            try:
                workers[slot].send(_rt_phase, phase,
                                   [(k, args_of[k]) for k in shards], shared,
                                   delays.get(slot, 0.0))
                sent.append(slot)
            except _WorkerLost:
                events["crashes"] += len(shards)
                failed.extend(shards)
        deadline = self.fault_policy.deadline
        raised = None
        for slot in sent:
            shards = by_slot[slot]
            try:
                results.update(zip(shards, workers[slot].result(deadline)))
            except _WorkerLost:
                events["crashes"] += len(shards)
                failed.extend(shards)
            except TimeoutError:
                events["timeouts"] += len(shards)
                failed.extend(shards)
            # checks: allow-broad-except(re-raised once every reply is read)
            except Exception as exc:
                if raised is None:
                    raised = exc
        if raised is not None:
            raise raised
        return sorted(failed)

    # -- fault recovery ------------------------------------------------
    def _slot_log(self, slot: int) -> list:
        """The phase-log entries of ``slot``'s shards, in order."""
        width = self._runtime.max_workers
        return [entry for entry in self._phase_log
                if entry[0] % width == slot]

    def _master_host(self) -> _ShardHost:
        """The master-side host degraded phases run on, over the live
        segment views: synced on first use from the ledger a respawned
        worker replays, so it builds every shard, and the spec, as a
        worker does."""
        if self._host is None:
            runtime = self._runtime
            self._host = _ShardHost({field: seg.view for field, seg
                                     in runtime._segments.items()})
            for name, args in runtime._ledger():
                getattr(self._host, name)(*args)
        return self._host

    def _degrade(self, slot: int) -> None:
        """Serve ``slot``'s shards on the master for the rest of the
        lease: replay the slot's phase log onto the master-side host,
        then leave a respawned, replayed worker behind for the next
        lease."""
        log = self._slot_log(slot)
        self._master_host().replay(log)
        self._degraded.add(slot)
        self._runtime._respawn_slot(slot, self.fault_events,
                                    self.fault_policy.deadline, log)

    def _run_degraded(self, k: int, phase: str, args: tuple) -> object:
        """Run shard ``k``'s phase on the master-side host."""
        if _VERIFIER is not None:
            _VERIFIER.phase_degraded(id(self._runtime), id(self), k)
        self.fault_events["degraded"] += 1
        return self._master_host().run(k, phase, args)


class ShardRuntime(Placement):
    """Shared-memory segments + pinned worker processes reused across
    fits.

    Parameters
    ----------
    n_shards:
        Upper bound on task-range shards per fit (clamped per dataset
        to its task count by the shard layer).
    max_workers:
        Pool slots, one worker process each; defaults to
        ``min(n_shards, cpu_count)``.  Shard ``k`` is pinned to slot
        ``k % max_workers`` so per-shard worker-side state (operator
        caches, GLAD's match cache) stays in one process.

    Use :meth:`lease` per fit; see the module docstring for the
    contract.  Placement — whether a lease reuses, extends or re-places
    the data — is :class:`~repro.engine.placement.Placement`'s, the one
    placement layer every tier shares; this class stores the layout in
    shared memory and ships each change of it to the workers.
    Instrumentation counters (``pool_spawns`` and the placement
    counters) are monotonically increasing and exist for tests and
    benchmarks.  Fault recovery is counted per lease, in
    :attr:`RuntimeLease.fault_events`, under the lease's own
    :class:`~repro.core.policy.FaultPolicy`: no recovery state
    outlives the lease that set it.  Each worker owes at most one
    reply at a time.
    """

    def __init__(self, n_shards: int = 4,
                 max_workers: int | None = None) -> None:
        super().__init__(n_shards)
        self.max_workers = resolve_process_workers(n_shards, max_workers)
        self._lock = threading.Lock()
        self._workers: list[_PinnedWorker] = []
        self._segments: dict[str, _Segment] = {}
        #: Sync messages the next lease sends: the layout changes the
        #: workers have not seen yet.
        self._pending: list = []
        self._closed = False
        #: The open lease, ``None`` between leases.
        self._lease: RuntimeLease | None = None
        self.last_used = time.monotonic()
        #: The spec-configure ledger entry a respawned worker replays.
        self._configure: MethodSpec | None = None
        # Instrumentation (see class docstring).
        self.pool_spawns = 0

    # -- lifecycle -----------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def segment_names(self) -> list[str]:
        """Names of the live shared-memory segments (for tests)."""
        return [seg.name for seg in self._segments.values()]

    def close(self) -> None:
        """Stop the workers and unlink segments.

        Idempotent: teardown runs exactly once no matter how many of
        explicit ``close()``, registry eviction and the atexit hook
        reach this runtime.  A close from the thread that holds the
        open lease closes that lease too, instead of waiting for it.
        """
        lease = self._lease
        if lease is not None and lease._thread == threading.get_ident():
            lease._host = None  # it views the segments torn down next
            self._teardown()
            self._closed = True
            lease.close()
            return
        with self._lock:
            if self._closed:
                return
            self._teardown()
            self._closed = True

    def close_at_exit(self) -> None:
        """Best-effort close for interpreter shutdown.

        A lease held when the interpreter exits will never be released
        — the lease holder *is* the exiting main thread — so blocking
        on the lease lock the way :meth:`close` does would deadlock the
        shutdown.  Steal the teardown instead: non-daemon threads are
        already joined, and the master only ever waits on a worker
        inside a dispatch on the leasing thread, so no reply can be
        awaited by now (one still owed is left unread: its worker is
        killed).  This hook is registered after ``multiprocessing``'s
        own exit hook, so it runs first, while the daemonic workers
        are still alive to be stopped and joined.  Tearing down here —
        workers first, segments after — detaches every worker before
        the master-side unlink, exactly like a normal close, so a
        shutdown-while-leased exits warning-free.
        """
        locked = self._lock.acquire(blocking=False)
        try:
            if not self._closed:
                self._teardown()
                self._closed = True
        finally:
            if locked:
                self._lock.release()

    def _teardown(self) -> None:
        for worker in self._workers:
            worker.close()
            if _VERIFIER is not None:
                _VERIFIER.pool_shutdown(id(worker))
        self._workers = []
        for seg in self._segments.values():
            seg.release()
        self._segments = {}
        self._forget()
        self._pending = []
        self._configure = None

    def __enter__(self) -> "ShardRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ShardRuntime(n_shards={self.n_shards}, "
                f"max_workers={self.max_workers}, "
                f"closed={self._closed})")

    # -- leasing -------------------------------------------------------
    def lease(self, answers: AnswerSet, method: str | MethodSpec,
              method_kwargs: Mapping | None = None, *,
              stream_key=None, fault_policy: FaultPolicy | None = None
              ) -> RuntimeLease:
        """Acquire exclusive use of the runtime for one fit.

        Parameters
        ----------
        answers:
            The answer set to fit on.  If it is the *same object* as
            the previous lease's, the placed segments are reused as-is;
            if ``stream_key`` matches the previous lease's and the
            answer count grew, only the new tail is appended (see
            module docstring); otherwise the data is placed afresh
            (reusing segment capacity when possible).
        method, method_kwargs:
            A :class:`~repro.core.policy.MethodSpec` — or a registry
            name plus construction kwargs — sent to the workers as the
            per-fit spec reset, and used for the master-side spec.
            Describe the *same* construction you fit with (seed
            included) so master and worker specs cannot diverge.
        stream_key:
            Hashable identity of the *stream* behind ``answers``.
            Passing the same key again asserts the new answers extend
            the previously placed ones element-for-element (append-only
            growth).  Callers must change the key when that stops being
            true (e.g. bump it with the stream's replacement counter).
        fault_policy:
            Recovery knobs (:class:`~repro.core.policy.FaultPolicy`)
            this lease's sync and dispatches run under; ``None`` means
            ``FaultPolicy()``.  Faults are injected by the plan armed
            process-wide (:mod:`repro.faults`).
        """
        method = MethodSpec.coerce(method, method_kwargs)
        instance = method_class(method.name)(**method.kwargs)
        if not instance.supports_sharding:
            raise EngineError(f"{method.name} does not support sharded EM")
        self._lock.acquire()
        if _VERIFIER is not None:
            _VERIFIER.lock_acquired("runtime", id(self))
        try:
            # Checked under the lock: a close() racing ahead of this
            # lease must not be followed by a silent worker respawn on
            # a runtime nothing will ever tear down again.
            if self._closed:
                raise ProtocolError("runtime is closed")
            if fault_policy is None:
                fault_policy = FaultPolicy()
            # The lease's tallies: fault events (the ``FitStats``
            # fields), and the messages, pickled bytes and worker-side
            # seconds of its pipe traffic, this sync's included.
            events = dict.fromkeys(FAULT_EVENTS, 0)
            ipc = {"messages": 0, "bytes_out": 0, "bytes_in": 0,
                   "worker_seconds": 0.0}
            self._ensure_pools(ipc)
            self._refresh(answers, stream_key)
            # Ledger entry first: a worker respawned *during* this sync
            # replays the attach/placement derived from the live layout
            # plus this configure, which together subsume ``ops``.
            self._configure = method
            ops, self._pending = self._pending, []
            self._sync(ops + [("configure", (method,))], events,
                       fault_policy.deadline)
            cuts = self._layout.cuts
            self.last_used = time.monotonic()
            lease = RuntimeLease(
                self, instance.make_em_spec(*self._layout.sizes),
                list(zip(cuts[:-1], cuts[1:])), fault_policy=fault_policy,
                fault_events=events, ipc=ipc)
            if _VERIFIER is not None:
                _VERIFIER.lease_acquired(id(self), id(lease))
            self._lease = lease
            return lease
        except BaseException:
            self._teardown()
            if _VERIFIER is not None:
                _VERIFIER.lock_released("runtime", id(self))
            self._lock.release()
            raise

    def adopt(self, answers: AnswerSet, state, *, stream_key=None) -> None:
        """:meth:`~repro.engine.placement.Placement.adopt` between
        leases; the next lease ships the adopted layout to the
        workers."""
        with self._lock:
            if self._closed:
                raise ProtocolError("runtime is closed")
            super().adopt(answers, state, stream_key=stream_key)

    def _release_lease(self) -> None:
        self._lease = None
        if _VERIFIER is not None:
            _VERIFIER.lease_released(id(self))
            _VERIFIER.lock_released("runtime", id(self))
        self.last_used = time.monotonic()
        self._lock.release()

    # -- workers -------------------------------------------------------
    def _ensure_pools(self, tally: dict) -> None:
        """Spawn the pool if it is down, and count every worker's pipe
        traffic into ``tally`` (the new lease's)."""
        if not self._workers:
            self._workers = [_PinnedWorker(tally)
                             for _ in range(self.max_workers)]
            self.pool_spawns += 1
            if _VERIFIER is not None:
                for worker in self._workers:
                    _VERIFIER.pool_spawned(id(worker))
        for worker in self._workers:
            worker.tally = tally

    # -- fault recovery ------------------------------------------------
    def _ledger(self) -> list:
        """What a fresh copy of the layout replays after the segments
        are attached: the master's authoritative layout (which
        subsumes every epoch-extend sent so far) and the latest
        spec-configure."""
        ops: list = [("place", (self._layout.copy(),))]
        if self._configure is not None:
            ops.append(("configure", (self._configure,)))
        return ops

    def _respawn_slot(self, slot: int, events: dict,
                      deadline: float | None,
                      log: Sequence[tuple] = ()) -> bool:
        """Replace a dead/hung slot's worker with a fresh one on a fresh
        pipe and replay the ledger into it, then the slot's phase
        ``log``, within the lease's ``deadline``.  Returns False when
        the replay itself failed (the caller's next round fails fast
        and retries or degrades)."""
        old = self._workers[slot]
        old.kill()
        old.close()
        fresh = _PinnedWorker(old.tally)
        self._workers[slot] = fresh
        events["respawns"] += 1
        if _VERIFIER is not None:
            _VERIFIER.pool_respawned(id(old), id(fresh))
        ops = [("attach", (self._seg_desc(),))] + self._ledger()
        if log:
            ops.append(("replay", (log,)))
        try:
            fresh.call(_rt_sync, ops, timeout=deadline)
        except _DISPATCH_FAILURES:
            return False
        return True

    # -- messaging -----------------------------------------------------
    def _sync(self, ops: list, events: dict,
              deadline: float | None) -> None:
        """Broadcast sync operations to every worker and wait, each
        reply within the lease's ``deadline``.

        Self-healing: a worker that died or hung is killed, respawned
        and replayed (the ledger replay subsumes ``ops``); a slot whose
        replay fails too raises :class:`WorkerCrashError`.
        """
        for worker in self._workers:
            try:
                worker.send(_rt_sync, ops)
            except _WorkerLost:
                pass  # result() below fails fast on a lost worker
        for slot in range(len(self._workers)):
            try:
                self._workers[slot].result(deadline)
            except _DISPATCH_FAILURES:
                events["crashes"] += 1
                if not self._respawn_slot(slot, events, deadline):
                    raise WorkerCrashError(
                        f"worker slot {slot} could not be revived for "
                        f"sync (died again during ledger replay)")

    # -- storage -------------------------------------------------------
    def _ensure_capacity(self, capacity: int, values_dtype: np.dtype) -> bool:
        """Make every segment hold at least ``capacity`` answers.
        Returns whether any segment was reallocated; the workers are
        then sent a re-attach and the full layout to rebuild from."""
        reallocated = False
        for field in FIELDS:
            dtype = values_dtype if field == "values" else np.dtype(np.int64)
            seg = self._segments.get(field)
            if seg is not None and seg.dtype == dtype \
                    and seg.capacity >= capacity:
                continue
            if seg is not None:
                seg.release()
            self._segments[field] = _Segment(dtype, capacity)
            reallocated = True
        if reallocated:
            # The attach and the full layout subsume every message still
            # queued, and an attach queued earlier names segments just
            # released.
            self._pending = [("attach", (self._seg_desc(),)),
                             ("place", (self._layout.copy(),))]
        return reallocated

    def _seg_desc(self) -> dict:
        return {field: (seg.name, seg.dtype.str, seg.capacity)
                for field, seg in self._segments.items()}

    def _store_placed(self, sharded: ShardedAnswerSet) -> None:
        """Write the sharded arrays as the layout's one epoch, in
        segments reserved for every extend of it: twice the placed
        answers, the most :func:`~repro.engine.placement.cuts_hold`
        lets a layout grow before it is re-placed."""
        length = self._layout.length
        if not self._ensure_capacity(2 * max(length, 1), self._dtype):
            self._pending.append(("place", (self._layout.copy(),)))
        for field, array in zip(FIELDS, (sharded.flat_tasks,
                                         sharded.flat_workers,
                                         sharded.flat_values)):
            self._segments[field].view[:length] = array

    def _store_tail(self, tail: list) -> None:
        """Append the new epoch behind the placed answers, in the
        capacity the placement reserved."""
        epoch = self._layout.epochs[-1]
        lo, hi, _ = epoch
        if hi > self._segments["tasks"].capacity:
            raise ProtocolError(
                f"an extend to {hi} answers overruns the segments "
                f"reserved for {self._segments['tasks'].capacity}")
        self._pending.append(("extend", (epoch, self._layout.sizes)))
        for field, array in zip(FIELDS, tail):
            self._segments[field].view[lo:hi] = array


class RuntimeRegistry:
    """Process-wide pool of :class:`ShardRuntime`\\ s with idle eviction.

    Keyed by a resolved :class:`~repro.core.policy.ExecutionPlan`'s
    :attr:`~repro.core.policy.ExecutionPlan.runtime_key`
    ``(n_shards, pool_slots)``: :meth:`acquire` and :meth:`lease` take
    the plan and nothing else.  :meth:`acquire` returns the existing
    runtime (respawning a closed one) and lazily evicts other runtimes
    idle longer than ``idle_ttl`` seconds; eviction never touches a
    runtime whose lease lock is held.  ``close_all`` runs at
    interpreter exit for the default registry.
    """

    def __init__(self, idle_ttl: float = DEFAULT_IDLE_TTL) -> None:
        self.idle_ttl = float(idle_ttl)
        self._runtimes: dict[tuple, ShardRuntime] = {}
        self._lock = threading.Lock()

    def acquire(self, plan: ExecutionPlan) -> ShardRuntime:
        """Get (or create) the runtime ``plan`` keys to.

        The key carries the pool-slot count a runtime would actually
        use, so a plan with ``max_workers=0`` and one with its resolved
        value share one runtime instead of duplicating pools and
        segments.
        """
        key = plan.runtime_key
        if _VERIFIER is not None:
            _VERIFIER.registry_checkpoint()
        with self._lock:
            self._evict_idle_locked(time.monotonic())
            runtime = self._runtimes.get(key)
            if runtime is None or runtime.closed:
                runtime = ShardRuntime(*key)
                self._runtimes[key] = runtime
            runtime.last_used = time.monotonic()
            return runtime

    def lease(self, plan: ExecutionPlan, answers: AnswerSet,
              spec: MethodSpec, *, stream_key=None,
              ) -> tuple[ShardRuntime, RuntimeLease]:
        """Acquire a runtime and lease it in one step.

        ``plan`` picks the runtime and carries the
        :class:`~repro.core.policy.FaultPolicy` this lease recovers
        under; ``spec`` is the :class:`~repro.core.policy.MethodSpec`
        the workers rebuild.  Faults are injected by the fault plan
        armed process-wide (:mod:`repro.faults`), never through
        ``plan``.

        Retries when another holder's ``close()`` lands between the
        acquire and the lease (any holder may close a shared runtime at
        any time; the registry's contract is that the next fit simply
        respawns).  Returns ``(runtime, lease)`` so callers can keep
        the runtime for introspection or an explicit ``close()``.
        """
        while True:
            runtime = self.acquire(plan)
            try:
                return runtime, runtime.lease(
                    answers, spec, stream_key=stream_key,
                    fault_policy=plan.fault_policy)
            except RuntimeError:
                if not runtime.closed:
                    raise

    def _evict_idle_locked(self, now: float) -> None:
        for key, runtime in list(self._runtimes.items()):
            if runtime.closed:
                del self._runtimes[key]
                continue
            if now - runtime.last_used < self.idle_ttl:
                continue
            # Never evict a runtime mid-fit: skip if the lease lock is
            # held and let a later acquire retry.
            if runtime._lock.acquire(blocking=False):
                try:
                    if not runtime._closed:
                        runtime._teardown()
                        runtime._closed = True
                finally:
                    runtime._lock.release()
                del self._runtimes[key]

    def evict_idle(self) -> int:
        """Evict idle runtimes now; returns the number closed."""
        with self._lock:
            before = len(self._runtimes)
            self._evict_idle_locked(time.monotonic())
            return before - len(self._runtimes)

    def close_all(self) -> None:
        """Close every runtime (used by tests and explicit shutdown)."""
        with self._lock:
            for runtime in self._runtimes.values():
                runtime.close()
            self._runtimes.clear()

    def _close_all_at_exit(self) -> None:
        """The atexit variant of :meth:`close_all`.

        Must not block on lease locks: a lease still held at
        interpreter exit belongs to the exiting main thread and will
        never be released (see :meth:`ShardRuntime.close_at_exit`).
        """
        with self._lock:
            for runtime in self._runtimes.values():
                runtime.close_at_exit()
            self._runtimes.clear()

    def __len__(self) -> int:
        return len(self._runtimes)


_default_registry: RuntimeRegistry | None = None
_default_registry_lock = threading.Lock()


def get_runtime_registry() -> RuntimeRegistry:
    """The process-wide default registry (created on first use)."""
    global _default_registry
    with _default_registry_lock:
        if _default_registry is None:
            _default_registry = RuntimeRegistry()
            atexit.register(_default_registry._close_all_at_exit)
        return _default_registry
