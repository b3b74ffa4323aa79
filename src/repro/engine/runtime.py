"""Persistent shard runtime: pinned workers and shared memory that outlive fits.

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
  Segment capacity grows by doubling, so a steadily growing stream
  reallocates (and re-attaches) only O(log n) times.
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
``shared`` arguments once, and one reply list back.  A worker serves
its pipe in FIFO order, so the master's sync messages (attach /
layout / extend / configure) always land before the phases that
depend on them.  Replies are awaited under the
:class:`~repro.core.policy.FaultPolicy` deadline through a poll
registration kept for the worker's lifetime (the pipe plus the
process sentinel), so a bounded wait costs what an unbounded one does.
A slot whose reply timed out, or whose worker died, is killed and
replaced by a fresh worker on a fresh pipe before it is used again: a
late reply is never read as the next phase's.  A phase that raises in
the worker is re-raised on the master with its type and message, and
the worker keeps serving.

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
registry, directly or through ``fit(policy=...)`` and the engine.  The
in-process serial/thread tiers never involve this module.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import select
import threading
import time
import traceback
import weakref
from multiprocessing import resource_tracker, shared_memory
from multiprocessing.reduction import ForkingPickler
from typing import Mapping, Sequence

import numpy as np

from .. import faults as _faults
from ..checks.protocol import get_verifier as _get_protocol_verifier
from ..core.answers import AnswerSet
from ..core.framework import radix_argsort
from ..exceptions import (
    EngineError,
    PhaseTimeoutError,
    ProtocolError,
    WorkerCrashError,
    WorkerReplyError,
)
from ..core.policy import (
    ExecutionPlan,
    ExecutionPolicy,
    FaultPolicy,
    MethodSpec,
    resolve_process_workers,
)
from ..core.registry import method_class
from ..core.shards import AnswerShard, ShardedAnswerSet
from ..inference.sharded import SerialShardRunner

__all__ = [
    "SerialShardSession",
    "ShardRuntime",
    "RuntimeLease",
    "RuntimeRegistry",
    "get_runtime_registry",
]

#: Epoch count at which an extending lease compacts back to one
#: task-sorted epoch (shard views degrade into many concatenated
#: pieces; a periodic re-sort keeps them contiguous).
MAX_EPOCHS = 16

#: Default idle TTL (seconds) for registry eviction.
DEFAULT_IDLE_TTL = 300.0

#: Seconds a stopped worker gets to exit before it is killed.
STOP_GRACE = 5.0


class _WorkerLost(WorkerCrashError):
    """A pinned worker died or its pipe tore; the slot needs a respawn."""


#: Failures a dispatch round recovers from: the worker was lost (died,
#: pipe torn) or the phase blew its deadline (hung worker).
_DISPATCH_FAILURES = (_WorkerLost, TimeoutError)

#: Zeroed per-lease fault-event counters (the shape ``FitStats``
#: ingests via ``record_runner``).
_FAULT_EVENT_KEYS = ("respawns", "retries", "timeouts", "crashes",
                     "degraded")


def _zero_fault_events() -> dict:
    return dict.fromkeys(_FAULT_EVENT_KEYS, 0)


def _zero_ipc() -> dict:
    """Zeroed per-lease transport counters: messages sent, pickled
    bytes written and read on the pipes, and the worker-side seconds
    the replies report (folded into ``FitStats.ipc``)."""
    return {"messages": 0, "bytes_out": 0, "bytes_in": 0,
            "worker_seconds": 0.0}

#: Lease-protocol verifier (None unless ``REPRO_CHECKS=1``): the
#: master-side hooks below report segment/pool/lease lifecycle events
#: to :mod:`repro.checks.protocol`.  Disabled cost is one ``is None``
#: test per event.
_VERIFIER = _get_protocol_verifier()


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------
# One mutable context per worker process.  A worker serves its pipe
# FIFO, so the master's sync messages (attach / layout / extend /
# configure) are always applied before the phases that depend on them
# — no worker-side locking is needed.
_WORKER_CTX: dict = {}


def _worker_detach() -> None:
    """Release every shared-memory attachment held by this worker.

    Registered ``atexit`` on first attach (the satellite fix for the
    resource-tracker ``leaked shared_memory`` warnings): numpy views
    are dropped first so ``SharedMemory.close()`` does not trip over
    exported buffers during interpreter teardown.
    """
    _WORKER_CTX.pop("spec", None)
    _WORKER_CTX.pop("spec_key", None)
    _WORKER_CTX.pop("shards", None)
    _WORKER_CTX.pop("arrays", None)
    _WORKER_CTX.pop("built_epochs", None)
    _WORKER_CTX.pop("views", None)
    segments = _WORKER_CTX.pop("segments", {})
    for shm in segments.values():
        try:
            shm.close()
        except BufferError:  # a stray view survived; the OS cleans up
            pass


def _apply_attach(seg_desc: dict) -> None:
    """(Re-)attach the answer segments named in ``seg_desc``.

    ``seg_desc`` maps field -> (shm_name, dtype_str, capacity).  Stale
    attachments (renamed segments after a capacity reallocation) are
    closed; every cached shard view is invalidated.
    """
    if "segments" not in _WORKER_CTX:
        _WORKER_CTX["segments"] = {}
        _WORKER_CTX["views"] = {}
        atexit.register(_worker_detach)
    segments = _WORKER_CTX["segments"]
    views = _WORKER_CTX["views"]
    for field, (name, dtype, capacity) in seg_desc.items():
        old = segments.get(field)
        if old is not None and old.name.lstrip("/") == name.lstrip("/"):
            continue
        if old is not None:
            views.pop(field, None)
            try:
                old.close()
            except BufferError:
                pass
        shm = shared_memory.SharedMemory(name=name)
        segments[field] = shm
        views[field] = np.ndarray((capacity,), dtype=np.dtype(dtype),
                                  buffer=shm.buf)
    _WORKER_CTX["arrays"] = {}
    _WORKER_CTX["built_epochs"] = {}
    _WORKER_CTX["shards"] = {}
    _drop_spec()


def _drop_spec() -> None:
    """Forget the retained spec (the placed arrays changed under it)."""
    _WORKER_CTX.pop("spec", None)
    _WORKER_CTX.pop("spec_key", None)


def _apply_layout(layout: dict) -> None:
    """Adopt a full (re-)placement: new epochs, cuts and sizes."""
    _WORKER_CTX["layout"] = layout
    _WORKER_CTX["arrays"] = {}
    _WORKER_CTX["built_epochs"] = {}
    _WORKER_CTX["shards"] = {}
    _drop_spec()


def _apply_extend(epoch: tuple, sizes: dict, last_stop: int) -> None:
    """Fold one appended epoch into the current layout.

    Materialised shard arrays grow incrementally (concatenate the
    shard's slice of the new epoch); shard *objects* are invalidated so
    they pick up the new global sizes and the last shard's extended
    task range.  A retained spec keeps the frozen operators of shards
    the epoch did not touch — their arrays are unchanged — and drops
    only the extended shards' (see :func:`_apply_configure`).
    """
    layout = _WORKER_CTX["layout"]
    layout["epochs"].append(epoch)
    layout["sizes"] = sizes
    layout["task_cuts"][-1] = last_stop
    layout["length"] = epoch[1]
    views = _WORKER_CTX["views"]
    arrays = _WORKER_CTX["arrays"]
    built = _WORKER_CTX["built_epochs"]
    spec = _WORKER_CTX.get("spec")
    _, _, bounds = epoch
    for k, (lo, hi) in enumerate(bounds):
        if hi > lo and spec is not None:
            spec.invalidate_shard(k)
    for k, cached in arrays.items():
        lo, hi = bounds[k]
        if hi > lo:
            arrays[k] = tuple(
                np.concatenate([cached[i], views[field][lo:hi]])
                for i, field in enumerate(("tasks", "workers", "values"))
            )
        built[k] = len(layout["epochs"])
    _WORKER_CTX["shards"] = {}


def _apply_configure(method: str, method_kwargs: dict, sizes: dict) -> None:
    """Per-fit spec reset: rebuild the method spec (and thereby its
    per-shard operator caches) without touching pools or segments.

    When the fit describes the *same* method construction over the
    *same* global sizes as the spec this worker already holds, the spec
    is **retained**: its per-shard frozen operators (and any per-shard
    caches a spec keeps) survive the fit boundary — what makes repeated
    delta refits on a fixed task/worker universe cheap.  An appended
    epoch has already dropped the operators of the shards it extended
    (:func:`_apply_extend`); a re-placement or re-attachment drops the
    spec outright (:func:`_apply_layout` / :func:`_apply_attach`), so a
    retained spec can never read stale arrays.
    """
    key = (method, sorted(method_kwargs.items()))
    spec = _WORKER_CTX.get("spec")
    if (spec is not None and _WORKER_CTX.get("spec_key") == key
            and spec.resize(sizes["n_tasks"], sizes["n_workers"],
                            sizes.get("n_choices", 0))):
        _WORKER_CTX["spec_reuses"] = _WORKER_CTX.get("spec_reuses", 0) + 1
        # Shard objects still carry the old global sizes.
        _WORKER_CTX["shards"] = {}
        return
    spec = method_class(method)(**method_kwargs).make_em_spec(**sizes)
    _WORKER_CTX["spec"] = spec
    _WORKER_CTX["spec_key"] = key
    # Sizes may have grown since the shards were last materialised.
    _WORKER_CTX["shards"] = {}


_SYNC_OPS = {
    "attach": _apply_attach,
    "layout": _apply_layout,
    "extend": _apply_extend,
    "configure": _apply_configure,
}


def _rt_sync(ops: Sequence[tuple]) -> int:
    """Apply a batch of sync operations in order; returns the worker pid
    (handy for asserting pool reuse in tests)."""
    for name, args in ops:
        _SYNC_OPS[name](*args)
    return os.getpid()


def _materialize_shard(k: int) -> AnswerShard:
    """This worker's view of shard ``k``, built lazily and kept current
    across extends."""
    shards = _WORKER_CTX["shards"]
    shard = shards.get(k)
    if shard is not None:
        return shard
    layout = _WORKER_CTX["layout"]
    views = _WORKER_CTX["views"]
    arrays = _WORKER_CTX["arrays"]
    built = _WORKER_CTX["built_epochs"]
    epochs = layout["epochs"]
    if k not in arrays or built.get(k, 0) < len(epochs):
        pieces = [[], [], []]
        for _, _, bounds in epochs:
            lo, hi = bounds[k]
            if hi > lo:
                for i, field in enumerate(("tasks", "workers", "values")):
                    pieces[i].append(views[field][lo:hi])
        fields = []
        for i, field in enumerate(("tasks", "workers", "values")):
            if not pieces[i]:
                fields.append(views[field][0:0])
            elif len(pieces[i]) == 1:
                fields.append(pieces[i][0])  # zero-copy slice
            else:
                fields.append(np.concatenate(pieces[i]))
        arrays[k] = tuple(fields)
        built[k] = len(epochs)
    tasks, workers, values = arrays[k]
    cuts = layout["task_cuts"]
    sizes = layout["sizes"]
    shard = AnswerShard(
        tasks=tasks, workers=workers, values=values,
        task_start=cuts[k], task_stop=cuts[k + 1],
        n_tasks=sizes["n_tasks"], n_workers=sizes["n_workers"],
        n_choices=sizes["n_choices"], index=k,
    )
    shards[k] = shard
    return shard


def _run_phase(k: int, phase: str, args: tuple):
    """Run ``phase`` on this worker's view of shard ``k``."""
    spec = _WORKER_CTX["spec"]
    shard = _materialize_shard(k)
    return getattr(spec, phase)(shard, spec.shard_ops(shard), *args)


def _rt_phase(phase: str, items: Sequence[tuple], shared: tuple) -> list:
    """One phase over a slot's ``(shard, args)`` items, with ``shared``
    appended to every shard's arguments; the results in item order."""
    return [_run_phase(k, phase, args + shared) for k, args in items]


def _rt_replay(items: Sequence[tuple]) -> int:
    """Re-run a respawned worker's phase history — ``(shard, phase,
    args)`` triples in original dispatch order — to rebuild the mutable
    per-shard ``ops`` of a stateful spec (phases are deterministic, so
    the replayed state is bit-identical).  Results are discarded; only
    the ``ops`` mutations matter."""
    for k, phase, args in items:
        _run_phase(k, phase, args)
    return os.getpid()


def _rt_sleep(seconds: float) -> int:
    """Occupy this FIFO worker for ``seconds`` before its next request.

    The ``delay`` fault: queued ahead of a phase message, it stalls the
    worker so the phase reply arrives late — past the
    :class:`~repro.core.policy.FaultPolicy` deadline if the injected
    delay is long enough.  Fault-injection only; never on a hot path.
    """
    time.sleep(seconds)
    return os.getpid()


def _rt_probe() -> dict:
    """Worker-side introspection for tests: what survived the last
    configure (send it through a runtime worker's ``call``)."""
    spec = _WORKER_CTX.get("spec")
    return {
        "pid": os.getpid(),
        "spec_reuses": _WORKER_CTX.get("spec_reuses", 0),
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
class SerialShardSession:
    """Warm in-process shard layout + spec caches for delta refits.

    What :class:`ShardRuntime` keeps warm in worker processes, this
    keeps warm in the calling process for the serial/thread tiers: the
    task-sorted per-shard answer arrays and each method's
    :class:`~repro.inference.sharded.ShardedEMSpec` (with its per-shard
    frozen operators).  A refit on a grown stream sorts and slices only
    the new answer tail, concatenates it onto the shards it touches,
    and drops exactly those shards' cached operators — so a delta
    refit's per-fit setup cost scales with the delta, like its EM.

    Shard cuts are **pinned** between placements (the alignment delta
    refits require); the session re-places — recomputing balanced cuts
    and invalidating every cached spec — once the stream has doubled
    or accumulated :data:`MAX_EPOCHS` extensions, mirroring
    :class:`ShardRuntime`'s rebalance rule.  The per-shard arrays an
    extension produces are element-for-element the arrays a fresh
    stable task-sort would produce (prefix instances of a task precede
    tail instances in both), so session-backed fits match fresh-runner
    fits bit-for-bit at equal cuts.

    With a :class:`~repro.store.spill.ShardSpill` attached, shards
    that sat untouched past the spill TTL swap their resident arrays
    for memory-mapped copies (:meth:`spill_idle`) and page back in on
    demand; an extension re-materialises the shards it touches.
    """

    def __init__(self, n_shards: int, *, spill=None) -> None:
        if n_shards < 1:
            raise EngineError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = int(n_shards)
        self._arrays: list[tuple] | None = None
        self._cuts: list[int] | None = None
        self._sizes: tuple[int, int, int] | None = None
        self._length = 0
        self._base_length = 0
        self._epochs = 0
        self._answers_ref: weakref.ref | None = None
        self._stream_key = None
        self._prefix_mark: tuple[int, int, int] = (0, -1, -1)
        #: (method-spec, sizes) -> retained EM spec, per method name.
        self._specs: dict[str, tuple] = {}
        self._spill = spill
        self._spill_tag = f"s{self.n_shards}"
        self._spilled: set[int] = set()
        self._touched: list[float] = []
        # Instrumentation mirroring ShardRuntime's counters.
        self.placements = 0
        self.extends = 0
        self.reuses = 0
        self.spec_reuses = 0
        self.last_placement: str | None = None

    # -- data placement ------------------------------------------------
    def _sizes_of(self, answers: AnswerSet) -> tuple[int, int, int]:
        return (answers.n_tasks, answers.n_workers, answers.n_choices)

    def _remember_prefix(self, answers: AnswerSet) -> None:
        n = answers.n_answers
        self._prefix_mark = ((n, int(answers.tasks[0]),
                              int(answers.tasks[n - 1])) if n
                             else (0, -1, -1))

    def _adopt_arrays(self, sharded: ShardedAnswerSet,
                      answers: AnswerSet) -> None:
        self._arrays = [(s.tasks, s.workers, s.values)
                        for s in sharded.shards]
        self._cuts = [sharded.shards[0].task_start] + [
            s.task_stop for s in sharded.shards]
        self._sizes = self._sizes_of(answers)
        self._length = answers.n_answers
        self._specs.clear()
        self._remember_prefix(answers)
        self._unspill_all()
        self._touched = [time.monotonic()] * len(self._arrays)

    def _place(self, answers: AnswerSet) -> None:
        self._adopt_arrays(ShardedAnswerSet(answers, self.n_shards),
                           answers)
        self._base_length = answers.n_answers
        self._epochs = 0
        self.placements += 1
        self.last_placement = "place"

    def adopt(self, answers: AnswerSet, state, *,
              stream_key=None) -> None:
        """Seed the warm layout from a persisted
        :class:`~repro.inference.sharded.ShardState` (recovery path).

        Re-sorts the full replayed arrays once under the state's
        *pinned* cuts — a stable task-sort of arrival order is unique,
        so the resulting per-shard arrays are element-for-element what
        the uninterrupted session held — and carries the state's
        ``base_answers`` forward so the doubling/rebalance rule keeps
        counting from the original placement.  After adopting, the
        first refit over a matching cached fit is a true *delta* refit
        (the cuts align), not a cold or full one.
        """
        cuts = state.extended_cuts(answers.n_tasks)
        if len(cuts) - 1 != self.n_shards:
            raise EngineError(
                f"cannot adopt a {len(cuts) - 1}-shard state into a "
                f"{self.n_shards}-shard session"
            )
        self._adopt_arrays(
            ShardedAnswerSet(answers, self.n_shards, task_cuts=cuts),
            answers)
        self._base_length = max(int(state.base_answers), 1)
        self._epochs = 1
        self._stream_key = stream_key
        self._answers_ref = weakref.ref(answers)
        self.placements += 1
        self.last_placement = "adopt"

    def _extend(self, answers: AnswerSet) -> None:
        old, new = self._length, answers.n_answers
        mark_len, first_task, last_task = self._prefix_mark
        if mark_len and (int(answers.tasks[0]) != first_task
                         or int(answers.tasks[mark_len - 1]) != last_task):
            raise ProtocolError(
                "stream_key reused but the previously placed answers "
                "changed; extension requires append-only growth"
            )
        tail_tasks = answers.tasks[old:]
        tail_workers = answers.workers[old:]
        tail_values = answers.values[old:]
        if answers.task_type.is_categorical:
            tail_values = tail_values.astype(np.int64, copy=False)
        cuts = self._cuts
        cuts[-1] = answers.n_tasks
        if len(cuts) > 2:
            order = radix_argsort(tail_tasks)
            tail_tasks = tail_tasks[order]
            tail_workers = tail_workers[order]
            tail_values = tail_values[order]
            pos = np.searchsorted(tail_tasks, cuts, side="left")
        else:
            pos = np.array([0, len(tail_tasks)])
        for k in range(len(cuts) - 1):
            lo, hi = int(pos[k]), int(pos[k + 1])
            if hi <= lo:
                continue
            t, w, v = self._arrays[k]
            self._arrays[k] = (
                np.concatenate([t, tail_tasks[lo:hi]]),
                np.concatenate([w, tail_workers[lo:hi]]),
                np.concatenate([v, tail_values[lo:hi]]),
            )
            for _, spec in self._specs.values():
                spec.invalidate_shard(k)
            # A shard receiving answers is hot again: the concatenation
            # above already re-materialised it in RAM, so drop its
            # spill files and refresh its touch time.
            self._unspill(k)
            self._touched[k] = time.monotonic()
        self._sizes = self._sizes_of(answers)
        self._length = new
        self._epochs += 1
        self._remember_prefix(answers)
        self.extends += 1
        self.last_placement = "extend"

    def _refresh(self, answers: AnswerSet, stream_key) -> None:
        """Place / extend / reuse, mirroring :meth:`ShardRuntime._place`."""
        placed = self._answers_ref() if self._answers_ref else None
        if self._arrays is not None and answers is placed:
            self.reuses += 1
            self.last_placement = "reuse"
            return
        if (self._arrays is not None
                and stream_key is not None
                and stream_key == self._stream_key
                and answers.n_answers >= self._length
                and self._sizes is not None
                and all(now >= then for now, then in
                        zip(self._sizes_of(answers), self._sizes))
                and self._epochs < MAX_EPOCHS
                and answers.n_answers <= 2 * max(self._base_length, 1)):
            if answers.n_answers == self._length:
                self._answers_ref = weakref.ref(answers)
                self.reuses += 1
                self.last_placement = "reuse"
                return
            self._extend(answers)
        else:
            self._place(answers)
        self._stream_key = stream_key
        self._answers_ref = weakref.ref(answers)

    # -- runners ---------------------------------------------------------
    def _spec_for(self, instance, answers: AnswerSet):
        """The method's EM spec, retained across fits while the method
        construction is unchanged and the spec accepts the (possibly
        grown) global sizes via :meth:`ShardedEMSpec.resize` — per-shard
        operators survive; extensions invalidated the touched shards'."""
        method_spec = instance.method_spec
        entry = self._specs.get(instance.name)
        if (entry is not None and method_spec is not None
                and entry[0] == method_spec
                and entry[1].resize(answers.n_tasks, answers.n_workers,
                                    answers.n_choices)):
            self.spec_reuses += 1
            return entry[1]
        spec = instance.make_em_spec(
            n_tasks=answers.n_tasks, n_workers=answers.n_workers,
            n_choices=answers.n_choices)
        if method_spec is not None:
            self._specs[instance.name] = (method_spec, spec)
        return spec

    def runner(self, answers: AnswerSet, instance, *, stream_key=None,
               pool=None) -> SerialShardRunner:
        """A :class:`~repro.inference.sharded.SerialShardRunner` over
        the warm layout (placed, extended or reused for ``answers``)."""
        self._refresh(answers, stream_key)
        cuts = self._cuts
        shards = []
        for k in range(len(cuts) - 1):
            t, w, v = self._arrays[k]
            shards.append(AnswerShard(
                tasks=t, workers=w, values=v,
                task_start=cuts[k], task_stop=cuts[k + 1],
                n_tasks=answers.n_tasks, n_workers=answers.n_workers,
                n_choices=answers.n_choices, index=k,
            ))
        return SerialShardRunner(self._spec_for(instance, answers),
                                 shards, pool=pool)

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
        if self._spill is None or self._arrays is None:
            return 0
        now = time.monotonic() if now is None else now
        ttl = self._spill.ttl if ttl is None else ttl
        count = 0
        for k, arrays in enumerate(self._arrays):
            if k in self._spilled or now - self._touched[k] < ttl:
                continue
            self._arrays[k] = self._spill.spill(self._spill_tag, k,
                                                arrays)
            self._spilled.add(k)
            count += 1
        return count


# ----------------------------------------------------------------------
# Master side
# ----------------------------------------------------------------------
_FIELDS = ("tasks", "workers", "values")


class _PinnedWorker:
    """One pool slot: a worker process serving :func:`_serve` behind a
    duplex pipe.

    :meth:`send` pickles a ``(fn, args)`` request onto the pipe;
    :meth:`result` reads the replies owed, in FIFO order, and returns
    the newest one's value (the replies to queued ``delay`` stalls are
    read and dropped).  Every message's pickled size and every reply's
    worker-side seconds are added to ``tally``, the current lease's
    transport counters.  A worker whose reply timed out, or whose pipe
    or process died, is ``lost``: it is never read again, and the
    runtime replaces it before the slot serves another request.
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
        self.owed = 0
        self.lost = False

    @property
    def pid(self) -> int | None:
        return self.process.pid

    def send(self, fn, *args) -> None:
        """Queue ``fn(*args)`` on the worker."""
        if self.lost:
            raise _WorkerLost(f"worker {self.pid} is lost")
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
        self.owed += 1
        tally = self.tally
        tally["messages"] += 1
        tally["bytes_out"] += len(payload)

    def result(self, timeout: float | None):
        """The newest request's result, every owed reply read within
        ``timeout`` seconds (``None``: unbounded).  Raises the
        worker-side exception, :class:`TimeoutError` or
        :class:`_WorkerLost`."""
        if self.lost:
            raise _WorkerLost(f"worker {self.pid} is lost")
        if self.owed > 1:
            # Replies to queued stalls come first, under one deadline.
            until = None if timeout is None else time.monotonic() + timeout
            while self.owed > 1:
                self._reply(None if until is None
                            else max(until - time.monotonic(), 0.0))
            if until is not None:
                timeout = max(until - time.monotonic(), 0.0)
        return self._reply(timeout)

    def call(self, fn, *args, timeout: float | None = None):
        """One round trip: :meth:`send`, then :meth:`result`."""
        self.send(fn, *args)
        return self.result(timeout)

    def _reply(self, timeout: float | None):
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
        self.owed -= 1
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
    dispatches phases to the runtime's pinned workers.  ``close()``
    releases the runtime for the next fit; exiting the ``with`` block
    on an exception additionally resets the runtime (see module
    docstring).
    """

    def __init__(self, runtime: "ShardRuntime", spec,
                 task_ranges: Sequence[tuple[int, int]],
                 fault_events: dict | None = None,
                 ipc: dict | None = None) -> None:
        super().__init__(spec, shards=())
        self._runtime = runtime
        self._ranges = [tuple(r) for r in task_ranges]
        self._released = False
        self._dispatched = False
        #: Per-lease fault-recovery counters (respawns/retries/timeouts/
        #: crashes/degraded), folded into ``FitStats`` by the drivers.
        self.fault_events = (fault_events if fault_events is not None
                             else _zero_fault_events())
        #: Per-lease transport counters measured on the pipes (messages,
        #: bytes_out, bytes_in, worker_seconds), the lease's sync
        #: included; folded into ``FitStats.ipc`` the same way.
        self.ipc = ipc if ipc is not None else _zero_ipc()

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
        results = self._runtime._dispatch(self.n_shards, phase, per_shard,
                                          shared, only, spec=self.spec,
                                          events=self.fault_events,
                                          lease_key=id(self))
        self._clock(phase, started)
        return results

    def close(self) -> None:
        """Release the runtime for the next lease (idempotent)."""
        if self._released:
            return
        self._released = True
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
            self._runtime._reset()
        self.close()


class ShardRuntime:
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
    contract.  Instrumentation counters (``pool_spawns``,
    ``placements``, ``extends``, ``reuses``) are monotonically
    increasing and exist for tests and benchmarks.
    """

    @staticmethod
    def resolve_max_workers(n_shards: int,
                            max_workers: int | None = None) -> int:
        """The pool-slot count a runtime built with these arguments
        uses (delegates to the policy layer's single formula, which the
        registry cache key also uses, so ``max_workers=None`` and its
        resolved value are the same configuration)."""
        return resolve_process_workers(n_shards, max_workers)

    def __init__(self, n_shards: int = 4,
                 max_workers: int | None = None) -> None:
        if n_shards < 1:
            raise EngineError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = int(n_shards)
        self.max_workers = self.resolve_max_workers(n_shards, max_workers)
        self._lock = threading.Lock()
        self._workers: list[_PinnedWorker] = []
        #: The current lease's transport counters (see ``_zero_ipc``).
        self._ipc = _zero_ipc()
        self._segments: dict[str, _Segment] = {}
        self._layout: dict | None = None
        # Weak: pinning the caller's full dataset for the idle TTL
        # would double its resident footprint; a dead referent merely
        # disables same-object reuse (and, being weak, can never alias
        # a new object the way a recycled id() could).
        self._answers_ref: weakref.ref | None = None
        self._stream_key = None
        self._prefix_mark: tuple[int, int, int] = (0, -1, -1)
        self._closed = False
        self.last_used = time.monotonic()
        # Fault tolerance: recovery policy (overridable per lease), the
        # armed injection plan, the spec-configure ledger entry replayed
        # into respawned workers, and the pool slots degraded to the
        # master's serial path for the rest of the current lease.
        self._fault_policy = FaultPolicy()
        self._fault_plan = None
        self._configure: tuple | None = None
        self._degraded_slots: set[int] = set()
        # Stateful specs (KOS) mutate their per-shard ``ops`` across
        # phases, so the configure replay alone cannot revive a worker
        # mid-fit; the per-shard phase log below is replayed on top.
        self._stateful_spec = False
        self._phase_log: dict[int, list] = {}
        self._master_replayed: set[int] = set()
        # Instrumentation (see class docstring).
        self.pool_spawns = 0
        self.placements = 0
        self.extends = 0
        self.reuses = 0
        self.respawns = 0
        self.degraded_phases = 0
        #: Data path taken by the most recent lease:
        #: "place" / "extend" / "reuse".
        self.last_placement: str | None = None

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
        reach this runtime.
        """
        with self._lock:
            if self._closed:
                return
            self._teardown()
            self._closed = True

    def _reset(self) -> None:
        """Tear down workers and segments but stay open for future
        leases.

        Called with the lease lock *held* (from the lease's exception
        path), so it must not re-acquire it.
        """
        self._teardown()

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
        self._layout = None
        self._answers_ref = None
        self._stream_key = None
        self._prefix_mark = (0, -1, -1)
        self._configure = None
        self._degraded_slots = set()
        self._stateful_spec = False
        self._phase_log = {}
        self._master_replayed = set()

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
              stream_key=None, fault_policy: FaultPolicy | None = None,
              faults=None) -> RuntimeLease:
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
            this and subsequent leases dispatch under; ``None`` keeps
            the runtime's current policy (the defaults, initially).
        faults:
            A :class:`repro.faults.FaultPlan` armed for this lease's
            dispatches (chaos tests); ``None`` falls back to the
            process-wide ``REPRO_FAULTS`` plan, if any.
        """
        spec = MethodSpec.coerce(method, method_kwargs)
        method, method_kwargs = spec.name, spec.kwargs
        instance = method_class(method)(**method_kwargs)
        if not instance.supports_sharding:
            raise EngineError(f"{method} does not support sharded EM")
        self._lock.acquire()
        if _VERIFIER is not None:
            _VERIFIER.lock_acquired("runtime", id(self))
        try:
            # Checked under the lock: a close() racing ahead of this
            # lease must not be followed by a silent worker respawn on
            # a runtime nothing will ever tear down again.
            if self._closed:
                raise ProtocolError("runtime is closed")
            if fault_policy is not None:
                self._fault_policy = fault_policy
            self._fault_plan = faults
            self._degraded_slots = set()
            self._phase_log = {}
            self._master_replayed = set()
            events = _zero_fault_events()
            self._ipc = _zero_ipc()
            for worker in self._workers:
                worker.tally = self._ipc
            self._ensure_pools()
            ops = self._place(answers, stream_key)
            layout = self._layout
            sizes = dict(layout["sizes"])
            configure = (method, dict(method_kwargs or {}), sizes)
            ops.append(("configure", configure))
            # Ledger entry first: a worker respawned *during* this sync
            # replays the attach/layout derived from the live layout
            # plus this configure, which together subsume ``ops``.
            self._configure = configure
            self._sync(ops, events=events)
            spec = instance.make_em_spec(**sizes)
            self._stateful_spec = bool(getattr(spec, "stateful_ops",
                                               False))
            cuts = layout["task_cuts"]
            ranges = list(zip(cuts[:-1], cuts[1:]))
            self.last_used = time.monotonic()
            lease = RuntimeLease(self, spec, ranges, fault_events=events,
                                 ipc=self._ipc)
            if _VERIFIER is not None:
                _VERIFIER.lease_acquired(id(self), id(lease))
            return lease
        except BaseException:
            self._teardown()
            if _VERIFIER is not None:
                _VERIFIER.lock_released("runtime", id(self))
            self._lock.release()
            raise

    def _release_lease(self) -> None:
        if _VERIFIER is not None:
            _VERIFIER.lease_released(id(self))
            _VERIFIER.lock_released("runtime", id(self))
        self.last_used = time.monotonic()
        self._lock.release()

    # -- workers -------------------------------------------------------
    def _ensure_pools(self) -> None:
        if not self._workers:
            self._workers = [_PinnedWorker(self._ipc)
                             for _ in range(self.max_workers)]
            self.pool_spawns += 1
            if _VERIFIER is not None:
                for worker in self._workers:
                    _VERIFIER.pool_spawned(id(worker))

    # -- fault recovery ------------------------------------------------
    def _replay_ops(self) -> list:
        """The message ledger a respawned worker replays: re-attach the
        still-live segments, adopt the master's authoritative layout
        (which subsumes every epoch-extend sent so far), and re-apply
        the latest spec-configure."""
        ops: list = [("attach", (self._seg_desc(),)),
                     ("layout", (self._copy_layout(),))]
        if self._configure is not None:
            ops.append(("configure", self._configure))
        return ops

    def _respawn_slot(self, slot: int, events: dict) -> bool:
        """Replace a dead/hung slot's worker with a fresh one on a fresh
        pipe and replay the message ledger into it.  Returns False when
        the replay itself failed (the caller's next round fails fast
        and retries or degrades)."""
        old = self._workers[slot]
        old.kill()
        old.close()
        fresh = _PinnedWorker(self._ipc)
        self._workers[slot] = fresh
        self.respawns += 1
        events["respawns"] += 1
        if _VERIFIER is not None:
            _VERIFIER.pool_respawned(id(old), id(fresh))
        deadline = self._fault_policy.deadline
        try:
            fresh.call(_rt_sync, self._replay_ops(), timeout=deadline)
            if self._stateful_spec:
                items = [(k, phase, args)
                         for k in sorted(self._phase_log)
                         if k % self.max_workers == slot
                         for phase, args in self._phase_log[k]]
                if items:
                    fresh.call(_rt_replay, items, timeout=deadline)
        except _DISPATCH_FAILURES:
            return False
        return True

    def _master_shard(self, k: int) -> AnswerShard:
        """The master-side view of shard ``k`` over the live segments.

        Builds exactly what the worker's ``_materialize_shard`` builds
        — the same epoch slices of the same shared bytes, concatenated
        in the same order — so a phase degraded to the master is
        bit-identical to its worker execution for deterministic phases.
        """
        layout = self._layout
        pieces: list[list] = [[], [], []]
        for _, _, bounds in layout["epochs"]:
            lo, hi = bounds[k]
            if hi > lo:
                for i, field in enumerate(_FIELDS):
                    pieces[i].append(self._segments[field].view[lo:hi])
        fields = []
        for i, field in enumerate(_FIELDS):
            if not pieces[i]:
                fields.append(self._segments[field].view[0:0])
            elif len(pieces[i]) == 1:
                fields.append(pieces[i][0])
            else:
                fields.append(np.concatenate(pieces[i]))
        cuts = layout["task_cuts"]
        sizes = layout["sizes"]
        return AnswerShard(
            tasks=fields[0], workers=fields[1], values=fields[2],
            task_start=cuts[k], task_stop=cuts[k + 1],
            n_tasks=sizes["n_tasks"], n_workers=sizes["n_workers"],
            n_choices=sizes["n_choices"], index=k,
        )

    def _run_degraded(self, spec, k: int, phase: str, args: tuple,
                      events: dict, lease_key) -> object:
        """Execute shard ``k``'s phase in-process via the serial spec
        path (graceful degradation after the retry budget)."""
        if spec is None:
            raise WorkerCrashError(
                f"shard {k} lost its worker and no master spec is "
                f"available to degrade to")
        if _VERIFIER is not None and lease_key is not None:
            _VERIFIER.phase_degraded(id(self), lease_key, k)
        events["degraded"] += 1
        self.degraded_phases += 1
        shard = self._master_shard(k)
        ops = spec.shard_ops(shard)
        if self._stateful_spec and k not in self._master_replayed:
            # First degraded phase for this shard: rebuild the mutable
            # ops from the phase log (the master-side twin of the
            # worker replay in _respawn_slot).
            for past_phase, past_args in self._phase_log.get(k, ()):
                getattr(spec, past_phase)(shard, ops, *past_args)
            self._master_replayed.add(k)
        return getattr(spec, phase)(shard, ops, *args)

    # -- messaging -----------------------------------------------------
    def _sync(self, ops: list, events: dict | None = None) -> None:
        """Broadcast sync operations to every worker and wait.

        Self-healing: a worker that died or hung is killed, respawned
        and replayed (the ledger replay subsumes ``ops``); a slot whose
        replay fails too raises :class:`WorkerCrashError`.
        """
        if events is None:
            events = _zero_fault_events()
        for worker in self._workers:
            try:
                worker.send(_rt_sync, ops)
            except _WorkerLost:
                pass  # result() below fails fast on a lost worker
        deadline = self._fault_policy.deadline
        for slot in range(len(self._workers)):
            try:
                self._workers[slot].result(deadline)
            except _DISPATCH_FAILURES:
                events["crashes"] += 1
                if not self._respawn_slot(slot, events):
                    raise WorkerCrashError(
                        f"worker slot {slot} could not be revived for "
                        f"sync (died again during ledger replay)")

    def _dispatch_round(self, indices: list, phase: str, args_of: dict,
                        shared: tuple, results: dict, plan,
                        events: dict) -> list:
        """One send-and-collect pass; returns the failed shards.

        Each slot gets one message carrying its shards' per-shard
        arguments and ``shared`` once, and sends back one reply list.
        The armed fault plan (if any) is still consulted per shard, in
        shard order, before any phase message goes out — ``kill``
        SIGKILLs the shard's worker, ``delay`` queues a stall ahead of
        its slot's message on the FIFO pipe.  A slot that fails fails
        all of its shards.
        """
        by_slot: dict[int, list[int]] = {}
        for k in indices:
            by_slot.setdefault(k % self.max_workers, []).append(k)
        if plan is not None:
            for k in indices:
                action = plan.on_dispatch(k, phase)
                worker = self._workers[k % self.max_workers]
                if action is not None and action[0] == "kill":
                    worker.kill()
                elif action is not None:
                    try:
                        worker.send(_rt_sleep, action[1])
                    except _WorkerLost:
                        pass  # the phase send below fails the slot
        failed: list[int] = []
        sent: list[int] = []
        for slot, shards in by_slot.items():
            try:
                self._workers[slot].send(
                    _rt_phase, phase, [(k, args_of[k]) for k in shards],
                    shared)
                sent.append(slot)
            except _WorkerLost:
                events["crashes"] += len(shards)
                failed.extend(shards)
        deadline = self._fault_policy.deadline
        for slot in sent:
            shards = by_slot[slot]
            try:
                replies = self._workers[slot].result(deadline)
            except _WorkerLost:
                events["crashes"] += len(shards)
                failed.extend(shards)
                continue
            except TimeoutError:
                events["timeouts"] += len(shards)
                failed.extend(shards)
                continue
            for k, reply in zip(shards, replies):
                results[k] = reply
                if self._stateful_spec:
                    # Acknowledged phases mutated this shard's worker
                    # ops; a later respawn must replay them.
                    self._phase_log.setdefault(k, []).append(
                        (phase, args_of[k] + shared))
        return sorted(failed)

    def _dispatch(self, n_shards: int, phase: str, per_shard,
                  shared: tuple, only=None, *, spec=None,
                  events: dict | None = None, lease_key=None) -> list:
        """Run one phase on every shard (one message per slot); with
        ``only``, just the listed shards — a skipped (clean or frozen)
        shard costs no payload, and a slot with none of them no
        message or wake-up at all.

        Self-healing: reply waits are deadline-bounded, a lost or hung
        worker is respawned (replaying the message ledger over the
        still-live segments) and only the failed shards' phases are
        re-dispatched, with capped-backoff retries between attempts.
        Once the retry budget is spent the orphaned shards degrade to
        the master's serial spec path — for the rest of the lease —
        or the failure is raised, per the :class:`FaultPolicy`.
        """
        indices = (list(only) if only is not None
                   else list(range(n_shards)))
        if events is None:
            events = _zero_fault_events()
        args_of: dict[int, tuple] = {}
        for pos, k in enumerate(indices):
            args: tuple = ()
            if per_shard is not None:
                entry = per_shard[pos]
                args = entry if isinstance(entry, tuple) else (entry,)
            args_of[k] = args
        policy = self._fault_policy
        plan = (self._fault_plan if self._fault_plan is not None
                else _faults.get_plan())
        results: dict[int, object] = {}
        pending = []
        for k in indices:
            if k % self.max_workers in self._degraded_slots:
                results[k] = self._run_degraded(spec, k, phase,
                                                args_of[k] + shared,
                                                events, lease_key)
            else:
                pending.append(k)
        backoff = _faults.Backoff(policy.backoff_base, policy.backoff_cap)
        attempt = 0
        while pending:
            failed = self._dispatch_round(pending, phase, args_of, shared,
                                          results, plan, events)
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
                    slot = k % self.max_workers
                    if slot not in self._degraded_slots:
                        self._degraded_slots.add(slot)
                        # Leave a sane (respawned, replayed) worker
                        # behind for the next lease; this one is done
                        # with it.
                        self._respawn_slot(slot, events)
                    results[k] = self._run_degraded(spec, k, phase,
                                                    args_of[k] + shared,
                                                    events, lease_key)
                break
            attempt += 1
            events["retries"] += len(failed)
            if _VERIFIER is not None and lease_key is not None:
                _VERIFIER.phase_retry(id(self), lease_key)
            for slot in sorted({k % self.max_workers for k in failed}):
                self._respawn_slot(slot, events)
            backoff.sleep(attempt - 1)
            pending = failed
        return [results[k] for k in indices]

    # -- data placement ------------------------------------------------
    def _values_dtype(self, answers: AnswerSet) -> np.dtype:
        return np.dtype(np.int64 if answers.task_type.is_categorical
                        else np.float64)

    def _place(self, answers: AnswerSet, stream_key) -> list:
        """Decide reuse / extend / full placement; returns sync ops."""
        layout = self._layout
        placed = self._answers_ref() if self._answers_ref else None
        if layout is not None and answers is placed:
            self.reuses += 1
            self.last_placement = "reuse"
            return []
        if (layout is not None
                and stream_key is not None
                and stream_key == self._stream_key
                and answers.n_answers >= layout["length"]
                and answers.n_tasks >= layout["sizes"]["n_tasks"]
                and answers.n_workers >= layout["sizes"]["n_workers"]
                and answers.n_choices >= layout["sizes"]["n_choices"]
                and self._values_dtype(answers)
                == self._segments["values"].dtype
                and len(layout["epochs"]) < MAX_EPOCHS
                # Task cuts are frozen while extending, so growth piles
                # into the last shard; once the data has doubled since
                # the last full sort, re-place to rebalance.
                and answers.n_answers <= 2 * max(layout["placed_length"], 1)):
            if answers.n_answers == layout["length"]:
                self._answers_ref = weakref.ref(answers)
                self.reuses += 1
                self.last_placement = "reuse"
                return []
            ops = self._extend(answers)
            self._stream_key = stream_key
            self._answers_ref = weakref.ref(answers)
            self.extends += 1
            self.last_placement = "extend"
            return ops
        ops = self._place_full(answers)
        self._stream_key = stream_key
        self._answers_ref = weakref.ref(answers)
        self.placements += 1
        self.last_placement = "place"
        return ops

    def _sizes(self, answers: AnswerSet) -> dict:
        return {"n_tasks": answers.n_tasks, "n_workers": answers.n_workers,
                "n_choices": answers.n_choices}

    def _ensure_capacity(self, length: int, values_dtype: np.dtype,
                         preserve: int = 0) -> bool:
        """Grow segments (by at least doubling) to hold ``length``
        elements, keeping the first ``preserve`` elements' contents.
        Returns True when any segment was reallocated (workers must
        re-attach)."""
        reallocated = False
        for field in _FIELDS:
            dtype = values_dtype if field == "values" else np.dtype(np.int64)
            seg = self._segments.get(field)
            if seg is not None and seg.dtype == dtype \
                    and seg.capacity >= length:
                continue
            capacity = max(length,
                           2 * seg.capacity if seg is not None else 0)
            fresh = _Segment(dtype, capacity)
            if seg is not None:
                if preserve and seg.dtype == dtype:
                    fresh.view[:preserve] = seg.view[:preserve]
                seg.release()
            self._segments[field] = fresh
            reallocated = True
        return reallocated

    def _seg_desc(self) -> dict:
        return {field: (seg.name, seg.dtype.str, seg.capacity)
                for field, seg in self._segments.items()}

    def _place_full(self, answers: AnswerSet) -> list:
        """Write the full task-sorted arrays as a single epoch."""
        sharded = ShardedAnswerSet(answers, self.n_shards)
        length = answers.n_answers
        reattach = self._ensure_capacity(length,
                                         self._values_dtype(answers))
        flat = {"tasks": sharded.flat_tasks, "workers": sharded.flat_workers,
                "values": sharded.flat_values}
        for field, arr in flat.items():
            self._segments[field].view[:length] = arr
        bounds = []
        offset = 0
        for shard in sharded.shards:
            bounds.append((offset, offset + shard.n_answers))
            offset += shard.n_answers
        cuts = [sharded.shards[0].task_start] + [s.task_stop
                                                 for s in sharded.shards]
        self._layout = {
            "length": length,
            "placed_length": length,
            "task_cuts": cuts,
            "epochs": [(0, length, bounds)],
            "sizes": self._sizes(answers),
        }
        self._remember_prefix(answers)
        ops: list = []
        if reattach:
            ops.append(("attach", (self._seg_desc(),)))
        ops.append(("layout", (self._copy_layout(),)))
        return ops

    def _extend(self, answers: AnswerSet) -> list:
        """Append the new answer tail as one epoch."""
        layout = self._layout
        old_len = layout["length"]
        new_len = answers.n_answers
        delta_tasks = answers.tasks[old_len:]
        delta_workers = answers.workers[old_len:]
        delta_values = answers.values[old_len:]
        if answers.task_type.is_categorical:
            delta_values = delta_values.astype(np.int64, copy=False)
        cuts = layout["task_cuts"]
        n_ranges = len(cuts) - 1
        if n_ranges > 1:
            # Multi-shard layouts need the epoch task-sorted so each
            # shard's piece is one contiguous slice; the single-shard
            # layout keeps arrival order (the plain-path invariant).
            order = radix_argsort(delta_tasks)
            delta_tasks = delta_tasks[order]
            delta_workers = delta_workers[order]
            delta_values = delta_values[order]
        # Cheap tripwire for the caller's append-only contract: the
        # previously placed prefix of the arrival-order arrays must
        # still start and end with the same tasks.  (A full comparison
        # would cost as much as a copy.)
        mark_len, first_task, last_task = self._prefix_mark
        if mark_len and (int(answers.tasks[0]) != first_task
                         or int(answers.tasks[mark_len - 1]) != last_task):
            raise ProtocolError(
                "stream_key reused but the previously placed answers "
                "changed; extension requires append-only growth"
            )
        cuts[-1] = answers.n_tasks
        reattach = self._ensure_capacity(new_len,
                                         self._segments["values"].dtype,
                                         preserve=old_len)
        for field, arr in (("tasks", delta_tasks), ("workers", delta_workers),
                           ("values", delta_values)):
            self._segments[field].view[old_len:new_len] = arr
        if n_ranges > 1:
            pos = np.searchsorted(delta_tasks, cuts, side="left")
            bounds = [(old_len + int(pos[k]), old_len + int(pos[k + 1]))
                      for k in range(n_ranges)]
        else:
            bounds = [(old_len, new_len)]
        epoch = (old_len, new_len, bounds)
        layout["epochs"].append(epoch)
        layout["length"] = new_len
        layout["sizes"] = self._sizes(answers)
        self._remember_prefix(answers)
        ops: list = []
        if reattach:
            # Workers rebuild from the epoch list after re-attaching;
            # send the full layout rather than the incremental message.
            ops.append(("attach", (self._seg_desc(),)))
            ops.append(("layout", (self._copy_layout(),)))
        else:
            ops.append(("extend", (epoch, dict(layout["sizes"]),
                                   cuts[-1])))
        return ops

    def _copy_layout(self) -> dict:
        layout = self._layout
        return {
            "length": layout["length"],
            "task_cuts": list(layout["task_cuts"]),
            "epochs": [(lo, hi, [tuple(b) for b in bounds])
                       for lo, hi, bounds in layout["epochs"]],
            "sizes": dict(layout["sizes"]),
        }

    def _remember_prefix(self, answers: AnswerSet) -> None:
        """Record arrival-order endpoints of the placed answers (the
        extend tripwire's reference points)."""
        n = answers.n_answers
        if n:
            self._prefix_mark = (n, int(answers.tasks[0]),
                                 int(answers.tasks[n - 1]))
        else:
            self._prefix_mark = (0, -1, -1)


class RuntimeRegistry:
    """Process-wide pool of :class:`ShardRuntime`\\ s with idle eviction.

    Keyed by the execution-plan runtime key ``(n_shards, pool_slots)``
    — an :class:`~repro.core.policy.ExecutionPolicy` / resolved plan is
    accepted anywhere a ``(n_shards, max_workers)`` pair is.
    :meth:`acquire` returns the existing runtime (respawning a closed
    one) and lazily evicts other runtimes idle longer than ``idle_ttl``
    seconds; eviction never touches a runtime whose lease lock is held.
    ``close_all`` runs at interpreter exit for the default registry.
    """

    def __init__(self, idle_ttl: float = DEFAULT_IDLE_TTL) -> None:
        self.idle_ttl = float(idle_ttl)
        self._runtimes: dict[tuple, ShardRuntime] = {}
        self._lock = threading.Lock()

    @staticmethod
    def _key_args(policy, max_workers=None) -> tuple[int, int | None]:
        """``(n_shards, max_workers)`` for a policy, plan or raw pair."""
        if isinstance(policy, ExecutionPolicy):
            return policy.resolved_shards, policy.max_workers
        if isinstance(policy, ExecutionPlan):
            # The plan's runtime_key already carries the normalised
            # slot count (idempotent under the resolve below), so plan
            # and raw-pair spellings cannot key differently.
            return policy.runtime_key
        return int(policy), max_workers

    def acquire(self, policy, max_workers: int | None = None) -> ShardRuntime:
        """Get (or create) the runtime a policy (or raw pair) keys to.

        ``policy`` may be an :class:`ExecutionPolicy`, a resolved
        :class:`ExecutionPlan`, or a plain shard count with
        ``max_workers``.  The width is normalised to the pool-slot
        count a runtime would actually use, so ``None`` and its
        resolved value share one runtime instead of duplicating pools
        and segments.
        """
        n_shards, max_workers = self._key_args(policy, max_workers)
        key = (int(n_shards),
               ShardRuntime.resolve_max_workers(n_shards, max_workers))
        if _VERIFIER is not None:
            _VERIFIER.registry_checkpoint()
        with self._lock:
            self._evict_idle_locked(time.monotonic())
            runtime = self._runtimes.get(key)
            if runtime is None or runtime.closed:
                runtime = ShardRuntime(n_shards=n_shards,
                                       max_workers=max_workers)
                self._runtimes[key] = runtime
            runtime.last_used = time.monotonic()
            return runtime

    def lease(self, policy: ExecutionPolicy | ExecutionPlan,
              answers: AnswerSet, spec: MethodSpec, *, stream_key=None,
              ) -> tuple[ShardRuntime, RuntimeLease]:
        """Acquire a runtime and lease it in one step.

        ``policy`` (a policy or resolved plan) picks the runtime and
        carries the fault policy and fault plan the lease dispatches
        under; ``spec`` is the :class:`~repro.core.policy.MethodSpec`
        the workers rebuild.

        Retries when another holder's ``close()`` lands between the
        acquire and the lease (any holder may close a shared runtime at
        any time; the registry's contract is that the next fit simply
        respawns).  Returns ``(runtime, lease)`` so callers can keep
        the runtime for introspection or an explicit ``close()``.
        """
        while True:
            runtime = self.acquire(policy)
            try:
                return runtime, runtime.lease(
                    answers, spec, stream_key=stream_key,
                    fault_policy=policy.fault_policy,
                    faults=policy.faults)
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
