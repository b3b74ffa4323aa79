"""Live truth-inference facade over a streaming answer set.

:class:`InferenceEngine` owns a :class:`~repro.engine.stream.StreamingAnswerSet`
and a per-method cache of the last fitted state.  Callers push answers in
with :meth:`add_answers` and read the current truth out with
:meth:`current_truth` (or :meth:`infer` for the full
:class:`~repro.core.result.InferenceResult`); the engine decides whether a
fresh fit is needed at all, and whether it can be *warm* — resumed from
the cached posterior/parameters of the previous fit — instead of cold.

A warm refit is attempted when the method supports it
(``supports_sharding``) and the stream only grew (append-only is
guaranteed by the stream).  Label-space growth no longer forces a cold
refit: label codes are append-only too, so the cached state is padded
along the choice axis (:func:`~repro.core.warmstart.pad_result_labels`)
and the iteration resumes — new labels start with a small seed mass and
earn their posterior like any other parameter.  Methods without
warm-start support simply refit cold; results are correct either way,
warmth only changes the iteration count.

The engine chooses where a refit runs — a lease on the process tier,
its warm shard session for in-process delta refits, otherwise the
runner ``fit`` builds — and hands the warm start and its resolved
plan to ``fit``, which decides whether the refit is a delta refit.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import itertools
import warnings
from typing import Iterable, Sequence

from ..core.policy import ExecutionPolicy, MethodSpec, StorePolicy
from ..core.registry import capabilities, create
from ..core.result import FAULT_EVENTS, InferenceResult
from ..core.tasktypes import TaskType
from ..core.warmstart import pad_result_labels
from ..exceptions import EngineError, RecoveryError, StoreError
from .placement import cuts_hold
from .stream import StreamingAnswerSet


# Process-unique stream identities for runtime stream keys.  id() is
# unusable here: a dead engine's id can be reused by a new one while
# the shared runtime still holds the dead stream's placed segments.
_STREAM_TOKENS = itertools.count()


@dataclasses.dataclass
class _ReadView:
    """One fit decoded for readers: external id -> truth / quality."""

    truth: dict
    quality: dict


@dataclasses.dataclass
class _CachedFit:
    """Last fitted state for one method."""

    version: int
    replacements: int
    n_tasks: int
    n_workers: int
    n_choices: int
    method_kwargs: dict
    result: InferenceResult
    #: Built by the fit's first read and copied out to every later
    #: one; kept off ``result`` so snapshots do not carry it.
    view: _ReadView | None = dataclasses.field(default=None, repr=False)

    @property
    def shard_state(self):
        """Per-shard delta-refit cache the fit collected (or ``None``)."""
        return self.result.shard_state


def _by_id(kind: str, ids: list[str], values: list) -> dict:
    """``{id: value}`` for one read view, refusing ids that collide.

    Reads key entities by ``str(id)``, so two ids the stream keeps apart
    (``1`` and ``"1"``) would silently merge into one entry.
    """
    view = dict(zip(ids, values, strict=True))
    if len(view) != len(ids):
        counts = collections.Counter(ids)
        clashes = sorted(key for key, n in counts.items() if n > 1)
        raise EngineError(
            f"reads key {kind}s by str(id), but {kind} id(s) "
            f"{clashes[:10]!r} each name more than one {kind} (ids such "
            f"as 1 and '1'); give every {kind} an id that prints "
            f"differently"
        )
    return view


class InferenceEngine:
    """Streaming truth inference with warm-started refits.

    Parameters
    ----------
    task_type:
        Task type of the stream (fixed for the engine's lifetime).
    n_choices, label_order, on_duplicate:
        Forwarded to :class:`StreamingAnswerSet`.
    seed:
        Seed forwarded to every method instantiation, so repeated fits
        are reproducible.
    policy:
        The :class:`~repro.core.policy.ExecutionPolicy` every refit
        runs under (default: unsharded in-process fits).  Resolved
        against each snapshot: the serial/thread tiers shard in
        process; the process tier leases a persistent
        :class:`~repro.engine.runtime.ShardRuntime` from ``registry``
        (default: the process-wide one), so every refit reuses the
        warm worker pools and a *grown* stream appends only its new
        answers to the placed shared-memory segments.  Methods without
        sharding support fall back to the plain fit either way.  The
        engine is a context manager — ``close()`` releases the runtime.

    Example
    -------
    >>> engine = InferenceEngine(TaskType.DECISION_MAKING)
    >>> engine.add_answers([("t1", "w1", 1), ("t1", "w2", 1), ("t2", "w1", 0)])
    3
    >>> engine.current_truth("MV")
    {'t1': 1, 't2': 0}
    """

    def __init__(
        self,
        task_type: TaskType,
        n_choices: int | None = None,
        label_order: Sequence | None = None,
        on_duplicate: str = "keep",
        seed: int | None = 0,
        policy: ExecutionPolicy | None = None,
        registry=None,
    ) -> None:
        self.stream = StreamingAnswerSet(
            task_type=task_type,
            n_choices=n_choices,
            label_order=label_order,
            on_duplicate=on_duplicate,
        )
        self.seed = seed
        #: Default: plain unsharded fits, exactly what a bare engine
        #: always did.
        self.policy = (policy if policy is not None
                       else ExecutionPolicy(n_shards=1, executor="serial"))
        self._registry = registry
        self._runtime = None
        self._stream_token = next(_STREAM_TOKENS)
        self._cache: dict[str, _CachedFit] = {}
        #: Warm in-process shard sessions for delta refits, keyed by
        #: shard count (the serial/thread analogue of the persistent
        #: process runtime).
        self._sessions: dict = {}
        self._thread_pool = None
        # Durability (ExecutionPolicy.store): the constructor kwargs
        # are remembered verbatim — they are what the store's meta
        # must reproduce for recovery to rebuild this exact engine.
        self._init_n_choices = n_choices
        self._init_label_order = (list(label_order)
                                  if label_order is not None else None)
        self._store = None
        self._store_policy: StorePolicy | None = None
        self._spill = None
        self._snapshot_seqs: dict[str, int] = {}
        #: Lifetime fault-recovery totals over every fit this engine
        #: ran (``repro stream -v`` reports them at end of stream).
        self.fault_totals = dict.fromkeys(FAULT_EVENTS, 0)
        if self.policy.store is not None:
            self._open_store(self.policy.store)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def add_answer(self, task, worker, value) -> None:
        """Absorb one ``(task, worker, value)`` triple."""
        self.stream.add_answer(task, worker, value)

    def add_answers(self, records: Iterable[tuple]) -> int:
        """Absorb a batch of triples; returns the number ingested.

        With a durable store attached (``policy.store``), the batch is
        acknowledged — this method returns — only after it is committed
        to the write-ahead answer log; a crash after that point loses
        nothing this method reported ingested.
        """
        return self.stream.add_answers(records)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    @property
    def store(self):
        """The attached :class:`~repro.store.store.AnswerStore` (or None)."""
        return self._store

    def _open_store(self, store_policy: StorePolicy) -> None:
        """Open a *fresh* write-through store (constructor path).

        Writing through an existing non-empty log would interleave two
        histories, so that is refused — resuming one is
        :meth:`recover`'s job.
        """
        from ..store import AnswerStore

        store = AnswerStore(store_policy.path, sync=store_policy.sync)
        existing = len(store.log)
        if existing:
            store.close()
            raise StoreError(
                f"store at {store_policy.path} already holds {existing} "
                f"answers; resume it with InferenceEngine.recover() "
                f"instead of writing a new stream through it"
            )
        store.log.write_meta(self._store_meta())
        self._bind_store(store, store_policy)

    def _store_meta(self) -> dict:
        from ..store.log import FORMAT_VERSION, encode_field

        label_order = self._init_label_order
        return {
            "format": FORMAT_VERSION,
            "task_type": self.stream.task_type.value,
            "n_choices": self._init_n_choices,
            "label_order": ([encode_field(label) for label in label_order]
                            if label_order is not None else None),
            "on_duplicate": self.stream.on_duplicate,
            "seed": self.seed,
        }

    def _bind_store(self, store, store_policy: StorePolicy) -> None:
        self._store = store
        self._store_policy = store_policy
        if store_policy.spill_ttl is not None:
            from ..store import ShardSpill

            self._spill = ShardSpill(store.spill_dir,
                                     ttl=store_policy.spill_ttl)
        self.stream.attach_log(store.log)

    def _maybe_snapshot(self, method: str) -> None:
        """Snapshot a fresh fit when it is due (see ``snapshot_every``)."""
        cached = self._cache[method]
        last = self._snapshot_seqs.get(method)
        if last is None:
            last = self._store.snapshots.latest_seq(method)
        if last and cached.version - last < self._store_policy.snapshot_every:
            return
        self._store.snapshots.save(
            method,
            seq=cached.version,
            replacements=cached.replacements,
            payload={
                "result": cached.result,
                "method_kwargs": cached.method_kwargs,
                "n_tasks": cached.n_tasks,
                "n_workers": cached.n_workers,
                "n_choices": cached.n_choices,
            },
            keep=self._store_policy.snapshot_keep,
        )
        self._snapshot_seqs[method] = cached.version

    def spill_idle(self) -> int:
        """Spill cold shards now (see ``StorePolicy.spill_ttl``);
        returns how many spilled.  Also runs automatically after each
        refit when spilling is enabled."""
        return sum(session.spill_idle()
                   for session in self._sessions.values())

    @classmethod
    def recover(cls, path: str, *, policy: ExecutionPolicy | None = None,
                registry=None, replay_chunk: int = 65536
                ) -> "InferenceEngine":
        """Resume a persisted stream from the store at ``path`` — warm.

        Rebuilds the engine from the store's meta (task type, label
        order, duplicate policy, seed), replays every *committed* log
        record into a fresh stream (a batch interrupted mid-commit by
        a crash was never acknowledged and is invisible here), verifies
        the replay bit-faithfully against the log's version and
        replacement counters, then seeds the fit cache — and, for
        delta-capable policies, the warm shard layout — from the newest
        snapshots.  The first :meth:`infer` after recovery therefore
        resumes from the last snapshot and refits only the replayed
        tail (a delta refit when the shard cuts align), instead of
        fitting the whole history cold.

        ``policy`` defaults to plain serial fits; its ``store`` field,
        if set, must point at ``path`` (it configures snapshot cadence
        and spill for the resumed engine).
        """
        from ..store import AnswerStore
        from ..store.log import decode_field

        if policy is not None and policy.store is not None:
            store_policy = policy.store
            if store_policy.path != path:
                raise EngineError(
                    f"policy.store.path {store_policy.path!r} does not "
                    f"match the recovery path {path!r}"
                )
        else:
            store_policy = StorePolicy(path=path)
        store = AnswerStore(path, sync=store_policy.sync)
        try:
            meta = store.log.read_meta()
            if not meta:
                raise RecoveryError(
                    f"no answer store found at {path} (empty database)"
                )
            label_order = meta.get("label_order")
            if label_order is not None:
                label_order = [decode_field(label)
                               for label in label_order]
            base_policy = (policy if policy is not None
                           else ExecutionPolicy(n_shards=1,
                                                executor="serial"))
            engine = cls(
                task_type=TaskType(meta["task_type"]),
                n_choices=meta.get("n_choices"),
                label_order=label_order,
                on_duplicate=meta.get("on_duplicate", "keep"),
                seed=meta.get("seed", 0),
                policy=dataclasses.replace(base_policy, store=None),
                registry=registry,
            )
            # Replay with the log detached: replayed records must not
            # be appended to the log again.
            for chunk in store.log.replay(replay_chunk):
                engine.stream.add_answers(chunk)
            if engine.stream.version != store.log.last_seq:
                raise RecoveryError(
                    f"replay of {path} produced stream version "
                    f"{engine.stream.version} but the log ends at seq "
                    f"{store.log.last_seq}; the log is corrupt or was "
                    f"written under a different stream configuration"
                )
            if engine.stream.replacements != store.log.replace_count:
                raise RecoveryError(
                    f"replay of {path} produced "
                    f"{engine.stream.replacements} replacements but the "
                    f"log recorded {store.log.replace_count}; duplicate "
                    f"policy outcomes diverged — refusing to serve a "
                    f"non-bit-faithful recovery"
                )
        except BaseException:
            store.close()
            raise
        engine.policy = dataclasses.replace(base_policy,
                                            store=store_policy)
        engine._bind_store(store, store_policy)
        engine._seed_from_snapshots()
        return engine

    def _seed_from_snapshots(self) -> None:
        """Warm the fit cache (and shard sessions) from stored snapshots."""
        snapshot = (self.stream.snapshot() if self.stream.n_answers
                    else None)
        for method in self._store.snapshots.methods():
            row = self._store.snapshots.load_latest(
                method, max_seq=self.stream.version)
            if row is None:
                continue
            seq, replacements, payload = row
            if replacements > self.stream.replacements:
                continue  # ahead of the replayed stream: unusable
            result = payload["result"]
            self._cache[method] = _CachedFit(
                version=seq,
                replacements=replacements,
                n_tasks=payload["n_tasks"],
                n_workers=payload["n_workers"],
                n_choices=payload["n_choices"],
                method_kwargs=dict(payload["method_kwargs"]),
                result=result,
            )
            self._snapshot_seqs[method] = seq
            if (snapshot is not None
                    and result.shard_state is not None
                    and self.policy.refit == "delta"
                    # Replacements in the replayed tail contradict the
                    # snapshot; the warm gate will reject it anyway.
                    and replacements == self.stream.replacements):
                self._adopt_session(result.shard_state, snapshot)

    def _adopt_session(self, state, snapshot) -> None:
        """Seed the warm layout the next refit runs on — the in-process
        shard session, or the registry's runtime on the process tier —
        with a recovered :class:`~repro.inference.sharded.ShardState`'s
        pinned cuts, so the first post-recovery refit is a true delta
        refit."""
        plan = self.policy.resolve(snapshot)
        # Adopt only a layout the next refit can use: over the state's
        # shard count, on cuts that still hold.
        if not (plan.sharded and plan.n_shards == state.n_shards
                and cuts_hold(snapshot, state.n_answers,
                              state.task_cuts[-1], state.base_answers)):
            return
        if plan.mode == "process":
            from .runtime import get_runtime_registry

            registry = self._registry or get_runtime_registry()
            self._runtime = placement = registry.acquire(plan)
        else:
            placement = self._session(plan.n_shards)
        placement.adopt(snapshot, state, stream_key=self._stream_key())

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def infer(self, method: str | MethodSpec = "MV",
              force_cold: bool = False,
              **method_kwargs) -> InferenceResult:
        """Fit ``method`` on the current snapshot, reusing cached state.

        ``method`` is a registry name (extra keyword arguments become
        construction kwargs) or a :class:`~repro.core.policy.MethodSpec`.
        Returns the cached result outright when nothing changed since
        the last fit with an identical spec; otherwise refits — warm
        when possible, cold when not (first fit, changed kwargs, or a
        grown label space).  ``force_cold=True`` always performs a
        fresh cold fit, even on an unchanged stream, so callers can
        compare warm and cold results.
        """
        spec = MethodSpec.coerce(method, method_kwargs)
        method, method_kwargs = spec.name, spec.kwargs
        snapshot = self.stream.snapshot()
        cached = self._cache.get(method)
        if (not force_cold
                and cached is not None
                and cached.version == self.stream.version
                and cached.method_kwargs == method_kwargs):
            return cached.result

        plan = None
        if capabilities(method).sharding:
            plan = self.policy.resolve(snapshot)
            if not plan.sharded:
                # One shard runs in process on every tier.
                plan = dataclasses.replace(plan, mode="serial",
                                           max_workers=0)
        spec = spec.with_defaults(seed=self.seed)
        instance = create(spec)
        if plan is None and self.policy.refit == "delta":
            # Non-sharding methods never receive the policy, so the
            # method-level warning cannot fire; surface it here.
            warnings.warn(
                f"{method} can only refit full; ExecutionPolicy "
                f'refit="delta" is ignored (no sharded EM — see '
                f"Capabilities.sharding)",
                UserWarning, stacklevel=2)
        warm = None
        if (not force_cold
                and cached is not None
                and plan is not None
                and cached.method_kwargs == method_kwargs
                # Label codes are append-only, so a grown label space
                # warm-starts too (cached state padded below); a shrunk
                # one is impossible by construction.
                and cached.n_choices <= snapshot.n_choices
                and cached.n_tasks <= snapshot.n_tasks
                and cached.n_workers <= snapshot.n_workers
                # In-place replacements since the cached fit contradict
                # answers that fit was trained on — only a purely grown
                # stream satisfies the warm-start contract.
                and cached.replacements == self.stream.replacements):
            warm = cached.result
            if (cached.n_choices < snapshot.n_choices
                    and warm.posterior is not None):
                # Dynamic-label warm start: pad the cached posterior /
                # confusion state with seed mass for the new labels.
                warm = pad_result_labels(warm, snapshot.n_choices)
            elif cached.n_choices < snapshot.n_choices:
                warm = None  # no posterior to pad: refit cold
        # Where the fit runs is the engine's choice; whether it is a
        # delta refit is fit()'s, from the warm start and the plan.
        runner = contextlib.nullcontext()
        if plan is not None and plan.mode == "process":
            # Persistent process tier: the lease reuses warm pools, and
            # because the stream key only changes on in-place
            # replacements, a purely grown stream appends its new tail
            # to the placed segments instead of rebuilding them.
            runner = self._lease_runtime(plan, snapshot, spec,
                                         self._stream_key())
        elif plan is not None and plan.refit == "delta":
            # In-process delta refits run over the warm session: the
            # task-sorted shard arrays and the spec's frozen operators
            # persist across refits, extended (and selectively
            # invalidated) by just the new tail.
            pool = (self._ensure_thread_pool(plan.max_workers)
                    if plan.mode == "thread" and plan.max_workers > 1
                    else None)
            runner = contextlib.nullcontext(self._session(
                plan.n_shards).runner(snapshot, instance,
                                      stream_key=self._stream_key(),
                                      pool=pool))
        with runner as shard_runner:
            result = instance.fit(snapshot, warm_start=warm,
                                  shard_runner=shard_runner, policy=plan)
        if result.fit_stats is not None:
            for key in self.fault_totals:
                self.fault_totals[key] += getattr(result.fit_stats, key, 0)
        self._cache[method] = _CachedFit(
            version=self.stream.version,
            replacements=self.stream.replacements,
            n_tasks=snapshot.n_tasks,
            n_workers=snapshot.n_workers,
            n_choices=snapshot.n_choices,
            method_kwargs=dict(method_kwargs),
            result=result,
        )
        if self._store is not None:
            self._maybe_snapshot(method)
        if self._spill is not None:
            self.spill_idle()
        return result

    def current_truth(self, method: str | MethodSpec = "MV",
                      **method_kwargs) -> dict:
        """The inferred truth per task, keyed by ``str`` of the task id.

        Categorical label codes are decoded back to the external labels
        the stream ingested; numeric truths are returned as floats.
        Refits first when :meth:`infer` would.  Every call returns a
        fresh dict: the fit is decoded once, by its first read, and
        later reads of the same fit copy that decoded view, so mutating
        a returned dict never changes another read.
        """
        return self._read_view(method, method_kwargs).truth.copy()

    def worker_quality(self, method: str | MethodSpec = "MV",
                       **method_kwargs) -> dict[str, float]:
        """Each worker's fitted quality, keyed by ``str`` of the worker
        id (a fresh dict per call, like :meth:`current_truth`)."""
        return self._read_view(method, method_kwargs).quality.copy()

    def _read_view(self, method: str | MethodSpec,
                   method_kwargs: dict) -> _ReadView:
        """The decoded view of ``method``'s current fit, built on the
        fit's first read (it dies with the fit)."""
        self.infer(method, **method_kwargs)
        cached = self._cache[MethodSpec.coerce(method).name]
        if cached.view is None:
            snapshot = self.stream.snapshot()
            result = cached.result
            cached.view = _ReadView(
                truth=_by_id("task", snapshot.task_labels,
                             self.stream.decode_values(result.truths)),
                quality=_by_id("worker", snapshot.worker_labels,
                               result.worker_quality.tolist()),
            )
        return cached.view

    # ------------------------------------------------------------------
    # Delta refits
    # ------------------------------------------------------------------
    def _session(self, n_shards: int):
        """The warm in-process shard session (serial and thread tiers)
        for ``n_shards``, created on first use."""
        from .runtime import SerialShardSession

        session = self._sessions.get(n_shards)
        if session is None:
            session = SerialShardSession(n_shards, spill=self._spill)
            self._sessions[n_shards] = session
        return session

    def _stream_key(self) -> tuple:
        """The stream's placement key: it changes only on in-place
        replacements, so a purely grown stream extends its layout."""
        return ("stream", self._stream_token, self.stream.replacements)

    def _ensure_thread_pool(self, width: int):
        from concurrent.futures import ThreadPoolExecutor

        if self._thread_pool is not None and self._thread_pool[0] != width:
            self._thread_pool[1].shutdown(wait=True)
            self._thread_pool = None
        if self._thread_pool is None:
            self._thread_pool = (width, ThreadPoolExecutor(
                max_workers=width))
        return self._thread_pool[1]

    # ------------------------------------------------------------------
    # Runtime control
    # ------------------------------------------------------------------
    def _lease_runtime(self, plan, snapshot, spec: MethodSpec, stream_key):
        """Lease from the registry (retrying past concurrent closes)
        and remember the runtime for ``close()``/introspection."""
        from .runtime import get_runtime_registry

        registry = self._registry or get_runtime_registry()
        self._runtime, lease = registry.lease(
            plan, snapshot, spec, stream_key=stream_key)
        return lease

    def close(self) -> None:
        """Release the engine's shard runtime, warm sessions, thread
        pool and durable store (idempotent).  Shared runtimes respawn
        lazily on the next process-tier fit, so closing is always
        safe; the store reopens via :meth:`recover`."""
        if self._runtime is not None:
            self._runtime.close()
            self._runtime = None
        self._sessions.clear()
        if self._thread_pool is not None:
            self._thread_pool[1].shutdown(wait=True)
            self._thread_pool = None
        if self._store is not None:
            self.stream.attach_log(None)
            self._store.close()
            self._store = None

    def __enter__(self) -> "InferenceEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Cache control
    # ------------------------------------------------------------------
    def invalidate(self, method: str | MethodSpec | None = None) -> None:
        """Drop cached fits (all of them, or one method's), and with
        them their read views."""
        if method is None:
            self._cache.clear()
        else:
            self._cache.pop(MethodSpec.coerce(method).name, None)

    def cached_methods(self) -> list[str]:
        """Method names with a cached fit."""
        return list(self._cache)

    def last_fit_was_warm(self, method: str | MethodSpec) -> bool:
        """Whether the cached fit for ``method`` resumed from state."""
        cached = self._cache.get(MethodSpec.coerce(method).name)
        if cached is None:
            return False
        return bool(cached.result.extras.get("warm_started", False))

    def __repr__(self) -> str:
        return (f"InferenceEngine({self.stream!r}, "
                f"cached={sorted(self._cache)})")
