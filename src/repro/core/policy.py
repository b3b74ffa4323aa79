"""One execution vocabulary: :class:`ExecutionPolicy` and :class:`MethodSpec`.

"How to run" and "what to run" are two frozen objects, and every layer
that runs a fit takes them:

* :class:`ExecutionPolicy` — a frozen, declarative description of *how*
  a fit should execute: shard count, executor tier, pool width, refit
  mode, durability and recovery.  ``resolve(answers)`` turns the
  declaration into a concrete :class:`ExecutionPlan` for one answer
  set.  A single fit is told how to run in one place only:
  ``fit(answers, policy=...)``, which has the answers the policy
  resolves against.  The engines, the batch runners and the CLI take
  a policy and run each fit under its resolved plan; the runtime
  registry keys its runtimes on a plan.
* :class:`MethodSpec` — a frozen ``(name, kwargs)`` description of
  *what* to run.  Specs are picklable, comparable (cache keys) and
  carry enough to rebuild the method in a worker process.

The policy is declarative: applying it to a method that cannot shard is
a no-op (grids set one policy globally and only the sharded-EM methods
act on it), exactly like the other per-method capability knobs — but a
policy that *names* explicit parallelism (``n_shards > 1`` or a forced
thread/process tier) makes ``fit`` emit one :class:`UserWarning` per
call saying which fields the method ignored.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Mapping

__all__ = [
    "ExecutionPlan",
    "ExecutionPolicy",
    "FaultPolicy",
    "MethodSpec",
    "StorePolicy",
]

#: Executor tiers an :class:`ExecutionPolicy` may name.
EXECUTORS = ("auto", "serial", "thread", "process")

#: ``auto`` reaches for processes at this answer count.
DEFAULT_PROCESS_THRESHOLD = 200_000

#: ``n_shards=None`` resolves to ``max(2, min(AUTO_SHARD_CAP, cpus))``.
AUTO_SHARD_CAP = 8

#: Refit modes an :class:`ExecutionPolicy` may name.  ``"full"`` keeps
#: every warm refit a complete E/M sweep over all shards (bit-identical
#: to the historical behaviour); ``"delta"`` enables dirty-shard
#: incremental EM with converged-shard freezing
#: (:mod:`repro.inference.sharded`).
REFIT_MODES = ("full", "delta")

#: Default full-verify cadence for delta refits: every this many EM
#: iterations (and once before declaring convergence) frozen shards get
#: a fresh E-step to check for drift above the freeze tolerance.
DEFAULT_VERIFY_EVERY = 5


#: Default per-phase deadline (seconds) for process-tier reply waits.
#: Generous — it exists to bound hangs, not to race healthy phases.
DEFAULT_PHASE_DEADLINE = 120.0


@dataclasses.dataclass(frozen=True)
class FaultPolicy:
    """Declarative recovery: how the process tier survives failure.

    Parameters
    ----------
    deadline:
        Per-phase deadline in seconds for every process-tier reply
        wait (phase dispatches *and* sync messages).  A phase past its
        deadline is treated like a worker crash: the worker is killed
        and respawned on a fresh pipe, the phase re-dispatched.
        ``None`` waits unboundedly (the pre-fault-tolerance
        behaviour).
    retries:
        Crash/timeout recovery attempts per dispatch before giving up
        on the process tier for the failing shards.
    backoff_base / backoff_cap:
        Parameters of the shared :class:`repro.faults.Backoff` delay
        between recovery attempts (capped exponential, seeded jitter).
    degrade:
        After the retry budget: execute the orphaned shards' phase
        in-process on the master via the serial spec path and keep
        going (True, default — flagged in ``FitStats``), or raise
        :class:`~repro.exceptions.WorkerCrashError` /
        :class:`~repro.exceptions.PhaseTimeoutError` (False).
    """

    deadline: float | None = DEFAULT_PHASE_DEADLINE
    retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.deadline is not None and not self.deadline > 0:
            raise ValueError(
                f"deadline must be positive or None, got {self.deadline}"
            )
        if self.retries < 0:
            raise ValueError(
                f"retries must be >= 0, got {self.retries}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError(
                "backoff_base/backoff_cap must be >= 0, got "
                f"{self.backoff_base}/{self.backoff_cap}"
            )


@dataclasses.dataclass(frozen=True)
class ExecutionPlan:
    """A policy resolved against one answer set: no ``auto`` left.

    Attributes
    ----------
    mode:
        ``"serial"``, ``"thread"`` or ``"process"`` — the tier that will
        actually execute.
    n_shards:
        Concrete shard count (>= 1; the shard layer still clamps to the
        task count per dataset).
    max_workers:
        Pool width: thread count for the thread tier, process-pool
        slots for the process tier, ``0`` for serial.
    refit, freeze_tol, verify_every:
        The policy's refit settings, copied so that ``fit(policy=p)``
        and ``fit(policy=p.resolve(answers))`` run the same fit.  They
        do not enter :attr:`runtime_key`: refit settings never split a
        runtime.

    Every field after ``max_workers`` is repr-quiet: the plan's
    doctest-visible identity is the execution shape.
    """

    mode: str
    n_shards: int
    max_workers: int
    refit: str = dataclasses.field(default="full", repr=False)
    freeze_tol: float | None = dataclasses.field(default=None, repr=False)
    verify_every: int = dataclasses.field(default=DEFAULT_VERIFY_EVERY,
                                          repr=False)
    #: Recovery policy for the process tier.
    fault_policy: FaultPolicy = dataclasses.field(
        default=FaultPolicy(), repr=False)

    @property
    def sharded(self) -> bool:
        """Whether this plan involves more than one shard."""
        return self.n_shards > 1

    @property
    def runtime_key(self) -> tuple[int, int]:
        """``(n_shards, pool_slots)`` — the runtime-registry cache key
        this plan leases under."""
        return (self.n_shards,
                resolve_process_workers(self.n_shards, self.max_workers
                                        or None))


def resolve_process_workers(n_shards: int,
                            max_workers: int | None = None) -> int:
    """Pool-slot count for a process-tier runtime.

    The single source of truth shared by :class:`ExecutionPolicy`,
    :class:`~repro.engine.runtime.ShardRuntime` and the registry cache
    key (``max_workers=None`` and its resolved value must be the same
    configuration).
    """
    workers = max_workers or min(int(n_shards), os.cpu_count() or 1)
    return max(1, min(int(workers), int(n_shards)))


#: SQLite synchronous modes a :class:`StorePolicy` may name.
STORE_SYNC_MODES = ("off", "normal", "full")

#: Default log-sequence distance between fit snapshots.
DEFAULT_SNAPSHOT_EVERY = 50_000


@dataclasses.dataclass(frozen=True)
class StorePolicy:
    """Declarative durability: where and how a stream persists.

    Parameters
    ----------
    path:
        Store directory.  Created on first use; holds the WAL-mode
        SQLite answer log (``answers.sqlite``) and the cold-shard
        spill files (``spill/``).
    snapshot_every:
        Log-sequence distance between fit snapshots: after a fresh
        fit, a snapshot is taken when at least this many log records
        landed since the method's previous snapshot (the first fit
        always snapshots).  Smaller means shorter replay tails on
        recovery, at more write amplification.
    snapshot_keep:
        Snapshots retained per method (older ones are pruned).
    spill_ttl:
        Seconds a warm in-process shard may sit untouched before its
        task-sorted arrays spill to memory-mapped files (paged back in
        on demand).  ``None`` (default) disables spilling.
    sync:
        SQLite ``synchronous`` pragma: ``"normal"`` (default; survives
        process kill, may lose the last transactions on OS/power
        failure), ``"full"`` (survives power failure), or ``"off"``
        (fastest; tests only).
    """

    path: str
    snapshot_every: int = DEFAULT_SNAPSHOT_EVERY
    snapshot_keep: int = 2
    spill_ttl: float | None = None
    sync: str = "normal"

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("StorePolicy needs a store path")
        if self.snapshot_every < 1:
            raise ValueError(
                f"snapshot_every must be >= 1, got {self.snapshot_every}"
            )
        if self.snapshot_keep < 1:
            raise ValueError(
                f"snapshot_keep must be >= 1, got {self.snapshot_keep}"
            )
        if self.spill_ttl is not None and not self.spill_ttl >= 0:
            raise ValueError(
                f"spill_ttl must be >= 0, got {self.spill_ttl}"
            )
        if self.sync not in STORE_SYNC_MODES:
            raise ValueError(
                f"sync must be one of {STORE_SYNC_MODES}, "
                f"got {self.sync!r}"
            )


@dataclasses.dataclass(frozen=True)
class ExecutionPolicy:
    """Declarative "how to run": shards, executor tier, width, refits.

    Parameters
    ----------
    n_shards:
        Task-range shards per fit.  ``None`` means *auto*:
        ``max(2, min(8, cpu_count))``.  ``1`` disables sharding.
    executor:
        ``"auto"`` (default) — processes when the input has at least
        ``DEFAULT_PROCESS_THRESHOLD`` answers and more than one core is
        available, otherwise threads (serial on a single-core host
        with no explicit width); ``"serial"`` / ``"thread"`` /
        ``"process"`` force a tier.
    max_workers:
        Pool width; ``None`` picks a tier-appropriate default
        (``min(n_shards, max(2, cpus))`` threads,
        ``min(n_shards, cpus)`` process slots).  The process tier
        always leases the shared runtime registry, so warm pools and
        placed shared-memory segments are reused across fits.
    refit:
        How warm refits on a grown stream re-run EM.  ``"full"``
        (default) keeps every refit a complete E/M sweep over all
        shards — bit-identical to the historical behaviour.
        ``"delta"`` enables dirty-shard incremental EM: only shards
        whose task range received new answers are re-primed (clean
        shards reuse their cached posterior blocks and sufficient
        statistics), and converged shards freeze out of later
        iterations until a periodic full-verify E-step shows drift.
        Each fit, one-shot or an engine's, decides from its
        ``warm_start`` whether it is a delta refit: it is when the warm
        start's cached shard state still serves the answers; otherwise
        it runs full and collects the state the next delta refit
        resumes from.
    freeze_tol:
        Delta refits only: a shard freezes when its E-step changed no
        posterior entry by at least this much, and a frozen shard thaws
        when a verify E-step shows at least this much drift.  ``None``
        (default) uses the fit's convergence tolerance.
    verify_every:
        Delta refits only: frozen shards get a full verify E-step every
        this many EM iterations (and always once before convergence is
        declared).
    store:
        Optional :class:`StorePolicy` — when set, engines built on
        this policy write every ingested batch through to the durable
        answer log at ``store.path``, snapshot fit state periodically,
        and (if ``store.spill_ttl`` is set) spill cold shards to
        memory-mapped files.  ``None`` (default) keeps everything
        in RAM, exactly as before.
    fault_policy:
        :class:`FaultPolicy` every process-tier lease of this policy
        recovers under.  Faults are injected by a plan armed
        process-wide (:mod:`repro.faults`), not by a policy field.

    Examples
    --------
    >>> ExecutionPolicy().executor
    'auto'
    >>> ExecutionPolicy(n_shards=4, executor="serial").resolve(n_answers=100)
    ExecutionPlan(mode='serial', n_shards=4, max_workers=0)
    """

    n_shards: int | None = None
    executor: str = "auto"
    max_workers: int | None = None
    refit: str = "full"
    freeze_tol: float | None = None
    verify_every: int = DEFAULT_VERIFY_EVERY
    store: StorePolicy | None = None
    fault_policy: FaultPolicy = FaultPolicy()

    def __post_init__(self) -> None:
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, "
                f"got {self.executor!r}"
            )
        if self.n_shards is not None and self.n_shards < 1:
            raise ValueError(
                f"n_shards must be >= 1, got {self.n_shards}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError(
                f"max_workers must be >= 1, got {self.max_workers}"
            )
        if self.refit not in REFIT_MODES:
            raise ValueError(
                f"refit must be one of {REFIT_MODES}, got {self.refit!r}"
            )
        if self.freeze_tol is not None and not self.freeze_tol > 0:
            raise ValueError(
                f"freeze_tol must be positive, got {self.freeze_tol}"
            )
        if self.verify_every < 1:
            raise ValueError(
                f"verify_every must be >= 1, got {self.verify_every}"
            )
        if self.store is not None and not isinstance(self.store,
                                                     StorePolicy):
            raise ValueError(
                f"store must be a StorePolicy or None, got {self.store!r}"
            )
        if not isinstance(self.fault_policy, FaultPolicy):
            raise ValueError(
                f"fault_policy must be a FaultPolicy, "
                f"got {self.fault_policy!r}"
            )

    # ------------------------------------------------------------------
    def resolve(self, answers: Any = None, *,
                n_answers: int | None = None) -> ExecutionPlan:
        """Produce the concrete :class:`ExecutionPlan` for an input.

        ``answers`` may be anything with an ``n_answers`` attribute (an
        :class:`~repro.core.answers.AnswerSet`, a streaming set); pass
        ``n_answers=`` directly when no answer object exists yet.
        ``auto`` tiering picks processes for large inputs on multi-core
        hosts, threads otherwise, and serial on a single-core host with
        no explicit pool width.
        """
        cpus = os.cpu_count() or 1
        if n_answers is None:
            n_answers = (getattr(answers, "n_answers", 0)
                         if answers is not None else 0)
        n_shards = self.n_shards or max(2, min(AUTO_SHARD_CAP, cpus))
        mode = self.executor
        if mode == "auto":
            if n_answers >= DEFAULT_PROCESS_THRESHOLD and cpus > 1:
                mode = "process"
            elif (self.max_workers or 0) > 1 or cpus > 1:
                mode = "thread"
            else:
                mode = "serial"
        if mode == "serial":
            max_workers = 0
        elif mode == "thread":
            max_workers = self.max_workers or min(
                n_shards, max(2, cpus))
        else:
            max_workers = resolve_process_workers(n_shards,
                                                  self.max_workers)
        return ExecutionPlan(mode=mode, n_shards=n_shards,
                             max_workers=max_workers, refit=self.refit,
                             freeze_tol=self.freeze_tol,
                             verify_every=self.verify_every,
                             fault_policy=self.fault_policy)


def _freeze_kwargs(kwargs: Mapping[str, Any]) -> tuple:
    """Kwargs as a sorted items tuple (the spec's comparable form)."""
    return tuple(sorted(kwargs.items()))


@dataclasses.dataclass(frozen=True, init=False)
class MethodSpec:
    """What to run: a method name plus its construction kwargs.

    Frozen and comparable, so engines can key caches on it and worker
    processes can rebuild the exact same method from it.

    Examples
    --------
    >>> spec = MethodSpec("D&S", max_iter=50)
    >>> spec.name, dict(spec.kwargs)
    ('D&S', {'max_iter': 50})
    >>> spec.with_defaults(seed=0).kwargs["seed"]
    0
    """

    name: str
    _items: tuple = ()

    def __init__(self, name: str, **kwargs: Any) -> None:
        if not isinstance(name, str) or not name:
            raise ValueError(
                f"MethodSpec needs a method name string, got {name!r}"
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_items", _freeze_kwargs(kwargs))

    @property
    def kwargs(self) -> dict:
        """Construction kwargs (a fresh dict each call)."""
        return dict(self._items)

    def with_defaults(self, **defaults: Any) -> "MethodSpec":
        """A spec with ``defaults`` filled in where the spec is silent.

        Existing kwargs win, so engines can inject their ``seed``
        without overriding an explicit per-call choice.
        """
        merged = {**defaults, **self.kwargs}
        return MethodSpec(self.name, **merged)

    def create(self) -> Any:
        """Instantiate via the registry (``create(spec)``)."""
        from .registry import create

        return create(self)

    def capabilities(self) -> Any:
        """The method's declared :class:`~repro.core.registry.Capabilities`."""
        from .registry import capabilities

        return capabilities(self.name)

    @classmethod
    def coerce(cls, method: "str | MethodSpec",
               kwargs: Mapping | None = None) -> "MethodSpec":
        """Normalise a ``str | MethodSpec`` (+ optional kwargs dict).

        A spec given together with extra kwargs gains them as defaults
        (the spec's own kwargs win).
        """
        if isinstance(method, MethodSpec):
            return method.with_defaults(**dict(kwargs or {}))
        return cls(method, **dict(kwargs or {}))

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v!r}" for k, v in self._items)
        return (f"MethodSpec({self.name!r}{', ' if parts else ''}{parts})")
