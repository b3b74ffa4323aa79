"""Process-parallel sharded inference over shared-memory answer arrays.

:mod:`repro.inference.sharded` runs the map-reduce EM phases serially or
on a thread pool; NumPy holds the GIL through most of the kernels, so
threads cap out quickly.  This module is the true multi-core path,
built on the persistent runtime of :mod:`repro.engine.runtime`:

* :class:`ProcessShardRunner` — the one-shot spelling: builds a
  *private* :class:`~repro.engine.runtime.ShardRuntime`, leases it for
  exactly one answer set, and tears everything down on :meth:`close`.
  Only small things cross the pipe: phase names, model parameters,
  posterior blocks and partial statistics — never the answers.
* :class:`ShardedInferenceEngine` — a facade executing each fit under
  an :class:`~repro.core.policy.ExecutionPolicy`: the policy's
  ``resolve(answers)`` picks the tier per fit — **threads (or the
  serial path) for small inputs**, where process spin-up would
  dominate, and **processes for large ones** when real cores are
  available.  Its process tier leases from the shared
  :class:`~repro.engine.runtime.RuntimeRegistry`, so repeated fits (a
  method sweep, a refit loop) reuse warm pinned workers and placed
  segments instead of respawning per fit.

When to prefer processes over threads
-------------------------------------
The per-iteration phase payloads are a few posterior blocks and
parameter vectors, so process fan-out amortises well for methods whose
per-shard work is one heavy kernel per phase (D&S/LFC/ZC/LFC_N: one
``accumulate`` + one ``e_block`` round-trip per EM iteration; a round
trip is one message per worker slot, its shards batched).  GLAD
exchanges gradients every ascent step (``gradient_steps`` round-trips
per iteration), so it needs larger shards before processes beat the
in-process path.  On a single-core host processes only add overhead —
the policy's ``auto`` mode stays in-process there.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..core.answers import AnswerSet
from ..core.policy import ExecutionPolicy, MethodSpec, warn_legacy
from ..core.registry import capabilities, create
from ..core.result import InferenceResult
from ..exceptions import EngineError
from .runtime import RuntimeRegistry, ShardRuntime, get_runtime_registry

__all__ = ["ProcessShardRunner", "ShardedInferenceEngine"]

_UNSET = object()


class ProcessShardRunner:
    """One-shot shard runner dispatching spec phases to worker processes.

    A thin lease on a private :class:`~repro.engine.runtime.ShardRuntime`:
    construction places the task-sorted answer arrays in shared memory
    and pins shard ``k`` to worker slot ``k % max_workers``;
    :meth:`close` (or the ``with`` block) stops the workers and
    unlinks the segments.  For *repeated* fits prefer leasing from the
    shared registry (what :class:`ShardedInferenceEngine` does) so the
    spawn and placement amortise across fits.

    ``method`` may be a registry name (with ``method_kwargs``) or a
    :class:`~repro.core.policy.MethodSpec`.  The master keeps its own
    spec instance (for ``finalize`` and M-step orchestration); workers
    hold shard views over the shared-memory arrays plus their own spec
    rebuilt from the method registry, with per-shard operators cached
    across iterations.
    """

    def __init__(self, answers: AnswerSet, method: str | MethodSpec,
                 method_kwargs: Mapping | None = None, n_shards: int = 4,
                 max_workers: int | None = None, fault_policy=None,
                 faults=None) -> None:
        self._runtime = ShardRuntime(n_shards=n_shards,
                                     max_workers=max_workers or None)
        try:
            self._lease = self._runtime.lease(
                answers, MethodSpec.coerce(method, method_kwargs),
                fault_policy=fault_policy, faults=faults)
        except BaseException:
            self._runtime.close()
            raise
        self._closed = False

    # -- SerialShardRunner surface (delegated to the lease) ------------
    @property
    def spec(self):
        return self._lease.spec

    @property
    def n_shards(self) -> int:
        return self._lease.n_shards

    @property
    def max_workers(self) -> int:
        return self._runtime.max_workers

    @property
    def task_ranges(self) -> list[tuple[int, int]]:
        return self._lease.task_ranges

    @property
    def fault_events(self) -> dict:
        """The lease's fault-recovery counters (see ``RuntimeLease``)."""
        return self._lease.fault_events

    @property
    def phase_seconds(self) -> dict:
        """The lease's wall seconds per phase (see ``RuntimeLease``)."""
        return self._lease.phase_seconds

    @property
    def ipc(self) -> dict:
        """The lease's transport counters (see ``RuntimeLease``)."""
        return self._lease.ipc

    def m_step(self, state: np.ndarray, prev_params=None):
        return self._lease.m_step(state, prev_params)

    def call(self, phase: str, per_shard=None, shared: tuple = (),
             only=None) -> list:
        return self._lease.call(phase, per_shard=per_shard, shared=shared,
                                only=only)

    # -- lifecycle -----------------------------------------------------
    def segment_names(self) -> list[str]:
        """Live shared-memory segment names (for leak tests)."""
        return self._runtime.segment_names()

    def close(self) -> None:
        """Stop the workers and release the shared-memory blocks."""
        if self._closed:
            return
        self._closed = True
        self._lease.close()
        self._runtime.close()

    def __enter__(self) -> "ProcessShardRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ShardedInferenceEngine:
    """Sharded fits with policy-driven thread/process placement.

    Parameters
    ----------
    policy:
        The :class:`~repro.core.policy.ExecutionPolicy` every fit runs
        under; defaults to ``ExecutionPolicy()`` (auto shards, auto
        tier).  The policy is resolved against each fit's answers, so
        one engine serves small and large inputs with the right tier.
    seed:
        Seed forwarded to method construction, as in
        :class:`~repro.engine.engine.InferenceEngine`.
    registry:
        Runtime registry for the persistent process tier; defaults to
        the process-wide one
        (:func:`~repro.engine.runtime.get_runtime_registry`).

    The legacy constructor spellings (``n_shards=``, ``max_workers=``,
    ``executor=``, ``process_threshold=``, ``persistent=``) still work
    — they assemble the equivalent policy and warn once.

    The engine is a context manager; ``close()`` releases its runtime
    (safe even when shared — the registry respawns on next use).

    Example
    -------
    >>> from repro.core.policy import ExecutionPolicy
    >>> engine = ShardedInferenceEngine(
    ...     ExecutionPolicy(n_shards=4, executor="serial"))
    >>> # result = engine.fit(answers, "D&S")
    """

    def __init__(self, policy: ExecutionPolicy | None = None,
                 seed: int | None = 0,
                 registry: RuntimeRegistry | None = None,
                 n_shards=_UNSET, max_workers=_UNSET, executor=_UNSET,
                 process_threshold=_UNSET, persistent=_UNSET) -> None:
        legacy = {
            name: value
            for name, value in (("n_shards", n_shards),
                                ("max_workers", max_workers),
                                ("executor", executor),
                                ("process_threshold", process_threshold),
                                ("persistent", persistent))
            if value is not _UNSET
        }
        if legacy:
            if policy is not None:
                raise EngineError(
                    "pass either policy= or the legacy kwargs, not both"
                )
            warn_legacy("ShardedInferenceEngine", legacy,
                        "policy=ExecutionPolicy(...)")
            policy = ExecutionPolicy(
                n_shards=legacy.get("n_shards"),
                executor=legacy.get("executor", "auto"),
                max_workers=legacy.get("max_workers"),
                persistent=legacy.get("persistent", True),
                process_threshold=legacy.get(
                    "process_threshold",
                    ExecutionPolicy().process_threshold),
            )
        self.policy = policy if policy is not None else ExecutionPolicy()
        self.seed = seed
        self._registry = registry
        self._runtime: ShardRuntime | None = None
        #: Execution tier of the most recent fit ("process"/"thread"/
        #: "serial"), for introspection and tests.
        self.last_mode: str | None = None

    # -- policy-derived views (kept for introspection and tests) -------
    @property
    def n_shards(self) -> int:
        return self.policy.resolved_shards

    @property
    def max_workers(self) -> int | None:
        return self.policy.max_workers

    @property
    def executor(self) -> str:
        return self.policy.executor

    @property
    def persistent(self) -> bool:
        return self.policy.persistent

    # ------------------------------------------------------------------
    def _lease_runtime(self, plan, answers: AnswerSet, spec: MethodSpec):
        """Lease from the registry (retrying past concurrent closes)
        and remember the runtime for ``close()``/introspection."""
        registry = self._registry or get_runtime_registry()
        self._runtime, lease = registry.lease(plan, answers, spec)
        return lease

    def close(self) -> None:
        """Release the engine's runtime (idempotent).

        The runtime may be shared through the registry; closing it here
        is still safe — the next ``fit`` (from this engine or any other
        registry user) lazily respawns it.
        """
        if self._runtime is not None:
            self._runtime.close()
            self._runtime = None

    def __enter__(self) -> "ShardedInferenceEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def fit(
        self,
        answers: AnswerSet,
        method: str | MethodSpec = "D&S",
        golden: Mapping[int, float] | None = None,
        initial_quality: np.ndarray | None = None,
        warm_start: InferenceResult | None = None,
        seed_posterior: np.ndarray | None = None,
        delta=None,
        **method_kwargs,
    ) -> InferenceResult:
        """Fit ``method`` on ``answers`` under the engine's policy.

        The result is identical (to within float merge order; bit-equal
        between tiers at equal ``n_shards``) whichever tier executes it.

        ``delta`` opts one fit into the incremental path: pass a
        :class:`~repro.inference.sharded.DeltaPlan` built from the
        previous fit's ``result.shard_state`` (plus ``warm_start``) to
        run a dirty-shard delta refit, or ``DeltaPlan()`` to collect
        that state on a full fit.  Unlike
        :class:`~repro.engine.engine.InferenceEngine` — which manages
        the cached state, the dirtiness flags and the fallbacks
        automatically under ``ExecutionPolicy(refit="delta")`` — this
        engine is per-fit, so the caller owns the cache.
        """
        spec = MethodSpec.coerce(method, method_kwargs)
        if not capabilities(spec.name).sharding:
            raise EngineError(
                f"{spec.name} does not support sharded EM; use the plain "
                f"fit path instead"
            )
        plan = self.policy.resolve(answers)
        self.last_mode = plan.mode
        fit_kwargs = dict(
            golden=golden,
            initial_quality=initial_quality,
            warm_start=warm_start,
            seed_posterior=seed_posterior,
            delta=delta,
        )
        # One spec for every construction site (the fitting instance
        # here, the runner's master spec, the worker-side rebuilds), so
        # a spec that ever depends on constructor state — seed included
        # — cannot diverge between tiers.
        spec = spec.with_defaults(seed=self.seed)
        if plan.mode == "process":
            instance = create(spec)
            if plan.persistent:
                with self._lease_runtime(plan, answers, spec) as runner:
                    return instance.fit(answers, shard_runner=runner,
                                        **fit_kwargs)
            with ProcessShardRunner(
                    answers, spec,
                    n_shards=plan.n_shards,
                    max_workers=plan.max_workers,
                    fault_policy=plan.fault_policy,
                    faults=plan.faults) as runner:
                return instance.fit(answers, shard_runner=runner,
                                    **fit_kwargs)
        instance = create(spec, policy=plan)
        return instance.fit(answers, **fit_kwargs)

    def __repr__(self) -> str:
        return f"ShardedInferenceEngine(policy={self.policy!r})"
