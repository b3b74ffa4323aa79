"""Sharded map-reduce EM: mergeable sufficient statistics over shards.

ZC, GLAD, D&S, LFC and LFC_N (and the zoo's other EM-style methods)
share one control flow: start from a truth estimate, alternate an
M-step (parameters from the current truth posterior) and an E-step
(truth posterior from the parameters), and stop when the posterior
stabilises.  This module expresses that loop partition-first:

* the **E-step** maps over :class:`~repro.core.shards.AnswerShard`\\ s —
  each shard computes the posterior block of its own task range from its
  own answers (tasks are range-partitioned, so no cross-shard traffic);
* the **M-step** maps ``accumulate(shard, posterior_block)`` over shards
  to produce per-shard :class:`SufficientStats`, reduces them with
  :meth:`SufficientStats.total` (plain field-wise addition), and calls
  ``finalize`` once on the totals to obtain global parameters.

A method participates by providing a :class:`ShardedEMSpec` describing
its statistics; one driver supplies the control flow, warm starts,
golden-task clamping and convergence tracking for the whole family.
:func:`run_em_sharded` runs it in EM order (M-step, E-step, converge on
the posterior); :func:`run_alternating_sharded` runs the truth/weight
estimators (CATD, PM) in their order (weight step, converge on the
weights, truth step).  With one shard the computation reduces to the
unsharded math bit-for-bit (the shard is the original arrays, and the
:mod:`~repro.inference.segops` operators reproduce the scalar kernels'
accumulation order exactly); with many shards only the merge order of
worker-side partial sums differs, which perturbs posteriors at the
last-ulp level (~1e-15 per iteration).

Execution is pluggable: :class:`SerialShardRunner` runs shards in the
calling thread or fans them over a thread pool; a process-tier
:class:`~repro.engine.runtime.RuntimeLease` runs the same phases in
worker processes over shared-memory answer arrays.

Delta refits
------------
A *delta refit* is the incremental-EM mode (in the spirit of Neal &
Hinton's partial E-steps) a warm refit on a grown answer stream can run
instead of full E/M sweeps.  Two mechanisms make its cost scale with
what changed rather than with total history:

* **Dirty-shard priming** — the caller (usually
  :class:`~repro.engine.engine.InferenceEngine`) passes a
  :class:`DeltaPlan` naming the shards whose task range received new
  answers since the cached :class:`ShardState` was collected.  Only
  those shards run the priming E-step; clean shards reuse their cached
  posterior blocks (exact: their answers did not change) and their
  cached per-shard :class:`SufficientStats` (exact when the global
  sizes are unchanged, recomputed lazily otherwise).
* **Converged-shard freezing** — after each E-step, shards whose
  maximum posterior change fell below ``freeze_tol`` freeze: later
  M-steps merge their cached statistics without recomputation and later
  E-steps skip them entirely.  Every ``verify_every`` iterations — and
  always once before convergence is declared — a full-verify E-step
  recomputes the frozen shards' blocks and *thaws* any shard whose
  drift reached ``freeze_tol``, so a frozen shard can never silently
  diverge.  The final verify adopts the fresh blocks, so the returned
  posterior is a genuine E-step output at the final parameters, exactly
  like a full fit's.

Both fit kinds run through the same active-set loop.  A full fit is
the case where every shard stays active: it primes every shard, never
freezes one and so never verifies, and stays bit-identical to the
historical full loops.  The iteration cap holds on every path, verify
passes included.

The delta refit is approximate by design: frozen shards lag the global
parameters by at most ``freeze_tol`` between verifies.  The default
``freeze_tol`` (the EM tolerance) keeps that lag inside the convergence
threshold; both fit kinds stop only when a full E-step pass moves no
posterior entry by the tolerance, so their final states agree to well
below it in practice.
"""

from __future__ import annotations

import abc
import dataclasses
import time
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..core.framework import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOLERANCE,
    clamp_golden_posterior,
)
from ..core.policy import DEFAULT_VERIFY_EVERY
from ..exceptions import ConvergenceError, InferenceError
from ..core.result import FitStats
from ..core.shards import AnswerShard, ShardedAnswerSet

__all__ = [
    "EMOutcome",
    "SufficientStats",
    "ShardedEMSpec",
    "AlternatingSpec",
    "SerialShardRunner",
    "ShardState",
    "DeltaPlan",
    "GibbsOutcome",
    "check_delta_layout",
    "dirty_shards",
    "pad_rows",
    "majority_block",
    "make_runner",
    "run_em_sharded",
    "run_alternating_sharded",
    "run_gibbs_sharded",
]


class SufficientStats:
    """A bundle of mergeable M-step accumulators.

    Holds named arrays (or scalars); :meth:`total` adds bundles
    field-wise.  Sufficiency is the method's contract: the total of the
    per-shard bundles must equal what the unsharded M-step would compute
    (up to float summation order).
    """

    __slots__ = ("fields",)

    def __init__(self, **fields) -> None:
        self.fields = fields

    def __getitem__(self, name):
        return self.fields[name]

    @staticmethod
    def total(bundles: Sequence["SufficientStats"]) -> "SufficientStats":
        """Field-wise sum of ``bundles`` in order (the reduce step).

        Bit for bit the left fold ``((b0 + b1) + b2) + ...`` (integer
        partials must stay below 2**53 when a later bundle promotes the
        field to float).  Each array field is one copy of the first
        bundle's array at the fold's result dtype, with the others
        added in place; scalar fields add plainly.  No input bundle is
        ever written: cached bundles are reused across iterations, and
        a field may be a shard operator's own array.
        """
        first, *rest = bundles
        names = set(first.fields)
        for other in rest:
            if set(other.fields) != names:
                raise InferenceError(
                    f"cannot add stats with fields {sorted(names)} "
                    f"and {sorted(other.fields)}"
                )
        fields = {}
        for name, value in first.fields.items():
            others = [other.fields[name] for other in rest]
            if isinstance(value, np.ndarray):
                dtype = value.dtype
                for addend in others:
                    if getattr(addend, "dtype", None) != dtype:
                        dtype = np.result_type(dtype, addend)
                value = np.array(value, dtype=dtype)
                for addend in others:
                    value += addend
            else:
                for addend in others:
                    value = value + addend
            fields[name] = value
        return SufficientStats(**fields)

    def __repr__(self) -> str:
        return f"SufficientStats({', '.join(sorted(self.fields))})"


class ShardedEMSpec(abc.ABC):
    """Method-specific shard computations for the sharded EM driver.

    Subclasses implement the four phase hooks; every hook receives the
    shard plus the per-shard static operators built (once) by
    :meth:`build_ops`.  Hooks must depend only on their arguments and
    the spec's construction-time configuration, so the same spec can be
    rebuilt inside worker processes.

    :meth:`m_step` is the spec's one M-step hook, for full fits and
    delta refits alike.  Its default is a map-reduce over
    ``accumulate``/``total``/``finalize`` that reuses cached per-shard
    statistics; methods whose M-step is itself iterative (GLAD's
    gradient ascent) override it and use the runner for their inner
    map-reduce rounds.
    """

    #: Clamp applied to the assembled global state after every E-step
    #: (and to the initial state): posterior-style by default, numeric
    #: methods override with :func:`clamp_golden_values`.
    golden_clamp = staticmethod(clamp_golden_posterior)

    #: Whether the per-shard cache entries :meth:`m_step` leaves are
    #: this spec's ``accumulate`` statistics.  A collecting fit then
    #: fills every missing entry at the final blocks and hands the
    #: cache to the next delta refit.  Specs that override
    #: :meth:`m_step` set this False: their entries (worker-side
    #: markers, uncollected partials) do not outlive the fit.
    statistics_m_step = True

    #: Whether per-shard ``ops`` is *mutated* by the phase hooks (KOS
    #: stores its message vectors there).  The fault-tolerant runtime
    #: keeps a per-lease phase log for stateful specs and replays it
    #: into respawned workers (and onto the master's degraded path), so
    #: recovery stays bit-identical; stateless specs — ops built once
    #: from shard data, never written — skip the log entirely.
    stateful_ops = False

    #: Extra positional arguments appended to every ``accumulate`` call
    #: (master-computed constants such as a numeric distance scale);
    #: must pickle for the process tier.
    accumulate_shared: tuple = ()

    def __init__(self) -> None:
        self._ops: dict[int, object] = {}

    # -- static per-shard state ----------------------------------------
    def shard_ops(self, shard: AnswerShard):
        """Cached static operators for ``shard`` (built on first use)."""
        ops = self._ops.get(shard.index)
        if ops is None:
            ops = self._ops[shard.index] = self.build_ops(shard)
        return ops

    def invalidate_shard(self, index: int) -> None:
        """Drop cached per-shard state for one shard (its answers
        changed — e.g. an appended stream epoch extended it).  Specs
        with extra per-shard caches extend this."""
        self._ops.pop(index, None)

    def resize(self, n_tasks: int, n_workers: int, n_choices: int) -> bool:
        """Adopt grown global sizes, keeping cached per-shard operators
        valid; returns whether the spec survived.

        The retention contract for a *clean* shard (unchanged answers):
        its answers reference only the previously known workers and
        tasks, so operators built at the old sizes remain usable when
        the hooks pad their worker-dimension outputs to the new global
        width (zeros for the new workers — exact, they have no answers
        there) and slice parameter tables down to the operator's baked
        width.  Specs that support this override ``resize`` to update
        their size fields and return True; the default declines any
        change, which makes the caller rebuild the spec (and thereby
        every operator) — always correct, never stale.
        """
        return (n_tasks, n_workers, n_choices) == (
            getattr(self, "n_tasks", n_tasks),
            getattr(self, "n_workers", n_workers),
            getattr(self, "n_choices", n_choices),
        )

    @abc.abstractmethod
    def build_ops(self, shard: AnswerShard):
        """Build the frozen scatter/reduce operators for one shard."""

    # -- phases --------------------------------------------------------
    @abc.abstractmethod
    def init_block(self, shard: AnswerShard, ops) -> np.ndarray:
        """Cold-start state block for the shard's task range (the
        method's default initialisation, e.g. majority voting)."""

    @abc.abstractmethod
    def accumulate(self, shard: AnswerShard, ops,
                   block: np.ndarray) -> SufficientStats:
        """Map phase of the M-step: this shard's sufficient statistics
        given its current posterior block."""

    @abc.abstractmethod
    def finalize(self, stats: SufficientStats):
        """Reduce epilogue: merged statistics -> global parameters."""

    @abc.abstractmethod
    def e_block(self, shard: AnswerShard, ops, params) -> np.ndarray:
        """E-step for one shard: global parameters -> posterior block
        covering ``[shard.task_start, shard.task_stop)``."""

    # -- control -------------------------------------------------------
    def prepare_accumulate(self, state: np.ndarray,
                           ranges: Sequence[tuple[int, int]],
                           rng, only: Sequence[int] | None = None) -> list:
        """Master-side hook: the assembled state -> per-shard
        ``accumulate`` inputs (aligned to ``only`` when given).

        The default passes each shard its state slice; specs whose
        M-step consumes *decoded* labels with random tie-breaks (PM)
        override this so all randomness stays on the master generator —
        shard phases themselves must remain deterministic.
        """
        indices = range(len(ranges)) if only is None else only
        return [state[ranges[k][0]:ranges[k][1]] for k in indices]

    def m_step(self, runner: "SerialShardRunner", state: np.ndarray,
               prev_params, frozen: set, stats: list,
               fit_stats: FitStats | None = None, rng=None):
        """One M-step over the global ``state`` -> global parameters.

        ``stats`` is the per-shard cache the hook reads and refills: an
        entry is ``None`` when its shard's block changed since the
        entry was made.  ``frozen`` names the shards whose blocks stay
        pinned (empty in a full fit).  ``prev_params`` is the previous
        parameter object (``None`` on a cold fit's first M-step);
        ``fit_stats``, when given, counts the hook's map-phase shard
        calls in ``accumulate_calls``; ``rng`` feeds
        :meth:`prepare_accumulate`.

        The default maps ``accumulate`` over the shards whose entry is
        ``None``, merges the whole cache in shard order and finalizes
        the totals.
        """
        return self.finalize(SufficientStats.total(
            _accumulate(runner, state, stats, rng, fit_stats)))


class AlternatingSpec(ShardedEMSpec):
    """Spec base for truth/weight *alternating* estimators (CATD, PM).

    These methods iterate a truth step from the current source weights
    and a weight step from the per-worker losses, and track
    convergence on the **weights**, where EM tracks the posterior.
    They run under :func:`run_alternating_sharded`, the driver's
    alternating order; the statistics contract is unchanged
    (``accumulate`` maps over shards, ``total`` reduces, ``finalize``
    turns merged losses into weights), so the same spec also drives
    delta refits (:class:`DeltaPlan`) and the process runtime.
    """

    def init_block(self, shard: AnswerShard, ops) -> np.ndarray:
        raise NotImplementedError(
            f"{type(self).__name__} always starts from initial weights; "
            f"it has no cold-start state block"
        )


class SerialShardRunner:
    """Executes spec phases over in-memory shards, serially or on a
    thread pool.

    The runner is the only component that knows *where* shards run; the
    EM loop and the specs are agnostic.  ``pool`` may be any object with
    an :meth:`~concurrent.futures.Executor.map`-compatible ``map``
    (e.g. a ``ThreadPoolExecutor``); ``None`` runs in the calling
    thread.  NumPy/SciPy hold the GIL through most of these kernels, so
    threads mainly help when shards are large enough for the released
    sections to overlap — the process tier's
    :class:`~repro.engine.runtime.RuntimeLease` is the true multi-core
    path.
    """

    def __init__(self, spec: ShardedEMSpec, shards: Sequence[AnswerShard],
                 pool=None) -> None:
        self.spec = spec
        self.shards = list(shards)
        self.pool = pool
        #: Fault-recovery counters, zero on the in-process tiers; the
        #: process-tier lease fills its own (same keys), and the
        #: drivers fold whichever runner they got into ``FitStats``.
        self.fault_events = {"respawns": 0, "retries": 0, "timeouts": 0,
                             "crashes": 0, "degraded": 0}
        #: Wall seconds per phase name, summed over this runner's
        #: ``call``\ s (the process-tier lease times its round trips);
        #: folded into ``FitStats`` with the fault counters.
        self.phase_seconds: dict[str, float] = {}

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def task_ranges(self) -> list[tuple[int, int]]:
        """Global ``(task_start, task_stop)`` of every shard, in order."""
        return [(s.task_start, s.task_stop) for s in self.shards]

    def m_step(self, state: np.ndarray, prev_params=None,
               frozen: set = frozenset(), stats: list | None = None,
               fit_stats: FitStats | None = None, rng=None):
        """Run the spec's M-step hook (:meth:`ShardedEMSpec.m_step`) on
        the global state, returning the new global parameters; without
        a ``stats`` cache every shard's contribution is computed."""
        if stats is None:
            stats = [None] * self.n_shards
        return self.spec.m_step(self, state, prev_params, frozen, stats,
                                fit_stats, rng)

    def call(self, phase: str, per_shard: Sequence | None = None,
             shared: tuple = (), only: Sequence[int] | None = None) -> list:
        """Run ``spec.<phase>(shard, ops, *per_shard[i], *shared)`` for
        every shard, returning results in shard order.

        ``per_shard`` entries may be a tuple of positional arguments or
        a single array (wrapped automatically).  With ``only`` (a
        sequence of shard indices) the phase runs on exactly those
        shards — the others get no call at all (in the process runner,
        not even a message) — with ``per_shard`` and the result list
        aligned to ``only``.  This is how delta refits skip clean and
        frozen shards.
        """
        started = time.perf_counter()
        fn = getattr(self.spec, phase)
        indices = (list(only) if only is not None
                   else list(range(self.n_shards)))

        def one(pos: int):
            shard = self.shards[indices[pos]]
            args = ()
            if per_shard is not None:
                entry = per_shard[pos]
                args = entry if isinstance(entry, tuple) else (entry,)
            return fn(shard, self.spec.shard_ops(shard), *args, *shared)

        positions = range(len(indices))
        if self.pool is not None and len(indices) > 1:
            results = list(self.pool.map(one, positions))
        else:
            results = [one(pos) for pos in positions]
        self._clock(phase, started)
        return results

    def _clock(self, phase: str, started: float) -> None:
        """Add the wall time since ``started`` to ``phase``'s total."""
        self.phase_seconds[phase] = (self.phase_seconds.get(phase, 0.0)
                                     + time.perf_counter() - started)

    def close(self) -> None:
        """Release executor resources (no-op for the serial runner)."""


def pad_rows(array: np.ndarray, n_rows: int) -> np.ndarray:
    """Zero-pad axis 0 of ``array`` up to ``n_rows`` (no-op if wide
    enough) — the worker-dimension padding behind
    :meth:`ShardedEMSpec.resize`."""
    if array.shape[0] >= n_rows:
        return array
    pad = np.zeros((n_rows - array.shape[0],) + array.shape[1:],
                   dtype=array.dtype)
    return np.concatenate([array, pad])


def majority_block(shard: AnswerShard) -> np.ndarray:
    """Per-shard majority-vote posterior (normalised local vote counts).

    Vote counts are integral, so per-shard accumulation equals the
    global ``vote_counts`` rows exactly — majority initialisation is
    bit-identical at any shard count.
    """
    from ..core.framework import normalize_rows

    votes = np.bincount(
        shard.local_tasks * shard.n_choices + shard.values,
        minlength=shard.n_local_tasks * shard.n_choices,
    ).astype(np.float64).reshape(shard.n_local_tasks, shard.n_choices)
    return normalize_rows(votes)


# ----------------------------------------------------------------------
# Delta refits: dirty-shard priming + converged-shard freezing
# ----------------------------------------------------------------------

@dataclasses.dataclass
class ShardState:
    """Per-shard cache a fit leaves behind for the next *delta* refit.

    ``blocks`` are copies of the final per-shard posterior blocks;
    ``stats`` holds each shard's cacheable M-step contribution — the
    :class:`SufficientStats` of ``accumulate`` at that block for
    statistics specs — or ``None`` when nothing valid was captured (the
    next delta refit recomputes lazily).  A stats entry may lag its
    block by less than the freeze tolerance when the final verify
    polished the block; the lag is inside the error budget the freeze
    protocol already grants.

    ``task_cuts`` pin the shard layout: a delta refit is only valid
    over the *same* cuts (the last cut may grow with new tasks).
    ``n_answers`` records the answers the state was fitted on (the
    dirtiness boundary); ``base_answers`` the answers when the cuts
    were computed (engines re-place and refit full once the stream has
    doubled, mirroring the runtime's rebalance rule).

    ``session`` is an opaque per-family payload for methods whose
    incremental contract carries more than posterior blocks and
    statistics: KOS caches its per-shard message state, the Gibbs
    samplers their chain state (tally, generator state, closure
    payload).  It must pickle (it rides the engine's fit snapshots
    through :class:`~repro.store.snapshots.SnapshotStore`) and is
    interpreted only by the method that wrote it.
    """

    task_cuts: tuple[int, ...]
    sizes: tuple[int, int, int]
    blocks: list[np.ndarray]
    stats: list
    n_answers: int = 0
    base_answers: int = 0
    session: Any = None

    @classmethod
    def collect(cls, runner: SerialShardRunner, blocks: Sequence,
                delta: "DeltaPlan", *, stats: Sequence | None = None,
                session: Any = None) -> "ShardState":
        """The state a fit over ``runner``'s shards leaves behind.

        The cuts come from the runner's task ranges and the sizes from
        its spec; ``blocks`` (one per shard) are copied, and ``stats``
        defaults to nothing cached.  A delta refit carries its cached
        state's ``base_answers`` forward; the fitting method stamps
        ``n_answers`` (and a full fit's ``base_answers``).
        """
        ranges = runner.task_ranges
        return cls(
            task_cuts=(int(ranges[0][0]),) + tuple(int(stop)
                                                   for _, stop in ranges),
            sizes=_spec_sizes(runner.spec),
            blocks=[np.array(block) for block in blocks],
            stats=([None] * len(ranges) if stats is None
                   else list(stats)),
            base_answers=(delta.prev.base_answers
                          if delta.prev is not None else 0),
            session=session,
        )

    @property
    def n_shards(self) -> int:
        return len(self.task_cuts) - 1

    def extended_cuts(self, n_tasks: int) -> list[int]:
        """The pinned cuts with the last range grown to ``n_tasks``
        (new tasks are always appended, so they extend the last
        shard)."""
        if n_tasks < self.task_cuts[-1]:
            raise InferenceError(
                f"cached shard state covers {self.task_cuts[-1]} tasks "
                f"but the answer set has {n_tasks}; delta refits require "
                f"an append-only stream"
            )
        return list(self.task_cuts[:-1]) + [int(n_tasks)]


@dataclasses.dataclass
class DeltaPlan:
    """What the sharded drivers need to run one delta refit.

    ``prev=None`` asks for a *collecting full fit*: the normal full
    E/M sweep, plus a :class:`ShardState` on the way out (the seed of
    the first real delta refit).  With ``prev`` set, ``dirty`` must
    flag every shard whose task range received new answers since
    ``prev`` was collected — see :func:`dirty_shards`.
    """

    prev: ShardState | None = None
    dirty: Sequence[bool] | None = None
    freeze_tol: float | None = None
    verify_every: int = DEFAULT_VERIFY_EVERY

    def collect_only(self) -> "DeltaPlan":
        """This plan demoted to a collecting full fit (methods fall
        back to it when the warm parameters a delta refit needs are
        missing)."""
        return DeltaPlan(prev=None, freeze_tol=self.freeze_tol,
                         verify_every=self.verify_every)


@dataclasses.dataclass
class EMOutcome:
    """Result of :func:`run_em_sharded` (and of the alternating
    driver): the final posterior plus diagnostics.

    ``fit_stats`` carries the EM telemetry of every fit, and
    ``shard_state`` — when a delta plan asked for it — the per-shard
    posterior/statistics cache seeding the next delta refit.
    """

    posterior: np.ndarray
    parameters: object
    n_iterations: int
    converged: bool
    fit_stats: object | None = None
    shard_state: object | None = None


def dirty_shards(task_cuts: Sequence[int], new_tasks: np.ndarray,
                 n_tasks: int | None = None) -> np.ndarray:
    """Boolean dirty flag per shard for a batch of new answers.

    A shard is dirty when any new answer's task index falls in its
    ``[cut_k, cut_{k+1})`` range; task indices at or beyond the cached
    last cut (newly appended tasks) dirty the last shard, as does any
    growth of ``n_tasks`` itself (a new task always arrives with at
    least one answer, but the flag must hold even for adversarial
    inputs where it does not).
    """
    cuts = np.asarray(task_cuts, dtype=np.int64)
    n_shards = len(cuts) - 1
    dirty = np.zeros(n_shards, dtype=bool)
    new_tasks = np.asarray(new_tasks, dtype=np.int64)
    if new_tasks.size:
        owners = np.searchsorted(cuts, new_tasks, side="right") - 1
        dirty[np.clip(owners, 0, n_shards - 1)] = True
    if n_tasks is not None and n_tasks > int(cuts[-1]):
        dirty[-1] = True
    return dirty


def check_delta_layout(ranges: Sequence[tuple[int, int]], prev: ShardState,
                       dirty: np.ndarray) -> None:
    """Validate a delta refit's pinned shard layout against the cached
    state: same shard count, same cuts (the last range may grow), and
    every clean shard's cached block still covering its task range.
    Raises ``ValueError`` on any mismatch — the caller must refit full
    to re-place."""
    n_shards = len(ranges)
    if prev.n_shards != n_shards or len(dirty) != n_shards:
        raise InferenceError(
            f"delta refit over {n_shards} shards got a cached state for "
            f"{prev.n_shards} (dirty flags: {len(dirty)}); the shard "
            f"layout must be pinned across delta refits"
        )
    for k, (start, stop) in enumerate(ranges):
        if start != prev.task_cuts[k] or (k < n_shards - 1
                                          and stop != prev.task_cuts[k + 1]):
            raise InferenceError(
                "delta refit shard cuts diverged from the cached state; "
                "refit full to re-place"
            )
        if not dirty[k] and len(prev.blocks[k]) != stop - start:
            raise InferenceError(
                f"shard {k} is flagged clean but its task range changed "
                f"({len(prev.blocks[k])} cached rows vs {stop - start})"
            )


# ----------------------------------------------------------------------
# The driver: one active-set loop for EM and alternating estimators
# ----------------------------------------------------------------------

def _spec_sizes(spec) -> tuple[int, int, int]:
    """The global ``(n_tasks, n_workers, n_choices)`` a spec is built
    for (zero for a size the spec does not carry)."""
    return (getattr(spec, "n_tasks", 0), getattr(spec, "n_workers", 0),
            getattr(spec, "n_choices", 0))


def _block_delta(a: np.ndarray, b: np.ndarray) -> float:
    """Max absolute difference between two blocks (0 for empty ones)."""
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def _complete(phase: str, results: list, shards: Sequence[int]) -> list:
    """``results`` of ``phase`` over ``shards``, checked complete:
    recovery re-dispatches and degraded executions must hand back one
    result per shard like an uninterrupted dispatch (phases are
    idempotent pure maps; a partial set means the runner's recovery
    contract broke)."""
    if len(results) != len(shards):
        raise InferenceError(
            f"{phase} returned {len(results)} results for {len(shards)} "
            f"shards; phase dispatch must be idempotent and complete")
    return results


def _accumulate(runner: SerialShardRunner, state: np.ndarray, stats: list,
                rng=None, fit_stats: FitStats | None = None) -> list:
    """Fill every ``None`` entry of the per-shard ``stats`` cache with a
    fresh ``accumulate`` at ``state`` and return the cache.

    The inputs come from the spec's ``prepare_accumulate`` (for the
    shards that need one), with its ``accumulate_shared`` appended;
    ``fit_stats`` counts the shard calls.
    """
    need = [k for k, entry in enumerate(stats) if entry is None]
    if need:
        spec = runner.spec
        per_shard = spec.prepare_accumulate(state, runner.task_ranges, rng,
                                            only=need)
        computed = _complete("accumulate", runner.call(
            "accumulate", per_shard=per_shard,
            shared=tuple(spec.accumulate_shared), only=need), need)
        for k, entry in zip(need, computed):
            stats[k] = entry
        if fit_stats is not None:
            fit_stats.accumulate_calls += len(need)
    return stats


def _weights(parameters, iteration: int) -> np.ndarray:
    """A flat float copy of alternating weights, checked finite."""
    weights = np.array(parameters, dtype=np.float64).ravel()
    if not np.all(np.isfinite(weights)):
        raise ConvergenceError(
            f"non-finite parameters at iteration {iteration}")
    return weights


class _ActiveSet:
    """The iterate of one fit: the assembled global state, each shard's
    cached M-step contribution (``None``: recompute at the next
    M-step) and the frozen shards, which E-steps skip until a verify
    pass refreshes or thaws them."""

    def __init__(self, runner: SerialShardRunner, golden,
                 fit_stats: FitStats) -> None:
        self.runner = runner
        self.ranges = runner.task_ranges
        self.golden = golden
        self.fit_stats = fit_stats
        # A full fit keeps every shard active: nothing moves less than 0.
        self.freeze_tol = 0.0
        self.state = np.empty(0)
        self.stats: list = [None] * runner.n_shards
        self.frozen: set[int] = set()

    def block(self, k: int) -> np.ndarray:
        """Shard ``k``'s task-range view of the state."""
        start, stop = self.ranges[k]
        return self.state[start:stop]

    def active(self) -> list[int]:
        return [k for k in range(len(self.ranges)) if k not in self.frozen]

    def assemble(self, blocks: Sequence) -> None:
        """Adopt a whole state, one block per shard, golden-clamped."""
        state = np.concatenate([np.asarray(block, dtype=np.float64)
                                for block in blocks], axis=0)
        if not np.all(np.isfinite(state)):
            raise ConvergenceError("non-finite initial state")
        self.state = self.runner.spec.golden_clamp(state, self.golden)

    def e_blocks(self, parameters, shards: list[int]) -> list:
        """The E-step blocks of ``shards`` at ``parameters`` (no
        dispatch at all for none)."""
        if not shards:
            return []
        blocks = _complete("e_block", self.runner.call(
            "e_block", shared=(parameters,), only=shards), shards)
        self.fit_stats.e_block_calls += len(shards)
        return blocks

    def advance(self, parameters) -> float:
        """One E-step over the active shards: adopt their blocks (their
        cached statistics go stale), clamp, and freeze every shard that
        moved less than the freeze tolerance.  Returns the largest
        movement."""
        active = self.active()
        previous = [self.block(k).copy() for k in active]
        for k, block in zip(active, self.e_blocks(parameters, active)):
            self.block(k)[...] = block
            self.stats[k] = None
        self.state = self.runner.spec.golden_clamp(self.state, self.golden)
        moved = 0.0
        for k, before in zip(active, previous):
            block = self.block(k)
            if not np.all(np.isfinite(block)):
                raise ConvergenceError(
                    f"non-finite state in the E-step of shard {k}")
            change = _block_delta(block, before)
            moved = max(moved, change)
            if change < self.freeze_tol:
                self.frozen.add(k)
        return moved

    def verify(self, parameters, thaw_tol: float,
               adopt_all: bool) -> tuple[bool, float]:
        """Full-verify E-step over the frozen set.

        Recomputes every frozen shard's block at ``parameters`` and
        grades the drift since the shard was last updated:

        * ``drift >= thaw_tol`` — the shard *thaws*: the fresh block is
          adopted, its cached stats dropped, and it rejoins the active
          set.
        * ``freeze_tol <= drift < thaw_tol`` — the shard is *refreshed
          in place*: the fresh block is adopted and its stats
          recomputed at the next M-step, but it stays frozen (a
          Neal–Hinton partial E-step — the drift accumulated over
          ``verify_every`` iterations, so its per-iteration rate is
          still below the freeze threshold and batched verify updates
          lose nothing).
        * ``drift < freeze_tol`` — nothing to do; the cached block and
          stats stay exactly consistent (``adopt_all``, the verify
          before declaring convergence or stopping at the cap, adopts
          even these so the returned posterior is an E-step output at
          the final parameters everywhere).

        Returns ``(drifted, adopted)``: whether any drift reached
        ``freeze_tol`` (the signal that convergence must not be
        declared yet) and the largest adopted state change (which the
        next convergence check must account for).
        """
        idx = sorted(self.frozen)
        if not idx:
            return False, 0.0
        fresh = self.e_blocks(parameters, idx)
        self.fit_stats.verify_passes += 1
        if self.golden:
            # Golden rows are clamped constants: compare post-clamp so a
            # clamped row's raw E-step output never reads as drift.
            scratch = self.state.copy()
            for k, block in zip(idx, fresh):
                start, stop = self.ranges[k]
                scratch[start:stop] = block
            scratch = self.runner.spec.golden_clamp(scratch, self.golden)
            fresh = [scratch[self.ranges[k][0]:self.ranges[k][1]]
                     for k in idx]
        drifted = False
        adopted = 0.0
        for k, block in zip(idx, fresh):
            block = np.asarray(block, dtype=np.float64)
            if not np.all(np.isfinite(block)):
                raise ConvergenceError(
                    f"non-finite state in the verify E-step of shard {k}")
            drift = _block_delta(block, self.block(k))
            if drift >= self.freeze_tol:
                self.block(k)[...] = block
                self.stats[k] = None
                drifted = True
                adopted = max(adopted, drift)
                if drift >= thaw_tol:
                    self.frozen.discard(k)
                    self.fit_stats.thaws += 1
            elif adopt_all:
                self.block(k)[...] = block
                adopted = max(adopted, drift)
        return drifted, adopted

    def collect(self, delta: DeltaPlan, rng) -> ShardState:
        """The :class:`ShardState` this fit leaves behind.  Statistics
        specs first fill every missing stats entry at the final blocks,
        so the next delta refit's first M-step is pure cache reuse;
        other specs' entries do not outlive the runner and are dropped
        (the next refit recomputes them lazily)."""
        stats = None
        if self.runner.spec.statistics_m_step:
            stats = _accumulate(self.runner, self.state, self.stats, rng,
                                self.fit_stats)
        return ShardState.collect(
            self.runner, [self.block(k) for k in range(len(self.ranges))],
            delta, stats=stats)


def _drive(runner: SerialShardRunner, *, em_order: bool, tolerance: float,
           max_iter: int, golden, posterior, parameters, counted: bool,
           rng, delta: DeltaPlan | None) -> EMOutcome:
    """The one sharded EM driver (see the module docstring).

    Primes the state — an E-step at ``parameters`` over the dirty
    shards (every shard in a full fit), else ``posterior``, else the
    spec's ``init_block`` — then iterates an M-step over the cached
    per-shard statistics and an E-step over the active shards.  In EM
    order (``em_order``) the convergence check grades the posterior the
    E-step produced; otherwise it grades the M-step's weights, and the
    E-step follows the check.  ``counted`` makes the priming a counted
    iteration and the baseline of the first check.
    """
    if tolerance <= 0:
        raise InferenceError(f"tolerance must be positive, got {tolerance}")
    if max_iter < 1:
        raise InferenceError(f"max_iter must be >= 1, got {max_iter}")
    started = time.perf_counter()
    n_shards = runner.n_shards
    refit = delta is not None and delta.prev is not None
    fit_stats = FitStats(mode="delta" if refit else "full",
                         n_shards=n_shards)
    live = _ActiveSet(runner, golden, fit_stats)
    verify_every = 1
    if refit:
        if parameters is None:
            raise InferenceError(
                "a delta refit resumes a previous fit; pass "
                "initial_parameters (warm start)"
            )
        # Clean shards start frozen, on their cached blocks and (when
        # the global sizes are unchanged) their cached statistics.
        prev = delta.prev
        dirty = np.asarray(delta.dirty, dtype=bool)
        check_delta_layout(runner.task_ranges, prev, dirty)
        live.freeze_tol = (delta.freeze_tol if delta.freeze_tol is not None
                           else tolerance)
        verify_every = max(1, int(delta.verify_every))
        live.frozen = {k for k in range(n_shards) if not dirty[k]}
        fit_stats.dirty_shards = n_shards - len(live.frozen)
        if prev.stats is not None and tuple(prev.sizes) == _spec_sizes(
                runner.spec):
            for k in live.frozen:
                live.stats[k] = prev.stats[k]
    if parameters is not None:
        active = live.active()
        primed = dict(zip(active, live.e_blocks(parameters, active)))
        live.assemble([primed[k] if k in primed else delta.prev.blocks[k]
                       for k in range(n_shards)])
    elif posterior is not None:
        live.assemble([posterior])
    else:
        live.assemble(_complete("init_block", runner.call("init_block"),
                                range(n_shards)))

    iteration = 1 if counted else 0
    # EM order: state change adopted by verifies since the last check.
    pending = 0.0
    # Alternating order: the weights of the last check.
    weights = (_weights(parameters, iteration) if counted and not em_order
               else None)
    # Per-iteration movement of the active frontier, feeding the thaw
    # threshold: a frozen shard rejoins the active set only when its
    # accumulated verify drift outpaces what the active shards moved
    # over the same window — anything slower is delivered more cheaply
    # as batched verify refreshes (Neal–Hinton scheduling).
    active_scale = float("inf")
    converged = refreshed = False
    # A counted EM priming is a checked posterior: the cap applies
    # before the first M-step.
    capped = em_order and iteration >= max_iter
    while not capped:
        fit_stats.active_shards.append(n_shards - len(live.frozen))
        fit_stats.frozen_shards.append(len(live.frozen))
        parameters = runner.m_step(live.state, parameters, live.frozen,
                                   live.stats, fit_stats, rng)
        if em_order:
            active_scale = live.advance(parameters)
            moved, pending = max(active_scale, pending), 0.0
        else:
            current = _weights(parameters, iteration + 1)
            moved = (_block_delta(current, weights) if weights is not None
                     else float("inf"))
            weights = current
        # The first step of an uncounted start has nothing to compare.
        converged = iteration > 0 and moved < tolerance
        iteration += 1
        refreshed = False
        if converged and live.frozen:
            # Never declare convergence over unverified frozen shards:
            # one full verify; a drifted shard is refreshed in place (an
            # incremental partial E-step), not thawed, and the loop goes
            # straight back to the M-step — full EM restricted to what
            # still moves — until a verify finds everything settled.
            refreshed, adopted = live.verify(parameters, float("inf"),
                                             adopt_all=True)
            converged = not refreshed
            pending = max(pending, adopted)
        if converged:
            break
        capped = iteration >= max_iter
        if capped or refreshed:
            continue
        if not em_order:
            active_scale = live.advance(parameters)
        if live.frozen and iteration % verify_every == 0:
            _, adopted = live.verify(
                parameters, verify_every * max(live.freeze_tol, active_scale),
                adopt_all=False)
            pending = max(pending, adopted)
    if capped and live.frozen and not refreshed:
        # Iteration cap: adopt fresh frozen blocks for an honest (if
        # unconverged) final state.
        live.verify(parameters, float("inf"), adopt_all=True)

    shard_state = live.collect(delta, rng) if delta is not None else None
    fit_stats.iterations = iteration
    fit_stats.em_seconds = time.perf_counter() - started
    fit_stats.record_runner(runner)
    return EMOutcome(
        posterior=live.state,
        parameters=parameters,
        n_iterations=iteration,
        converged=converged,
        fit_stats=fit_stats,
        shard_state=shard_state,
    )


def run_em_sharded(
    runner: SerialShardRunner,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iter: int = DEFAULT_MAX_ITER,
    golden: Mapping[int, float] | None = None,
    initial_posterior: np.ndarray | None = None,
    initial_parameters: object | None = None,
    delta: DeltaPlan | None = None,
) -> EMOutcome:
    """Run sharded EM to convergence over ``runner``'s shards.

    Per iteration: the spec's M-step hook over the cached per-shard
    statistics, one mapped E-step over the active shards (reassembled
    into the global state and golden-clamped), and a convergence check
    on the posterior.  Warm starts: with ``initial_parameters`` the
    loop opens with a priming E-step that is counted as an iteration;
    ``initial_posterior`` starts the loop without counting.
    ``initial_parameters`` wins when both are given.

    ``delta`` opts into the incremental path (module docstring):
    ``DeltaPlan(prev=None)`` runs the full fit but collects a
    :class:`ShardState` for the next refit; a plan with a cached
    ``prev`` primes only the dirty shards, starts with the clean ones
    frozen, and **requires** ``initial_parameters`` (delta refits are
    warm by definition).  Without ``delta`` only the
    :class:`FitStats` counters are recorded.
    """
    return _drive(runner, em_order=True, tolerance=tolerance,
                  max_iter=max_iter, golden=golden,
                  posterior=initial_posterior,
                  parameters=initial_parameters,
                  counted=initial_parameters is not None, rng=None,
                  delta=delta)


# ----------------------------------------------------------------------
# Alternating truth/weight estimation (CATD, PM)
# ----------------------------------------------------------------------

def run_alternating_sharded(
    runner: SerialShardRunner,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iter: int = DEFAULT_MAX_ITER,
    golden: Mapping[int, float] | None = None,
    initial_parameters: np.ndarray | None = None,
    rng=None,
    count_prime: bool = False,
    delta: DeltaPlan | None = None,
) -> EMOutcome:
    """Sharded driver for alternating truth/weight estimators.

    Opens with a mapped truth step (``e_block`` at the initial weights,
    reassembled and golden-clamped); each iteration is then a weight
    step (map ``accumulate`` over the ``prepare_accumulate`` inputs,
    merge, ``finalize``), a convergence check **on the weights**, and
    the next truth step — exactly the unsharded CATD/PM loop shape,
    bit-identical at one shard.

    ``initial_parameters`` (the starting weights) is required; with
    ``count_prime=True`` it also primes the convergence check (a warm
    refit may then stop after one weight step, mirroring
    :func:`run_em_sharded`'s counted warm prime; a delta refit always
    counts it).  ``rng`` feeds only master-side ``prepare_accumulate``
    (random tie-breaking); ``delta`` has :func:`run_em_sharded`'s
    semantics.
    """
    if initial_parameters is None:
        raise InferenceError("alternating estimation starts from weights; "
                             "pass initial_parameters")
    return _drive(runner, em_order=False, tolerance=tolerance,
                  max_iter=max_iter, golden=golden, posterior=None,
                  parameters=initial_parameters,
                  counted=count_prime or (delta is not None
                                          and delta.prev is not None),
                  rng=rng, delta=delta)


# ----------------------------------------------------------------------
# Gibbs sweeps (BCC, CBCC): a third phase kind
# ----------------------------------------------------------------------

@dataclasses.dataclass
class GibbsOutcome:
    """Result of :func:`run_gibbs_sharded`: the retained-sweep tally
    plus the last sweep's state and the usual telemetry."""

    tally: np.ndarray
    retained: int
    state: np.ndarray
    fit_stats: FitStats


def run_gibbs_sharded(
    runner: SerialShardRunner,
    *,
    n_sweeps: int,
    burn_in: int,
    sample: Callable[[SufficientStats, int], object],
    golden: Mapping[int, float] | None = None,
    initial_state: np.ndarray,
    tally: np.ndarray | None = None,
    retained: int = 0,
    mode: str = "gibbs",
    dirty: int = 0,
) -> GibbsOutcome:
    """Sharded collapsed-Gibbs driver (BCC/CBCC's phase kind).

    Per sweep: map ``accumulate`` over the current per-shard assignment
    blocks and merge (the conditional's sufficient statistics), hand the
    merged totals to the **master-side** ``sample(merged, sweep)``
    closure — which holds the method's generator and draws the global
    parameters (confusion matrices, class prior, community memberships)
    — then map ``e_block`` at the sampled parameters to resample every
    shard's task-assignment block, reassemble and golden-clamp.  Sweeps
    past ``burn_in`` are tallied.

    Keeping every random draw on the master generator makes a run
    **bit-identical to the legacy sampler at one shard** and exactly
    reproducible at any fixed shard count (the shard phases are
    deterministic).  Across *different* shard counts only the float
    merge order of the statistics changes; the last-ulp differences
    steer the rejection samplers onto different (equally valid) draws,
    so multi-shard runs are statistically, not numerically, equivalent
    — the same caveat Gibbs has under any summation-order change.

    *Chain continuation* (the Gibbs delta contract): a delta refit
    passes the cached chain's lifetime ``tally``/``retained`` (grown to
    the current task count by the caller), the restored assignment
    state as ``initial_state``, ``burn_in=0`` (the chain is already
    mixed) and ``mode="delta"``; the continued sweeps keep accumulating
    into the same tally, so the posterior is the running average over
    the whole chain history rather than a fresh window.
    """
    spec = runner.spec
    started = time.perf_counter()
    fit_stats = FitStats(mode=mode, n_shards=runner.n_shards,
                         dirty_shards=dirty)
    ranges = runner.task_ranges
    state = spec.golden_clamp(
        np.array(initial_state, dtype=np.float64), golden)
    tally = (np.zeros_like(state) if tally is None
             else np.array(tally, dtype=np.float64))
    retained = int(retained)
    for sweep in range(n_sweeps):
        fit_stats.active_shards.append(runner.n_shards)
        fit_stats.frozen_shards.append(0)
        stats = runner.call("accumulate", per_shard=[
            state[start:stop] for start, stop in ranges])
        fit_stats.accumulate_calls += runner.n_shards
        parameters = sample(SufficientStats.total(stats), sweep)
        state = spec.golden_clamp(np.concatenate(
            runner.call("e_block", shared=(parameters,)), axis=0), golden)
        fit_stats.e_block_calls += runner.n_shards
        if sweep >= burn_in:
            tally += state
            retained += 1
    fit_stats.iterations = n_sweeps
    fit_stats.em_seconds = time.perf_counter() - started
    fit_stats.record_runner(runner)
    return GibbsOutcome(tally=tally, retained=retained, state=state,
                        fit_stats=fit_stats)


def make_runner(answers_or_sharded, spec: ShardedEMSpec, n_shards: int = 1,
                pool=None) -> SerialShardRunner:
    """Convenience: build a :class:`SerialShardRunner` from an
    :class:`~repro.core.answers.AnswerSet` (sharded here) or an existing
    :class:`~repro.core.shards.ShardedAnswerSet`."""
    if isinstance(answers_or_sharded, ShardedAnswerSet):
        sharded = answers_or_sharded
    else:
        sharded = ShardedAnswerSet(answers_or_sharded, n_shards)
    return SerialShardRunner(spec, sharded.shards, pool=pool)
