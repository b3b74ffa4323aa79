"""KOS (Karger, Oh & Shah, NIPS 2011) — iterative belief propagation.

Decision-making tasks only.  Answers are encoded as ``A_{iw} ∈ {+1, −1}``
(T → +1, F → −1) and two families of messages are passed along the
task–worker bipartite graph:

* task-to-worker ``x_{i→w} = Σ_{w'≠w} A_{iw'} y_{w'→i}``
* worker-to-task ``y_{w→i} = Σ_{i'≠i} A_{i'w} x_{i'→w}``

after random Gaussian initialisation of the ``y`` messages.  The final
estimate is ``v*_i = sign( Σ_{w∈W_i} A_{iw} y_{w→i} )``.  The algorithm
is the BP/low-rank specialisation of ZC's model; the survey runs it for
a fixed small number of rounds, as the original paper prescribes.

Sharding: every task's edges live in exactly one task-range shard, so
the task half of each round is shard-local; the worker half merges
per-shard worker totals between the two message updates, and the
normaliser merges per-shard squared sums.  The per-edge ``y``/``x``
messages stay resident shard-side across rounds (in the cached shard
operators, so the process tier never reships them).  A round is the
two phases ``task_round`` and ``worker_round``; its normaliser rides,
as a per-shard divisor, into the next phase that reads ``y``.

Seeding is *layout-independent*: the master draws one entropy word per
fit and every edge derives its Gaussian seed shard-side from a hash of
its ``(task, worker)`` identity (:func:`edge_seed_messages`) — not from
its position in any shard order.  An edge therefore receives the same
seed value on a fresh task-sorted layout, a runtime layout grown by
epoch appends, or any shard count; the residual cross-layout
difference is float summation order in the per-round ``bincount``
reductions (the same last-ulp caveat every multi-shard merge has).

Delta refits (the KOS incremental contract): one round loop runs every
fit, and a full fit is the case with nothing frozen.  A warm refit
primes clean shards with their cached final ``y`` messages and seeds
the rest (dirty shards, and a clean one whose cached block no longer
matches its edges).  Shards primed from the cache start *frozen*: their
worker-total partial is predicted analytically as ``s_k · P_k``
(``task_round`` is linear in ``y`` and a round's normalisation is one
global scalar, so the master tracks each frozen shard's cumulative
scale ``s_k``), and their normaliser contribution as ``s_k² · q_k``.
Periodic verify rounds (and always the final round) synchronise the
frozen messages, run the real round everywhere, measure the prediction
drift, and thaw any shard whose drift exceeds the threshold — so the
final scores are always the output of a genuine full round.  The sync
factor ``1/s_k`` is one more divisor owed, applied after the last
verify's normaliser rather than multiplied into it.
"""

from __future__ import annotations

import functools
import time
import types
from typing import Mapping

import numpy as np
from scipy.special import ndtri

from ..core.answers import AnswerSet
from ..core.base import BinaryMethod
from ..core.registry import register
from ..core.result import FitStats, InferenceResult
from ..core.shards import AnswerShard
from ..core.tasktypes import LABEL_TRUE
from ..inference.sharded import (
    ShardState,
    ShardedEMSpec,
    check_delta_layout,
    pad_rows,
)

# splitmix64 constants (Steele et al., "Fast splittable pseudorandom
# number generators") — the per-edge seed hash below is the standard
# finalizer over a (task, worker, entropy) key.
_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_MIX2 = np.uint64(0x94D049BB133111EB)

#: Relative drift floor past which a verify round thaws a frozen shard.
#: The frozen-shard prediction ignores cross-shard worker coupling, so
#: a small relative drift is expected and harmless — KOS decisions are
#: sign decisions, and the mandatory final verify round recomputes
#: every message for real before scoring.  Only a clearly diverged
#: prediction (worse than this floor) is worth paying full rounds for.
_THAW_DRIFT_FLOOR = 0.05


def edge_seed_messages(tasks: np.ndarray, workers: np.ndarray,
                       entropy: int) -> np.ndarray:
    """Layout-independent Gaussian ``y`` seed for a set of answer edges.

    Each edge's seed is a function of its ``(task, worker)`` identity
    and the fit's master-drawn ``entropy`` word only: a splitmix64 hash
    of the packed key yields a uniform in ``(0, 1)`` mapped through the
    normal quantile function to ``N(1, 1)`` — the distribution the
    historical master-order draw used.  Duplicate ``(task, worker)``
    edges share a seed value; that is deterministic by construction and
    statistically immaterial (the messages decorrelate within a round).
    """
    key = ((tasks.astype(np.uint64) << np.uint64(32))
           ^ workers.astype(np.uint64))
    with np.errstate(over="ignore"):
        x = key + _SM64_GAMMA * (np.uint64(entropy) + np.uint64(1))
        x ^= x >> np.uint64(30)
        x *= _SM64_MIX1
        x ^= x >> np.uint64(27)
        x *= _SM64_MIX2
        x ^= x >> np.uint64(31)
    u = ((x >> np.uint64(11)).astype(np.float64) + 0.5) / float(1 << 53)
    return 1.0 + ndtri(u)


def _divide(y: np.ndarray, divisors: tuple) -> np.ndarray:
    """``y`` divided by each of ``divisors`` in turn."""
    for divisor in divisors:
        y = y / divisor
    return y


class _KOSSpec(ShardedEMSpec):
    """Shard phases of the KOS message passing, driven by
    :meth:`KOS._fit`: ``prime``, ``task_round`` and ``worker_round``
    per round, then ``score``; it defines none of the EM hooks.

    ``ops`` doubles as the shard's message store — built once per shard
    and pinned to its worker process, it carries the per-edge ``y``/``x``
    vectors from round to round.  A phase that reads ``y`` first divides
    it, in turn, by the ``divisors`` the shard owes.
    """

    #: The phases that write the message store, which the runtime
    #: replays to recover a shard (see
    #: ``ShardedEMSpec.stateful_phases``); ``score`` only reads it.
    stateful_phases = frozenset({"prime", "task_round", "worker_round"})

    def __init__(self, n_tasks: int, n_workers: int,
                 n_choices: int = 2) -> None:
        super().__init__()
        self.n_tasks = n_tasks
        self.n_workers = n_workers
        self.n_choices = 2

    def build_ops(self, shard: AnswerShard):
        # Spin encoding: T (label 1) -> +1, F (label 0) -> -1.
        spins = np.where(shard.values.astype(np.int64) == LABEL_TRUE,
                         1.0, -1.0)
        return types.SimpleNamespace(spins=spins, y=None, x=None)

    def resize(self, n_tasks: int, n_workers: int, n_choices: int) -> bool:
        if (n_choices != 2 or n_workers < self.n_workers
                or n_tasks < self.n_tasks):
            return False
        self.n_tasks, self.n_workers = n_tasks, n_workers
        return True

    # -- round phases --------------------------------------------------
    def prime(self, shard: AnswerShard, ops, cached,
              entropy: int) -> bool:
        """Set this shard's ``y`` messages: adopt the ``cached`` block
        when its length still matches the shard's edges, else seed from
        edge identity (:func:`edge_seed_messages`, the same values in
        any layout).  Returns whether the cached block was adopted."""
        if cached is not None and len(cached) == len(ops.spins):
            ops.y = np.array(cached, dtype=np.float64)
            return True
        ops.y = edge_seed_messages(shard.tasks, shard.workers, entropy)
        return False

    def task_round(self, shard: AnswerShard, ops,
                   divisors: tuple) -> np.ndarray:
        """x-update (shard-local) + this shard's worker-total partial."""
        ops.y = _divide(ops.y, divisors)
        spins = ops.spins
        task_totals = np.bincount(shard.local_tasks, weights=spins * ops.y,
                                  minlength=shard.n_local_tasks)
        ops.x = task_totals[shard.local_tasks] - spins * ops.y
        return np.bincount(shard.workers, weights=spins * ops.x,
                           minlength=self.n_workers)

    def worker_round(self, shard: AnswerShard, ops,
                     worker_totals: np.ndarray) -> float:
        """y-update against the merged worker totals; returns the
        shard's squared-sum contribution to the normaliser."""
        spins = ops.spins
        ops.y = worker_totals[shard.workers] - spins * ops.x
        return float(np.sum(ops.y * ops.y))

    def score(self, shard: AnswerShard, ops, divisors: tuple,
              collect: bool) -> tuple:
        """Final task scores (shard-local) and the shard's partial of
        the per-worker alignment sums, leaving the message store as it
        is.  With ``collect``, also a snapshot of the shard's message
        state for the next delta refit, sharing the per-task totals:
        the final ``y`` block, its ``task_round`` worker-total partial
        and its squared sum."""
        y = _divide(ops.y, divisors)
        spins = ops.spins
        scores = np.bincount(shard.local_tasks, weights=spins * y,
                             minlength=shard.n_local_tasks)
        alignment = spins * np.sign(scores)[shard.local_tasks]
        sums = np.bincount(shard.workers, weights=alignment,
                           minlength=self.n_workers)
        if not collect:
            return scores, sums
        x = scores[shard.local_tasks] - spins * y
        partial = np.bincount(shard.workers, weights=spins * x,
                              minlength=self.n_workers)
        return scores, sums, np.array(y), partial, float(np.sum(y * y))


@register
class KOS(BinaryMethod):
    """Karger–Oh–Shah message passing on the assignment graph."""

    name = "KOS"
    supports_sharding = True

    def __init__(self, n_rounds: int = 10, **kwargs) -> None:
        super().__init__(**kwargs)
        if n_rounds < 1:
            raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
        self.n_rounds = n_rounds

    def make_em_spec(self, n_tasks: int, n_workers: int, n_choices: int):
        return _KOSSpec(n_tasks=n_tasks, n_workers=n_workers)

    def _fit(
        self,
        answers: AnswerSet,
        golden: Mapping[int, float] | None,
        initial_quality: np.ndarray | None,
        rng: np.random.Generator,
        warm_start: InferenceResult | None = None,
        shard_runner=None,
        delta=None,
    ) -> InferenceResult:
        started = time.perf_counter()
        runner = shard_runner
        n_shards = runner.n_shards
        n_workers = answers.n_workers
        # One entropy word per fit: deterministic given the seed,
        # independent of any layout (the per-edge seeds are derived
        # from it shard-side — see edge_seed_messages).
        entropy = int(rng.integers(0, 2 ** 63))
        # A delta refit resumes the cached message state; without a
        # cached state the plan collects one (`refit="full"` passes no
        # plan at all, so the historical path is untouched bit-for-bit).
        warm = delta is not None and delta.prev is not None
        session = delta.prev.session if warm else None

        fit_stats = FitStats(mode="delta" if warm else "full",
                             n_shards=n_shards)
        cached: list = [None] * n_shards
        verify_every, thaw_tol = 1, 0.0  # read only while frozen
        if warm:
            dirty = np.asarray(delta.dirty, dtype=bool)
            check_delta_layout(runner.task_ranges, delta.prev, dirty)
            fit_stats.dirty_shards = int(dirty.sum())
            verify_every = max(1, int(delta.verify_every))
            freeze_tol = (delta.freeze_tol if delta.freeze_tol is not None
                          else 0.0)
            thaw_tol = max(_THAW_DRIFT_FLOOR, verify_every * freeze_tol)
            cached = [None if dirty[k] else session["y"][k]
                      for k in range(n_shards)]
        adopted = runner.call("prime", per_shard=[(y,) for y in cached],
                              shared=(entropy,))
        # Shards primed from the cache start frozen, predicted from
        # their cached worker-total partial and squared sum times their
        # cumulative scale since caching.
        frozen = {k for k, ok in enumerate(adopted) if ok}
        part = {k: pad_rows(np.asarray(session["partial"][k],
                                       dtype=np.float64), n_workers)
                for k in frozen}
        sq = {k: float(session["sq"][k]) for k in frozen}
        scale = {k: 1.0 for k in frozen}
        # The divisors each shard applies to ``y`` at its next read.
        owed: list[list] = [[] for _ in range(n_shards)]

        for r in range(1, self.n_rounds + 1):
            active = [k for k in range(n_shards) if k not in frozen]
            fit_stats.active_shards.append(len(active))
            fit_stats.frozen_shards.append(n_shards - len(active))
            verify = bool(frozen) and (r % verify_every == 0
                                       or r == self.n_rounds)
            if verify:
                # Sync frozen y to the scale the predictions assumed,
                # then run the round for real everywhere and grade the
                # predictions against it.
                fit_stats.verify_passes += 1
                for k in frozen:
                    if scale[k] != 1.0:
                        owed[k].append(1.0 / scale[k])
            run = list(range(n_shards)) if verify else active
            partials = runner.call(
                "task_round", per_shard=[(tuple(owed[k]),) for k in run],
                only=run) if run else []
            for k in run:
                owed[k] = []
            fit_stats.e_block_calls += len(run)
            worker_totals = functools.reduce(np.add, partials,
                                             np.zeros(n_workers))
            if verify:
                for k in sorted(frozen):
                    predicted = scale[k] * part[k]
                    real = partials[k]
                    spread = max(float(np.max(np.abs(real))), 1e-30)
                    drift = float(np.max(np.abs(real - predicted))) / spread
                    if drift > thaw_tol and r < self.n_rounds:
                        frozen.discard(k)
                        fit_stats.thaws += 1
            else:
                for k in frozen:
                    worker_totals += scale[k] * part[k]
            squares = runner.call("worker_round", shared=(worker_totals,),
                                  only=run) if run else []
            fit_stats.accumulate_calls += len(run)
            sq_total = sum(squares)
            if not verify:
                sq_total += sum(scale[k] ** 2 * sq[k] for k in frozen)
            norm = np.sqrt(sq_total / answers.n_answers)
            if norm > 0:
                for k in run:
                    owed[k].append(float(norm))
                for k in frozen:
                    if verify:
                        # Refresh the surviving frozen caches at the
                        # new (real, post-scale) messages, approximating
                        # the round as the global rescale the freeze
                        # model assumes; the next verify bounds the lag.
                        part[k] = partials[k] / norm
                        sq[k] = squares[k] / (norm * norm)
                        scale[k] = 1.0
                    else:
                        scale[k] /= norm

        packed = runner.call("score",
                             per_shard=[(tuple(y),) for y in owed],
                             shared=(delta is not None,))
        scores = np.concatenate([p[0] for p in packed])
        sums = functools.reduce(np.add, [p[1] for p in packed])
        shard_state = None
        if delta is not None:
            # A collecting fit counts its final sweep: the session the
            # next delta refit resumes from is taken there.
            fit_stats.e_block_calls += n_shards
            shard_state = ShardState.collect(
                runner, [p[0] for p in packed], delta,
                session={"family": "kos",
                         "y": [p[2] for p in packed],
                         "partial": [p[3] for p in packed],
                         "sq": [p[4] for p in packed]})

        truths = np.where(scores > 0, LABEL_TRUE, 1 - LABEL_TRUE)
        ties = scores == 0
        if ties.any():
            truths[ties] = rng.integers(0, 2, size=int(ties.sum()))

        # Worker reliability summary: average alignment of the worker's
        # spin with the final task score sign.
        counts = np.maximum(answers.worker_answer_counts(), 1)
        quality = (sums / counts + 1.0) / 2.0

        posterior = np.zeros((answers.n_tasks, 2))
        posterior[np.arange(answers.n_tasks), truths] = 1.0
        fit_stats.iterations = self.n_rounds
        fit_stats.em_seconds = time.perf_counter() - started
        fit_stats.record_runner(runner)
        return InferenceResult(
            method=self.name,
            truths=truths,
            worker_quality=quality,
            posterior=posterior,
            n_iterations=self.n_rounds,
            converged=True,
            extras={"task_scores": scores, "warm_started": warm},
            fit_stats=fit_stats,
            shard_state=shard_state,
        )
