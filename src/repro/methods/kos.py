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
operators, so the process tier never reships them).

Seeding is *layout-independent*: the master draws one entropy word per
fit and every edge derives its Gaussian seed shard-side from a hash of
its ``(task, worker)`` identity (:func:`edge_seed_messages`) — not from
its position in any shard order.  An edge therefore receives the same
seed value on a fresh task-sorted layout, a runtime layout grown by
epoch appends, or any shard count; the residual cross-layout
difference is float summation order in the per-round ``bincount``
reductions (the same last-ulp caveat every multi-shard merge has).

Delta refits (the KOS incremental contract): a warm refit restores
each clean shard's cached final ``y`` messages and re-primes dirty
shards with fresh seeds, then replays the fixed message rounds with
clean shards *frozen* — their worker-total partial is predicted
analytically as ``s_k · P_k`` (``task_round`` is linear in ``y`` and a
round's normalisation is one global scalar, so the master tracks each
frozen shard's cumulative scale ``s_k``), and their normaliser
contribution as ``s_k² · q_k``.  Periodic verify rounds (and always
the final round) synchronise the frozen messages, run the real round
everywhere, measure the prediction drift, and thaw any shard whose
drift exceeds the threshold — so the final scores are always the
output of a genuine full round.
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


class _KOSSpec(ShardedEMSpec):
    """Round phases of the KOS message passing.

    Not an EM method: the phases below are driven directly by
    :meth:`KOS._fit` rather than ``run_em_sharded``, so the EM hooks
    are stubs.  ``ops`` doubles as the shard's message store — built
    once per shard and pinned to its worker process, it carries the
    per-edge ``y``/``x`` vectors from round to round.
    """

    #: The phases that write the message store, which the runtime
    #: replays to recover a shard (see
    #: ``ShardedEMSpec.stateful_phases``).
    stateful_phases = frozenset({"seed_edges", "restore_y", "task_round",
                                 "worker_round", "scale_y"})

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
    def seed_edges(self, shard: AnswerShard, ops, entropy: int) -> None:
        """Seed this shard's ``y`` messages from edge identity (see
        :func:`edge_seed_messages`) — the same values in any layout."""
        ops.y = edge_seed_messages(shard.tasks, shard.workers, entropy)

    def restore_y(self, shard: AnswerShard, ops,
                  y_block: np.ndarray) -> bool:
        """Adopt a cached message block; declines (returns False) when
        the shard's edge count no longer matches — the caller then
        re-seeds the shard instead of trusting a misaligned cache."""
        if y_block is None or len(y_block) != len(ops.spins):
            return False
        ops.y = np.array(y_block, dtype=np.float64)
        return True

    def task_round(self, shard: AnswerShard, ops) -> np.ndarray:
        """x-update (shard-local) + this shard's worker-total partial."""
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

    def scale_y(self, shard: AnswerShard, ops, norm: float) -> None:
        ops.y = ops.y / norm

    def score_block(self, shard: AnswerShard, ops
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Final task scores (shard-local) and the shard's partial of
        the per-worker alignment sums."""
        spins = ops.spins
        scores = np.bincount(shard.local_tasks, weights=spins * ops.y,
                             minlength=shard.n_local_tasks)
        alignment = spins * np.sign(scores)[shard.local_tasks]
        sums = np.bincount(shard.workers, weights=alignment,
                           minlength=self.n_workers)
        return scores, sums

    def score_and_collect(self, shard: AnswerShard, ops):
        """:meth:`score_block` plus a snapshot of this shard's message
        state for the next delta refit, in one shard pass that shares
        the per-task totals bincount — the delta path's final sweep.
        The snapshot is the final ``y`` block, its ``task_round``
        worker-total partial (computed without touching the resident
        messages) and its squared sum."""
        spins = ops.spins
        scores = np.bincount(shard.local_tasks, weights=spins * ops.y,
                             minlength=shard.n_local_tasks)
        alignment = spins * np.sign(scores)[shard.local_tasks]
        sums = np.bincount(shard.workers, weights=alignment,
                           minlength=self.n_workers)
        x = scores[shard.local_tasks] - spins * ops.y
        partial = np.bincount(shard.workers, weights=spins * x,
                              minlength=self.n_workers)
        return (scores, sums, np.array(ops.y), partial,
                float(np.sum(ops.y * ops.y)))

    # -- unused EM hooks -----------------------------------------------
    def init_block(self, shard: AnswerShard, ops) -> np.ndarray:
        raise NotImplementedError("KOS is not an EM method")

    def accumulate(self, shard: AnswerShard, ops, block) -> None:
        raise NotImplementedError("KOS is not an EM method")

    def finalize(self, stats) -> None:
        raise NotImplementedError("KOS is not an EM method")

    def e_block(self, shard: AnswerShard, ops, params) -> np.ndarray:
        raise NotImplementedError("KOS is not an EM method")


@register
class KOS(BinaryMethod):
    """Karger–Oh–Shah message passing on the assignment graph."""

    name = "KOS"
    supports_sharding = True
    supports_warm_start = True
    supports_delta = True

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
        # One entropy word per fit: deterministic given the seed,
        # independent of any layout (the per-edge seeds are derived
        # from it shard-side — see edge_seed_messages).
        entropy = int(rng.integers(0, 2 ** 63))
        session = (delta.prev.session
                   if delta is not None and delta.prev is not None
                   else None)
        # A message-state delta refit needs a warm start *and* a
        # cached KOS session; anything else demotes to a collecting
        # full fit (`refit="full"` passes no plan at all, so the
        # historical path is untouched bit-for-bit).
        warm = (warm_start is not None and session is not None
                and isinstance(session, dict)
                and session.get("family") == "kos"
                and len(session.get("y", ())) == runner.n_shards)
        if delta is not None and delta.prev is not None and not warm:
            delta = delta.collect_only()

        if warm:
            fit_stats = self._run_delta(runner, answers, delta, entropy)
        else:
            fit_stats = FitStats(mode="full", n_shards=runner.n_shards)
            runner.call("seed_edges", shared=(entropy,))
            for _ in range(self.n_rounds):
                fit_stats.active_shards.append(runner.n_shards)
                fit_stats.frozen_shards.append(0)
                partials = runner.call("task_round")
                fit_stats.e_block_calls += runner.n_shards
                worker_totals = functools.reduce(np.add, partials)
                squares = runner.call("worker_round",
                                      shared=(worker_totals,))
                fit_stats.accumulate_calls += runner.n_shards
                norm = np.sqrt(sum(squares) / answers.n_answers)
                if norm > 0:
                    runner.call("scale_y", shared=(float(norm),))

        shard_state = None
        if delta is not None:
            packed = runner.call("score_and_collect")
            fit_stats.e_block_calls += runner.n_shards
            scores = np.concatenate([p[0] for p in packed])
            sums = functools.reduce(np.add, [p[1] for p in packed])
            shard_state = self._collect_state(runner, packed, delta)
        else:
            results = runner.call("score_block")
            scores = np.concatenate([block for block, _ in results])
            sums = functools.reduce(np.add,
                                    [part for _, part in results])

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

    # ------------------------------------------------------------------
    # Delta refit: warm message restarts + frozen-shard scaling
    # ------------------------------------------------------------------
    def _run_delta(self, runner, answers: AnswerSet, delta,
                   entropy: int) -> FitStats:
        """Replay the message rounds from cached per-shard state.

        Clean shards restore their cached final ``y`` (their edge
        arrays are bit-stable under append-only growth); dirty shards —
        and any clean shard whose cached block no longer matches its
        edge count — are re-seeded from edge identity.  Restored shards
        start *frozen*: between verify rounds their worker-total
        partial is the analytic ``s_k · P_k`` and their normaliser
        contribution ``s_k² · q_k``, with ``s_k`` accumulating the
        global per-round scale.  Verify rounds (every
        ``delta.verify_every`` rounds, and always the final round)
        synchronise the frozen messages, run the real round everywhere,
        refresh the caches and thaw shards whose relative prediction
        drift exceeds the threshold.
        """
        prev = delta.prev
        ranges = runner.task_ranges
        n_shards = runner.n_shards
        dirty = np.asarray(delta.dirty, dtype=bool)
        check_delta_layout(ranges, prev, dirty)
        verify_every = max(1, int(delta.verify_every))
        freeze_tol = delta.freeze_tol if delta.freeze_tol is not None else 0.0
        thaw_tol = max(_THAW_DRIFT_FLOOR, verify_every * freeze_tol)

        fit_stats = FitStats(mode="delta", n_shards=n_shards,
                             dirty_shards=int(dirty.sum()))
        session = prev.session
        n_workers = answers.n_workers

        clean_idx = [k for k in range(n_shards) if not dirty[k]]
        restored = runner.call(
            "restore_y", per_shard=[session["y"][k] for k in clean_idx],
            only=clean_idx) if clean_idx else []
        frozen = {k for k, ok in zip(clean_idx, restored) if ok}
        reseed = sorted(set(range(n_shards)) - frozen)
        if reseed:
            runner.call("seed_edges", shared=(entropy,), only=reseed)

        # Per-frozen-shard prediction state: cached worker-total
        # partial, cached squared sum, cumulative scale since caching.
        part = {k: pad_rows(np.asarray(session["partial"][k],
                                       dtype=np.float64), n_workers)
                for k in frozen}
        sq = {k: float(session["sq"][k]) for k in frozen}
        scale = {k: 1.0 for k in frozen}

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
                sync = [k for k in sorted(frozen) if scale[k] != 1.0]
                if sync:
                    runner.call("scale_y",
                                per_shard=[(1.0 / scale[k],) for k in sync],
                                only=sync)
                partials = runner.call("task_round")
                fit_stats.e_block_calls += n_shards
                fit_stats.verify_passes += 1
                worker_totals = functools.reduce(np.add, partials)
                for k in sorted(frozen):
                    predicted = scale[k] * part[k]
                    real = partials[k]
                    spread = max(float(np.max(np.abs(real))), 1e-30)
                    drift = float(np.max(np.abs(real - predicted))) / spread
                    if drift > thaw_tol and r < self.n_rounds:
                        frozen.discard(k)
                        fit_stats.thaws += 1
                        part.pop(k)
                        sq.pop(k)
                        scale.pop(k)
                squares = runner.call("worker_round",
                                      shared=(worker_totals,))
                fit_stats.accumulate_calls += n_shards
                norm = np.sqrt(sum(squares) / answers.n_answers)
                if norm > 0:
                    runner.call("scale_y", shared=(float(norm),))
                    # Refresh the surviving frozen caches at the new
                    # (real, post-scale) messages, approximating the
                    # round as the global rescale the freeze model
                    # assumes; the next verify bounds the lag.
                    for k in frozen:
                        part[k] = partials[k] / norm
                        sq[k] = squares[k] / (norm * norm)
                        scale[k] = 1.0
            else:
                partials = runner.call("task_round",
                                       only=active) if active else []
                fit_stats.e_block_calls += len(active)
                worker_totals = np.zeros(n_workers)
                for p in partials:
                    worker_totals += p
                for k in frozen:
                    worker_totals += scale[k] * part[k]
                squares = runner.call("worker_round",
                                      shared=(worker_totals,),
                                      only=active) if active else []
                fit_stats.accumulate_calls += len(active)
                sq_total = sum(squares) + sum(
                    scale[k] ** 2 * sq[k] for k in frozen)
                norm = np.sqrt(sq_total / answers.n_answers)
                if norm > 0:
                    if active:
                        runner.call("scale_y", shared=(float(norm),),
                                    only=active)
                    for k in frozen:
                        scale[k] /= norm
        return fit_stats

    @staticmethod
    def _collect_state(runner, packed, delta) -> ShardState:
        """Capture the per-shard message session the next delta refit
        resumes from (collected by the combined final sweep)."""
        return ShardState.collect(
            runner, [scores for scores, _, _, _, _ in packed], delta,
            session={
                "family": "kos",
                "y": [y for _, _, y, _, _ in packed],
                "partial": [p for _, _, _, p, _ in packed],
                "sq": [q for _, _, _, _, q in packed],
            },
        )
