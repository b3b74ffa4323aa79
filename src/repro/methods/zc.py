"""ZC — ZenCrowd (Demartini, Difallah & Cudré-Mauroux, WWW 2012).

Worker model: a single *worker probability* ``q^w`` in [0, 1] — the
probability the worker answers a task correctly.  ZC maximises the
likelihood of the observed answers with the truths as latent variables
(paper Equation 1) via EM:

* **E-step** — ``Pr(v*_i = z) ∝ Π_w q_w^{1[v=z]} ((1-q_w)/(l-1))^{1[v≠z]}``;
* **M-step** — ``q_w`` = expected fraction of worker ``w``'s answers that
  match the (soft) truth.

For single-choice tasks with ``l`` choices the incorrect-answer mass is
spread uniformly over the other ``l - 1`` choices, the standard
extension the survey applies to run ZC on S_Rel/S_Adult.

The M-step is expressed as mergeable sufficient statistics
(:mod:`repro.inference.sharded`): per shard, the posterior mass on the
answered labels summed per worker plus the per-worker answer counts;
merged by addition and finalised into ``q_w`` — so the same code runs
unsharded, sharded in-process, or fanned over worker processes.
"""

from __future__ import annotations

import types
from typing import Mapping

import numpy as np

from ..core.answers import AnswerSet
from ..core.base import CategoricalMethod
from ..core.framework import clip_probability, decode_posterior, log_normalize_rows
from ..core.registry import register
from ..core.result import InferenceResult
from ..core.shards import AnswerShard
from ..core.warmstart import expand_worker_vector, neutral_accuracy
from ..inference.segops import BasedScatterAdd, SegmentSum
from ..inference.sharded import (
    ShardedEMSpec,
    SufficientStats,
    majority_block,
    pad_rows,
    run_em_sharded,
)


class _ZCSpec(ShardedEMSpec):
    """Sharded statistics of the worker-probability EM."""

    def __init__(self, n_tasks: int, n_workers: int, n_choices: int) -> None:
        super().__init__()
        self.n_tasks = n_tasks
        self.n_workers = n_workers
        self.n_choices = n_choices

    def build_ops(self, shard: AnswerShard):
        rows_tv = shard.local_tasks * self.n_choices + shard.values
        return types.SimpleNamespace(
            # M-step: answers read their (task, answered-label) cell of
            # the posterior block directly.
            matched_sum=SegmentSum(shard.workers, self.n_workers,
                                   cols=rows_tv,
                                   n_cols=shard.n_local_tasks
                                   * self.n_choices),
            # E-step: per-answer reads of tiny per-worker tables.
            base_sum=SegmentSum(shard.local_tasks, shard.n_local_tasks,
                                cols=shard.workers,
                                n_cols=self.n_workers),
            bonus_scatter=BasedScatterAdd(
                rows_tv, shard.n_local_tasks * self.n_choices,
                cols=shard.workers, n_cols=self.n_workers),
            answer_counts=np.bincount(shard.workers,
                                      minlength=self.n_workers),
            # Worker width the operators were built at (see
            # ShardedEMSpec.resize).
            n_workers=self.n_workers,
        )

    def resize(self, n_tasks: int, n_workers: int, n_choices: int) -> bool:
        if (n_choices != self.n_choices or n_workers < self.n_workers
                or n_tasks < self.n_tasks):
            return False
        self.n_tasks, self.n_workers = n_tasks, n_workers
        return True

    def init_block(self, shard: AnswerShard, ops) -> np.ndarray:
        return majority_block(shard)

    def accumulate(self, shard: AnswerShard, ops,
                   block: np.ndarray) -> SufficientStats:
        return SufficientStats(
            matched_sum=pad_rows(ops.matched_sum(np.ravel(block)),
                                 self.n_workers),
            answer_counts=pad_rows(ops.answer_counts, self.n_workers),
        )

    def finalize(self, stats: SufficientStats) -> np.ndarray:
        counts = np.maximum(stats["answer_counts"], 1)
        return stats["matched_sum"] / counts

    def e_block(self, shard: AnswerShard, ops,
                quality: np.ndarray) -> np.ndarray:
        # A retained operator predates any newly arrived workers, none
        # of which answered in this shard: slice their entries off.
        q = clip_probability(quality[:ops.n_workers])
        log_correct = np.log(q)
        log_wrong = np.log((1.0 - q) / max(self.n_choices - 1, 1))
        # Every answer contributes log_wrong to all labels of its task,
        # plus (log_correct - log_wrong) to the answered label; both are
        # per-worker tables read in place by the fused kernels.
        base = ops.base_sum(log_wrong)
        base_cells = np.broadcast_to(
            base[:, None], (shard.n_local_tasks, self.n_choices)
        ).reshape(-1)
        log_post = ops.bonus_scatter(
            base_cells, log_correct - log_wrong
        ).reshape(shard.n_local_tasks, self.n_choices)
        return log_normalize_rows(log_post)


@register
class ZenCrowd(CategoricalMethod):
    """EM over the worker-probability model."""

    name = "ZC"
    supports_initial_quality = True
    supports_golden = True
    supports_sharding = True

    def make_em_spec(self, n_tasks: int, n_workers: int,
                     n_choices: int) -> _ZCSpec:
        return _ZCSpec(n_tasks=n_tasks, n_workers=n_workers,
                       n_choices=n_choices)

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
        runner = shard_runner
        start = None
        warm_params = None
        if warm_start is not None:
            # The worker probability *is* ZC's EM parameter: resume
            # from the previous qualities; unseen workers start at
            # the pool's neutral seed accuracy.
            warm_params = expand_worker_vector(
                warm_start.worker_quality, answers.n_workers,
                neutral_accuracy(warm_start.worker_quality),
            )
        elif initial_quality is not None:
            start = np.concatenate(
                runner.call("e_block", shared=(initial_quality,)),
                axis=0)

        outcome = run_em_sharded(
            runner,
            tolerance=self.tolerance,
            max_iter=self.max_iter,
            golden=golden,
            initial_posterior=start,
            initial_parameters=warm_params,
            delta=delta,
        )
        if (outcome.shard_state is not None
                and all(s is not None
                        for s in outcome.shard_state.stats)):
            # The collected state already holds every shard's
            # statistics at the final posterior — finalizing their
            # merge IS the m_step below, minus the recomputation.
            quality = runner.spec.finalize(
                SufficientStats.total(outcome.shard_state.stats))
        else:
            quality = runner.m_step(outcome.posterior)
        return InferenceResult(
            method=self.name,
            truths=decode_posterior(outcome.posterior, rng),
            worker_quality=quality,
            posterior=outcome.posterior,
            n_iterations=outcome.n_iterations,
            converged=outcome.converged,
            extras={"warm_started": warm_start is not None},
            fit_stats=outcome.fit_stats,
            shard_state=outcome.shard_state,
        )
