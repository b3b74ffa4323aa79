"""D&S — Dawid & Skene (1979), maximum-likelihood observer error rates.

The most classical truth-inference method and, per the survey's Table 6,
still among the best.  Worker model: an ``l × l`` *confusion matrix*
``q^w`` where ``q^w[j, k] = Pr(worker answers k | truth is j)``.  EM:

* **E-step** — ``Pr(v*_i = j) ∝ p_j · Π_{w∈W_i} q^w[j, v^w_i]`` with
  class prior ``p``;
* **M-step** — confusion rows from expected counts, prior from the mean
  posterior.

A small Laplace smoothing keeps rows valid when a worker never saw some
truth class; LFC (see :mod:`repro.methods.lfc`) generalises this to full
Beta/Dirichlet priors.

Both steps are expressed as mergeable sufficient statistics over
task-range shards (:mod:`repro.inference.sharded`): the M-step is
``accumulate`` (expected per-worker answer×truth counts plus the
posterior column sums) → ``total`` (plain addition) → ``finalize``
(smooth, normalise), and the E-step maps independently over shards.
The plain ``fit`` is simply the single-shard instance of that map-reduce
and reproduces the historical global-array implementation bit-for-bit
(the :mod:`~repro.inference.segops` operators preserve its accumulation
order exactly).
"""

from __future__ import annotations

import dataclasses
import types
from typing import Mapping

import numpy as np

from ..core.answers import AnswerSet
from ..core.base import CategoricalMethod
from ..core.framework import (
    column_sums,
    decode_posterior,
    log_normalize_rows,
    row_sums,
)
from ..core.registry import register
from ..core.result import InferenceResult
from ..core.shards import AnswerShard
from ..core.warmstart import (
    diagonal_confusion,
    expand_posterior,
    neutral_accuracy,
)
from ..inference.segops import BasedScatterAdd, SegmentSum
from ..inference.sharded import (
    ShardedEMSpec,
    SufficientStats,
    majority_block,
    pad_rows,
    run_em_sharded,
)


@dataclasses.dataclass
class _DSParameters:
    """Confusion matrices (n_workers, l, l) and class prior (l,)."""

    confusion: np.ndarray
    prior: np.ndarray


def initial_confusion_from_quality(quality: np.ndarray, n_choices: int
                                   ) -> np.ndarray:
    """Diagonal confusion matrices from scalar accuracies.

    Used to initialise confusion-matrix methods from a qualification
    test: accuracy ``a`` becomes ``a`` on the diagonal and
    ``(1-a)/(l-1)`` elsewhere.
    """
    quality = np.clip(np.asarray(quality, dtype=np.float64), 1e-3, 1 - 1e-3)
    n_workers = len(quality)
    off = (1.0 - quality) / max(n_choices - 1, 1)
    confusion = np.repeat(off[:, None, None], n_choices, axis=1)
    confusion = np.repeat(confusion, n_choices, axis=2)
    idx = np.arange(n_choices)
    confusion[:, idx, idx] = quality[:, None]
    return confusion


class _ConfusionSpec(ShardedEMSpec):
    """Sufficient statistics of the confusion-matrix EM (D&S / LFC).

    Per shard, ``accumulate`` produces

    * ``counts[w, k, j]`` — posterior mass of truth ``j`` on answers
      where worker ``w`` chose ``k`` (the expected contingency table);
    * ``posterior_sum[j]`` / ``n_tasks`` — for the class prior.

    Both merge by addition; ``finalize`` adds the Dirichlet
    pseudo-counts and row-normalises, exactly as the unsharded M-step
    always has.
    """

    def __init__(self, n_tasks: int, n_workers: int, n_choices: int,
                 smoothing_off_diagonal: float,
                 smoothing_diagonal_bonus: float) -> None:
        super().__init__()
        self.n_tasks = n_tasks
        self.n_workers = n_workers
        self.n_choices = n_choices
        self.smoothing_off_diagonal = smoothing_off_diagonal
        self.smoothing_diagonal_bonus = smoothing_diagonal_bonus

    def build_ops(self, shard: AnswerShard):
        n_choices = self.n_choices
        # Row w*l + k identifies the (worker, answered-label) cell.
        rows_wv = shard.workers * n_choices + shard.values
        return types.SimpleNamespace(
            # M-step: answers read their task's posterior row directly.
            count_sum=SegmentSum(rows_wv, self.n_workers * n_choices,
                                 cols=shard.local_tasks,
                                 n_cols=shard.n_local_tasks),
            # E-step: answers read their (worker, label) row of the
            # per-iteration log-likelihood table, on a log-prior base.
            e_scatter=BasedScatterAdd(shard.local_tasks,
                                      shard.n_local_tasks,
                                      cols=rows_wv,
                                      n_cols=self.n_workers * n_choices),
            # Worker width the operators were built at: a retained
            # operator from before a worker-space growth pads its
            # outputs up to (and reads tables sliced down to) this.
            n_workers=self.n_workers,
        )

    def resize(self, n_tasks: int, n_workers: int, n_choices: int) -> bool:
        # The interleaved (worker, label) row layout bakes n_choices
        # into every operator; worker/task growth is pad-compatible.
        if (n_choices != self.n_choices or n_workers < self.n_workers
                or n_tasks < self.n_tasks):
            return False
        self.n_tasks, self.n_workers = n_tasks, n_workers
        return True

    def init_block(self, shard: AnswerShard, ops) -> np.ndarray:
        return majority_block(shard)

    def accumulate(self, shard: AnswerShard, ops,
                   block: np.ndarray) -> SufficientStats:
        counts = ops.count_sum(block).reshape(
            ops.n_workers, self.n_choices, self.n_choices)
        return SufficientStats(
            counts=pad_rows(counts, self.n_workers),
            posterior_sum=column_sums(block),
            n_tasks=float(block.shape[0]),
        )

    def finalize(self, stats: SufficientStats) -> _DSParameters:
        diag = np.arange(self.n_choices)
        # counts[w, k, j] -> confusion[w, j, k], then MAP smoothing.
        confusion = stats["counts"].transpose(0, 2, 1)
        confusion = confusion + self.smoothing_off_diagonal
        confusion[:, diag, diag] += self.smoothing_diagonal_bonus
        confusion /= row_sums(confusion)[..., None]
        prior = stats["posterior_sum"] / stats["n_tasks"]
        prior = prior / prior.sum()
        return _DSParameters(confusion=confusion, prior=prior)

    def e_block(self, shard: AnswerShard, ops,
                params: _DSParameters) -> np.ndarray:
        # A retained operator predates any newly arrived workers; this
        # shard's answers reference none of them, so slicing their rows
        # off the table is exact.
        confusion = params.confusion[:ops.n_workers]
        log_conf = np.log(np.maximum(confusion, 1e-12))
        # lc[w*l + k, j]: per-truth-class log-likelihood of worker w
        # answering k — a small table the kernel reads per answer, on
        # top of the log-prior base.
        lc = np.ascontiguousarray(log_conf.transpose(0, 2, 1)).reshape(
            ops.n_workers * self.n_choices, self.n_choices)
        log_prior = np.log(np.maximum(params.prior, 1e-12))
        return log_normalize_rows(ops.e_scatter(log_prior, lc))


class _ConfusionMatrixEM(CategoricalMethod):
    """Shared EM implementation for D&S and LFC.

    Subclasses control the Dirichlet pseudo-counts added in the M-step:
    D&S uses a tiny symmetric smoothing, LFC a genuine prior with extra
    mass on the diagonal.
    """

    #: Pseudo-count added to every confusion cell in the M-step.
    smoothing_off_diagonal = 0.01
    #: Extra pseudo-count added to diagonal cells (LFC's prior belief
    #: that workers are better than random).
    smoothing_diagonal_bonus = 0.0

    supports_initial_quality = True
    supports_golden = True
    supports_sharding = True

    def make_em_spec(self, n_tasks: int, n_workers: int,
                     n_choices: int) -> _ConfusionSpec:
        return _ConfusionSpec(
            n_tasks=n_tasks,
            n_workers=n_workers,
            n_choices=n_choices,
            smoothing_off_diagonal=self.smoothing_off_diagonal,
            smoothing_diagonal_bonus=self.smoothing_diagonal_bonus,
        )

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
        n_choices = answers.n_choices
        n_workers = answers.n_workers
        diag = np.arange(n_choices)
        runner = shard_runner
        start = None
        warm_params = None
        if warm_start is not None:
            prev_conf = warm_start.extras.get("confusion")
            prev_prior = warm_start.extras.get("class_prior")
            if prev_conf is not None and prev_prior is not None:
                # Resume from the previous confusion matrices;
                # workers that appeared since the last fit get
                # neutral diagonal matrices at the pool's mean
                # accuracy.
                prev_conf = np.asarray(prev_conf, dtype=np.float64)
                n_new = n_workers - prev_conf.shape[0]
                if n_new > 0:
                    prev_conf = np.concatenate([
                        prev_conf,
                        diagonal_confusion(
                            n_new, n_choices,
                            neutral_accuracy(warm_start.worker_quality)),
                    ])
                warm_params = _DSParameters(
                    confusion=prev_conf,
                    prior=np.asarray(prev_prior, dtype=np.float64),
                )
            else:
                start = expand_posterior(warm_start.posterior, answers)
        elif initial_quality is not None:
            params0 = _DSParameters(
                confusion=initial_confusion_from_quality(
                    initial_quality, n_choices),
                prior=np.full(n_choices, 1.0 / n_choices),
            )
            start = np.concatenate(
                runner.call("e_block", shared=(params0,)), axis=0)
        # Otherwise start stays None and run_em_sharded falls through
        # to the per-shard majority-vote initialisation.
        outcome = run_em_sharded(
            runner,
            tolerance=self.tolerance,
            max_iter=self.max_iter,
            golden=golden,
            initial_posterior=start,
            initial_parameters=warm_params,
            delta=delta,
        )
        params: _DSParameters = outcome.parameters
        quality = params.confusion[:, diag, diag].mean(axis=1)
        return InferenceResult(
            method=self.name,
            truths=decode_posterior(outcome.posterior, rng),
            worker_quality=quality,
            posterior=outcome.posterior,
            n_iterations=outcome.n_iterations,
            converged=outcome.converged,
            extras={
                "confusion": params.confusion,
                "class_prior": params.prior,
                "warm_started": warm_start is not None,
            },
            fit_stats=outcome.fit_stats,
            shard_state=outcome.shard_state,
        )


@register
class DawidSkene(_ConfusionMatrixEM):
    """Plain maximum-likelihood D&S with minimal smoothing."""

    name = "D&S"
