"""CATD (Li et al., PVLDB 2014) — confidence-aware truth discovery.

CATD extends the PM-style weighted aggregation with a *confidence*
coefficient: a worker who answered only a handful of tasks gets an
uncertain quality estimate, so their weight is scaled by the chi-square
upper quantile ``X²(0.975, |T^w|)`` of their answer count (Section 4.2.4
of the survey).  The weight update is

``w_k = X²(0.975, |T^w|) / Σ_{i∈T^w} d(v^w_i, v*_i)``

and the truth step is the usual weighted vote (categorical) or weighted
mean (numeric).  The survey notes CATD is sensitive to low-quality
workers on S_Rel — a direct consequence of the unbounded weight ratio,
which we reproduce rather than patch.

The iteration is expressed as an alternating sharded estimation
(:class:`repro.inference.sharded.AlternatingSpec`): the truth step maps
over task-range shards through order-preserving ``np.bincount``
scatters (CATD/PM converge too quickly for a frozen-CSR operator to
amortise its construction sort), the weight step merges per-shard loss
sums (0/1 mismatch counts are integral, so the merge is exact) — one
shard reproduces the historical loop bit-for-bit.
"""

from __future__ import annotations

import types
from typing import Mapping

import numpy as np

from ..core.answers import AnswerSet
from ..core.base import GeneralMethod
from ..core.framework import (
    argmax_rows,
    clamp_golden_values,
    decode_posterior,
    normalize_rows,
)
from ..core.registry import register
from ..core.result import InferenceResult
from ..core.shards import AnswerShard
from ..core.warmstart import expand_worker_vector
from ..inference.distributions import chi_square_confidence
from ..inference.sharded import (
    AlternatingSpec,
    SufficientStats,
    pad_rows,
    run_alternating_sharded,
)


class _WeightedVoteSpec(AlternatingSpec):
    """Shared shard kernels of the categorical CATD/PM truth step.

    The truth step is a weighted vote: every answer scatters its
    worker's weight onto its (task, label) cell.  The weight step needs
    each worker's 0/1 loss sum, i.e. their answer count minus the mass
    they placed on the current truth labels — both per-shard partials
    merge exactly (integral sums).  ``finalize`` (the weight formula)
    is the method-specific part.
    """

    def __init__(self, n_tasks: int, n_workers: int, n_choices: int,
                 regularization: float) -> None:
        super().__init__()
        self.n_tasks = n_tasks
        self.n_workers = n_workers
        self.n_choices = n_choices
        self.regularization = regularization

    def build_ops(self, shard: AnswerShard):
        # Unlike the EM methods, CATD/PM converge in a handful of
        # iterations, so a frozen-CSR operator never amortises its
        # construction sort.  Both steps are plain ``np.bincount``
        # scatters instead: bincount accumulates each bin in input
        # order, exactly like the ``np.add.at`` loop it replaces, so
        # the single-shard bitwise contract is preserved.
        return types.SimpleNamespace(
            # Truth step target cell of every answer.
            rows_tv=shard.local_tasks * self.n_choices + shard.values,
            n_rows=shard.n_local_tasks * self.n_choices,
            # Each local task's first cell, for truth-cell scatters.
            cell_base=np.arange(shard.n_local_tasks) * self.n_choices,
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

    def e_block(self, shard: AnswerShard, ops,
                weights: np.ndarray) -> np.ndarray:
        # A retained operator predates any newly arrived workers, none
        # of which answered in this shard, so the gather only ever
        # touches the first ``ops.n_workers`` weight entries.
        scores = np.bincount(
            ops.rows_tv, weights=weights[shard.workers],
            minlength=ops.n_rows,
        ).reshape(shard.n_local_tasks, self.n_choices)
        return normalize_rows(scores)

    def _loss_stats(self, shard: AnswerShard, ops,
                    truths: np.ndarray) -> SufficientStats:
        """Per-worker 0/1 loss sums for the shard's truth labels."""
        # Counting the (minority) mismatches directly gives the same
        # integral sums as ``answer_counts - matched`` while touching
        # only the missed answers' worker ids; marking the truth cells
        # in a byte table turns the per-answer truth lookup into a
        # single packed gather instead of an int64 gather + compare.
        missed_cell = np.ones(ops.n_rows, dtype=bool)
        missed_cell[ops.cell_base + truths] = False
        missed = missed_cell[ops.rows_tv]
        losses = np.bincount(shard.workers[missed],
                             minlength=ops.n_workers
                             ).astype(np.float64)
        return SufficientStats(
            losses=pad_rows(losses, self.n_workers)
        )

    def accumulate(self, shard: AnswerShard, ops,
                   block: np.ndarray) -> SufficientStats:
        return self._loss_stats(shard, ops, argmax_rows(block))


class _WeightedMeanSpec(AlternatingSpec):
    """Shared shard kernels of the numeric CATD/PM truth step.

    Truth step: per-task weighted mean of the answers; weight step:
    per-worker sums of scaled squared residuals.  The residual scale
    (the global answer spread) is a master-side constant shipped through
    ``accumulate_shared``.
    """

    golden_clamp = staticmethod(clamp_golden_values)

    def __init__(self, n_tasks: int, n_workers: int,
                 regularization: float) -> None:
        super().__init__()
        self.n_tasks = n_tasks
        self.n_workers = n_workers
        self.n_choices = 0
        self.regularization = regularization

    def build_ops(self, shard: AnswerShard):
        return types.SimpleNamespace(n_workers=self.n_workers)

    def resize(self, n_tasks: int, n_workers: int, n_choices: int) -> bool:
        if (n_choices != 0 or n_workers < self.n_workers
                or n_tasks < self.n_tasks):
            return False
        self.n_tasks, self.n_workers = n_tasks, n_workers
        return True

    def e_block(self, shard: AnswerShard, ops,
                weights: np.ndarray) -> np.ndarray:
        w = weights[:ops.n_workers][shard.workers]
        numer = np.bincount(shard.local_tasks, weights=w * shard.values,
                            minlength=shard.n_local_tasks)
        denom = np.bincount(shard.local_tasks, weights=w,
                            minlength=shard.n_local_tasks)
        denom = np.where(denom > 0, denom, 1.0)
        return numer / denom

    def accumulate(self, shard: AnswerShard, ops, block: np.ndarray,
                   scale: float) -> SufficientStats:
        distances = ((shard.values - block[shard.local_tasks]) / scale) ** 2
        losses = np.bincount(shard.workers, weights=distances,
                             minlength=ops.n_workers)
        return SufficientStats(losses=pad_rows(losses, self.n_workers))


class _CATDVoteSpec(_WeightedVoteSpec):
    """Categorical CATD: chi-square-scaled inverse-loss weights."""

    def finalize(self, stats: SufficientStats) -> np.ndarray:
        # ``coefficient`` is stamped by CATD._fit (master-side only:
        # finalize always runs on the master, worker processes never
        # need it).
        return CATD._normalize(
            self.coefficient / (stats["losses"] + self.regularization)
        )


class _CATDMeanSpec(_WeightedMeanSpec):
    """Numeric CATD: same weight formula over squared residuals."""

    finalize = _CATDVoteSpec.finalize


@register
class CATD(GeneralMethod):
    """Chi-square-confidence weighted truth discovery."""

    name = "CATD"
    supports_initial_quality = True
    supports_golden = True
    supports_sharding = True

    def __init__(self, confidence: float = 0.975, regularization: float = 0.01,
                 **kwargs) -> None:
        super().__init__(**kwargs)
        if not 0.5 < confidence < 1.0:
            raise ValueError(f"confidence must be in (0.5, 1), got {confidence}")
        self.confidence = confidence
        self.regularization = regularization

    def make_em_spec(self, n_tasks: int, n_workers: int, n_choices: int):
        if n_choices == 0:
            return _CATDMeanSpec(n_tasks=n_tasks, n_workers=n_workers,
                                 regularization=self.regularization)
        return _CATDVoteSpec(n_tasks=n_tasks, n_workers=n_workers,
                             n_choices=n_choices,
                             regularization=self.regularization)

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
        categorical = answers.task_type.is_categorical
        coefficient = chi_square_confidence(
            answers.worker_answer_counts(), self.confidence
        )
        runner = shard_runner
        spec = runner.spec
        spec.coefficient = coefficient
        if not categorical:
            values = answers.values
            scale = np.std(values) if np.std(values) > 0 else 1.0
            spec.accumulate_shared = (float(scale),)

        warm = warm_start is not None
        if warm:
            # The weights are fully recomputed from the losses after
            # one truth step, so the warm values only seed that
            # step; unseen workers start at the normalised mean.
            weights = self._normalize(expand_worker_vector(
                warm_start.worker_quality, answers.n_workers, 1.0))
        elif initial_quality is not None:
            weights = self._normalize(
                coefficient * np.clip(initial_quality, 0.05, 1.0))
        else:
            weights = self._normalize(
                np.where(coefficient > 0, coefficient, 0.0))

        outcome = run_alternating_sharded(
            runner,
            tolerance=self.tolerance,
            max_iter=self.max_iter,
            golden=golden,
            initial_parameters=weights,
            rng=rng,
            count_prime=warm,
            delta=delta,
        )

        posterior = outcome.posterior if categorical else None
        return InferenceResult(
            method=self.name,
            truths=(decode_posterior(posterior, rng) if categorical
                    else outcome.posterior),
            worker_quality=outcome.parameters,
            posterior=posterior,
            n_iterations=outcome.n_iterations,
            converged=outcome.converged,
            extras={"chi_square_coefficient": coefficient,
                    "warm_started": warm},
            fit_stats=outcome.fit_stats,
            shard_state=outcome.shard_state,
        )

    @staticmethod
    def _normalize(weights: np.ndarray) -> np.ndarray:
        total = weights.sum()
        if total <= 0:
            return np.full_like(weights, 1.0 / max(len(weights), 1))
        return weights * (len(weights) / total)
