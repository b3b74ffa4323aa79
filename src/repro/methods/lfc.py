"""LFC and LFC_N — Learning From Crowds (Raykar et al., JMLR 2010).

LFC extends D&S by placing Beta/Dirichlet priors on the confusion-matrix
rows ("the worker's quality q^w_{j,k} is generated following a Beta
distribution") and doing MAP instead of ML estimation — i.e. the M-step
adds prior pseudo-counts.  The survey runs LFC with mildly optimistic
priors (diagonal-heavy), which is what makes it more robust than plain
D&S at low redundancy.

LFC_N is Raykar's numeric variant: each worker has a Gaussian noise
model ``v^w_i ~ N(v*_i, sigma_w^2)``; EM alternates precision-weighted
truth estimates and per-worker variance estimates.  Both steps decompose
over task-range shards: the E-step is per-task, and the M-step's
sufficient statistics are the per-worker squared-residual sums and
answer counts, merged by addition and finalised into variances.
"""

from __future__ import annotations

import types
from typing import Mapping

import numpy as np

from ..core.answers import AnswerSet
from ..core.base import NumericMethod
from ..core.framework import clamp_golden_values
from ..core.registry import register
from ..core.result import InferenceResult
from ..core.shards import AnswerShard
from ..core.warmstart import expand_worker_vector
from ..inference.segops import SegmentSum
from ..inference.sharded import (
    ShardedEMSpec,
    SufficientStats,
    pad_rows,
    run_em_sharded,
)
from .dawid_skene import _ConfusionMatrixEM


@register
class LearningFromCrowds(_ConfusionMatrixEM):
    """D&S with Dirichlet MAP smoothing (categorical tasks)."""

    name = "LFC"
    # LFC shares D&S's EM wholesale, capabilities included.  Declared
    # explicitly (not just inherited) so the registry-wide capability
    # audit reads the truth off this class; a refactor of the shared
    # base can no longer silently drop a capability from LFC alone.
    supports_initial_quality = True
    supports_golden = True
    supports_sharding = True
    #: Symmetric pseudo-count on every cell plus a diagonal bonus:
    #: equivalent to Beta/Dirichlet priors favouring correct answers.
    #: Kept weak by default — strong diagonal priors visibly distort the
    #: minority-class rows of workers with few answers on rare classes.
    smoothing_off_diagonal = 0.2
    smoothing_diagonal_bonus = 0.2

    def __init__(self, prior_strength: float = 0.2,
                 diagonal_bonus: float = 0.2, **kwargs) -> None:
        super().__init__(**kwargs)
        if prior_strength < 0 or diagonal_bonus < 0:
            raise ValueError("prior pseudo-counts must be non-negative")
        self.smoothing_off_diagonal = prior_strength
        self.smoothing_diagonal_bonus = diagonal_bonus


class _LFCNumericSpec(ShardedEMSpec):
    """Sharded statistics of the Gaussian worker-variance EM.

    The iterated state is the per-task truth vector (1-D blocks); the
    parameters are the per-worker variances.
    """

    golden_clamp = staticmethod(clamp_golden_values)

    def __init__(self, n_tasks: int, n_workers: int,
                 min_variance: float) -> None:
        super().__init__()
        self.n_tasks = n_tasks
        self.n_workers = n_workers
        self.min_variance = min_variance

    def build_ops(self, shard: AnswerShard):
        return types.SimpleNamespace(
            worker_sum=SegmentSum(shard.workers, self.n_workers),
            task_sum=SegmentSum(shard.local_tasks, shard.n_local_tasks),
            answer_counts=np.bincount(shard.workers,
                                      minlength=self.n_workers),
            task_counts=np.maximum(
                np.bincount(shard.local_tasks,
                            minlength=shard.n_local_tasks), 1),
            n_workers=self.n_workers,
        )

    def resize(self, n_tasks: int, n_workers: int, n_choices: int) -> bool:
        if n_workers < self.n_workers or n_tasks < self.n_tasks:
            return False
        self.n_tasks, self.n_workers = n_tasks, n_workers
        return True

    def init_block(self, shard: AnswerShard, ops) -> np.ndarray:
        """Per-task mean of the observed answers."""
        return ops.task_sum(shard.values) / ops.task_counts

    def accumulate(self, shard: AnswerShard, ops,
                   block: np.ndarray) -> SufficientStats:
        residual = (shard.values - block[shard.local_tasks]) ** 2
        return SufficientStats(
            residual_sum=pad_rows(ops.worker_sum(residual),
                                  self.n_workers),
            answer_counts=pad_rows(ops.answer_counts, self.n_workers),
        )

    def finalize(self, stats: SufficientStats) -> np.ndarray:
        counts = np.maximum(stats["answer_counts"], 1)
        return np.maximum(stats["residual_sum"] / counts,
                          self.min_variance)

    def e_block(self, shard: AnswerShard, ops,
                variance: np.ndarray) -> np.ndarray:
        """Precision-weighted truth per task."""
        weights = 1.0 / variance[shard.workers]
        numer = ops.task_sum(weights * shard.values)
        denom = ops.task_sum(weights)
        return numer / np.where(denom > 0, denom, 1.0)


@register
class LearningFromCrowdsNumeric(NumericMethod):
    """Gaussian worker-variance model for numeric tasks (LFC_N).

    ``initial_quality`` is accepted but has never influenced the fit:
    the pre-refactor code derived an initial variance from it that the
    first M-step overwrote before any use, and this implementation
    preserves that behaviour exactly (the flag stays on so the
    qualification experiments keep treating LFC_N as they always have).
    """

    name = "LFC_N"
    supports_initial_quality = True
    supports_golden = True
    supports_sharding = True

    def __init__(self, min_variance: float = 1e-6, **kwargs) -> None:
        super().__init__(**kwargs)
        self.min_variance = min_variance

    def make_em_spec(self, n_tasks: int, n_workers: int,
                     n_choices: int = 0) -> _LFCNumericSpec:
        return _LFCNumericSpec(n_tasks=n_tasks, n_workers=n_workers,
                               min_variance=self.min_variance)

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
        # Initial truth: per-task mean (the spec's init_block).  A warm
        # start instead opens with an E-step from the previous
        # per-worker variances (expanded with the global variance for
        # unseen workers), so the resumed truths already weight every
        # current answer by the learned precisions.
        warm_params = None
        if warm_start is not None:
            values = answers.values
            prev_var = warm_start.extras.get("worker_variance")
            global_var = max(np.var(values) if len(values) else 1.0,
                             self.min_variance)
            if prev_var is not None:
                warm_params = expand_worker_vector(
                    np.maximum(prev_var, self.min_variance),
                    answers.n_workers, global_var,
                )
            else:
                warm_params = np.full(answers.n_workers, global_var)

        runner = shard_runner
        outcome = run_em_sharded(
            runner,
            tolerance=self.tolerance,
            max_iter=self.max_iter,
            golden=golden,
            initial_parameters=warm_params,
            delta=delta,
        )
        variance = np.asarray(outcome.parameters, dtype=np.float64)
        quality = 1.0 / (1.0 + np.sqrt(variance))
        return InferenceResult(
            method=self.name,
            truths=outcome.posterior,
            worker_quality=quality,
            posterior=None,
            n_iterations=outcome.n_iterations,
            converged=outcome.converged,
            extras={"worker_variance": variance,
                    "warm_started": warm_start is not None},
            fit_stats=outcome.fit_stats,
            shard_state=outcome.shard_state,
        )
