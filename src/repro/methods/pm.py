"""PM (Li et al., SIGMOD 2014 / Aydin et al., AAAI 2014).

An optimisation method minimising
``f({q^w}, {v*}) = Σ_w q^w Σ_i d(v^w_i, v*_i)``
(Section 5.2 of the survey).  Two coordinate steps:

* **truth step** — ``v*_i = argmax_v Σ_{w∈W_i} q^w 1{v = v^w_i}`` for
  categorical tasks; the weighted mean for numeric tasks (the minimiser
  of the weighted squared distance);
* **quality step** — ``q^w = −log( Σ d_w / max_w' Σ d_w' )`` which gives
  weight 0 to the worst worker and unbounded weight to near-perfect ones
  (the paper's Section 3 running example walks through exactly this
  computation, which ``tests/methods/test_pm.py`` replays).

A small regulariser inside the log keeps perfect workers finite.

Like CATD, PM runs as an alternating sharded estimation over the
weighted-vote/weighted-mean shard kernels (see
:mod:`repro.methods.catd`); only the quality step differs.  The random
truth tie-breaks stay on the master generator
(``prepare_accumulate``), so shard phases are deterministic and one
shard reproduces the historical loop — including every tie-break —
bit-for-bit.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..core.answers import AnswerSet
from ..core.base import GeneralMethod
from ..core.framework import decode_posterior
from ..core.registry import register
from ..core.result import InferenceResult
from ..core.shards import AnswerShard
from ..core.warmstart import expand_worker_vector
from ..inference.sharded import SufficientStats, run_alternating_sharded
from .catd import _WeightedMeanSpec, _WeightedVoteSpec


class _PMVoteSpec(_WeightedVoteSpec):
    """Categorical PM: decoded-label losses, −log-normalised weights."""

    def prepare_accumulate(self, state, ranges, rng, only=None):
        # Ties are broken randomly (the paper's Section 3 walk-through
        # relies on this) — decode once over the full state on the
        # master generator, exactly as the unsharded loop did, then
        # hand each shard its label slice.
        indices = range(len(ranges)) if only is None else only
        truths = decode_posterior(state, rng)
        return [truths[ranges[k][0]:ranges[k][1]] for k in indices]

    def accumulate(self, shard: AnswerShard, ops,
                   truths: np.ndarray) -> SufficientStats:
        return self._loss_stats(shard, ops, truths)

    def finalize(self, stats: SufficientStats) -> np.ndarray:
        sums = stats["losses"] + self.regularization
        worst = sums.max()
        return -np.log(sums / worst) + self.regularization


class _PMMeanSpec(_WeightedMeanSpec):
    """Numeric PM: scaled squared-residual losses, same weight formula."""

    finalize = _PMVoteSpec.finalize


@register
class PM(GeneralMethod):
    """Coordinate descent on the PM objective (categorical + numeric)."""

    name = "PM"
    supports_initial_quality = True
    supports_golden = True
    supports_sharding = True

    def __init__(self, regularization: float = 0.01, **kwargs) -> None:
        super().__init__(**kwargs)
        if regularization <= 0:
            raise ValueError("regularization must be positive")
        self.regularization = regularization

    def make_em_spec(self, n_tasks: int, n_workers: int, n_choices: int):
        if n_choices == 0:
            return _PMMeanSpec(n_tasks=n_tasks, n_workers=n_workers,
                               regularization=self.regularization)
        return _PMVoteSpec(n_tasks=n_tasks, n_workers=n_workers,
                           n_choices=n_choices,
                           regularization=self.regularization)

    def _initial_weights(self, answers: AnswerSet,
                         initial_quality: np.ndarray | None) -> np.ndarray:
        if initial_quality is None:
            return np.ones(answers.n_workers)
        # Map qualification-test accuracy to a PM-style weight: workers
        # with accuracy a get -log(1 - a), floored to stay positive.
        miss = np.clip(1.0 - np.asarray(initial_quality, dtype=np.float64),
                       self.regularization, 1.0)
        return np.maximum(-np.log(miss), self.regularization)

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
        runner = shard_runner
        if not categorical:
            values = answers.values
            scale = np.std(values) if np.std(values) > 0 else 1.0
            runner.spec.accumulate_shared = (float(scale),)

        warm = warm_start is not None
        if warm:
            weights = expand_worker_vector(
                warm_start.worker_quality, answers.n_workers, 1.0)
        else:
            weights = self._initial_weights(answers, initial_quality)

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
            extras={"warm_started": warm},
            fit_stats=outcome.fit_stats,
            shard_state=outcome.shard_state,
        )
