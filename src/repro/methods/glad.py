"""GLAD (Whitehill et al., NIPS 2009) — worker ability × task difficulty.

The only surveyed method with an explicit *task-difficulty* model: the
probability that worker ``w`` answers task ``i`` correctly is
``sigmoid(alpha_w * beta_i)`` where ``alpha_w`` is the worker's ability
(can be negative — a malicious worker) and ``beta_i > 0`` is the task's
easiness (the paper's ``1/(1+e^{-d_i q^w})``).

Inference is EM where the M-step runs gradient ascent on the expected
complete log-*posterior* over ``alpha`` and ``log beta`` (keeping
easiness positive).  Following the original paper, which is MAP
estimation with Gaussian priors on ability and difficulty, a weak
``N(1, 1/prior_strength)`` prior on ``alpha`` and ``N(0,
1/prior_strength)`` prior on ``log beta`` regularise the ascent — on
cleanly separable data the unpenalised likelihood is maximised at
``alpha·beta → ∞``, so without the prior the iteration never settles.
The data gradients have the compact form
``d/d alpha_w = Σ beta_i (P(truth = answer) − sigmoid)``, and
symmetrically for ``beta`` — this is what makes GLAD slow (Table 6 shows
it is orders of magnitude slower than D&S), and we keep that structure.

Multi-class answers spread the incorrect mass uniformly over the other
``l − 1`` labels, the standard generalisation the survey uses for
S_Rel / S_Adult.

Sharding: ``log beta`` is task-partitioned and ``alpha`` is global, so
each gradient-ascent step is itself a small map-reduce — shards return
their per-worker ability-gradient partial sums (merged by addition) and
their own slice of the easiness gradient.  The M-step therefore
overrides the default accumulate/merge/finalize path of
:class:`~repro.inference.sharded.ShardedEMSpec` with an iterated
map-reduce; the E-step maps over shards like every other method.
"""

from __future__ import annotations

import types
from typing import Mapping

import numpy as np

from ..core.answers import AnswerSet
from ..core.base import CategoricalMethod
from ..core.framework import decode_posterior, log_normalize_rows
from ..core.registry import register
from ..core.result import InferenceResult
from ..core.shards import AnswerShard
from ..core.warmstart import expand_task_vector, expand_worker_vector
from ..inference.segops import BasedScatterAdd, SegmentSum
from ..inference.sharded import (
    ShardedEMSpec,
    majority_block,
    pad_rows,
    run_em_sharded,
)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    expx = np.exp(x[~positive])
    out[~positive] = expx / (1.0 + expx)
    return out


class _GladSpec(ShardedEMSpec):
    """Sharded GLAD: mapped gradient rounds plus a mapped E-step.

    Parameters are the tuple ``(alpha, log_beta)`` — global worker
    abilities and the task-partitioned log-easiness.  ``initial_state``
    holds the cold-start values the first M-step ascends from (set by
    the fitting method; never needed by shard workers).
    """

    def __init__(self, n_tasks: int, n_workers: int, n_choices: int,
                 learning_rate: float, gradient_steps: int,
                 prior_strength: float) -> None:
        super().__init__()
        self.n_tasks = n_tasks
        self.n_workers = n_workers
        self.n_choices = n_choices
        self.learning_rate = learning_rate
        self.gradient_steps = gradient_steps
        self.prior_strength = prior_strength
        self.initial_state: tuple[np.ndarray, np.ndarray] | None = None
        # Per-shard posterior-match cache, refreshed once per M-step by
        # begin_m_step and read by every gradient round of that M-step
        # (worker-side state: lives in the process that runs the shard).
        self._match: dict[int, np.ndarray] = {}

    #: GLAD's M-step is an iterated gradient map-reduce, not mergeable
    #: statistics: its cache entries are worker-side markers.
    statistics_m_step = False

    def build_ops(self, shard: AnswerShard):
        rows_tv = shard.local_tasks * self.n_choices + shard.values
        return types.SimpleNamespace(
            worker_sum=SegmentSum(shard.workers, self.n_workers),
            task_sum=SegmentSum(shard.local_tasks, shard.n_local_tasks),
            bonus_scatter=BasedScatterAdd(
                rows_tv, shard.n_local_tasks * self.n_choices),
            n_workers=self.n_workers,
        )

    def resize(self, n_tasks: int, n_workers: int, n_choices: int) -> bool:
        if (n_choices != self.n_choices or n_workers < self.n_workers
                or n_tasks < self.n_tasks):
            return False
        self.n_tasks, self.n_workers = n_tasks, n_workers
        return True

    def invalidate_shard(self, index: int) -> None:
        super().invalidate_shard(index)
        self._match.pop(index, None)

    def init_block(self, shard: AnswerShard, ops) -> np.ndarray:
        return majority_block(shard)

    # -- M-step: iterated gradient map-reduce --------------------------
    #: Marker recorded in the stats cache for a frozen shard whose
    #: posterior match is held worker-side (valid until the shard's
    #: block changes).  Never carried across fits.
    MATCH_CACHED = "glad-match-cached"

    def m_step(self, runner, state, prev_params, frozen, stats,
               fit_stats=None, rng=None):
        """Gradient ascent from the previous ``(alpha, log_beta)`` (the
        cold ``initial_state`` on a cold fit's first M-step).

        A frozen shard freezes its *posterior match*, not its gradient:
        a cached per-worker gradient partial destabilises the ascent
        (the data gradient depends strongly on the current
        ``alpha``/``beta``, so replaying a stale partial for twelve
        rounds sends the ascent off), whereas gradients computed fresh
        against a frozen posterior are exactly the incremental-EM
        M-step given the frozen E-state — stable by construction.  The
        saving for a frozen shard is its skipped E-steps plus the
        ``begin_m_step`` payload: its match stays cached worker-side
        across M-steps (and, in the process tier, across fit messages),
        so no posterior block is shipped for it.
        """
        if prev_params is not None:
            alpha, log_beta = prev_params
        else:
            assert self.initial_state is not None, \
                "cold GLAD m_step needs spec.initial_state"
            alpha, log_beta = self.initial_state
        alpha = np.asarray(alpha, dtype=np.float64)
        log_beta = np.asarray(log_beta, dtype=np.float64)
        ranges = runner.task_ranges
        # One pass caches each shard's posterior-match vector so the
        # gradient rounds neither regather it nor reship the blocks.
        need = [k for k in range(runner.n_shards)
                if stats[k] is not self.MATCH_CACHED]
        if need:
            runner.call("begin_m_step",
                        per_shard=[state[ranges[k][0]:ranges[k][1]]
                                   for k in need],
                        only=need)
        for k in frozen:
            stats[k] = self.MATCH_CACHED
        for _ in range(self.gradient_steps):
            partials = runner.call(
                "grad_step",
                per_shard=[log_beta[start:stop] for start, stop in ranges],
                shared=(alpha,),
            )
            data_alpha = partials[0][0]
            for part, _unused in partials[1:]:
                data_alpha = data_alpha + part
            grad_alpha = data_alpha - self.prior_strength * (alpha - 1.0)
            data_beta = (partials[0][1] if len(partials) == 1 else
                         np.concatenate([p[1] for p in partials]))
            grad_logbeta = data_beta - self.prior_strength * log_beta
            alpha = alpha + self.learning_rate * grad_alpha
            log_beta = log_beta + self.learning_rate * grad_logbeta
            # Mild clamping keeps exp(log_beta) finite on pathological
            # inputs without affecting normal runs.
            log_beta = np.clip(log_beta, -5.0, 5.0)
            alpha = np.clip(alpha, -10.0, 10.0)
        if fit_stats is not None:
            fit_stats.accumulate_calls += (runner.n_shards
                                           * self.gradient_steps)
        return (alpha, log_beta)

    def begin_m_step(self, shard: AnswerShard, ops,
                     block: np.ndarray) -> None:
        """Cache this shard's posterior mass on the answered labels for
        the gradient rounds of the current M-step."""
        self._match[shard.index] = block[shard.local_tasks, shard.values]

    def grad_step(self, shard: AnswerShard, ops,
                  log_beta_local: np.ndarray, alpha: np.ndarray):
        """One shard's data gradients at the current ``(alpha, beta)``:
        per-worker partial sums (to merge) and the local easiness
        gradient (to concatenate)."""
        beta_t = np.exp(log_beta_local)[shard.local_tasks]
        alpha_w = alpha[shard.workers]
        p = _sigmoid(alpha_w * beta_t)
        residual = self._match[shard.index] - p
        return (pad_rows(ops.worker_sum(residual * beta_t),
                         self.n_workers),
                ops.task_sum((residual * alpha_w) * beta_t))

    # The statistics hooks are unused — m_step above replaces them.
    def accumulate(self, shard, ops, block):  # pragma: no cover
        raise NotImplementedError("GLAD merges gradients, not statistics")

    def finalize(self, stats):  # pragma: no cover
        raise NotImplementedError("GLAD merges gradients, not statistics")

    # -- E-step --------------------------------------------------------
    def e_block(self, shard: AnswerShard, ops, params) -> np.ndarray:
        alpha, log_beta = params
        log_beta_local = log_beta[shard.task_start: shard.task_stop]
        p_correct = _sigmoid(
            alpha[shard.workers]
            * np.exp(log_beta_local)[shard.local_tasks])
        p_correct = np.clip(p_correct, 1e-10, 1 - 1e-10)
        log_c = np.log(p_correct)
        log_w = np.log((1.0 - p_correct) / max(self.n_choices - 1, 1))
        base = ops.task_sum(log_w)
        base_cells = np.broadcast_to(
            base[:, None], (shard.n_local_tasks, self.n_choices)
        ).reshape(-1)
        log_post = ops.bonus_scatter(base_cells, log_c - log_w).reshape(
            shard.n_local_tasks, self.n_choices)
        return log_normalize_rows(log_post)


@register
class Glad(CategoricalMethod):
    """EM with gradient-ascent M-step over abilities and difficulties."""

    name = "GLAD"
    supports_initial_quality = True
    supports_golden = True
    supports_warm_start = True
    supports_delta = True
    supports_sharding = True
    supports_seed_posterior = True

    def __init__(self, learning_rate: float = 0.05, gradient_steps: int = 12,
                 prior_strength: float = 0.5, **kwargs) -> None:
        super().__init__(**kwargs)
        if prior_strength < 0:
            raise ValueError("prior_strength must be non-negative")
        self.learning_rate = learning_rate
        self.gradient_steps = gradient_steps
        self.prior_strength = prior_strength

    def make_em_spec(self, n_tasks: int, n_workers: int,
                     n_choices: int) -> _GladSpec:
        return _GladSpec(
            n_tasks=n_tasks,
            n_workers=n_workers,
            n_choices=n_choices,
            learning_rate=self.learning_rate,
            gradient_steps=self.gradient_steps,
            prior_strength=self.prior_strength,
        )

    def _fit(
        self,
        answers: AnswerSet,
        golden: Mapping[int, float] | None,
        initial_quality: np.ndarray | None,
        rng: np.random.Generator,
        warm_start: InferenceResult | None = None,
        seed_posterior: np.ndarray | None = None,
        shard_runner=None,
        delta=None,
    ) -> InferenceResult:
        start = None
        warm_params = None
        if warm_start is not None:
            # Resume abilities and easiness from the previous fit (alpha
            # is GLAD's worker quality; easiness lives in the extras).
            # New workers start at the neutral ability 1.0, new tasks at
            # easiness 1 (log_beta = 0), as in a cold start.
            alpha = expand_worker_vector(warm_start.worker_quality,
                                         answers.n_workers, 1.0)
            prev_easiness = warm_start.extras.get("task_easiness")
            if prev_easiness is not None:
                log_beta = expand_task_vector(
                    np.log(np.clip(prev_easiness, np.exp(-5.0), np.exp(5.0))),
                    answers.n_tasks, 0.0,
                )
            else:
                log_beta = np.zeros(answers.n_tasks)
            warm_params = (alpha, log_beta)
            cold_state = None
        elif initial_quality is not None:
            # Map accuracy in [0,1] to ability via the logit at beta=1.
            clipped = np.clip(initial_quality, 0.05, 0.95)
            cold_state = (np.log(clipped / (1.0 - clipped)),
                          np.zeros(answers.n_tasks))
            start = seed_posterior
        else:
            cold_state = (np.ones(answers.n_workers),
                          np.zeros(answers.n_tasks))
            start = seed_posterior

        with self._shard_runner(answers, shard_runner, delta) as runner:
            runner.spec.initial_state = cold_state
            if delta is not None and warm_params is None:
                delta = delta.collect_only()
            outcome = run_em_sharded(
                runner,
                tolerance=self.tolerance,
                max_iter=self.max_iter,
                golden=golden,
                initial_posterior=start,
                initial_parameters=warm_params,
                delta=delta,
            )
        alpha, log_beta = outcome.parameters
        return InferenceResult(
            method=self.name,
            truths=decode_posterior(outcome.posterior, rng),
            worker_quality=alpha,
            posterior=outcome.posterior,
            n_iterations=outcome.n_iterations,
            converged=outcome.converged,
            extras={"task_easiness": np.exp(log_beta),
                    "warm_started": warm_start is not None},
            fit_stats=outcome.fit_stats,
            shard_state=outcome.shard_state,
        )
