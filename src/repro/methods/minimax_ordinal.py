"""Ordinal minimax conditional entropy (Zhou, Liu, Platt & Meek, 2014).

An *extension* beyond the survey's 17 methods (the survey cites this as
[62] but does not evaluate it): for tasks whose choices are ordinal —
relevance grades, maturity ratings — the plain minimax-entropy model
wastes parameters on arbitrary label confusions.  The ordinal variant
ties the worker multipliers through threshold features: for every split
``s ∈ {1, …, l−1}`` the labels are dichotomised into ``< s`` and
``≥ s``, and the worker's behaviour is parameterised *per split* by a
2×2 matrix ``ω^w_s[a, b]`` (a = truth side, b = answer side):

``σ^w[j, k] = Σ_s ω^w_s[ 1[j ≥ s], 1[k ≥ s] ]``

This reduces per-worker parameters from ``l²`` to ``4(l−1)`` and forces
confusions to respect the label ordering — confusing 'relevant' with
'highly relevant' is cheap, confusing it with 'broken link' is not.
Everything else (per-task ``τ``, alternating optimisation, warm start,
tempered class prior) follows :mod:`repro.methods.minimax`, including
the sharded gradient rounds: the shard kernels are inherited unchanged
(the residuals don't know about splits) and only the master-side
parameter updates chain-rule the merged ``σ`` gradient into ``ω``.

Registered as ``"Minimax-Ord"`` with ``is_extension = True``: it never
enters the paper-faithful method lists unless explicitly requested.
"""

from __future__ import annotations

import functools
from typing import Mapping

import numpy as np

from ..core.answers import AnswerSet
from ..core.base import CategoricalMethod
from ..core.framework import decode_posterior
from ..core.registry import register
from ..core.result import InferenceResult
from ..core.shards import AnswerShard
from ..inference.sharded import pad_rows, run_em_sharded
from .minimax import _MinimaxSpec


class _MinimaxOrdinalSpec(_MinimaxSpec):
    """Minimax shard kernels with split-parameterised workers.

    ``grad_step``/``begin_m_step``/``e_block`` come from the parent —
    the shards see only ``τ`` and the expanded ``σ``; the ``ω``
    bookkeeping is entirely master-side.
    """

    def __init__(self, n_tasks: int, n_workers: int, n_choices: int,
                 learning_rate: float, gradient_steps: int, l2_tau: float,
                 l2_omega: float, prior_temper: float) -> None:
        super().__init__(
            n_tasks=n_tasks, n_workers=n_workers, n_choices=n_choices,
            learning_rate=learning_rate, gradient_steps=gradient_steps,
            l2_tau=l2_tau, l2_sigma=l2_omega, prior_temper=prior_temper)
        self.l2_omega = l2_omega
        self.n_splits = max(n_choices - 1, 1)
        # side[s, j] = 1 when label j lies at or above split s.
        splits = np.arange(1, self.n_splits + 1)
        labels = np.arange(n_choices)
        self.side = (labels[None, :] >= splits[:, None]).astype(np.int64)

    # -- phases --------------------------------------------------------
    def split_counts(self, shard: AnswerShard, ops,
                     block: np.ndarray) -> np.ndarray:
        """Per-split 2x2 confusion partial driving the omega warm
        start (integral counts, so the merge is exact)."""
        counts2 = np.zeros((self.n_workers, self.n_splits, 2, 2))
        truth_hat = block.argmax(axis=1)
        for s in range(self.n_splits):
            truth_side = self.side[s][truth_hat[shard.local_tasks]]
            answer_side = self.side[s][shard.values]
            np.add.at(counts2, (shard.workers, s, truth_side, answer_side),
                      1.0)
        return counts2

    # -- master-side M-step --------------------------------------------
    def _init_omega(self, runner, blocks) -> np.ndarray:
        counts2 = functools.reduce(
            np.add, runner.call("split_counts", per_shard=blocks))
        counts2 += 1.0  # Laplace
        return np.log(counts2 / counts2.sum(axis=3, keepdims=True))

    def _sigma_from_omega(self, omega: np.ndarray) -> np.ndarray:
        """Expand split parameters into the (w, j, k) multipliers."""
        sigma = np.zeros((self.n_workers, self.n_choices, self.n_choices))
        for s in range(self.n_splits):
            sigma += omega[:, s][:, self.side[s][:, None],
                                 self.side[s][None, :]]
        return sigma

    def _omega_rounds(self, runner, tau, omega):
        """The master-driven gradient rounds over ``τ`` and ``ω``."""
        ranges = runner.task_ranges
        for _ in range(self.gradient_steps):
            sigma = self._sigma_from_omega(omega)
            results = runner.call(
                "grad_step",
                per_shard=[(tau[start:stop],) for start, stop in ranges],
                shared=(sigma,))
            grad_tau = np.concatenate([g for g, _ in results])
            grad_sigma = functools.reduce(np.add,
                                          [p for _, p in results])

            # Chain rule into the split parameters: each (j, k) cell
            # feeds the (1[j>=s], 1[k>=s]) cell of every split s.
            grad_omega = np.zeros_like(omega)
            for s in range(self.n_splits):
                for a in (0, 1):
                    for b in (0, 1):
                        mask = ((self.side[s][:, None] == a)
                                & (self.side[s][None, :] == b))
                        grad_omega[:, s, a, b] = grad_sigma[:, mask].sum(
                            axis=1)

            tau += self.learning_rate * (grad_tau / self.count_t
                                         - self.l2_tau * tau)
            omega += self.learning_rate * (grad_omega / self.count_w
                                           - self.l2_omega * omega)
        return tau, omega

    def m_step(self, runner, state, prev_params, frozen, stats,
               fit_stats=None, rng=None):
        """Gradient ascent over ``τ`` and ``ω``: converged shards keep
        their cached residual tables (``begin_m_step`` skipped); the
        gradient rounds still span every shard, which is exact because
        frozen shards' posterior blocks are pinned."""
        blocks = [state[start:stop] for start, stop in runner.task_ranges]
        if prev_params is None:
            tau = np.zeros((self.n_tasks, self.n_choices))
            omega = self._init_omega(runner, blocks)
        else:
            tau, omega = prev_params[0], prev_params[3]
        self._begin(runner, blocks, frozen, stats)
        tau, omega = self._omega_rounds(runner, tau, omega)
        if fit_stats is not None:
            fit_stats.accumulate_calls += (runner.n_shards
                                           * self.gradient_steps)
        return (tau, self._sigma_from_omega(omega),
                self._class_prior(blocks), omega)


@register
class MinimaxOrdinal(CategoricalMethod):
    """Minimax conditional entropy with ordinal threshold features."""

    name = "Minimax-Ord"
    is_extension = True
    supports_golden = True
    supports_sharding = True

    def __init__(self, learning_rate: float = 0.5, gradient_steps: int = 20,
                 l2_tau: float = 3.0, l2_omega: float = 0.01,
                 prior_temper: float = 0.7, max_iter: int = 15,
                 **kwargs) -> None:
        super().__init__(max_iter=max_iter, **kwargs)
        self.learning_rate = learning_rate
        self.gradient_steps = gradient_steps
        self.l2_tau = l2_tau
        self.l2_omega = l2_omega
        self.prior_temper = prior_temper

    def make_em_spec(self, n_tasks: int, n_workers: int, n_choices: int):
        return _MinimaxOrdinalSpec(
            n_tasks=n_tasks, n_workers=n_workers, n_choices=n_choices,
            learning_rate=self.learning_rate,
            gradient_steps=self.gradient_steps,
            l2_tau=self.l2_tau, l2_omega=self.l2_omega,
            prior_temper=self.prior_temper)

    def _warm_parameters(self, warm_start: InferenceResult,
                         answers: AnswerSet, spec):
        """Cached ``τ/ω`` padded to the grown sizes, with ``σ``
        re-expanded from ``ω`` and the class prior recomputed from the
        warm posterior.  ``None`` when the warm extras don't match the
        current label space."""
        tau = warm_start.extras.get("tau")
        omega = warm_start.extras.get("omega")
        if (tau is None or omega is None
                or tau.shape[1] != answers.n_choices
                or omega.shape[1:] != (spec.n_splits, 2, 2)):
            return None
        tau = pad_rows(np.array(tau, dtype=np.float64), answers.n_tasks)
        omega = pad_rows(np.array(omega, dtype=np.float64),
                         answers.n_workers)
        class_prior = np.clip(
            warm_start.posterior.mean(axis=0), 1e-6, None)
        return (tau, spec._sigma_from_omega(omega),
                class_prior / class_prior.sum(), omega)

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
        spec = runner.spec
        spec.count_t = np.maximum(answers.task_answer_counts(),
                                  1)[:, None]
        spec.count_w = np.maximum(answers.worker_answer_counts(),
                                  1)[:, None, None, None]
        initial_parameters = None
        if (warm_start is not None and delta is not None
                and delta.prev is not None):
            initial_parameters = self._warm_parameters(
                warm_start, answers, spec)
        warm = initial_parameters is not None
        outcome = run_em_sharded(
            runner,
            tolerance=self.tolerance,
            max_iter=self.max_iter,
            golden=golden,
            initial_parameters=initial_parameters,
            delta=delta,
        )

        tau, sigma, omega = (outcome.parameters[0], outcome.parameters[1],
                             outcome.parameters[3])
        softmax_sigma = np.exp(sigma - sigma.max(axis=2, keepdims=True))
        softmax_sigma /= softmax_sigma.sum(axis=2, keepdims=True)
        diag = np.arange(answers.n_choices)
        quality = softmax_sigma[:, diag, diag].mean(axis=1)

        return InferenceResult(
            method=self.name,
            truths=decode_posterior(outcome.posterior, rng),
            worker_quality=quality,
            posterior=outcome.posterior,
            n_iterations=outcome.n_iterations,
            converged=outcome.converged,
            extras={"tau": tau, "omega": omega, "sigma": sigma,
                    "warm_started": warm},
            fit_stats=outcome.fit_stats,
            shard_state=outcome.shard_state,
        )
