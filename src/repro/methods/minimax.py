"""Minimax (Zhou, Basu, Mao & Platt, NIPS 2012) — minimax entropy.

Models *diverse skills*: the answers worker ``w`` gives on task ``i``
are drawn from a per-(task, worker) distribution ``π^w_{i,·}`` whose
maximum-entropy form, subject to the paper's per-task column constraints
and per-worker confusion constraints, is

``π^w_i(k | truth j) = softmax_k( τ_{i,k} + σ^w_{j,k} )``

with per-task multipliers ``τ`` and per-worker multipliers ``σ``.
Inference alternates:

1. given the truth distribution ``q_i(j)``, fit ``τ, σ`` by gradient
   ascent on the expected regularised log-likelihood;
2. given ``τ, σ``, update ``q_i(j) ∝ p_j^γ Π_{w∈W_i} π^w_i(v^w_i | j)``
   with a tempered learned class prior (γ < 1).

Implementation notes (stability, found necessary on imbalanced data and
mirroring the regularised variant of Zhou et al.'s follow-up work):

* ``σ`` is warm-started at the log of the majority-vote confusion
  estimate — a cold start either collapses every task into the majority
  class or lets label semantics drift;
* gradients are normalised by each task's/worker's answer count so the
  step size is scale-free;
* ``τ`` carries a strong L2 penalty: each task contributes only a
  handful of answers, so unpenalised per-task multipliers absorb the
  observed answer frequencies over the outer iterations and flatten
  (then invert) the likelihood.

The survey finds Minimax slow (an optimisation problem per iteration)
and notably weaker than the pack on D_Product; both reproduce here.

Sharding: the M-step is itself iterative (its own ``m_step`` hook, like
GLAD), so the spec drives the inner gradient rounds through the
runner — each round maps a shard-local residual kernel (``τ`` gradients
never leave their shard; ``σ`` gradient partials merge per round) and
the parameter updates run on the master.  The per-edge posterior and
observed tensors are fixed across one M-step's rounds and cached
shard-side by ``begin_m_step``.  One shard reproduces the historical
loop bit-for-bit.
"""

from __future__ import annotations

import functools
import types
from typing import Mapping

import numpy as np

from ..core.answers import AnswerSet
from ..core.base import CategoricalMethod
from ..core.framework import decode_posterior, log_normalize_rows
from ..core.registry import register
from ..core.result import InferenceResult
from ..core.shards import AnswerShard
from ..inference.sharded import (
    ShardedEMSpec,
    majority_block,
    pad_rows,
    run_em_sharded,
)


class _MinimaxSpec(ShardedEMSpec):
    """Shard kernels of the minimax-entropy gradient rounds.

    ``count_t``/``count_w`` (the gradient normalisers) are stamped by
    ``_fit`` — master-side only, like CATD's chi-square coefficient:
    the M-step always runs on the master.
    """

    statistics_m_step = False

    #: Cadence of full exact gradient rounds inside a delta M-step:
    #: straddling workers and frozen ``τ`` rows advance only on these,
    #: so the cadence trades outer iterations against per-round cost.
    FULL_ROUND_EVERY = 4

    def __init__(self, n_tasks: int, n_workers: int, n_choices: int,
                 learning_rate: float, gradient_steps: int, l2_tau: float,
                 l2_sigma: float, prior_temper: float) -> None:
        super().__init__()
        self.n_tasks = n_tasks
        self.n_workers = n_workers
        self.n_choices = n_choices
        self.learning_rate = learning_rate
        self.gradient_steps = gradient_steps
        self.l2_tau = l2_tau
        self.l2_sigma = l2_sigma
        self.prior_temper = prior_temper

    def build_ops(self, shard: AnswerShard):
        return types.SimpleNamespace(
            edge_index=np.arange(len(shard.values)),
            post_edge=None,
            observed=None,
        )

    def resize(self, n_tasks: int, n_workers: int, n_choices: int) -> bool:
        # Clean shards' cached ops reference only their own (unchanged)
        # edges; the gradient kernels allocate worker-wide outputs at
        # the spec's current width, so grown sizes just update the
        # fields (a changed label space rebuilds everything).
        if (n_choices != self.n_choices or n_workers < self.n_workers
                or n_tasks < self.n_tasks):
            return False
        self.n_tasks, self.n_workers = n_tasks, n_workers
        return True

    def init_block(self, shard: AnswerShard, ops) -> np.ndarray:
        return majority_block(shard)

    # -- parameter-step phases -----------------------------------------
    def confusion_counts(self, shard: AnswerShard, ops,
                         block: np.ndarray) -> np.ndarray:
        """Soft confusion partial driving the sigma warm start."""
        counts = np.zeros((self.n_workers, self.n_choices, self.n_choices))
        np.add.at(counts, (shard.workers, shard.values),
                  block[shard.local_tasks])
        return counts

    def begin_m_step(self, shard: AnswerShard, ops,
                     block: np.ndarray) -> None:
        """Cache the per-edge tensors fixed across one M-step's rounds."""
        post_edge = block[shard.local_tasks]  # (n_edges, j)
        observed = np.zeros(
            (len(shard.values), self.n_choices, self.n_choices))
        observed[ops.edge_index, :, shard.values] = post_edge
        ops.post_edge = post_edge
        ops.observed = observed

    def _edge_log_probs(self, shard: AnswerShard, tau_block: np.ndarray,
                        sigma: np.ndarray) -> np.ndarray:
        """Per-edge log π^w_i(k | j): shape (n_edges, j, k)."""
        scores = (tau_block[shard.local_tasks][:, None, :]
                  + sigma[shard.workers])
        scores = scores - scores.max(axis=2, keepdims=True)
        log_z = np.log(np.exp(scores).sum(axis=2, keepdims=True))
        return scores - log_z

    def grad_step(self, shard: AnswerShard, ops, tau_block: np.ndarray,
                  sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One gradient round's shard partials: the local tau gradient
        block and the worker-wide sigma gradient partial."""
        pi = np.exp(self._edge_log_probs(shard, tau_block, sigma))
        expected = ops.post_edge[:, :, None] * pi
        residual = ops.observed - expected

        grad_tau = np.zeros((shard.n_local_tasks, self.n_choices))
        np.add.at(grad_tau, shard.local_tasks, residual.sum(axis=1))
        grad_sigma = np.zeros(
            (self.n_workers, self.n_choices, self.n_choices))
        np.add.at(grad_sigma, shard.workers, residual)
        return grad_tau, grad_sigma

    # -- master-side M-step --------------------------------------------
    def _init_sigma(self, runner, blocks) -> np.ndarray:
        counts = functools.reduce(
            np.add, runner.call("confusion_counts", per_shard=blocks))
        confusion = counts.transpose(0, 2, 1) + 1.0
        confusion /= confusion.sum(axis=2, keepdims=True)
        return np.log(confusion)

    def _gradient_rounds(self, runner, tau: np.ndarray, sigma: np.ndarray,
                         frozen=frozenset()) -> tuple[np.ndarray, np.ndarray]:
        """The master-driven ascent rounds of one M-step.

        ``frozen`` (delta refits only) names shards whose posterior is
        pinned for this whole M-step.  Every ``FULL_ROUND_EVERY``-th
        round is then a full exact pass — every shard's kernel, every
        parameter stepped, so frozen ``τ`` rows and every worker's
        ``σ`` keep tracking the regulariser's slow manifold exactly as
        the full path does.  The rounds between run kernels only over
        the active shards and step only the parameters whose gradient
        those kernels determine completely: active ``τ`` rows and the
        ``σ`` rows of workers with no answers inside any frozen shard.
        A straddling worker therefore advances on exact steps at a
        reduced cadence instead of taking stale-gradient steps (which
        limit-cycle against the pinned posteriors and never converge).
        No stale gradient is ever applied; drift the active rounds
        can't see is caught by the delta loop's verify passes.  An
        empty ``frozen`` (every full fit) is the historical loop, bit
        for bit."""
        ranges = runner.task_ranges
        active = [k for k in range(runner.n_shards) if k not in frozen]
        local = None
        for step in range(self.gradient_steps):
            if not frozen or step % self.FULL_ROUND_EVERY == 0:
                results = runner.call(
                    "grad_step",
                    per_shard=[(tau[start:stop],)
                               for start, stop in ranges],
                    shared=(sigma,))
                grad_tau = np.concatenate([g for g, _ in results])
                grad_sigma = functools.reduce(np.add,
                                              [p for _, p in results])
                tau += self.learning_rate * (grad_tau / self.count_t
                                             - self.l2_tau * tau)
                sigma += self.learning_rate * (grad_sigma / self.count_w
                                               - self.l2_sigma * sigma)
                if frozen:
                    # σ rows the active kernels determine completely:
                    # support of a worker's gradient is their answer
                    # support, fixed across rounds.
                    in_frozen = np.zeros(self.n_workers, dtype=bool)
                    for k in frozen:
                        in_frozen |= np.any(results[k][1] != 0.0,
                                            axis=(1, 2))
                    local = ~in_frozen
                continue
            fresh = runner.call(
                "grad_step",
                per_shard=[(tau[ranges[k][0]:ranges[k][1]],)
                           for k in active],
                shared=(sigma,), only=active)
            grad_sigma = functools.reduce(
                np.add, [p for _, p in fresh],
                np.zeros((self.n_workers, self.n_choices,
                          self.n_choices)))
            sigma[local] += self.learning_rate * (
                grad_sigma[local] / self.count_w[local]
                - self.l2_sigma * sigma[local])
            for k, (g, _) in zip(active, fresh):
                start, stop = ranges[k]
                tau[start:stop] += self.learning_rate * (
                    g / self.count_t[start:stop]
                    - self.l2_tau * tau[start:stop])
        return tau, sigma

    @staticmethod
    def _class_prior(blocks) -> np.ndarray:
        class_prior = np.clip(
            np.concatenate(blocks).mean(axis=0), 1e-6, None)
        return class_prior / class_prior.sum()

    #: Marker recorded in the stats cache for a frozen shard whose
    #: begin_m_step payload is held worker-side (valid until the
    #: shard's block changes).  Never carried across fits.
    MATCH_CACHED = "minimax-begin-cached"

    def _begin(self, runner, blocks, frozen, stats) -> None:
        """Ship begin_m_step payloads only where the worker-side cache
        is stale (active shards, or frozen ones whose cached payload
        was dropped) — the GLAD pattern: frozen shards keep their
        per-edge tensors resident, so no posterior block is reshipped
        for them."""
        need = [k for k in range(runner.n_shards)
                if stats[k] is not self.MATCH_CACHED]
        if need:
            runner.call("begin_m_step",
                        per_shard=[blocks[k] for k in need],
                        only=need)
        for k in frozen:
            stats[k] = self.MATCH_CACHED

    def m_step(self, runner, state, prev_params, frozen, stats,
               fit_stats=None, rng=None):
        """Gradient ascent from the previous ``τ/σ`` (a cold fit's
        first M-step starts from zero ``τ`` and the majority-vote
        ``σ``), with only non-cached shards shipping their begin
        payloads; with shards frozen, the active shards alone pay the
        per-round kernels between the full rounds."""
        blocks = [state[start:stop] for start, stop in runner.task_ranges]
        if prev_params is None:
            tau = np.zeros((self.n_tasks, self.n_choices))
            sigma = self._init_sigma(runner, blocks)
        else:
            tau, sigma = prev_params[0], prev_params[1]
        self._begin(runner, blocks, frozen, stats)
        tau, sigma = self._gradient_rounds(runner, tau, sigma,
                                           frozen=frozen)
        if fit_stats is not None:
            active = runner.n_shards - len(frozen)
            full_rounds = (-(-self.gradient_steps // self.FULL_ROUND_EVERY)
                           if frozen else self.gradient_steps)
            fit_stats.accumulate_calls += (
                full_rounds * runner.n_shards
                + (self.gradient_steps - full_rounds) * active)
        return tau, sigma, self._class_prior(blocks)

    # -- truth step ----------------------------------------------------
    def e_block(self, shard: AnswerShard, ops, params) -> np.ndarray:
        tau, sigma, class_prior = params[0], params[1], params[2]
        tau_block = tau[shard.task_start:shard.task_stop]
        log_pi = self._edge_log_probs(shard, tau_block, sigma)
        edge_ll = log_pi[ops.edge_index, :, shard.values]
        log_post = np.tile(self.prior_temper * np.log(class_prior),
                           (shard.n_local_tasks, 1))
        np.add.at(log_post, shard.local_tasks, edge_ll)
        return log_normalize_rows(log_post)

    # -- unused statistics hooks ---------------------------------------
    def accumulate(self, shard: AnswerShard, ops, block) -> None:
        raise NotImplementedError("Minimax's M-step is iterative")

    def finalize(self, stats) -> None:
        raise NotImplementedError("Minimax's M-step is iterative")


@register
class MinimaxEntropy(CategoricalMethod):
    """Alternating minimax-entropy estimation."""

    name = "Minimax"
    supports_golden = True
    supports_sharding = True
    supports_warm_start = True
    supports_delta = True

    def __init__(self, learning_rate: float = 0.5, gradient_steps: int = 20,
                 l2_tau: float = 3.0, l2_sigma: float = 0.01,
                 prior_temper: float = 0.7, max_iter: int = 15,
                 **kwargs) -> None:
        super().__init__(max_iter=max_iter, **kwargs)
        if not 0.0 <= prior_temper <= 1.0:
            raise ValueError(
                f"prior_temper must be in [0, 1], got {prior_temper}"
            )
        self.learning_rate = learning_rate
        self.gradient_steps = gradient_steps
        self.l2_tau = l2_tau
        self.l2_sigma = l2_sigma
        self.prior_temper = prior_temper

    def make_em_spec(self, n_tasks: int, n_workers: int, n_choices: int):
        return _MinimaxSpec(
            n_tasks=n_tasks, n_workers=n_workers, n_choices=n_choices,
            learning_rate=self.learning_rate,
            gradient_steps=self.gradient_steps,
            l2_tau=self.l2_tau, l2_sigma=self.l2_sigma,
            prior_temper=self.prior_temper)

    def _warm_parameters(self, warm_start: InferenceResult,
                         answers: AnswerSet):
        """The cached ``τ/σ`` (padded to the grown sizes) and a class
        prior recomputed from the warm posterior — the restart point of
        a delta refit's gradient rounds.  Returns ``None`` when the
        warm extras are missing or shaped for a different label
        space."""
        tau = warm_start.extras.get("tau")
        sigma = warm_start.extras.get("sigma")
        if (tau is None or sigma is None
                or tau.shape[1] != answers.n_choices
                or sigma.shape[1:] != (answers.n_choices,
                                       answers.n_choices)):
            return None
        # Copies: the gradient rounds update tau/sigma in place, and
        # the cached result's extras must stay untouched.
        n_prev = len(sigma)
        tau = pad_rows(np.array(tau, dtype=np.float64), answers.n_tasks)
        sigma = pad_rows(np.array(sigma, dtype=np.float64),
                         answers.n_workers)
        if answers.n_workers > n_prev:
            # Unseen workers get the cold path's init — the log
            # majority-vote confusion — not zero rows: a zero σ row
            # makes a new worker's answers initially uninformative and
            # the coupled ascent spends dozens of iterations
            # bootstrapping them, slower than a cold start.
            n_choices = answers.n_choices
            post = np.zeros((answers.n_tasks, n_choices))
            np.add.at(post, (answers.tasks, answers.values), 1.0)
            post /= np.maximum(post.sum(axis=1, keepdims=True), 1.0)
            n_known = len(warm_start.posterior)
            post[:n_known] = warm_start.posterior
            counts = np.zeros((answers.n_workers - n_prev,
                               n_choices, n_choices))
            fresh = answers.workers >= n_prev
            np.add.at(counts,
                      (answers.workers[fresh] - n_prev,
                       answers.values[fresh]),
                      post[answers.tasks[fresh]])
            confusion = counts.transpose(0, 2, 1) + 1.0
            confusion /= confusion.sum(axis=2, keepdims=True)
            sigma[n_prev:] = np.log(confusion)
        class_prior = np.clip(
            warm_start.posterior.mean(axis=0), 1e-6, None)
        return tau, sigma, class_prior / class_prior.sum()

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
        with self._shard_runner(answers, shard_runner, delta) as runner:
            spec = runner.spec
            spec.count_t = np.maximum(answers.task_answer_counts(),
                                      1)[:, None]
            spec.count_w = np.maximum(answers.worker_answer_counts(),
                                      1)[:, None, None]
            # Warm gradient restarts run only under a true delta plan:
            # without one the fit is cold, exactly the historical
            # behaviour (so refit="full" streams stay bit-identical).
            initial_parameters = None
            if (warm_start is not None and delta is not None
                    and delta.prev is not None):
                initial_parameters = self._warm_parameters(warm_start,
                                                           answers)
            warm = initial_parameters is not None
            if delta is not None and not warm:
                delta = delta.collect_only()
            outcome = run_em_sharded(
                runner,
                tolerance=self.tolerance,
                max_iter=self.max_iter,
                golden=golden,
                initial_parameters=initial_parameters,
                delta=delta,
            )

        tau, sigma = outcome.parameters[0], outcome.parameters[1]
        # Worker quality: probability mass the worker's model puts on
        # answering correctly, averaged over truth classes.
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
            extras={"tau": tau, "sigma": sigma, "warm_started": warm},
            fit_stats=outcome.fit_stats,
            shard_state=outcome.shard_state,
        )
