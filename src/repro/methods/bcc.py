"""BCC — Bayesian Classifier Combination (Kim & Ghahramani, AISTATS 2012).

The fully Bayesian counterpart of D&S: confusion matrices and class
prior carry Dirichlet priors and the *posterior joint probability*
``Π_i Pr(v*_i|β) Π_w Pr(q^w|α) Π Pr(v^w_i | q^w, v*_i)``
is explored by sampling (survey Section 5.3).

Implementation note — soft-label chain.  A textbook Gibbs sweep samples
hard truth labels; on heavily imbalanced data the sampled minority-class
labels contaminate the confusion-matrix counts and the minority class
collapses (F1 well below D&S, which the survey does *not* observe for
BCC).  We therefore keep the truth as a full posterior ("collapsing" the
label draw) and sample only the parameters:

1. build expected confusion counts from the current truth posterior;
2. sample each worker's confusion rows from their Dirichlet conditional;
3. sample the class prior from its Dirichlet conditional;
4. recompute the truth posterior exactly;
5. after burn-in, tally the posterior.

This preserves BCC's Bayesian treatment of worker parameters — the part
that differentiates it from D&S's point estimates — while matching the
survey's observation that BCC and D&S land very close together.

The sweeps run through :func:`repro.inference.sharded.run_gibbs_sharded`:
per sweep the shards accumulate the soft confusion counts (step 1 as a
map-reduce), the Dirichlet draws stay on the master generator (steps
2–3 in the ``sample`` closure), and the posterior recomputation (step
4) maps back over the shards.  One shard is bit-identical to the
historical sampler; multiple shards reorder the statistics merge, which
steers the rejection samplers onto different — statistically
equivalent — draws, so the determinism contract is per (seed, shard
count).

Delta contract — *chain continuation*.  A fit under a delta plan caches
the chain on :attr:`~repro.inference.sharded.ShardState.session`: the
lifetime posterior tally, the master generator's bit state, and the
closure's accumulators, with the final per-shard assignment blocks on
the usual ``blocks``.  The next (warm) refit restores the generator and
continues the *same* chain with no new burn-in and a shorter sweep
budget: clean shards resume their cached assignment blocks, dirty or
grown shards are re-primed from the majority estimate, and newly
appended tasks enter the lifetime average seeded at their majority row.
The continued draws extend the original stream, so a grown chain is
deterministic per (seed, shard count, batch history).
"""

from __future__ import annotations

import types
from typing import Mapping

import numpy as np

from ..core.answers import AnswerSet
from ..core.base import CategoricalMethod
from ..core.framework import (
    clamp_golden_posterior,
    decode_posterior,
    log_normalize_rows,
)
from ..core.registry import register
from ..core.result import InferenceResult
from ..core.shards import AnswerShard
from ..inference.distributions import sample_dirichlet_rows
from ..inference.sharded import (
    ShardedEMSpec,
    ShardState,
    SufficientStats,
    check_delta_layout,
    majority_block,
    pad_rows,
    run_gibbs_sharded,
)


def chain_restart(session, prev: ShardState, ranges, dirty: np.ndarray,
                  init: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """``(initial_state, tally, retained)`` of a continued Gibbs chain.

    Clean shards resume their cached assignment blocks; dirty shards
    (and any block whose task range changed) are re-primed from the
    majority estimate ``init``.  The lifetime tally is extended for
    newly appended tasks with their majority row times the retained
    count, so ``tally / retained`` stays a per-row convex average.
    """
    check_delta_layout(ranges, prev, dirty)
    n_tasks = len(init)
    state = np.empty_like(init)
    for k, (start, stop) in enumerate(ranges):
        block = np.asarray(prev.blocks[k], dtype=np.float64)
        if dirty[k] or len(block) != stop - start:
            state[start:stop] = init[start:stop]
        else:
            state[start:stop] = block
    retained = int(session["retained"])
    tally = np.array(session["tally"], dtype=np.float64)
    if len(tally) < n_tasks:
        tally = np.concatenate([tally, init[len(tally):] * retained])
    return state, tally, retained


def chain_state(runner, outcome, delta, session) -> ShardState:
    """The :class:`ShardState` a finished Gibbs fit leaves behind: the
    final assignment blocks plus the opaque chain payload."""
    return ShardState.collect(
        runner, [outcome.state[start:stop]
                 for start, stop in runner.task_ranges],
        delta, session=session)


class _ConfusionCountSpec(ShardedEMSpec):
    """Gibbs shard kernels shared by BCC and CBCC.

    ``accumulate`` builds the sweep conditional's sufficient statistics
    — soft per-worker confusion counts plus the class mass; ``e_block``
    recomputes the truth posterior from a per-worker log-confusion
    table and log class prior.  All randomness lives in the master-side
    ``sample`` closure, so these phases are deterministic.
    """

    def __init__(self, n_tasks: int, n_workers: int,
                 n_choices: int) -> None:
        super().__init__()
        self.n_tasks = n_tasks
        self.n_workers = n_workers
        self.n_choices = n_choices

    def build_ops(self, shard: AnswerShard):
        return types.SimpleNamespace()

    def init_block(self, shard: AnswerShard, ops) -> np.ndarray:
        return majority_block(shard)

    def accumulate(self, shard: AnswerShard, ops,
                   block: np.ndarray) -> SufficientStats:
        # counts[w, k, j]: posterior mass of truth j where worker w
        # answered k (the consumer transposes to (w, j, k)).
        counts = np.zeros((self.n_workers, self.n_choices, self.n_choices))
        np.add.at(counts, (shard.workers, shard.values),
                  block[shard.local_tasks])
        return SufficientStats(confusion_counts=counts,
                               class_sums=block.sum(axis=0))

    def e_block(self, shard: AnswerShard, ops, params) -> np.ndarray:
        worker_log_conf, log_prior = params
        log_post = np.tile(log_prior, (shard.n_local_tasks, 1))
        np.add.at(log_post, shard.local_tasks,
                  worker_log_conf[shard.workers, :, shard.values])
        return log_normalize_rows(log_post)

    def resize(self, n_tasks: int, n_workers: int, n_choices: int) -> bool:
        if (n_choices != self.n_choices or n_workers < self.n_workers
                or n_tasks < self.n_tasks):
            return False
        self.n_tasks, self.n_workers = n_tasks, n_workers
        return True


@register
class BCC(CategoricalMethod):
    """Posterior sampling over (confusion matrices, class prior)."""

    name = "BCC"
    supports_golden = True
    supports_sharding = True

    def __init__(self, n_samples: int = 50, burn_in: int = 20,
                 alpha_diagonal: float = 2.0, alpha_off_diagonal: float = 1.0,
                 beta_prior: float = 1.0, **kwargs) -> None:
        super().__init__(**kwargs)
        if n_samples < 1 or burn_in < 0:
            raise ValueError("n_samples must be >= 1 and burn_in >= 0")
        if alpha_diagonal <= 0 or alpha_off_diagonal <= 0 or beta_prior <= 0:
            raise ValueError("Dirichlet hyper-parameters must be positive")
        self.n_samples = n_samples
        self.burn_in = burn_in
        self.alpha_diagonal = alpha_diagonal
        self.alpha_off_diagonal = alpha_off_diagonal
        self.beta_prior = beta_prior

    def make_em_spec(self, n_tasks: int, n_workers: int, n_choices: int):
        return _ConfusionCountSpec(n_tasks=n_tasks, n_workers=n_workers,
                                   n_choices=n_choices)

    def _confusion_prior(self, n_choices: int) -> np.ndarray:
        alpha = np.full((n_choices, n_choices), self.alpha_off_diagonal)
        np.fill_diagonal(alpha, self.alpha_diagonal)
        return alpha

    def _continuation_sweeps(self) -> int:
        """Sweep budget of a continued chain: the chain is mixed, so
        roughly half a fresh retained window keeps the lifetime average
        moving without re-paying burn-in."""
        return max(self.n_samples // 2, 8)

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
        alpha = self._confusion_prior(n_choices)

        # A delta refit continues the cached chain.
        warm = delta is not None and delta.prev is not None
        session = delta.prev.session if warm else None

        confusion_sum = np.zeros((n_workers, n_choices, n_choices))
        retained_conf = 0
        burn_in = self.burn_in
        n_sweeps = self.burn_in + self.n_samples
        prior_sweeps = 0
        if warm:
            # Continue the cached chain: restore the generator and the
            # closure accumulators, skip burn-in (the chain is mixed).
            rng.bit_generator.state = session["rng_state"]
            confusion_sum = pad_rows(
                np.array(session["confusion_sum"], dtype=np.float64),
                n_workers)
            retained_conf = int(session["retained_conf"])
            prior_sweeps = int(session["sweeps"])
            burn_in = 0
            n_sweeps = self._continuation_sweeps()

        def sample(merged: SufficientStats, sweep: int):
            nonlocal confusion_sum, retained_conf
            confusion = sample_dirichlet_rows(
                merged["confusion_counts"].transpose(0, 2, 1) + alpha, rng)
            prior = sample_dirichlet_rows(
                merged["class_sums"] + self.beta_prior, rng)
            if sweep >= burn_in:
                confusion_sum += confusion
                retained_conf += 1
            return (np.log(np.clip(confusion, 1e-12, None)),
                    np.log(np.clip(prior, 1e-12, None)))

        runner = shard_runner
        init = self.majority_posterior(answers)
        tally = None
        retained = 0
        dirty_count = 0
        if warm:
            dirty = np.asarray(delta.dirty, dtype=bool)
            dirty_count = int(dirty.sum())
            init, tally, retained = chain_restart(
                session, delta.prev, runner.task_ranges, dirty, init)
        outcome = run_gibbs_sharded(
            runner,
            n_sweeps=n_sweeps,
            burn_in=burn_in,
            sample=sample,
            golden=golden,
            initial_state=init,
            tally=tally,
            retained=retained,
            mode="delta" if warm else "gibbs",
            dirty=dirty_count,
        )
        shard_state = None
        if delta is not None:
            shard_state = chain_state(runner, outcome, delta, {
                "family": "bcc",
                "tally": outcome.tally,
                "retained": outcome.retained,
                "sweeps": prior_sweeps + n_sweeps,
                "rng_state": rng.bit_generator.state,
                "confusion_sum": confusion_sum,
                "retained_conf": retained_conf,
            })

        final = outcome.tally / max(outcome.retained, 1)
        final = clamp_golden_posterior(final, golden)
        mean_confusion = confusion_sum / max(retained_conf, 1)
        diag = np.arange(n_choices)
        quality = mean_confusion[:, diag, diag].mean(axis=1)
        return InferenceResult(
            method=self.name,
            truths=decode_posterior(final, rng),
            worker_quality=quality,
            posterior=final,
            n_iterations=prior_sweeps + n_sweeps,
            converged=True,
            extras={"confusion": mean_confusion, "warm_started": warm},
            fit_stats=outcome.fit_stats,
            shard_state=shard_state,
        )
