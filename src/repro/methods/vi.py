"""VI-MF and VI-BP (Liu, Peng & Ihler, NIPS 2012).

Both are *Bayesian estimators*: instead of the point estimate ZC/D&S
compute, they approximate ``Pr(v*_i | V) = ∫ Pr(v*_i, {q^w} | V) dq``
(survey Equation 2) under a two-coin worker model — per-class accuracies
``s_w = Pr(answer T | truth T)`` and ``t_w = Pr(answer F | truth F)``
with Beta priors — using variational inference:

* **VI-MF** — mean field: fully factorised ``q(z_i) q(s_w) q(t_w)``;
  coordinate updates use Dirichlet/Beta digamma expectations.
* **VI-BP** — belief propagation: worker-to-task messages integrate the
  worker's reliability out against the Beta posterior built from the
  *other* tasks' beliefs.  We use the standard first-moment
  approximation of those messages, which keeps the update O(|V|).

Both variants iterate on the 1-D belief vector ``mu[i] = Pr(z_i = T)``
and run as sharded estimations through
:func:`repro.inference.sharded.run_em_sharded`: the soft worker counts
are per-shard bincounts merged field-wise (VI-MF's Beta/digamma
epilogue runs on the merged totals), and the task update maps over
task-range blocks.  VI-BP's cavity messages need each edge's own belief
alongside the global counts, so its M-step packs the full ``mu``
next to the merged statistics.  One shard reproduces the historical
loops bit-for-bit.

Decision-making tasks only, as in the survey's Table 4.
"""

from __future__ import annotations

import types
from typing import Mapping

import numpy as np

from ..core.answers import AnswerSet
from ..core.base import BinaryMethod
from ..core.framework import decode_posterior, log_normalize_rows
from ..core.registry import register
from ..core.result import InferenceResult
from ..core.shards import AnswerShard
from ..core.tasktypes import LABEL_FALSE, LABEL_TRUE
from ..inference.sharded import (
    EMOutcome,
    ShardedEMSpec,
    SufficientStats,
    pad_rows,
    run_em_sharded,
)
from ..inference.variational import (
    BetaPrior,
    expected_log_beta_counts,
    posterior_mean_accuracy,
)


def _clamp_mu(mu: np.ndarray, golden: Mapping[int, float] | None
              ) -> np.ndarray:
    """Pin golden tasks' beliefs to their labels (state is 1-D here)."""
    if not golden:
        return mu
    for task, label in golden.items():
        mu[task] = 1.0 if int(label) == LABEL_TRUE else 0.0
    return mu


class _TwoCoinSpec(ShardedEMSpec):
    """Shared shard kernels of the two-coin variational methods.

    ``accumulate`` produces the soft per-worker correct/incorrect
    counts for both truth classes (plus the belief mass the class
    prevalence factor needs); every field is a sum over answers or
    tasks, so the shard partials merge exactly up to float order.
    """

    golden_clamp = staticmethod(_clamp_mu)

    def __init__(self, n_tasks: int, n_workers: int,
                 prior: BetaPrior) -> None:
        super().__init__()
        self.n_tasks = n_tasks
        self.n_workers = n_workers
        self.n_choices = 2
        self.prior = prior

    def build_ops(self, shard: AnswerShard):
        return types.SimpleNamespace(
            said_true=shard.values.astype(np.int64) == LABEL_TRUE,
        )

    def resize(self, n_tasks: int, n_workers: int, n_choices: int) -> bool:
        if (n_choices != 2 or n_workers < self.n_workers
                or n_tasks < self.n_tasks):
            return False
        self.n_tasks, self.n_workers = n_tasks, n_workers
        return True

    def init_block(self, shard: AnswerShard, ops) -> np.ndarray:
        trues = np.bincount(shard.local_tasks,
                            weights=ops.said_true.astype(np.float64),
                            minlength=shard.n_local_tasks)
        totals = np.bincount(shard.local_tasks,
                             minlength=shard.n_local_tasks
                             ).astype(np.float64)
        totals = np.where(totals > 0, totals, 1.0)
        return trues / totals

    def accumulate(self, shard: AnswerShard, ops,
                   block: np.ndarray) -> SufficientStats:
        mu_edge = block[shard.local_tasks]
        said_true = ops.said_true
        n = self.n_workers
        return SufficientStats(
            correct_t=np.bincount(shard.workers,
                                  weights=mu_edge * said_true, minlength=n),
            incorrect_t=np.bincount(shard.workers,
                                    weights=mu_edge * ~said_true,
                                    minlength=n),
            correct_f=np.bincount(shard.workers,
                                  weights=(1 - mu_edge) * ~said_true,
                                  minlength=n),
            incorrect_f=np.bincount(shard.workers,
                                    weights=(1 - mu_edge) * said_true,
                                    minlength=n),
            mu_sum=block.sum(),
            count=float(len(block)),
        )


class _MeanFieldSpec(_TwoCoinSpec):
    """VI-MF: digamma expectations on the merged counts, local task
    updates against the shared worker tables."""

    def finalize(self, stats: SufficientStats):
        els_t, elf_t = expected_log_beta_counts(
            stats["correct_t"], stats["incorrect_t"], self.prior)
        els_f, elf_f = expected_log_beta_counts(
            stats["correct_f"], stats["incorrect_f"], self.prior)
        # Variational class-prevalence factor: Beta(1 + soft counts).
        from scipy.special import digamma

        prev_t = 1.0 + float(stats["mu_sum"])
        prev_f = 1.0 + float(stats["count"] - stats["mu_sum"])
        total = digamma(prev_t + prev_f)
        return (els_t, elf_t, els_f, elf_f,
                float(digamma(prev_t) - total),
                float(digamma(prev_f) - total))

    def e_block(self, shard: AnswerShard, ops, params) -> np.ndarray:
        els_t, elf_t, els_f, elf_f, log_prev_t, log_prev_f = params
        said_true = ops.said_true
        w = shard.workers
        # Per-edge log-likelihood contributions for z=T and z=F.
        log_t = np.where(said_true, els_t[w], elf_t[w])
        log_f = np.where(said_true, elf_f[w], els_f[w])
        n_local = shard.n_local_tasks
        log_post = np.zeros((n_local, 2))
        log_post[:, LABEL_TRUE] = log_prev_t + np.bincount(
            shard.local_tasks, weights=log_t, minlength=n_local)
        log_post[:, LABEL_FALSE] = log_prev_f + np.bincount(
            shard.local_tasks, weights=log_f, minlength=n_local)
        posterior = log_normalize_rows(log_post)
        return posterior[:, LABEL_TRUE].copy()

    def warm_parameters(self, stats: SufficientStats, mu: np.ndarray):
        """A delta refit resumes from the digamma expectations of the
        cached worker counts — the same parameters the previous fit
        converged to."""
        return self.finalize(stats)


class _BeliefPropagationSpec(_TwoCoinSpec):
    """VI-BP: cavity messages subtract each edge's own contribution
    from the merged worker counts, so the E-step needs the full belief
    vector next to the statistics — the M-step packs both."""

    #: Collecting fits leave the counts out of the shard state; a delta
    #: refit recomputes them for its clean shards at its first M-step.
    statistics_m_step = False

    def finalize(self, stats: SufficientStats):
        """The cavity messages read the merged counts themselves."""
        return stats

    def m_step(self, runner, state, prev_params, frozen, stats,
               fit_stats=None, rng=None):
        """The merged counts (``accumulate`` only where a shard's block
        changed: a frozen shard's count partial is pinned with its
        belief block) packed with a copy of the full belief vector."""
        return (super().m_step(runner, state, prev_params, frozen, stats,
                               fit_stats, rng), np.array(state))

    def warm_parameters(self, stats: SufficientStats, mu: np.ndarray):
        """A delta refit resumes from the cached worker counts and the
        cached belief vector — exactly the M-step packing."""
        return stats, mu

    def e_block(self, shard: AnswerShard, ops, params) -> np.ndarray:
        merged, mu = params
        mu_edge = mu[shard.task_start:shard.task_stop][shard.local_tasks]
        said_true = ops.said_true
        w = shard.workers
        # Cavity counts: worker totals minus this edge's contribution.
        cav_ct = merged["correct_t"][w] - mu_edge * said_true
        cav_it = merged["incorrect_t"][w] - mu_edge * ~said_true
        cav_cf = merged["correct_f"][w] - (1 - mu_edge) * ~said_true
        cav_if = merged["incorrect_f"][w] - (1 - mu_edge) * said_true
        cav = [np.maximum(c, 0.0) for c in (cav_ct, cav_it, cav_cf, cav_if)]

        mean_s = np.clip(
            posterior_mean_accuracy(cav[0], cav[1], self.prior),
            1e-10, 1 - 1e-10)
        mean_t = np.clip(
            posterior_mean_accuracy(cav[2], cav[3], self.prior),
            1e-10, 1 - 1e-10)
        log_msg_t = np.where(said_true, np.log(mean_s), np.log1p(-mean_s))
        log_msg_f = np.where(said_true, np.log1p(-mean_t), np.log(mean_t))

        n_local = shard.n_local_tasks
        log_post = np.zeros((n_local, 2))
        log_post[:, LABEL_TRUE] = np.bincount(
            shard.local_tasks, weights=log_msg_t, minlength=n_local)
        log_post[:, LABEL_FALSE] = np.bincount(
            shard.local_tasks, weights=log_msg_f, minlength=n_local)
        posterior = log_normalize_rows(log_post)
        return posterior[:, LABEL_TRUE].copy()


class _VariationalTwoCoin(BinaryMethod):
    """Shared state initialisation for the two VI variants."""

    supports_initial_quality = True
    supports_golden = True
    supports_sharding = True
    _spec_cls: type[_TwoCoinSpec]

    def __init__(self, prior_a: float = 2.0, prior_b: float = 1.0,
                 **kwargs) -> None:
        super().__init__(**kwargs)
        self.prior = BetaPrior(a=prior_a, b=prior_b)
        self.prior.validate()

    def make_em_spec(self, n_tasks: int, n_workers: int, n_choices: int):
        return self._spec_cls(n_tasks=n_tasks, n_workers=n_workers,
                              prior=self.prior)

    def _initial_mu(self, answers: AnswerSet,
                    initial_quality: np.ndarray | None) -> np.ndarray:
        """Initial belief Pr(z_i = T), majority-based or quality-weighted."""
        counts = answers.vote_counts()
        if initial_quality is None:
            totals = counts.sum(axis=1)
            totals = np.where(totals > 0, totals, 1.0)
            return counts[:, LABEL_TRUE] / totals
        weights = np.clip(initial_quality, 0.05, 0.95)
        said_true = answers.values.astype(np.int64) == LABEL_TRUE
        w_edge = weights[answers.workers]
        score_t = np.bincount(answers.tasks, weights=w_edge * said_true,
                              minlength=answers.n_tasks)
        score_f = np.bincount(answers.tasks, weights=w_edge * ~said_true,
                              minlength=answers.n_tasks)
        total = score_t + score_f
        total = np.where(total > 0, total, 1.0)
        return score_t / total

    def _warm_parameters(self, warm_start: InferenceResult,
                         answers: AnswerSet, mu0: np.ndarray, spec):
        """Variational restart point of a delta refit: the cached
        worker counts (zero-padded for new workers) and the cached
        beliefs, extended with the majority estimate ``mu0`` for new
        tasks.  ``None`` when the warm extras carry no counts."""
        counts = warm_start.extras.get("counts")
        if counts is None or len(counts) != 4:
            return None
        mu_prev = np.asarray(warm_start.posterior[:, LABEL_TRUE],
                             dtype=np.float64)
        if len(mu_prev) > answers.n_tasks:
            return None
        mu = np.concatenate([mu_prev, mu0[len(mu_prev):]])
        padded = [pad_rows(np.asarray(c, dtype=np.float64),
                           answers.n_workers) for c in counts]
        stats = SufficientStats(
            correct_t=padded[0], incorrect_t=padded[1],
            correct_f=padded[2], incorrect_f=padded[3],
            mu_sum=float(mu.sum()), count=float(len(mu)))
        return spec.warm_parameters(stats, mu)

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
        mu0 = self._initial_mu(answers, initial_quality)
        # Variational blocks are reused only under a true delta
        # plan; without one the fit is cold, exactly the historical
        # behaviour (refit="full" streams stay bit-identical).
        initial_parameters = None
        if (warm_start is not None and delta is not None
                and delta.prev is not None):
            initial_parameters = self._warm_parameters(
                warm_start, answers, mu0, runner.spec)
        warm = initial_parameters is not None
        outcome = run_em_sharded(
            runner,
            tolerance=self.tolerance,
            max_iter=self.max_iter,
            golden=golden,
            initial_posterior=mu0,
            initial_parameters=initial_parameters,
            delta=delta,
        )
        counts = self._final_counts(runner, outcome)
        return self._result(answers, outcome, counts, rng, warm)

    @staticmethod
    def _final_counts(runner, outcome: EMOutcome) -> tuple[np.ndarray, ...]:
        """Merged worker counts at the final beliefs (drives the
        sensitivity/specificity posteriors)."""
        state = outcome.shard_state
        if (state is not None and state.stats
                and all(s is not None for s in state.stats)):
            stats = state.stats
        else:
            blocks = [outcome.posterior[start:stop]
                      for start, stop in runner.task_ranges]
            stats = runner.call("accumulate", per_shard=blocks)
        merged = SufficientStats.total(stats)
        return (merged["correct_t"], merged["incorrect_t"],
                merged["correct_f"], merged["incorrect_f"])

    def _result(self, answers: AnswerSet, outcome: EMOutcome,
                counts: tuple[np.ndarray, ...],
                rng: np.random.Generator,
                warm: bool = False) -> InferenceResult:
        correct_t, incorrect_t, correct_f, incorrect_f = counts
        sensitivity = posterior_mean_accuracy(correct_t, incorrect_t,
                                              self.prior)
        specificity = posterior_mean_accuracy(correct_f, incorrect_f,
                                              self.prior)
        mu = outcome.posterior
        posterior = np.column_stack([1.0 - mu, mu])  # columns: [F, T]
        return InferenceResult(
            method=self.name,
            truths=decode_posterior(posterior, rng),
            worker_quality=(sensitivity + specificity) / 2.0,
            posterior=posterior,
            n_iterations=outcome.n_iterations,
            converged=outcome.converged,
            extras={"sensitivity": sensitivity, "specificity": specificity,
                    # The final-belief worker counts: the restart point
                    # the next delta refit's warm parameters come from.
                    "counts": np.stack(counts),
                    "warm_started": warm},
            fit_stats=outcome.fit_stats,
            shard_state=outcome.shard_state,
        )


@register
class VIMeanField(_VariationalTwoCoin):
    """Mean-field variational inference (VI-MF).

    The full factorisation ``q(z) q(s) q(t) q(pi)`` includes the class
    prevalence ``pi`` with its own (Dirichlet) factor; its expected log
    enters every task update.  This is what lets VI-MF handle the
    imbalanced D_Product data far better than VI-BP, whose message
    approximation carries no prevalence information — the gap the
    paper's Table 6 shows (83.9% vs 64.6%).
    """

    name = "VI-MF"
    _spec_cls = _MeanFieldSpec


@register
class VIBeliefPropagation(_VariationalTwoCoin):
    """Belief propagation with Beta-integrated messages (VI-BP).

    For every edge (answer) the incoming worker message excludes the
    edge's own contribution from the worker's Beta counts — the defining
    difference from mean field, where each worker's posterior is shared
    by all of its edges.
    """

    name = "VI-BP"
    _spec_cls = _BeliefPropagationSpec
