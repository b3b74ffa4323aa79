"""CBCC — Community BCC (Venanzi et al., WWW 2014).

Extends BCC with *communities*: "each worker belongs to one community,
where each community has a representative confusion matrix, and workers
in the same community share very similar confusion matrices" (survey
Section 5.3).  This pools statistics across the long tail of workers
who answered only a handful of tasks.

Like our BCC (see :mod:`repro.methods.bcc`), the chain keeps the truth
as a soft posterior and samples the remaining latent structure:

1. sample each community's confusion matrix from the Dirichlet
   conditional aggregated over its members' (soft) answer counts;
2. sample each worker's community from the categorical conditional
   (likelihood of the worker's answers under each community matrix ×
   a Dirichlet-multinomial size prior);
3. sample the class prior and recompute the truth posterior, each
   worker answering through their community's matrix.

We follow the survey's simplified reading where a worker's matrix *is*
its community matrix; the per-worker perturbation of the original model
matters mostly for very large pools.

Sharding mirrors BCC (shared :class:`~repro.methods.bcc` shard
kernels): the per-worker soft counts map-reduce over the shards, and
every draw — community matrices, memberships, class prior — happens in
the master-side ``sample`` closure, which also owns the membership
vector across sweeps.  One shard is bit-identical to the historical
sampler; shard counts define the determinism contract as in BCC.  So
does the delta contract (chain continuation, see
:mod:`repro.methods.bcc`): the cached payload additionally carries the
membership vector and the per-worker quality accumulator, and new
workers draw their initial community from the restored stream.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..core.answers import AnswerSet
from ..core.base import CategoricalMethod
from ..core.framework import decode_posterior, log_normalize_rows
from ..core.registry import register
from ..core.result import InferenceResult
from ..inference.distributions import sample_categorical_rows, sample_dirichlet_rows
from ..inference.sharded import SufficientStats, pad_rows, run_gibbs_sharded
from .bcc import _ConfusionCountSpec, chain_restart, chain_state


@register
class CBCC(CategoricalMethod):
    """Community-based Bayesian classifier combination."""

    name = "CBCC"
    supports_golden = False  # the survey does not extend CBCC with golden tasks
    supports_sharding = True

    def __init__(self, n_communities: int = 3, n_samples: int = 50,
                 burn_in: int = 20, alpha_diagonal: float = 4.0,
                 alpha_off_diagonal: float = 1.0, beta_prior: float = 1.0,
                 community_prior: float = 1.0, **kwargs) -> None:
        super().__init__(**kwargs)
        if n_communities < 1:
            raise ValueError(f"n_communities must be >= 1, got {n_communities}")
        if n_samples < 1 or burn_in < 0:
            raise ValueError("n_samples must be >= 1 and burn_in >= 0")
        self.n_communities = n_communities
        self.n_samples = n_samples
        self.burn_in = burn_in
        self.alpha_diagonal = alpha_diagonal
        self.alpha_off_diagonal = alpha_off_diagonal
        self.beta_prior = beta_prior
        self.community_prior = community_prior

    def make_em_spec(self, n_tasks: int, n_workers: int, n_choices: int):
        return _ConfusionCountSpec(n_tasks=n_tasks, n_workers=n_workers,
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
        n_choices = answers.n_choices
        n_workers = answers.n_workers
        n_comm = self.n_communities
        diag = np.arange(n_choices)

        # Staggered diagonal priors differentiate communities into
        # quality tiers (the lowest tier is a near-spammer prior).
        alpha = np.full((n_comm, n_choices, n_choices),
                        self.alpha_off_diagonal)
        for m in range(n_comm):
            strength = self.alpha_diagonal * (m + 1) / n_comm
            alpha[m, diag, diag] = max(strength, self.alpha_off_diagonal)

        # A delta refit continues the cached chain.
        warm = delta is not None and delta.prev is not None
        session = delta.prev.session if warm else None

        burn_in = self.burn_in
        n_sweeps = self.burn_in + self.n_samples
        prior_sweeps = 0
        if warm:
            # Continue the cached chain: restore the generator, resume
            # the membership vector (new workers draw their community
            # from the restored stream), skip burn-in.
            rng.bit_generator.state = session["rng_state"]
            membership = np.array(session["membership"], dtype=np.int64)
            if len(membership) < n_workers:
                membership = np.concatenate([
                    membership,
                    rng.integers(0, n_comm,
                                 size=n_workers - len(membership))])
            quality_sum = pad_rows(
                np.array(session["quality_sum"], dtype=np.float64),
                n_workers)
            retained = int(session["retained_quality"])
            prior_sweeps = int(session["sweeps"])
            burn_in = 0
            n_sweeps = max(self.n_samples // 2, 8)
        else:
            membership = rng.integers(0, n_comm, size=n_workers)
            quality_sum = np.zeros(n_workers)
            retained = 0

        def sample(merged: SufficientStats, sweep: int):
            nonlocal membership, quality_sum, retained
            # 1. Community confusion matrices from member soft counts.
            worker_counts = merged["confusion_counts"].transpose(0, 2, 1)
            comm_counts = np.zeros((n_comm, n_choices, n_choices))
            np.add.at(comm_counts, membership, worker_counts)
            confusion = sample_dirichlet_rows(comm_counts + alpha, rng)
            log_conf = np.log(np.clip(confusion, 1e-12, None))

            # 2. Worker communities from their answer likelihoods.
            # ll[w, m] = sum_{j,k} worker_counts[w,j,k] * log_conf[m,j,k]
            worker_ll = np.einsum("wjk,mjk->wm", worker_counts, log_conf)
            comm_sizes = np.bincount(membership, minlength=n_comm)
            log_size_prior = np.log(comm_sizes + self.community_prior)
            membership = sample_categorical_rows(
                log_normalize_rows(worker_ll + log_size_prior), rng)

            # 3. Class prior; the truth update happens in e_block.
            prior = sample_dirichlet_rows(
                merged["class_sums"] + self.beta_prior, rng)

            if sweep >= burn_in:
                quality_sum += confusion[membership][:, diag,
                                                     diag].mean(axis=1)
                retained += 1
            return (log_conf[membership],
                    np.log(np.clip(prior, 1e-12, None)))

        runner = shard_runner
        init = self.majority_posterior(answers)
        tally = None
        chain_retained = 0
        dirty_count = 0
        if warm:
            dirty = np.asarray(delta.dirty, dtype=bool)
            dirty_count = int(dirty.sum())
            init, tally, chain_retained = chain_restart(
                session, delta.prev, runner.task_ranges, dirty, init)
        outcome = run_gibbs_sharded(
            runner,
            n_sweeps=n_sweeps,
            burn_in=burn_in,
            sample=sample,
            golden=None,
            initial_state=init,
            tally=tally,
            retained=chain_retained,
            mode="delta" if warm else "gibbs",
            dirty=dirty_count,
        )
        shard_state = None
        if delta is not None:
            shard_state = chain_state(runner, outcome, delta, {
                "family": "cbcc",
                "communities": n_comm,
                "tally": outcome.tally,
                "retained": outcome.retained,
                "sweeps": prior_sweeps + n_sweeps,
                "rng_state": rng.bit_generator.state,
                "membership": membership,
                "quality_sum": quality_sum,
                "retained_quality": retained,
            })

        final = outcome.tally / max(outcome.retained, 1)
        quality = quality_sum / max(retained, 1)
        return InferenceResult(
            method=self.name,
            truths=decode_posterior(final, rng),
            worker_quality=quality,
            posterior=final,
            n_iterations=prior_sweeps + n_sweeps,
            converged=True,
            extras={"community": membership, "warm_started": warm},
            fit_stats=outcome.fit_stats,
            shard_state=shard_state,
        )
