"""Pre-refactor reference EM implementations (frozen for parity).

Faithful copies of the global-array EM inner loops the methods had
*before* the sharded map-reduce refactor (``np.add.at`` scatter /
``np.bincount`` closures over one flat answer array).  Two consumers
pin against them and must share one copy so the reference cannot drift:

* ``tests/properties/test_property_sharded.py`` — bit-for-bit parity of
  the single-shard refactored path;
* ``benchmarks/bench_sharded.py`` — wall-clock baseline and the same
  bitwise check at benchmark scale.

Do not "improve" this module: its value is that it stays exactly what
the pre-refactor code computed.  That includes the cold-start EM loop
and the two row normalisers below: the library runs EM only through its
sharded drivers and streams the normalisers column by column, so the
references keep their own copies, and a library rewrite that changes a
bit fails the one-shard parity checks instead of passing against
itself.
"""

from __future__ import annotations

import numpy as np

from repro.core.framework import (
    ConvergenceTracker,
    clamp_golden_posterior,
    clamp_golden_values,
    decode_posterior,
)
from repro.inference.sharded import EMOutcome


def run_em(initial_posterior, *, m_step, e_step, tolerance, max_iter):
    """Pre-refactor cold-start EM loop: alternate ``m_step``/``e_step``
    from ``initial_posterior`` until the posterior stabilises."""
    posterior = np.array(initial_posterior, dtype=np.float64)
    tracker = ConvergenceTracker(tolerance=tolerance, max_iter=max_iter)
    while True:
        parameters = m_step(posterior)
        posterior = np.asarray(e_step(parameters), dtype=np.float64)
        if tracker.update(posterior):
            break
    return EMOutcome(posterior=posterior, parameters=parameters,
                     n_iterations=tracker.iteration,
                     converged=tracker.converged)


def normalize_rows(matrix):
    """Pre-refactor row normaliser: one axis-1 sum."""
    matrix = np.asarray(matrix, dtype=np.float64)
    sums = matrix.sum(axis=1, keepdims=True)
    n_cols = matrix.shape[1]
    safe = np.where(sums > 0, sums, 1.0)
    out = matrix / safe
    out[np.squeeze(sums, axis=1) <= 0] = 1.0 / n_cols
    return out


def log_normalize_rows(log_matrix):
    """Pre-refactor log-score normaliser: axis-1 max and sum."""
    log_matrix = np.asarray(log_matrix, dtype=np.float64)
    shifted = log_matrix - log_matrix.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


class ConfusionParams:
    """The (confusion, prior) pair of the pre-refactor D&S/LFC M-step."""

    def __init__(self, confusion, prior):
        self.confusion, self.prior = confusion, prior


def reference_confusion_em(answers, off, bonus, tolerance, max_iter):
    """Pre-refactor D&S/LFC: confusion-matrix EM over global arrays."""
    tasks, workers = answers.tasks, answers.workers
    values = answers.values.astype(np.int64)
    n_choices, n_workers = answers.n_choices, answers.n_workers
    diag = np.arange(n_choices)

    def m_step(posterior):
        counts = np.zeros((n_workers, n_choices, n_choices))
        np.add.at(counts, (workers, values), posterior[tasks])
        confusion = counts.transpose(0, 2, 1)
        confusion = confusion + off
        confusion[:, diag, diag] += bonus
        confusion /= confusion.sum(axis=2, keepdims=True)
        prior = posterior.mean(axis=0)
        prior = prior / prior.sum()
        return ConfusionParams(confusion, prior)

    def e_step(params):
        log_conf = np.log(np.clip(params.confusion, 1e-12, None))
        log_post = np.tile(np.log(np.clip(params.prior, 1e-12, None)),
                           (answers.n_tasks, 1))
        contributions = log_conf[workers, :, values]
        np.add.at(log_post, tasks, contributions)
        return log_normalize_rows(log_post)

    start = normalize_rows(answers.vote_counts())
    return run_em(initial_posterior=start, m_step=m_step, e_step=e_step,
                  tolerance=tolerance, max_iter=max_iter)


def reference_zc(answers, tolerance, max_iter):
    """Pre-refactor ZC; returns ``(EMOutcome, final worker quality)``."""
    tasks, workers = answers.tasks, answers.workers
    values = answers.values.astype(np.int64)
    n_choices = answers.n_choices

    def e_step(quality):
        q = np.clip(quality, 1e-10, 1 - 1e-10)
        log_correct = np.log(q)
        log_wrong = np.log((1.0 - q) / max(n_choices - 1, 1))
        log_post = np.zeros((answers.n_tasks, n_choices))
        base = np.bincount(tasks, weights=log_wrong[workers],
                           minlength=answers.n_tasks)
        log_post += base[:, None]
        bonus = (log_correct - log_wrong)[workers]
        np.add.at(log_post, (tasks, values), bonus)
        return log_normalize_rows(log_post)

    def m_step(posterior):
        matched = posterior[tasks, values]
        sums = np.bincount(workers, weights=matched,
                           minlength=answers.n_workers)
        counts = np.maximum(answers.worker_answer_counts(), 1)
        return sums / counts

    start = normalize_rows(answers.vote_counts())
    outcome = run_em(initial_posterior=start, m_step=m_step, e_step=e_step,
                     tolerance=tolerance, max_iter=max_iter)
    return outcome, m_step(outcome.posterior)


def reference_glad(answers, tolerance, max_iter, learning_rate=0.05,
                   gradient_steps=12, prior_strength=0.5):
    """Pre-refactor GLAD (cold start); returns
    ``(posterior, alpha, easiness, tracker)``."""
    from repro.methods.glad import _sigmoid

    tasks, workers = answers.tasks, answers.workers
    values = answers.values.astype(np.int64)
    n_choices = answers.n_choices
    alpha = np.ones(answers.n_workers)
    log_beta = np.zeros(answers.n_tasks)

    def e_step(alpha, log_beta):
        p_correct = _sigmoid(alpha[workers] * np.exp(log_beta[tasks]))
        p_correct = np.clip(p_correct, 1e-10, 1 - 1e-10)
        log_c = np.log(p_correct)
        log_w = np.log((1.0 - p_correct) / max(n_choices - 1, 1))
        log_post = np.zeros((answers.n_tasks, n_choices))
        base = np.bincount(tasks, weights=log_w, minlength=answers.n_tasks)
        log_post += base[:, None]
        np.add.at(log_post, (tasks, values), log_c - log_w)
        return log_normalize_rows(log_post)

    posterior = normalize_rows(answers.vote_counts())
    tracker = ConvergenceTracker(tolerance=tolerance, max_iter=max_iter)
    while True:
        match = posterior[tasks, values]
        for _ in range(gradient_steps):
            beta = np.exp(log_beta)
            p = _sigmoid(alpha[workers] * beta[tasks])
            residual = match - p
            grad_alpha = np.bincount(
                workers, weights=residual * beta[tasks],
                minlength=answers.n_workers,
            ) - prior_strength * (alpha - 1.0)
            grad_logbeta = np.bincount(
                tasks, weights=residual * alpha[workers] * beta[tasks],
                minlength=answers.n_tasks,
            ) - prior_strength * log_beta
            alpha = alpha + learning_rate * grad_alpha
            log_beta = log_beta + learning_rate * grad_logbeta
            log_beta = np.clip(log_beta, -5.0, 5.0)
            alpha = np.clip(alpha, -10.0, 10.0)
        posterior = e_step(alpha, log_beta)
        if tracker.update(posterior):
            break
    return posterior, alpha, np.exp(log_beta), tracker


def reference_lfc_n(answers, tolerance, max_iter, min_variance=1e-6,
                    golden=None):
    """Pre-refactor LFC_N; returns ``(truths, variance, tracker)``."""
    tasks, workers, values = answers.tasks, answers.workers, answers.values
    counts_w = np.maximum(answers.worker_answer_counts(), 1)
    counts_t = np.maximum(answers.task_answer_counts(), 1)

    def weighted_truths(variance):
        weights = 1.0 / variance[workers]
        numer = np.bincount(tasks, weights=weights * values,
                            minlength=answers.n_tasks)
        denom = np.bincount(tasks, weights=weights,
                            minlength=answers.n_tasks)
        return numer / np.where(denom > 0, denom, 1.0)

    truths = np.bincount(tasks, weights=values,
                         minlength=answers.n_tasks) / counts_t
    truths = clamp_golden_values(truths, golden)
    tracker = ConvergenceTracker(tolerance=tolerance, max_iter=max_iter)
    while True:
        residual = (values - truths[tasks]) ** 2
        sums = np.bincount(workers, weights=residual,
                           minlength=answers.n_workers)
        variance = np.maximum(sums / counts_w, min_variance)
        truths = clamp_golden_values(weighted_truths(variance), golden)
        if tracker.update(truths):
            break
    return truths, variance, tracker

# ----------------------------------------------------------------------
# Method-zoo references (frozen pre-sharding copies of the 9 methods
# converted by the map-reduce refactor; consumed by
# tests/properties/test_property_method_zoo.py and
# benchmarks/bench_method_zoo.py).
# ----------------------------------------------------------------------


def _catd_normalize(weights):
    total = weights.sum()
    if total <= 0:
        return np.full_like(weights, 1.0 / max(len(weights), 1))
    return weights * (len(weights) / total)


def reference_catd(answers, tolerance, max_iter, seed=None, golden=None,
                   initial_quality=None, confidence=0.975,
                   regularization=0.01):
    """Pre-refactor CATD; returns
    ``(truths, weights, posterior, tracker)``."""
    from repro.inference.distributions import chi_square_confidence

    rng = np.random.default_rng(seed)
    tasks = answers.tasks
    workers = answers.workers
    categorical = answers.task_type.is_categorical
    values = answers.values.astype(np.int64) if categorical else answers.values

    coefficient = chi_square_confidence(
        answers.worker_answer_counts(), confidence
    )
    if initial_quality is not None:
        weights = coefficient * np.clip(initial_quality, 0.05, 1.0)
    else:
        weights = np.where(coefficient > 0, coefficient, 0.0)
    weights = _catd_normalize(weights)

    if not categorical:
        scale = np.std(values) if np.std(values) > 0 else 1.0

    tracker = ConvergenceTracker(tolerance=tolerance, max_iter=max_iter)
    posterior = None
    while True:
        w = weights[workers]
        if categorical:
            scores = np.zeros((answers.n_tasks, answers.n_choices))
            np.add.at(scores, (tasks, values), w)
            posterior = clamp_golden_posterior(normalize_rows(scores), golden)
            truths = posterior.argmax(axis=1)
            distances = (values != truths[tasks]).astype(np.float64)
        else:
            numer = np.bincount(tasks, weights=w * values,
                                minlength=answers.n_tasks)
            denom = np.bincount(tasks, weights=w, minlength=answers.n_tasks)
            denom = np.where(denom > 0, denom, 1.0)
            truths = clamp_golden_values(numer / denom, golden)
            distances = ((values - truths[tasks]) / scale) ** 2

        losses = np.bincount(workers, weights=distances,
                             minlength=answers.n_workers)
        weights = _catd_normalize(coefficient / (losses + regularization))
        if tracker.update(weights):
            break

    final = decode_posterior(posterior, rng) if categorical else truths
    return final, weights, posterior, tracker


def reference_pm(answers, tolerance, max_iter, seed=None, golden=None,
                 initial_quality=None, regularization=0.01):
    """Pre-refactor PM; returns
    ``(truths, weights, posterior, tracker)``."""
    rng = np.random.default_rng(seed)
    tasks = answers.tasks
    workers = answers.workers

    if initial_quality is None:
        weights = np.ones(answers.n_workers)
    else:
        miss = np.clip(1.0 - np.asarray(initial_quality, dtype=np.float64),
                       regularization, 1.0)
        weights = np.maximum(-np.log(miss), regularization)

    def quality_step(distances):
        sums = np.bincount(workers, weights=distances,
                           minlength=answers.n_workers)
        sums = sums + regularization
        worst = sums.max()
        return -np.log(sums / worst) + regularization

    tracker = ConvergenceTracker(tolerance=tolerance, max_iter=max_iter)
    if answers.task_type.is_categorical:
        values = answers.values.astype(np.int64)
        scores = np.zeros((answers.n_tasks, answers.n_choices))
        while True:
            scores.fill(0.0)
            np.add.at(scores, (tasks, values), weights[workers])
            posterior = clamp_golden_posterior(normalize_rows(scores), golden)
            truths = decode_posterior(posterior, rng)
            distances = (values != truths[tasks]).astype(np.float64)
            weights = quality_step(distances)
            if tracker.update(weights):
                break
        return decode_posterior(posterior, rng), weights, posterior, tracker

    values = answers.values
    scale = np.std(values) if np.std(values) > 0 else 1.0
    while True:
        w = weights[workers]
        numer = np.bincount(tasks, weights=w * values,
                            minlength=answers.n_tasks)
        denom = np.bincount(tasks, weights=w, minlength=answers.n_tasks)
        denom = np.where(denom > 0, denom, 1.0)
        truths = clamp_golden_values(numer / denom, golden)
        distances = ((values - truths[tasks]) / scale) ** 2
        weights = quality_step(distances)
        if tracker.update(weights):
            break
    return truths, weights, None, tracker


def _vi_initial_mu(answers, initial_quality):
    from repro.core.tasktypes import LABEL_TRUE

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


def _vi_clamp_mu(mu, golden):
    from repro.core.tasktypes import LABEL_TRUE

    if not golden:
        return mu
    for task, label in golden.items():
        mu[task] = 1.0 if int(label) == LABEL_TRUE else 0.0
    return mu


def _vi_accumulate(answers, said_true, mu):
    mu_edge = mu[answers.tasks]
    correct_t = np.bincount(answers.workers, weights=mu_edge * said_true,
                            minlength=answers.n_workers)
    incorrect_t = np.bincount(answers.workers, weights=mu_edge * ~said_true,
                              minlength=answers.n_workers)
    correct_f = np.bincount(answers.workers,
                            weights=(1 - mu_edge) * ~said_true,
                            minlength=answers.n_workers)
    incorrect_f = np.bincount(answers.workers,
                              weights=(1 - mu_edge) * said_true,
                              minlength=answers.n_workers)
    return correct_t, incorrect_t, correct_f, incorrect_f


def _vi_result(answers, mu, counts, tracker, rng, prior):
    from repro.core.tasktypes import LABEL_TRUE  # noqa: F401
    from repro.inference.variational import posterior_mean_accuracy

    correct_t, incorrect_t, correct_f, incorrect_f = counts
    sensitivity = posterior_mean_accuracy(correct_t, incorrect_t, prior)
    specificity = posterior_mean_accuracy(correct_f, incorrect_f, prior)
    posterior = np.column_stack([1.0 - mu, mu])
    truths = decode_posterior(posterior, rng)
    return truths, (sensitivity + specificity) / 2.0, posterior, tracker


def reference_vi_mf(answers, tolerance, max_iter, seed=None, golden=None,
                    initial_quality=None, prior_a=2.0, prior_b=1.0):
    """Pre-refactor VI-MF; returns
    ``(truths, quality, posterior, tracker)``."""
    from repro.core.tasktypes import LABEL_FALSE, LABEL_TRUE
    from repro.inference.variational import (
        BetaPrior,
        expected_log_beta_counts,
    )

    rng = np.random.default_rng(seed)
    prior = BetaPrior(a=prior_a, b=prior_b)
    said_true = answers.values.astype(np.int64) == LABEL_TRUE
    mu = _vi_clamp_mu(_vi_initial_mu(answers, initial_quality), golden)
    tracker = ConvergenceTracker(tolerance=tolerance, max_iter=max_iter)
    counts = _vi_accumulate(answers, said_true, mu)
    while True:
        correct_t, incorrect_t, correct_f, incorrect_f = counts
        els_t, elf_t = expected_log_beta_counts(correct_t, incorrect_t, prior)
        els_f, elf_f = expected_log_beta_counts(correct_f, incorrect_f, prior)
        from scipy.special import digamma

        prev_t = 1.0 + float(mu.sum())
        prev_f = 1.0 + float(len(mu) - mu.sum())
        total = digamma(prev_t + prev_f)
        log_prev_t = np.array([digamma(prev_t) - total])
        log_prev_f = np.array([digamma(prev_f) - total])
        log_t = np.where(said_true, els_t[answers.workers],
                         elf_t[answers.workers])
        log_f = np.where(said_true, elf_f[answers.workers],
                         els_f[answers.workers])
        log_post = np.zeros((answers.n_tasks, 2))
        log_post[:, LABEL_TRUE] = float(log_prev_t[0]) + np.bincount(
            answers.tasks, weights=log_t, minlength=answers.n_tasks)
        log_post[:, LABEL_FALSE] = float(log_prev_f[0]) + np.bincount(
            answers.tasks, weights=log_f, minlength=answers.n_tasks)
        posterior = log_normalize_rows(log_post)
        mu = _vi_clamp_mu(posterior[:, LABEL_TRUE].copy(), golden)
        counts = _vi_accumulate(answers, said_true, mu)
        if tracker.update(mu):
            break
    return _vi_result(answers, mu, counts, tracker, rng, prior)


def reference_vi_bp(answers, tolerance, max_iter, seed=None, golden=None,
                    initial_quality=None, prior_a=2.0, prior_b=1.0):
    """Pre-refactor VI-BP; returns
    ``(truths, quality, posterior, tracker)``."""
    from repro.core.tasktypes import LABEL_FALSE, LABEL_TRUE
    from repro.inference.variational import (
        BetaPrior,
        posterior_mean_accuracy,
    )

    rng = np.random.default_rng(seed)
    prior = BetaPrior(a=prior_a, b=prior_b)
    a = answers
    said_true = a.values.astype(np.int64) == LABEL_TRUE
    mu = _vi_clamp_mu(_vi_initial_mu(a, initial_quality), golden)
    tracker = ConvergenceTracker(tolerance=tolerance, max_iter=max_iter)
    counts = _vi_accumulate(a, said_true, mu)
    while True:
        correct_t, incorrect_t, correct_f, incorrect_f = counts
        mu_edge = mu[a.tasks]
        cav_ct = correct_t[a.workers] - mu_edge * said_true
        cav_it = incorrect_t[a.workers] - mu_edge * ~said_true
        cav_cf = correct_f[a.workers] - (1 - mu_edge) * ~said_true
        cav_if = incorrect_f[a.workers] - (1 - mu_edge) * said_true
        cav = [np.maximum(c, 0.0) for c in (cav_ct, cav_it, cav_cf, cav_if)]

        mean_s = np.clip(posterior_mean_accuracy(cav[0], cav[1], prior),
                         1e-10, 1 - 1e-10)
        mean_t = np.clip(posterior_mean_accuracy(cav[2], cav[3], prior),
                         1e-10, 1 - 1e-10)
        log_msg_t = np.where(said_true, np.log(mean_s), np.log1p(-mean_s))
        log_msg_f = np.where(said_true, np.log1p(-mean_t), np.log(mean_t))

        log_post = np.zeros((a.n_tasks, 2))
        log_post[:, LABEL_TRUE] = np.bincount(a.tasks, weights=log_msg_t,
                                              minlength=a.n_tasks)
        log_post[:, LABEL_FALSE] = np.bincount(a.tasks, weights=log_msg_f,
                                               minlength=a.n_tasks)
        posterior = log_normalize_rows(log_post)
        mu = _vi_clamp_mu(posterior[:, LABEL_TRUE].copy(), golden)
        counts = _vi_accumulate(a, said_true, mu)
        if tracker.update(mu):
            break
    return _vi_result(a, mu, counts, tracker, rng, prior)


def _kos_edge_seed(tasks, workers, entropy):
    """Frozen copy of the library's layout-independent per-edge seed
    (splitmix64 over the (task, worker, entropy) key -> N(1, 1))."""
    from scipy.special import ndtri

    gamma = np.uint64(0x9E3779B97F4A7C15)
    mix1 = np.uint64(0xBF58476D1CE4E5B9)
    mix2 = np.uint64(0x94D049BB133111EB)
    key = (tasks.astype(np.uint64) << np.uint64(32)) ^ workers.astype(
        np.uint64)
    with np.errstate(over="ignore"):
        h = key + gamma * (np.uint64(entropy) + np.uint64(1))
        h ^= h >> np.uint64(30)
        h *= mix1
        h ^= h >> np.uint64(27)
        h *= mix2
        h ^= h >> np.uint64(31)
    u = ((h >> np.uint64(11)).astype(np.float64) + 0.5) / float(1 << 53)
    return 1.0 + ndtri(u)


def reference_kos(answers, n_rounds, seed=None):
    """Pre-refactor KOS loop shape with the layout-independent per-edge
    seeding; returns ``(truths, quality, posterior, scores)``."""
    from repro.core.tasktypes import LABEL_TRUE

    rng = np.random.default_rng(seed)
    tasks = answers.tasks
    workers = answers.workers
    spins = np.where(answers.values.astype(np.int64) == LABEL_TRUE, 1.0, -1.0)

    entropy = int(rng.integers(0, 2 ** 63))
    y = _kos_edge_seed(tasks, workers, entropy)
    x = np.zeros_like(y)

    for _ in range(n_rounds):
        task_totals = np.bincount(tasks, weights=spins * y,
                                  minlength=answers.n_tasks)
        x = task_totals[tasks] - spins * y
        worker_totals = np.bincount(workers, weights=spins * x,
                                    minlength=answers.n_workers)
        y = worker_totals[workers] - spins * x
        norm = np.sqrt(np.mean(y**2))
        if norm > 0:
            y = y / norm

    scores = np.bincount(tasks, weights=spins * y,
                         minlength=answers.n_tasks)
    truths = np.where(scores > 0, LABEL_TRUE, 1 - LABEL_TRUE)
    ties = scores == 0
    if ties.any():
        truths[ties] = rng.integers(0, 2, size=int(ties.sum()))

    alignment = spins * np.sign(scores)[tasks]
    sums = np.bincount(workers, weights=alignment,
                       minlength=answers.n_workers)
    counts = np.maximum(answers.worker_answer_counts(), 1)
    quality = (sums / counts + 1.0) / 2.0

    posterior = np.zeros((answers.n_tasks, 2))
    posterior[np.arange(answers.n_tasks), truths] = 1.0
    return truths, quality, posterior, scores


def reference_minimax(answers, tolerance, max_iter, seed=None, golden=None,
                      learning_rate=0.5, gradient_steps=20, l2_tau=3.0,
                      l2_sigma=0.01, prior_temper=0.7):
    """Pre-refactor Minimax; returns
    ``(truths, quality, posterior, tracker, tau, sigma)``."""
    rng = np.random.default_rng(seed)
    tasks = answers.tasks
    workers = answers.workers
    values = answers.values.astype(np.int64)
    n_tasks, n_workers = answers.n_tasks, answers.n_workers
    n_choices = answers.n_choices
    count_t = np.maximum(answers.task_answer_counts(), 1)[:, None]
    count_w = np.maximum(answers.worker_answer_counts(), 1)[:, None, None]

    posterior = clamp_golden_posterior(
        normalize_rows(answers.vote_counts()), golden)

    counts = np.zeros((n_workers, n_choices, n_choices))
    np.add.at(counts, (workers, values), posterior[tasks])
    confusion = counts.transpose(0, 2, 1) + 1.0
    confusion /= confusion.sum(axis=2, keepdims=True)
    sigma = np.log(confusion)
    tau = np.zeros((n_tasks, n_choices))

    def model_log_probs(tau, sigma):
        scores = tau[tasks][:, None, :] + sigma[workers]
        scores = scores - scores.max(axis=2, keepdims=True)
        log_z = np.log(np.exp(scores).sum(axis=2, keepdims=True))
        return scores - log_z

    edge_index = np.arange(len(values))
    tracker = ConvergenceTracker(tolerance=tolerance, max_iter=max_iter)
    while True:
        for _ in range(gradient_steps):
            log_pi = model_log_probs(tau, sigma)
            pi = np.exp(log_pi)
            post_edge = posterior[tasks]
            expected = post_edge[:, :, None] * pi
            observed = np.zeros_like(expected)
            observed[edge_index, :, values] = post_edge
            residual = observed - expected

            grad_tau = np.zeros_like(tau)
            np.add.at(grad_tau, tasks, residual.sum(axis=1))
            grad_sigma = np.zeros_like(sigma)
            np.add.at(grad_sigma, workers, residual)

            tau += learning_rate * (grad_tau / count_t - l2_tau * tau)
            sigma += learning_rate * (grad_sigma / count_w - l2_sigma * sigma)

        class_prior = np.clip(posterior.mean(axis=0), 1e-6, None)
        class_prior = class_prior / class_prior.sum()
        log_pi = model_log_probs(tau, sigma)
        edge_ll = log_pi[edge_index, :, values]
        log_post = np.tile(prior_temper * np.log(class_prior), (n_tasks, 1))
        np.add.at(log_post, tasks, edge_ll)
        posterior = clamp_golden_posterior(log_normalize_rows(log_post),
                                           golden)
        if tracker.update(posterior):
            break

    softmax_sigma = np.exp(sigma - sigma.max(axis=2, keepdims=True))
    softmax_sigma /= softmax_sigma.sum(axis=2, keepdims=True)
    diag = np.arange(n_choices)
    quality = softmax_sigma[:, diag, diag].mean(axis=1)
    truths = decode_posterior(posterior, rng)
    return truths, quality, posterior, tracker, tau, sigma


def reference_minimax_ordinal(answers, tolerance, max_iter, seed=None,
                              golden=None, learning_rate=0.5,
                              gradient_steps=20, l2_tau=3.0, l2_omega=0.01,
                              prior_temper=0.7):
    """Pre-refactor Minimax-Ord; returns
    ``(truths, quality, posterior, tracker, tau, omega, sigma)``."""
    rng = np.random.default_rng(seed)
    tasks = answers.tasks
    workers = answers.workers
    values = answers.values.astype(np.int64)
    n_tasks, n_workers = answers.n_tasks, answers.n_workers
    n_choices = answers.n_choices
    n_splits = max(n_choices - 1, 1)
    count_t = np.maximum(answers.task_answer_counts(), 1)[:, None]
    count_w = np.maximum(answers.worker_answer_counts(),
                         1)[:, None, None, None]

    splits = np.arange(1, n_splits + 1)
    labels = np.arange(n_choices)
    side = (labels[None, :] >= splits[:, None]).astype(np.int64)

    posterior = clamp_golden_posterior(
        normalize_rows(answers.vote_counts()), golden)

    counts2 = np.zeros((n_workers, n_splits, 2, 2))
    truth_hat = posterior.argmax(axis=1)
    for s in range(n_splits):
        truth_side = side[s][truth_hat[tasks]]
        answer_side = side[s][values]
        np.add.at(counts2, (workers, s, truth_side, answer_side), 1.0)
    counts2 += 1.0
    omega = np.log(counts2 / counts2.sum(axis=3, keepdims=True))

    def sigma_from_omega(omega):
        sigma = np.zeros((n_workers, n_choices, n_choices))
        for s in range(n_splits):
            sigma += omega[:, s][:, side[s][:, None], side[s][None, :]]
        return sigma

    def model_log_probs(tau, sigma):
        scores = tau[tasks][:, None, :] + sigma[workers]
        scores = scores - scores.max(axis=2, keepdims=True)
        log_z = np.log(np.exp(scores).sum(axis=2, keepdims=True))
        return scores - log_z

    tau = np.zeros((n_tasks, n_choices))
    edge_index = np.arange(len(values))
    tracker = ConvergenceTracker(tolerance=tolerance, max_iter=max_iter)
    while True:
        for _ in range(gradient_steps):
            sigma = sigma_from_omega(omega)
            log_pi = model_log_probs(tau, sigma)
            pi = np.exp(log_pi)
            post_edge = posterior[tasks]
            expected = post_edge[:, :, None] * pi
            observed = np.zeros_like(expected)
            observed[edge_index, :, values] = post_edge
            residual = observed - expected

            grad_tau = np.zeros_like(tau)
            np.add.at(grad_tau, tasks, residual.sum(axis=1))

            grad_sigma = np.zeros((n_workers, n_choices, n_choices))
            np.add.at(grad_sigma, workers, residual)
            grad_omega = np.zeros_like(omega)
            for s in range(n_splits):
                for a in (0, 1):
                    for b in (0, 1):
                        mask = ((side[s][:, None] == a)
                                & (side[s][None, :] == b))
                        grad_omega[:, s, a, b] = grad_sigma[:, mask].sum(
                            axis=1)

            tau += learning_rate * (grad_tau / count_t - l2_tau * tau)
            omega += learning_rate * (grad_omega / count_w
                                      - l2_omega * omega)

        sigma = sigma_from_omega(omega)
        class_prior = np.clip(posterior.mean(axis=0), 1e-6, None)
        class_prior = class_prior / class_prior.sum()
        log_pi = model_log_probs(tau, sigma)
        edge_ll = log_pi[edge_index, :, values]
        log_post = np.tile(prior_temper * np.log(class_prior), (n_tasks, 1))
        np.add.at(log_post, tasks, edge_ll)
        posterior = clamp_golden_posterior(log_normalize_rows(log_post),
                                           golden)
        if tracker.update(posterior):
            break

    sigma = sigma_from_omega(omega)
    softmax_sigma = np.exp(sigma - sigma.max(axis=2, keepdims=True))
    softmax_sigma /= softmax_sigma.sum(axis=2, keepdims=True)
    diag = np.arange(n_choices)
    quality = softmax_sigma[:, diag, diag].mean(axis=1)
    truths = decode_posterior(posterior, rng)
    return truths, quality, posterior, tracker, tau, omega, sigma


def reference_bcc(answers, n_samples, burn_in, seed=None, golden=None,
                  alpha_diagonal=2.0, alpha_off_diagonal=1.0,
                  beta_prior=1.0):
    """Pre-refactor BCC; returns
    ``(truths, quality, posterior, mean_confusion)``."""
    from repro.inference.distributions import sample_dirichlet_rows

    rng = np.random.default_rng(seed)
    tasks = answers.tasks
    workers = answers.workers
    values = answers.values.astype(np.int64)
    n_choices = answers.n_choices
    n_workers = answers.n_workers
    n_tasks = answers.n_tasks
    alpha = np.full((n_choices, n_choices), alpha_off_diagonal)
    np.fill_diagonal(alpha, alpha_diagonal)

    posterior = clamp_golden_posterior(
        normalize_rows(answers.vote_counts()), golden)
    tally = np.zeros((n_tasks, n_choices))
    confusion_sum = np.zeros((n_workers, n_choices, n_choices))
    retained = 0

    total_sweeps = burn_in + n_samples
    for sweep in range(total_sweeps):
        counts = np.zeros((n_workers, n_choices, n_choices))
        np.add.at(counts, (workers, values), posterior[tasks])
        confusion = sample_dirichlet_rows(
            counts.transpose(0, 2, 1) + alpha, rng)

        prior = sample_dirichlet_rows(
            posterior.sum(axis=0) + beta_prior, rng)

        log_conf = np.log(np.clip(confusion, 1e-12, None))
        log_post = np.tile(np.log(np.clip(prior, 1e-12, None)),
                           (n_tasks, 1))
        np.add.at(log_post, tasks, log_conf[workers, :, values])
        posterior = clamp_golden_posterior(
            log_normalize_rows(log_post), golden)

        if sweep >= burn_in:
            tally += posterior
            confusion_sum += confusion
            retained += 1

    final = tally / max(retained, 1)
    final = clamp_golden_posterior(final, golden)
    mean_confusion = confusion_sum / max(retained, 1)
    diag = np.arange(n_choices)
    quality = mean_confusion[:, diag, diag].mean(axis=1)
    truths = decode_posterior(final, rng)
    return truths, quality, final, mean_confusion


def reference_cbcc(answers, n_communities, n_samples, burn_in, seed=None,
                   alpha_diagonal=4.0, alpha_off_diagonal=1.0,
                   beta_prior=1.0, community_prior=1.0):
    """Pre-refactor CBCC; returns
    ``(truths, quality, posterior, membership)``."""
    from repro.inference.distributions import (
        sample_categorical_rows,
        sample_dirichlet_rows,
    )

    rng = np.random.default_rng(seed)
    tasks = answers.tasks
    workers = answers.workers
    values = answers.values.astype(np.int64)
    n_choices = answers.n_choices
    n_workers = answers.n_workers
    n_tasks = answers.n_tasks
    n_comm = n_communities
    diag = np.arange(n_choices)

    alpha = np.full((n_comm, n_choices, n_choices), alpha_off_diagonal)
    for m in range(n_comm):
        strength = alpha_diagonal * (m + 1) / n_comm
        alpha[m, diag, diag] = max(strength, alpha_off_diagonal)

    posterior = normalize_rows(answers.vote_counts())
    membership = rng.integers(0, n_comm, size=n_workers)
    tally = np.zeros((n_tasks, n_choices))
    quality_sum = np.zeros(n_workers)
    retained = 0

    total_sweeps = burn_in + n_samples
    for sweep in range(total_sweeps):
        worker_counts = np.zeros((n_workers, n_choices, n_choices))
        np.add.at(worker_counts, (workers, values), posterior[tasks])
        worker_counts = worker_counts.transpose(0, 2, 1)  # (w, j, k)
        comm_counts = np.zeros((n_comm, n_choices, n_choices))
        np.add.at(comm_counts, membership, worker_counts)
        confusion = sample_dirichlet_rows(comm_counts + alpha, rng)
        log_conf = np.log(np.clip(confusion, 1e-12, None))

        worker_ll = np.einsum("wjk,mjk->wm", worker_counts, log_conf)
        comm_sizes = np.bincount(membership, minlength=n_comm)
        log_size_prior = np.log(comm_sizes + community_prior)
        membership = sample_categorical_rows(
            log_normalize_rows(worker_ll + log_size_prior), rng)

        prior = sample_dirichlet_rows(
            posterior.sum(axis=0) + beta_prior, rng)
        log_post = np.tile(np.log(np.clip(prior, 1e-12, None)),
                           (n_tasks, 1))
        np.add.at(log_post, tasks,
                  log_conf[membership[workers], :, values])
        posterior = log_normalize_rows(log_post)

        if sweep >= burn_in:
            tally += posterior
            quality_sum += confusion[membership][:, diag, diag].mean(axis=1)
            retained += 1

    final = tally / max(retained, 1)
    quality = quality_sum / max(retained, 1)
    truths = decode_posterior(final, rng)
    return truths, quality, final, membership
