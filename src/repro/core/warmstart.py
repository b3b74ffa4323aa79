"""Warm-start state expansion between answer-set snapshots.

The streaming protocol (see :mod:`repro.engine`) guarantees that task and
worker indices are *append-only*: when an answer set grows, every index
that existed in the previous snapshot still refers to the same task or
worker.  Warm-starting an iterative method on a grown snapshot therefore
reduces to *expanding* the previously fitted state — keeping the old
entries and filling sensible defaults for the new rows — and resuming the
two-step iteration from there.

The helpers here implement the expansions the iterative methods share:

* :func:`expand_posterior` — previous truth posterior, with newly arrived
  tasks seeded from majority voting (the paper's standard EM
  initialisation, and the documented fallback of the warm-start API);
* :func:`expand_task_vector` / :func:`expand_worker_vector` — per-task or
  per-worker parameter vectors padded with a fill value;
* :func:`diagonal_confusion` — fresh confusion matrices for workers that
  appeared after the previous fit.

Streams can also grow their **label space** (a value never seen before
arrives).  Label codes are append-only just like task/worker indices, so
fitted state expands along the choice axis the same way it does along
the task/worker axes: :func:`pad_posterior_labels`,
:func:`pad_confusion_labels` and :func:`pad_class_prior` give unseen
labels a small but non-zero probability mass (a hard zero would be
irrecoverable under multiplicative EM updates), and
:func:`pad_result_labels` applies all three to a cached
:class:`~repro.core.result.InferenceResult` so the engine can warm-start
across label growth instead of falling back to a cold refit.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .answers import AnswerSet
from .framework import normalize_rows
from .result import InferenceResult

#: Probability mass initially granted to a newly discovered label.
LABEL_PAD_EPSILON = 1e-3


def expand_posterior(previous: np.ndarray, answers: AnswerSet) -> np.ndarray:
    """Expand a previous truth posterior to cover ``answers``' tasks.

    Rows for tasks that existed when ``previous`` was fitted are kept
    as-is; rows for newly arrived tasks are seeded with normalised vote
    counts (majority voting) from the current answers.
    """
    previous = np.asarray(previous, dtype=np.float64)
    if previous.ndim != 2 or previous.shape[1] != answers.n_choices:
        raise ValueError(
            f"posterior shape {previous.shape} incompatible with "
            f"{answers.n_choices} choices"
        )
    if previous.shape[0] > answers.n_tasks:
        raise ValueError(
            f"posterior covers {previous.shape[0]} tasks but the answer "
            f"set only has {answers.n_tasks}"
        )
    if previous.shape[0] == answers.n_tasks:
        return previous.copy()
    out = normalize_rows(answers.vote_counts())
    out[: previous.shape[0]] = previous
    return out


def expand_task_vector(previous: np.ndarray, n_tasks: int,
                       fill: float | np.ndarray) -> np.ndarray:
    """Pad a per-task vector to ``n_tasks`` entries.

    ``fill`` is either a scalar or an array of length ``n_tasks`` from
    which the new tail entries are taken.
    """
    return _expand_vector(previous, n_tasks, fill, "tasks")


def expand_worker_vector(previous: np.ndarray, n_workers: int,
                         fill: float | np.ndarray) -> np.ndarray:
    """Pad a per-worker vector to ``n_workers`` entries."""
    return _expand_vector(previous, n_workers, fill, "workers")


def _expand_vector(previous: np.ndarray, size: int,
                   fill: float | np.ndarray, what: str) -> np.ndarray:
    previous = np.asarray(previous, dtype=np.float64)
    if previous.ndim != 1:
        raise ValueError(f"expected a 1-D per-{what[:-1]} vector")
    if len(previous) > size:
        raise ValueError(
            f"vector covers {len(previous)} {what} but the answer set "
            f"only has {size}"
        )
    fill_arr = np.asarray(fill, dtype=np.float64)
    if fill_arr.ndim == 0:
        out = np.full(size, float(fill_arr))
    else:
        if len(fill_arr) != size:
            raise ValueError(f"fill array must have length {size}")
        out = fill_arr.astype(np.float64).copy()
    out[: len(previous)] = previous
    return out


def pad_posterior_labels(posterior: np.ndarray, n_choices: int,
                         epsilon: float = LABEL_PAD_EPSILON) -> np.ndarray:
    """Expand a truth posterior along the label axis.

    New labels receive ``epsilon`` mass and every row is renormalised,
    so previously fitted beliefs survive (slightly discounted) while
    the new labels stay reachable by the next E-step.
    """
    posterior = np.asarray(posterior, dtype=np.float64)
    if posterior.ndim != 2:
        raise ValueError("posterior must be 2-D (n_tasks, n_choices)")
    grown = n_choices - posterior.shape[1]
    if grown < 0:
        raise ValueError(
            f"posterior already has {posterior.shape[1]} labels, cannot "
            f"shrink to {n_choices}; label codes are append-only"
        )
    if grown == 0:
        return posterior.copy()
    out = np.full((posterior.shape[0], n_choices), epsilon)
    out[:, : posterior.shape[1]] = posterior
    return normalize_rows(out)


def pad_class_prior(prior: np.ndarray, n_choices: int,
                    epsilon: float = LABEL_PAD_EPSILON) -> np.ndarray:
    """Expand a class prior with ``epsilon`` mass per new label."""
    prior = np.asarray(prior, dtype=np.float64)
    grown = n_choices - len(prior)
    if grown < 0:
        raise ValueError("label codes are append-only; cannot shrink prior")
    if grown == 0:
        return prior.copy()
    out = np.concatenate([prior, np.full(grown, epsilon)])
    return out / out.sum()


def pad_confusion_labels(confusion: np.ndarray, n_choices: int,
                         epsilon: float = LABEL_PAD_EPSILON) -> np.ndarray:
    """Expand ``(n_workers, l, l)`` confusion matrices to a grown label
    space.

    Existing truth rows get ``epsilon`` mass on the new answer columns;
    new truth rows start uniform (the worker's behaviour on a label
    nobody had seen is unknown).  All rows are renormalised.
    """
    confusion = np.asarray(confusion, dtype=np.float64)
    if confusion.ndim != 3 or confusion.shape[1] != confusion.shape[2]:
        raise ValueError("confusion must have shape (n_workers, l, l)")
    old = confusion.shape[1]
    if n_choices < old:
        raise ValueError("label codes are append-only; cannot shrink "
                         "confusion matrices")
    if n_choices == old:
        return confusion.copy()
    out = np.full((confusion.shape[0], n_choices, n_choices), epsilon)
    out[:, :old, :old] = confusion
    out[:, old:, :] = 1.0 / n_choices
    out /= out.sum(axis=2, keepdims=True)
    return out


def pad_result_labels(result: InferenceResult,
                      n_choices: int) -> InferenceResult:
    """A copy of ``result`` expanded to a grown label space.

    Pads the posterior and the label-indexed extras (``confusion``,
    ``class_prior``) so the copy satisfies the warm-start contract of a
    snapshot with ``n_choices`` labels; everything else is shared but
    the ``shard_state``, which is dropped: its cached blocks hold the
    old label count, so the next fit runs full and collects a new one.
    """
    if result.posterior is None:
        raise ValueError(
            "cannot pad a result without a posterior across label growth"
        )
    extras = dict(result.extras)
    if extras.get("confusion") is not None:
        extras["confusion"] = pad_confusion_labels(
            extras["confusion"], n_choices)
    if extras.get("class_prior") is not None:
        extras["class_prior"] = pad_class_prior(
            extras["class_prior"], n_choices)
    return dataclasses.replace(
        result,
        posterior=pad_posterior_labels(result.posterior, n_choices),
        extras=extras,
        shard_state=None,
    )


def neutral_accuracy(previous_quality: np.ndarray) -> float:
    """Seed accuracy for workers unseen by the previous fit.

    The mean quality of the known pool, clipped into ``[0.5, 0.95]`` so
    a newcomer neither dominates nor gets written off; ``0.7`` when the
    previous fit saw no workers at all.
    """
    previous_quality = np.asarray(previous_quality, dtype=np.float64)
    if previous_quality.size == 0:
        return 0.7
    return float(np.clip(np.mean(previous_quality), 0.5, 0.95))


def diagonal_confusion(n_workers: int, n_choices: int,
                       accuracy: float = 0.7) -> np.ndarray:
    """Fresh ``(n_workers, l, l)`` confusion matrices for unseen workers.

    Each worker gets ``accuracy`` on the diagonal and the remaining mass
    spread uniformly off it — the same shape qualification tests produce.
    """
    accuracy = float(np.clip(accuracy, 1e-3, 1 - 1e-3))
    off = (1.0 - accuracy) / max(n_choices - 1, 1)
    confusion = np.full((n_workers, n_choices, n_choices), off)
    idx = np.arange(n_choices)
    confusion[:, idx, idx] = accuracy
    return confusion
