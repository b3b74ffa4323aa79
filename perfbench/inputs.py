"""Seeded input generators, one per benchmark workload.

Each generator takes the seed and a size (``"full"`` for the measured
runs, ``"tiny"`` for the self-tests) and returns a :class:`Inputs`: the
base corpus ingested during set-up, the batches of one episode, and the
hidden truth the final accuracy is scored against.  Everything is built
before any timing starts; the engine only ever sees these values.

The two numeric-id workloads reuse the stream builders of the existing
delta-refit benchmark (``cohort_stream`` / ``skew_stream``).  Those
builders do not return their hidden truth, so it is re-derived here
from the same seeded draw: both call ``default_rng(seed)`` and draw the
truth vector first.  The accuracy check would fail loudly if that ever
changed.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from benchmarks.bench_delta_refit import cohort_stream, skew_stream

#: Redundancy both delta-refit stream builders default to.
_REDUNDANCY = 8


@dataclasses.dataclass(frozen=True)
class Inputs:
    """One workload's generated inputs.

    ``base`` and every entry of ``batches`` are lists of ``(task,
    worker, value)`` records, except for ``firehose_ingest``, where
    they are ``task,worker,label`` text (one answer per line).
    ``truth`` maps each external task id to its hidden true label;
    ``chunk`` is the lines per ``add_answers`` batch of text inputs.
    """

    workload: str
    base: object
    batches: list
    truth: dict
    chunk: int = 0

    def digest(self) -> str:
        """SHA-256 over every generated input byte (the determinism key)."""
        h = hashlib.sha256()
        for part in (self.base, *self.batches):
            h.update(repr(part).encode())
        h.update(repr(sorted(self.truth.items())).encode())
        return h.hexdigest()


# ----------------------------------------------------------------------
# cohort_delta
# ----------------------------------------------------------------------
COHORT_BASE = {"full": 100_000, "tiny": 4_000}
#: The new cohort is 5% growth spread over 200 arrivals; an episode
#: replays the first ``COHORT_CYCLES`` of them (25 answers each at full
#: size), the data-sparse arrivals whose refits dominate a cohort's bill.
COHORT_GROWTH = 0.05
COHORT_STEPS = {"full": 200, "tiny": 20}
COHORT_CYCLES = {"full": 12, "tiny": 3}


def cohort_delta(seed: int, size: str = "full") -> Inputs:
    """A converged base corpus plus small batches from a new task cohort."""
    base_answers = COHORT_BASE[size]
    stream = cohort_stream(base_answers, seed=seed, steps=COHORT_STEPS[size],
                           growth=COHORT_GROWTH)
    n_tasks = base_answers // _REDUNDANCY
    new_tasks = max(2, int(base_answers * COHORT_GROWTH) // _REDUNDANCY)
    truth = np.random.default_rng(seed).integers(0, 2, n_tasks + new_tasks)
    batches = stream[1:1 + COHORT_CYCLES[size]]
    return Inputs(
        workload="cohort_delta",
        base=stream[0],
        batches=batches,
        truth={str(t): int(v) for t, v in enumerate(truth)},
    )


# ----------------------------------------------------------------------
# process_mixed_reads
# ----------------------------------------------------------------------
MIXED_BASE = {"full": 100_000, "tiny": 4_000}
#: Uniform growth of 1% of the base per cycle: every shard is dirty.
MIXED_GROWTH = 0.01
MIXED_CYCLES = {"full": 8, "tiny": 2}
#: Answers per task.  At the builders' default of 8 the iterations a
#: default-tolerance D&S fit needs vary 9-15 between seeds (37-40 on
#: some); at 16 they vary 6-10, which keeps the cold reads' cost close
#: to seed-independent.
MIXED_REDUNDANCY = 16


def process_mixed_reads(seed: int, size: str = "full") -> Inputs:
    """A fixed task universe growing uniformly, one batch per cycle."""
    base_answers = MIXED_BASE[size]
    stream = skew_stream(base_answers, "uniform", MIXED_GROWTH, seed=seed,
                         steps=MIXED_CYCLES[size],
                         redundancy=MIXED_REDUNDANCY)
    n_tasks = base_answers // MIXED_REDUNDANCY
    truth = np.random.default_rng(seed).integers(0, 2, n_tasks)
    return Inputs(
        workload="process_mixed_reads",
        base=stream[0],
        batches=stream[1:],
        truth={str(t): int(v) for t, v in enumerate(truth)},
    )


# ----------------------------------------------------------------------
# firehose_ingest
# ----------------------------------------------------------------------
FIREHOSE_LINES = {"full": 240_000, "tiny": 6_000}
#: Share of the lines ingested during set-up (the base corpus).
FIREHOSE_BASE_SHARE = 0.2
#: Lines per ``add_answers`` batch, and batches per truth refresh.
FIREHOSE_CHUNK = {"full": 2_000, "tiny": 250}
FIREHOSE_REFRESH_EVERY = 16
#: Share of workers who revise earlier answers, and revisions as a
#: share of all lines.
FIREHOSE_REVISERS = 0.2
FIREHOSE_REVISIONS = 0.1
FIREHOSE_LABELS = ("no", "yes")
#: Answers per task: many answers over a task universe small enough
#: that a full read stays a few milliseconds.
FIREHOSE_REDUNDANCY = 32


def firehose_ingest(seed: int, size: str = "full") -> Inputs:
    """String-id answer lines in arrival order, some revising earlier ones.

    A revision repeats an earlier ``(task, worker)`` pair of a revising
    worker with a freshly drawn answer, so under
    ``on_duplicate="replace"`` it overwrites in place.  Each revision
    arrives after the answer it revises.  ``batches`` holds one text
    chunk per refresh cycle (``FIREHOSE_REFRESH_EVERY`` batches of
    ``FIREHOSE_CHUNK`` lines).
    """
    rng = np.random.default_rng(seed)
    n_lines = FIREHOSE_LINES[size]
    n_revisions = int(n_lines * FIREHOSE_REVISIONS)
    n_original = n_lines - n_revisions
    n_tasks = max(2, n_original // FIREHOSE_REDUNDANCY)
    n_workers = max(16, n_original // 400)
    truth = rng.integers(0, 2, n_tasks)
    accuracy = rng.beta(3, 2, n_workers)
    tasks = rng.integers(0, n_tasks, n_original)
    workers = rng.integers(0, n_workers, n_original)
    revisers = np.flatnonzero(rng.random(n_workers) < FIREHOSE_REVISERS)
    candidates = np.flatnonzero(np.isin(workers, revisers))
    source = np.sort(rng.choice(candidates, n_revisions))
    tasks = np.concatenate([tasks, tasks[source]])
    workers = np.concatenate([workers, workers[source]])
    correct = rng.random(n_lines) < accuracy[workers]
    values = np.where(correct, truth[tasks], 1 - truth[tasks])
    # Arrival order: a revision lands a random distance after its source.
    delay = rng.integers(1, max(2, n_lines // 10), n_revisions)
    key = np.concatenate([np.arange(n_original), source + delay])
    order = np.argsort(key, kind="stable")
    lines = [f"task-{t:07d},worker-{w:05d},{FIREHOSE_LABELS[v]}\n"
             for t, w, v in zip(tasks[order].tolist(),
                                workers[order].tolist(),
                                values[order].tolist())]
    n_base = int(n_lines * FIREHOSE_BASE_SHARE)
    per_cycle = FIREHOSE_CHUNK[size] * FIREHOSE_REFRESH_EVERY
    batches = ["".join(lines[i:i + per_cycle])
               for i in range(n_base, n_lines, per_cycle)]
    return Inputs(
        workload="firehose_ingest",
        base="".join(lines[:n_base]),
        batches=batches,
        truth={f"task-{t:07d}": FIREHOSE_LABELS[v]
               for t, v in enumerate(truth.tolist())},
        chunk=FIREHOSE_CHUNK[size],
    )


GENERATORS = {
    "cohort_delta": cohort_delta,
    "firehose_ingest": firehose_ingest,
    "process_mixed_reads": process_mixed_reads,
}
