"""Common experiment-running utilities.

Every experiment in Section 6 repeats the same pattern: build methods,
run them on (possibly transformed) answer sets, score against ground
truth, repeat over seeds, average.  This module centralises that loop so
the per-figure modules only express *what varies*.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Iterable, Mapping

import numpy as np

from ..core.policy import ExecutionPolicy, MethodSpec
from ..core.registry import capabilities, create, methods_for_task_type
from ..datasets.schema import Dataset


@dataclasses.dataclass
class MethodRun:
    """One method × dataset execution: scores plus timing."""

    method: str
    dataset: str
    scores: dict[str, float]
    elapsed_seconds: float
    n_iterations: int
    converged: bool


def run_method(
    method: str | MethodSpec,
    dataset: Dataset,
    seed: int = 0,
    golden: Mapping[int, float] | None = None,
    initial_quality: np.ndarray | None = None,
    policy: ExecutionPolicy | None = None,
) -> MethodRun:
    """Run one method on one dataset and score it.

    ``method`` is a registry name or a
    :class:`~repro.core.policy.MethodSpec` carrying construction
    kwargs.  With ``golden`` supplied, scoring excludes the golden
    tasks (hidden-test protocol: evaluate on ``T − T'``).  The fit is
    one-shot: it starts cold (its own majority-vote initialisation) and
    resumes from nothing.  ``policy`` decides how the fit executes,
    resolved against ``dataset.answers`` and handed to
    ``fit(policy=...)``: sharded EM for methods that support it
    (ignored for the rest, so grids can set one globally), and its
    process tier leases a persistent
    :class:`~repro.engine.runtime.ShardRuntime` from the shared
    registry — repeated calls on the same ``dataset.answers`` (a method
    sweep) reuse the warm pools and placed segments.  A per-job shard
    count is a per-job policy (:attr:`BatchJob.policy
    <repro.engine.batch.BatchJob.policy>`).
    """
    spec = MethodSpec.coerce(method).with_defaults(seed=seed)
    plan = None
    if policy is not None and capabilities(spec.name).sharding:
        plan = policy.resolve(dataset.answers)
    # fit(policy=...) owns the tier dispatch (in-process runners,
    # persistent-runtime leases); an unsharded plan means the plain fit.
    result = create(spec).fit(dataset.answers, golden=golden,
                              initial_quality=initial_quality,
                              policy=plan if plan is not None
                              and plan.sharded else None)
    exclude = set(int(t) for t in golden) if golden else None
    scores = dataset.score(result, exclude=exclude)
    return MethodRun(
        method=spec.name,
        dataset=dataset.name,
        scores=scores,
        elapsed_seconds=result.elapsed_seconds,
        n_iterations=result.n_iterations,
        converged=result.converged,
    )


def run_many(
    dataset: Dataset,
    methods: Iterable[str | MethodSpec] | None = None,
    seed: int = 0,
    max_workers: int | None = None,
    policy: ExecutionPolicy | None = None,
    **kwargs,
) -> list[MethodRun]:
    """Run several methods (default: all applicable) on one dataset.

    The fits run as :class:`~repro.engine.batch.BatchJob`\\ s on a
    :class:`~repro.engine.batch.BatchRunner`: serially without
    ``max_workers``, fanned out across its pool with it; results keep
    method order either way.  ``policy`` decides how each fit executes
    — sharded EM for the methods that support it, and its process tier
    runs those fits on the shared persistent runtime (one pool spawn +
    data placement for the whole sweep).
    """
    from ..engine.batch import BatchJob, BatchRunner

    if methods is None:
        methods = methods_for_task_type(dataset.task_type)
    jobs = [BatchJob(dataset=dataset, method=method, seed=seed,
                     policy=policy, **kwargs)
            for method in methods]
    return BatchRunner(max_workers=max_workers or 1).run(jobs)


def run_grid(
    datasets: Iterable[Dataset],
    methods: Iterable[str] | None = None,
    seed: int = 0,
    max_workers: int | None = None,
    policy: ExecutionPolicy | None = None,
) -> list[MethodRun]:
    """Cross datasets with applicable methods, optionally in parallel.

    Thin wrapper over :meth:`repro.engine.batch.BatchRunner.run_grid`
    so the comparison experiments can fan out without importing the
    engine package directly.  ``policy`` configures each fit's
    execution.
    """
    from ..engine.batch import BatchRunner

    return BatchRunner(max_workers=max_workers or 1,
                       policy=policy).run_grid(datasets, methods=methods,
                                               seed=seed)


def average_scores(runs: list[MethodRun]) -> dict[str, float]:
    """Average each metric over repeated runs of the same method."""
    if not runs:
        return {}
    keys = runs[0].scores.keys()
    return {key: float(np.mean([run.scores[key] for run in runs]))
            for key in keys}


def repeat_with_seeds(
    build_and_run,
    n_repeats: int,
    base_seed: int = 0,
) -> list:
    """Call ``build_and_run(seed)`` for ``n_repeats`` derived seeds.

    The paper repeats its subsampling experiments 30 (redundancy) or 100
    (qualification / hidden test) times; the benchmarks use smaller
    counts, configurable per call.
    """
    if n_repeats < 1:
        raise ValueError(f"n_repeats must be >= 1, got {n_repeats}")
    seeds = np.random.SeedSequence(base_seed).spawn(n_repeats)
    return [build_and_run(int(s.generate_state(1)[0] % (2**31)))
            for s in seeds]


class Timer:
    """Context manager measuring wall-clock seconds."""

    def __enter__(self) -> "Timer":
        self.started = time.perf_counter()
        self.elapsed = 0.0
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed = time.perf_counter() - self.started
