"""Parallel fan-out of (dataset, method) inference jobs.

The comparison experiments (Table 6 and the sweeps) run many independent
``method × dataset`` fits; :class:`BatchRunner` fans them across a
:mod:`concurrent.futures` executor.  NumPy releases the GIL inside the
heavy array kernels, so the default thread pool already overlaps most of
the work without any pickling cost; an
:class:`~concurrent.futures.ProcessPoolExecutor` ``executor_factory``
switches to process job workers for grids dominated by GIL-holding
kernels (the GLAD-heavy ones).  Results come back in job order and the
first worker exception propagates to the caller.

Each job's *fit* runs under an
:class:`~repro.core.policy.ExecutionPolicy` (job-level ``policy``
wins, else the runner's): sharded-EM methods shard accordingly, and a
process-tier policy leases the shared persistent
:class:`~repro.engine.runtime.ShardRuntime` registry, so a sweep of
methods over one dataset places the answers in shared memory and spawns
the worker pools once.  Methods without sharded EM ignore the policy.
The runner never writes into its jobs: a job keeps the policy (and
everything else) its caller gave it.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, Mapping, Sequence

from ..core.policy import ExecutionPolicy, MethodSpec
from ..datasets.schema import Dataset
from ..exceptions import EngineError
from ..experiments.runner import MethodRun, run_method


@dataclasses.dataclass
class BatchJob:
    """One unit of work: fit ``method`` on ``dataset`` and score it.

    ``method`` is a registry name or a
    :class:`~repro.core.policy.MethodSpec` (construction kwargs only);
    ``policy`` optionally overrides the runner's execution policy for
    this one job — the place a per-job shard count goes.
    """

    dataset: Dataset
    method: str | MethodSpec
    seed: int = 0
    golden: Mapping[int, float] | None = None
    initial_quality: object = None
    policy: ExecutionPolicy | None = None

    @property
    def spec(self) -> MethodSpec:
        """The job's method as a :class:`MethodSpec`."""
        return MethodSpec.coerce(self.method)


class BatchRunner:
    """Run a list of :class:`BatchJob` concurrently.

    Parameters
    ----------
    max_workers:
        Job-pool size (how many fits overlap); defaults to
        ``min(8, cpu_count)``.
    executor_factory:
        Callable returning a :class:`concurrent.futures.Executor` when
        invoked with ``max_workers=...``.  Defaults to
        :class:`ThreadPoolExecutor`; process job pools pay pickling of
        datasets/results but overlap GIL-bound kernels on real cores.
    policy:
        Default :class:`~repro.core.policy.ExecutionPolicy` for every
        job's *fit*; a job with its own ``policy`` (say, its own shard
        count) runs under that one instead, and no job is modified.
        Each fit gets the policy resolved against its dataset through
        ``fit(policy=...)``, and starts from its own majority-vote
        initialisation.  A process-tier policy
        routes each sharded fit through the shared
        persistent runtime registry: a sweep of methods over one
        dataset places the answers in shared memory and spawns the
        worker pools once.  Concurrent thread jobs serialise on the
        runtime's lease lock (each fit is internally parallel, so this
        is the intended schedule).
    """

    def __init__(self, max_workers: int | None = None,
                 executor_factory=ThreadPoolExecutor,
                 policy: ExecutionPolicy | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise EngineError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers or min(8, os.cpu_count() or 1)
        self.executor_factory = executor_factory
        self.policy = policy

    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[BatchJob]) -> list[MethodRun]:
        """Execute all jobs; results are returned in job order."""
        # A job without a policy runs under the runner's, in a copy:
        # the caller's jobs are never modified.
        jobs = [dataclasses.replace(job, policy=self.policy)
                if job.policy is None else job for job in jobs]
        if not jobs:
            return []
        if len(jobs) == 1 or self.max_workers == 1:
            return [self._run_one(job) for job in jobs]
        with self.executor_factory(max_workers=self.max_workers) as pool:
            futures = [pool.submit(self._run_one, job) for job in jobs]
            return [future.result() for future in futures]

    @staticmethod
    def _run_one(job: BatchJob) -> MethodRun:
        return run_method(
            job.spec,
            job.dataset,
            seed=job.seed,
            golden=job.golden,
            initial_quality=job.initial_quality,
            policy=job.policy,
        )

    def run_grid(
        self,
        datasets: Iterable[Dataset],
        methods: Iterable[str] | None = None,
        seed: int = 0,
        policy: ExecutionPolicy | None = None,
    ) -> list[MethodRun]:
        """Cross every dataset with every applicable method and run all.

        Methods inapplicable to a dataset's task type are skipped, like
        the '×' cells of the paper's Table 6.  With ``methods=None`` each
        dataset gets every registered method for its task type.  A
        ``policy`` turns on sharded EM for the methods that support it
        (others ignore it).
        """
        from ..core.registry import methods_for_task_type

        jobs = []
        for dataset in datasets:
            applicable = methods_for_task_type(dataset.task_type)
            selected = (applicable if methods is None
                        else [m for m in methods if m in applicable])
            jobs.extend(
                BatchJob(dataset=dataset, method=name, seed=seed,
                         policy=policy)
                for name in selected
            )
        return self.run(jobs)
