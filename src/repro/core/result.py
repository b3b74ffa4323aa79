"""Result container returned by every truth-inference method.

The paper's Algorithm 1 returns two things: the inferred truth ``v*_i``
for every task and the quality ``q^w`` for every worker.  We additionally
keep the full truth posterior for categorical methods (useful for
analysis and for the hidden-test protocol), convergence diagnostics, and
wall-clock time, which Table 6 reports.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any

import numpy as np


@dataclasses.dataclass
class FitStats:
    """Telemetry of one EM fit: what the iteration actually did.

    Produced by the sharded drivers for every fit.  Full fits
    (``mode="full"``) and delta refits (``mode="delta"``) run the same
    active-set loop and count the same work; in a delta refit the
    per-iteration active/frozen shard counts show how much of it the
    freeze protocol skipped.  Wall-time is split into the EM loop
    proper (``em_seconds``) and everything around it
    (``overhead_seconds`` — runner construction, warm-start assembly,
    result packaging), which is what the runtime and delta-refit
    benchmarks report.
    """

    mode: str = "full"
    n_shards: int = 1
    iterations: int = 0
    #: Dirty shards at priming (delta refits; ``None`` for full fits).
    dirty_shards: int | None = None
    #: Active (non-frozen) shard count entering each EM iteration.
    active_shards: list[int] = dataclasses.field(default_factory=list)
    #: Frozen shard count entering each EM iteration.
    frozen_shards: list[int] = dataclasses.field(default_factory=list)
    #: Per-shard E-step evaluations, verify passes included.
    e_block_calls: int = 0
    #: Per-shard calls of the M-step's map phase actually computed:
    #: ``accumulate``, or the rounds of a spec's own M-step hook (GLAD's
    #: gradient steps).  Cached
    #: :class:`~repro.inference.sharded.SufficientStats` reuse does not
    #: count.
    accumulate_calls: int = 0
    #: Full-verify E-steps over the frozen set (delta refits).
    verify_passes: int = 0
    #: Shards thawed by a verify pass showing drift (delta refits).
    thaws: int = 0
    #: Wall-clock seconds inside the EM loop.
    em_seconds: float = 0.0
    #: Wall-clock seconds of the whole ``fit()`` call (stamped by the
    #: method base class alongside ``elapsed_seconds``).
    total_seconds: float = 0.0
    #: Worker processes respawned after a crash or deadline
    #: blow-through.
    respawns: int = 0
    #: Phase dispatches re-tried after a crash/timeout recovery.
    retries: int = 0
    #: Shard phases that blew their per-phase deadline.
    timeouts: int = 0
    #: Shard-phase executions degraded to the in-process serial path
    #: after the retry budget ran out.
    degraded: int = 0
    #: Wall seconds per runner phase (``e_block``, ``accumulate``, ...),
    #: summed over the fit's dispatches; on the process tier each
    #: includes the round trip.  ``None`` when no runner timed a phase.
    #: A plain class default (not a factory), so a fit pickled before
    #: this field existed still reads it after unpickling.
    phase_seconds: dict[str, float] | None = None
    #: What crossed the process tier's pipes, measured there:
    #: ``messages`` sent, pickled ``bytes_out``/``bytes_in``, and the
    #: ``worker_seconds`` the replies report, summed over worker slots
    #: (the lease's sync included).  ``None`` on the in-process tiers;
    #: a plain class default for the same reason as ``phase_seconds``.
    ipc: dict[str, float] | None = None

    @property
    def overhead_seconds(self) -> float:
        """Fit wall-time spent outside the EM loop."""
        return max(self.total_seconds - self.em_seconds, 0.0)

    def summary(self) -> str:
        """One-line human-readable description (``repro stream -v``)."""
        parts = [f"{self.mode} refit", f"{self.iterations} iterations",
                 f"{self.n_shards} shards"]
        if self.mode == "delta":
            parts.append(f"{self.dirty_shards} dirty at prime")
            if self.active_shards:
                # Run-length form (count x iterations): a long refit
                # stays one readable line.
                parts.append("active/iter " + ",".join(
                    f"{count}x{sum(1 for _ in run)}"
                    for count, run in itertools.groupby(self.active_shards)))
            parts.append(f"{self.verify_passes} verifies"
                         + (f" ({self.thaws} thaws)" if self.thaws else ""))
        parts.append(f"{self.e_block_calls} E-blocks")
        parts.append(f"{self.accumulate_calls} stat-blocks")
        parts.append(f"em {self.em_seconds * 1000:.1f}ms"
                     f" + overhead {self.overhead_seconds * 1000:.1f}ms")
        if self.phase_seconds:
            parts.append("phases " + " ".join(
                f"{phase}={seconds * 1000:.1f}ms"
                for phase, seconds in self.phase_seconds.items()))
        if self.ipc:
            parts.append(
                f"ipc {self.ipc['messages']} msgs "
                f"{self.ipc['bytes_out'] / 1e3:.1f}kB out "
                f"{self.ipc['bytes_in'] / 1e3:.1f}kB in "
                f"worker {self.ipc['worker_seconds'] * 1000:.1f}ms")
        if self.respawns or self.retries or self.timeouts or self.degraded:
            parts.append(
                f"faults: {self.respawns} respawns, {self.retries} "
                f"retries, {self.timeouts} timeouts, {self.degraded} "
                f"degraded")
        return ", ".join(parts)

    def record_runner(self, runner) -> None:
        """Fold what a fit's shard runner counted into the stats: its
        fault-event counters, its wall seconds per phase and, on the
        process tier, its transport counters."""
        events = getattr(runner, "fault_events", None) or {}
        self.respawns += events.get("respawns", 0)
        self.retries += events.get("retries", 0)
        self.timeouts += events.get("timeouts", 0)
        self.degraded += events.get("degraded", 0)
        seconds = getattr(runner, "phase_seconds", None)
        if seconds:
            totals = dict(self.phase_seconds or {})
            for phase, spent in seconds.items():
                totals[phase] = totals.get(phase, 0.0) + spent
            self.phase_seconds = totals
        ipc = getattr(runner, "ipc", None)
        if ipc:
            totals = dict(self.ipc or {})
            for key, count in ipc.items():
                totals[key] = totals.get(key, 0) + count
            self.ipc = totals

    def as_dict(self) -> dict:
        """JSON-ready form (the benchmarks' ``--json`` emitters)."""
        data = dataclasses.asdict(self)
        data["overhead_seconds"] = self.overhead_seconds
        return data


@dataclasses.dataclass
class InferenceResult:
    """Output of a truth-inference run.

    Attributes
    ----------
    method:
        Registry name of the method that produced this result.
    truths:
        Array of length ``n_tasks``.  Integer label indices for
        categorical tasks, floats for numeric tasks.
    worker_quality:
        Array of length ``n_workers`` with each worker's scalar quality
        summary ``q^w``.  Methods with richer models (confusion matrices,
        bias/variance) expose the full parameters via ``extras`` and
        summarise them here (e.g. mean diagonal of the confusion matrix).
    posterior:
        Optional ``(n_tasks, n_choices)`` array of truth probabilities
        for categorical methods; ``None`` for numeric methods.
    n_iterations:
        Number of framework iterations executed (0 for direct methods).
    converged:
        Whether the parameter change dropped below the threshold before
        the iteration cap.
    elapsed_seconds:
        Wall-clock inference time (the "Time" column of Table 6).
    extras:
        Method-specific parameters, e.g. ``confusion`` matrices for D&S,
        ``task_difficulty`` for GLAD, ``bias``/``variance`` for Multi.
    fit_stats:
        Optional :class:`FitStats` telemetry of the EM loop (sharded-EM
        methods fill it; direct methods leave it ``None``).
    shard_state:
        Optional per-shard posterior/statistics cache emitted by a fit
        that was asked to collect one (the seed of the next *delta*
        refit — see :mod:`repro.inference.sharded`).  Internal to the
        engines; carries large arrays, excluded from ``repr``.
    """

    method: str
    truths: np.ndarray
    worker_quality: np.ndarray
    posterior: np.ndarray | None = None
    n_iterations: int = 0
    converged: bool = True
    elapsed_seconds: float = 0.0
    extras: dict[str, Any] = dataclasses.field(default_factory=dict)
    fit_stats: FitStats | None = dataclasses.field(default=None, repr=False)
    shard_state: Any = dataclasses.field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.truths = np.asarray(self.truths)
        self.worker_quality = np.asarray(self.worker_quality, dtype=np.float64)
        if self.posterior is not None:
            self.posterior = np.asarray(self.posterior, dtype=np.float64)

    @property
    def n_tasks(self) -> int:
        """Number of tasks the result covers."""
        return len(self.truths)

    @property
    def n_workers(self) -> int:
        """Number of workers the result covers."""
        return len(self.worker_quality)

    def truth_of(self, task: int):
        """The inferred truth of a single task."""
        return self.truths[task]

    def top_workers(self, k: int = 10) -> np.ndarray:
        """Indices of the ``k`` highest-quality workers, best first."""
        order = np.argsort(-self.worker_quality, kind="stable")
        return order[: min(k, len(order))]

    def summary(self) -> str:
        """One-line human-readable description of the run."""
        state = "converged" if self.converged else "iteration cap"
        return (
            f"{self.method}: {self.n_tasks} tasks, {self.n_workers} workers, "
            f"{self.n_iterations} iterations ({state}), "
            f"{self.elapsed_seconds:.3f}s"
        )
