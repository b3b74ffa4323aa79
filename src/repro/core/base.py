"""Abstract base classes for truth-inference methods.

Every algorithm in :mod:`repro.methods` subclasses
:class:`TruthInferenceMethod` and implements :meth:`_fit`.  The base
class handles the cross-cutting concerns the paper's experiments rely on:

* task-type validation (Table 4's "Task Types" column);
* timing (Table 6's "Time" column);
* qualification-test initialisation (Section 6.3.2) — an optional
  per-worker initial-quality vector estimated from golden tasks;
* hidden-test golden truths (Section 6.3.3) — a mapping from task index
  to known truth that step 1 must not overwrite;
* a per-call random generator so that experiments are reproducible.
"""

from __future__ import annotations

import abc
import contextlib
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import ClassVar, Mapping

import numpy as np

from ..exceptions import TaskTypeMismatchError
from .answers import AnswerSet
from .framework import DEFAULT_MAX_ITER, DEFAULT_TOLERANCE
from .policy import ExecutionPlan, ExecutionPolicy, MethodSpec
from .result import InferenceResult
from .shards import ShardedAnswerSet
from .tasktypes import TaskType


class TruthInferenceMethod(abc.ABC):
    """Base class for all 17 methods.

    Class attributes
    ----------------
    name:
        Registry name, matching the paper's method name (e.g. ``"D&S"``).
    task_types:
        The task types the method supports (paper Table 4).
    supports_initial_quality:
        Whether the method can consume a qualification-test initial
        quality vector (Table 7 lists the 8 methods that can).
    supports_golden:
        Whether the method can clamp hidden-test golden truths (Section
        6.3.3 lists the 9 methods that can).
    supports_sharding:
        Whether the method's EM is expressed as mergeable sufficient
        statistics over task-range shards
        (:mod:`repro.inference.sharded`).  It is the one execution flag:
        such a method honours the ``policy`` and ``shard_runner`` fit
        parameters, resumes from a ``warm_start`` (a previous
        :class:`InferenceResult` fitted on an earlier, smaller snapshot
        of the same answer stream — see :mod:`repro.core.warmstart`),
        and under ``ExecutionPolicy(refit="delta")`` runs a delta refit
        from the warm start's cached shard state (its own per-family
        contract: dirty-shard statistics EM, message warm restarts,
        gradient restarts, Gibbs chain continuation).
    """

    name: ClassVar[str] = "abstract"
    task_types: ClassVar[frozenset] = frozenset()
    supports_initial_quality: ClassVar[bool] = False
    supports_golden: ClassVar[bool] = False
    supports_sharding: ClassVar[bool] = False
    #: True for post-paper extension methods (kept out of the faithful
    #: 17-method experiment harness unless explicitly requested).
    is_extension: ClassVar[bool] = False

    #: Filled by :func:`repro.core.registry.create`: the
    #: :class:`~repro.core.policy.MethodSpec` this instance was built
    #: from, so ``fit(policy=...)``'s process tier can rebuild the
    #: method inside worker processes.  ``None`` for instances
    #: constructed directly from the class.
    method_spec: MethodSpec | None = None

    def __init__(
        self,
        tolerance: float = DEFAULT_TOLERANCE,
        max_iter: int = DEFAULT_MAX_ITER,
        seed: int | None = None,
    ) -> None:
        self.tolerance = tolerance
        self.max_iter = max_iter
        self.seed = seed

    # ------------------------------------------------------------------
    def fit(
        self,
        answers: AnswerSet,
        golden: Mapping[int, float] | None = None,
        initial_quality: np.ndarray | None = None,
        warm_start: InferenceResult | None = None,
        shard_runner=None,
        policy: ExecutionPolicy | ExecutionPlan | None = None,
    ) -> InferenceResult:
        """Infer truths and worker qualities from an answer set.

        Parameters
        ----------
        answers:
            The collected answers ``V``.
        golden:
            Optional hidden-test golden tasks: mapping from task index to
            its known truth.  Ignored (with no error) by methods that set
            ``supports_golden = False``, matching the paper's observation
            that only some methods "can be easily extended to incorporate
            the golden tasks".
        initial_quality:
            Optional qualification-test estimate of each worker's
            accuracy in ``[0, 1]``, length ``n_workers``.  Ignored by
            methods that set ``supports_initial_quality = False``.
        warm_start:
            Optional :class:`InferenceResult` from a previous fit on an
            earlier snapshot of the same (append-only) answer stream —
            the one input a fit resumes from.  Methods that set
            ``supports_sharding = True`` resume the iteration from that
            state — previously seen tasks/workers keep their fitted
            parameters, new ones are seeded from majority voting or
            neutral defaults — and typically converge in a handful of
            iterations.  Under ``refit="delta"`` the warm start's
            ``shard_state`` decides whether the fit is a delta refit
            (see :meth:`_shard_runner`).  Ignored by other methods.
        shard_runner:
            Optional pre-built shard runner (e.g. a
            :class:`~repro.engine.runtime.RuntimeLease` over
            shared-memory shards) that sharded EM methods use in place
            of the runner they would build from ``policy``.  Ignored by
            methods without ``supports_sharding``.
        policy:
            Optional :class:`~repro.core.policy.ExecutionPolicy` (or
            already-resolved plan): the one place a fit is told *how*
            it runs.  Resolved against ``answers``, serial/thread plans
            build the matching in-process runner and process plans
            lease the persistent shared-memory runtime from the
            process-wide registry, under the plan's fault policy and
            fault plan.  Its ``refit``, ``freeze_tol`` and
            ``verify_every`` configure delta refits, also over a
            supplied ``shard_runner``.  ``None`` runs one serial shard
            and refits full.  Ignored by methods without
            ``supports_sharding``.
        """
        if answers.task_type not in self.task_types:
            raise TaskTypeMismatchError(
                f"{self.name} does not support {answers.task_type.value} tasks"
            )
        if initial_quality is not None:
            initial_quality = np.asarray(initial_quality, dtype=np.float64)
            if initial_quality.shape != (answers.n_workers,):
                raise ValueError(
                    f"initial_quality must have shape ({answers.n_workers},), "
                    f"got {initial_quality.shape}"
                )
        golden = dict(golden) if golden else None
        if golden:
            bad = [t for t in golden if not 0 <= int(t) < answers.n_tasks]
            if bad:
                raise ValueError(f"golden task indices out of range: {bad[:5]}")

        extra_kwargs = {}
        runner_cm = contextlib.nullcontext()
        if self.supports_sharding:
            if warm_start is not None:
                self._validate_warm_start(warm_start, answers)
            extra_kwargs["warm_start"] = warm_start
            runner_cm = self._shard_runner(answers, shard_runner, policy,
                                           warm_start)
        elif policy is not None:
            self._warn_ignored_policy(policy)

        rng = np.random.default_rng(self.seed)
        started = time.perf_counter()
        with runner_cm as built:
            if self.supports_sharding:
                extra_kwargs["shard_runner"], extra_kwargs["delta"] = built
            result = self._fit(
                answers,
                golden=golden if self.supports_golden else None,
                initial_quality=(
                    initial_quality if self.supports_initial_quality else None
                ),
                rng=rng,
                **extra_kwargs,
            )
        result.elapsed_seconds = time.perf_counter() - started
        result.method = self.name
        if result.fit_stats is not None:
            result.fit_stats.total_seconds = result.elapsed_seconds
        if result.shard_state is not None:
            # Stamp the dirtiness boundary (and, for a freshly placed
            # layout, the rebalance base) for the next delta refit.
            result.shard_state.n_answers = answers.n_answers
            if not result.shard_state.base_answers:
                result.shard_state.base_answers = answers.n_answers
        return result

    def _validate_warm_start(self, warm_start: InferenceResult,
                             answers: AnswerSet) -> None:
        """Check a warm-start state is compatible with the answer set.

        The streaming protocol is append-only, so a valid warm state
        covers a *prefix* of the current task/worker index spaces and
        (for categorical tasks) the same choice count.
        """
        if not isinstance(warm_start, InferenceResult):
            raise ValueError(
                f"warm_start must be an InferenceResult, got "
                f"{type(warm_start).__name__}"
            )
        if warm_start.n_tasks > answers.n_tasks:
            raise ValueError(
                f"warm_start covers {warm_start.n_tasks} tasks but the "
                f"answer set only has {answers.n_tasks}; warm starts "
                f"require an append-only stream"
            )
        if warm_start.n_workers > answers.n_workers:
            raise ValueError(
                f"warm_start covers {warm_start.n_workers} workers but "
                f"the answer set only has {answers.n_workers}"
            )
        if answers.task_type.is_categorical:
            posterior = warm_start.posterior
            if posterior is None:
                raise ValueError(
                    "warm_start for a categorical method needs the "
                    "previous truth posterior"
                )
            if posterior.shape[1] != answers.n_choices:
                raise ValueError(
                    f"warm_start posterior has {posterior.shape[1]} "
                    f"choices, answer set has {answers.n_choices}; the "
                    f"label space must stay fixed across snapshots"
                )

    # ------------------------------------------------------------------
    # Sharded map-reduce EM (methods with supports_sharding = True)
    # ------------------------------------------------------------------
    def make_em_spec(self, n_tasks: int, n_workers: int, n_choices: int):
        """Build this method's :class:`~repro.inference.sharded.ShardedEMSpec`.

        Only meaningful for methods with ``supports_sharding = True``;
        the spec depends solely on global sizes and constructor
        configuration, so worker processes can rebuild it from the
        registry (``create(name, **kwargs).make_em_spec(...)``).
        """
        raise NotImplementedError(
            f"{self.name} does not express its EM as sharded statistics"
        )

    def _warn_ignored_policy(
            self, policy: ExecutionPolicy | ExecutionPlan) -> None:
        """Warn once per fit when a non-sharding method is handed a
        policy naming explicit parallelism it cannot honour, and once
        more when the policy asks for delta refits.

        Grids legitimately set one policy for a whole method zoo, so a
        *default* policy (auto tiering, unset shard count) stays
        silent; only fields that asked for something — ``n_shards > 1``
        or a forced thread/process tier — are reported.  Driven off the
        same ``supports_sharding`` capability the registry's
        :class:`~repro.core.registry.Capabilities` table mirrors.
        """
        ignored = []
        n_shards = getattr(policy, "n_shards", None)
        if n_shards is not None and n_shards > 1:
            ignored.append(f"n_shards={n_shards}")
        if isinstance(policy, ExecutionPlan):
            if policy.mode in ("thread", "process"):
                ignored.append(f"mode={policy.mode!r}")
        elif getattr(policy, "executor", "auto") in ("thread", "process"):
            ignored.append(f"executor={policy.executor!r}")
        if ignored:
            warnings.warn(
                f"{self.name} does not support sharding; ExecutionPolicy "
                f"fields ignored: {', '.join(ignored)}",
                UserWarning, stacklevel=3)
        if policy.refit == "delta":
            warnings.warn(
                f"{self.name} can only refit full; ExecutionPolicy "
                f'refit="delta" is ignored (no sharded EM — see '
                f"Capabilities.sharding)",
                UserWarning, stacklevel=3)

    @contextlib.contextmanager
    def _shard_runner(self, answers: AnswerSet, shard_runner=None,
                      policy: ExecutionPolicy | ExecutionPlan | None = None,
                      warm_start: InferenceResult | None = None):
        """Yield the ``(runner, delta)`` a sharded ``_fit`` runs with —
        the one place a fit decides whether it is a delta refit.

        ``policy`` is resolved against ``answers`` (one serial shard
        without a policy).  A supplied ``shard_runner`` wins; otherwise
        a process plan leases the persistent shared-memory runtime from
        the process-wide registry, under the plan's fault policy and
        fault plan, and a serial or thread plan shards in process (on a
        transient thread pool for a thread plan).

        Under ``refit="full"`` ``delta`` is ``None``.  Under
        ``refit="delta"`` it is a
        :class:`~repro.inference.sharded.DeltaPlan` that resumes
        ``warm_start.shard_state`` when three things hold: the state is
        this method's, its cuts still hold for ``answers``
        (:func:`~repro.engine.placement.cuts_hold`), and the runner lies
        on them (:func:`~repro.engine.placement.cuts_align`; an
        in-process runner is built on them).  Otherwise the fit runs
        full and collects the state the next delta refit resumes from.
        """
        from ..engine.placement import cuts_align, cuts_hold
        from ..inference.sharded import DeltaPlan, dirty_shards

        if policy is None:
            policy = ExecutionPlan(mode="serial", n_shards=1, max_workers=0)
        plan = (policy.resolve(answers)
                if isinstance(policy, ExecutionPolicy) else policy)
        prev = None
        if plan.refit == "delta" and warm_start is not None:
            state = warm_start.shard_state
            if (warm_start.method == self.name and state is not None
                    and cuts_hold(answers, state.n_answers,
                                  state.task_cuts[-1], state.base_answers)):
                prev = state
        if shard_runner is not None:
            built = contextlib.nullcontext(shard_runner)
        elif plan.mode == "process":
            built = self._lease(answers, plan)
        else:
            built = self._local_runner(answers, plan, prev)
        with built as runner:
            delta = None
            if plan.refit == "delta":
                delta = DeltaPlan(freeze_tol=plan.freeze_tol,
                                  verify_every=plan.verify_every)
                if prev is not None and cuts_align(runner.task_ranges,
                                                   prev):
                    delta.prev = prev
                    delta.dirty = dirty_shards(
                        prev.task_cuts, answers.tasks[prev.n_answers:],
                        answers.n_tasks)
            yield runner, delta

    def _lease(self, answers: AnswerSet, plan: ExecutionPlan):
        """The builder's process half: a lease on the registry's runtime
        for ``plan``, which rebuilds this method in the workers from its
        registry spec."""
        if self.method_spec is None:
            raise ValueError(
                f"fit(policy=...) with a process plan needs a "
                f"registry-created method so worker processes can "
                f"rebuild it; construct {self.name} via "
                f"create()/MethodSpec instead of the class"
            )
        from ..engine.runtime import get_runtime_registry

        return get_runtime_registry().lease(plan, answers,
                                            self.method_spec)[1]

    @contextlib.contextmanager
    def _local_runner(self, answers: AnswerSet, plan: ExecutionPlan,
                      prev=None):
        """The builder's in-process half: ``answers`` sharded over
        ``prev``'s pinned cuts (else fresh answer-balanced ones), run
        serially or on a transient thread pool."""
        from ..inference.sharded import make_runner

        sharded = ShardedAnswerSet(
            answers, plan.n_shards,
            task_cuts=(prev.extended_cuts(answers.n_tasks)
                       if prev is not None else None))
        width = (min(plan.max_workers, sharded.n_shards)
                 if plan.mode == "thread" else 0)
        spec = self.make_em_spec(answers.n_tasks, answers.n_workers,
                                 answers.n_choices)
        with (ThreadPoolExecutor(max_workers=width) if width > 1
              else contextlib.nullcontext()) as pool:
            yield make_runner(sharded, spec, pool=pool)

    @abc.abstractmethod
    def _fit(
        self,
        answers: AnswerSet,
        golden: Mapping[int, float] | None,
        initial_quality: np.ndarray | None,
        rng: np.random.Generator,
    ) -> InferenceResult:
        """Method-specific inference; implemented by each algorithm."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class CategoricalMethod(TruthInferenceMethod):
    """Base for methods over decision-making / single-choice tasks."""

    task_types = frozenset({TaskType.DECISION_MAKING, TaskType.SINGLE_CHOICE})

    @staticmethod
    def uniform_posterior(answers: AnswerSet) -> np.ndarray:
        """A flat (n_tasks, n_choices) posterior to start iterating from."""
        return np.full(
            (answers.n_tasks, answers.n_choices), 1.0 / answers.n_choices
        )

    @staticmethod
    def majority_posterior(answers: AnswerSet) -> np.ndarray:
        """Normalised vote counts — the usual EM initialisation."""
        counts = answers.vote_counts()
        from .framework import normalize_rows

        return normalize_rows(counts)


class BinaryMethod(CategoricalMethod):
    """Base for methods restricted to decision-making tasks (Table 4).

    KOS, VI-BP, VI-MF and Multi are evaluated by the paper only on the
    two decision-making datasets.
    """

    task_types = frozenset({TaskType.DECISION_MAKING})


class NumericMethod(TruthInferenceMethod):
    """Base for methods over numeric tasks."""

    task_types = frozenset({TaskType.NUMERIC})


class GeneralMethod(TruthInferenceMethod):
    """Base for methods supporting categorical *and* numeric tasks.

    In the paper's Table 4 these are CATD and PM.
    """

    task_types = frozenset(
        {TaskType.DECISION_MAKING, TaskType.SINGLE_CHOICE, TaskType.NUMERIC}
    )
