"""Streaming truth-inference engine (online serving layer).

The paper frames truth inference as a two-step iteration over a *growing*
set of worker answers, but the core library is batch-shaped: every
:meth:`~repro.core.base.TruthInferenceMethod.fit` call starts from
scratch.  This package adds the online layer:

* :class:`~repro.engine.stream.StreamingAnswerSet` — an append-only
  ``(task, worker, value)`` buffer that absorbs new answers, tasks and
  workers and emits immutable :class:`~repro.core.answers.AnswerSet`
  snapshots cheaply, reusing its incrementally maintained index/label
  tables instead of re-indexing;
* :class:`~repro.engine.engine.InferenceEngine` — a facade that owns the
  stream, caches the last fitted state per method, and serves
  ``add_answers(...)`` / ``current_truth(...)`` round trips, refitting
  *warm* whenever it can;
* :class:`~repro.engine.batch.BatchRunner` — a :mod:`concurrent.futures`
  fan-out for the (dataset, method) grids the comparison experiments run,
  over threads or processes;
* :class:`~repro.engine.runtime.ShardRuntime` — the multi-core
  sharded-EM tier behind ``fit(policy=...)`` (see below).

Streaming protocol
------------------
The stream is **append-only**: task, worker and label indices are handed
out in order of first appearance and never reassigned, so any state
fitted on an earlier snapshot remains index-compatible with every later
snapshot.  Warm starts build on exactly that guarantee: the 14 methods
that set ``supports_sharding = True`` (every method but MV, Mean,
Median and Multi) accept a previous
:class:`~repro.core.result.InferenceResult` via
``fit(answers, warm_start=...)``, keep the fitted parameters of known
tasks/workers, seed newly arrived tasks from majority voting (and new
workers from neutral defaults), and resume the two-step iteration — which
then converges in a handful of iterations instead of tens.  Label codes
are append-only too, so a *grown label space* also warm-starts: the
engine pads the cached posterior/confusion state with a small seed mass
for the new labels (:func:`~repro.core.warmstart.pad_result_labels`)
instead of refitting cold.

Shard/merge protocol
--------------------
Every EM method above is expressed as **mergeable sufficient
statistics** over contiguous task-range shards
(:mod:`repro.inference.sharded`): E-steps map over shards (each task's
posterior depends only on that task's answers), M-steps run
``accumulate(shard, posterior_block) → SufficientStats`` per shard,
add the bundles field-wise (``SufficientStats.total``), and
``finalize`` the totals into global parameters.  One shard *is* the
plain fit, bit-for-bit.  Execution tiers:

* **serial / threads** — ``create(method).fit(answers,
  policy=ExecutionPolicy(n_shards=.., executor="thread",
  max_workers=..))``; cheap, in-process, identical numbers;
* **processes** — the same call with ``executor="process"``: the answer
  arrays live in :mod:`multiprocessing.shared_memory` and the phases
  are dispatched to pinned worker processes, one pipe message per
  worker per phase; prefer it for large inputs on multi-core hosts,
  where thread tiers stall on the GIL-holding NumPy kernels.
  GLAD trades one message round per gradient step, so it needs bigger
  shards than the one-round-trip statistics methods before processes
  win.  ``ExecutionPolicy(executor="auto")`` — the default — applies
  exactly that tiering automatically.

How to run and what to run are first-class objects
(:class:`~repro.core.policy.ExecutionPolicy` /
:class:`~repro.core.policy.MethodSpec`): ``create`` takes the spec,
and ``fit``, the engine, the batch runners and the CLI take the
policy; answer input is a declared-schema
:class:`~repro.engine.sources.AnswerSource` (CSV, in-memory records,
or a live line-delimited stream such as stdin or a socket).

Pools and segments are **persistent** (:mod:`repro.engine.runtime`):
repeated fits lease a :class:`~repro.engine.runtime.ShardRuntime` from
a shared :class:`~repro.engine.runtime.RuntimeRegistry` — a method
sweep or a stream of refits spawns processes once, and a grown stream
appends only its new tail to the placed segments.

Example
-------
>>> from repro.core.tasktypes import TaskType
>>> from repro.engine import InferenceEngine
>>> engine = InferenceEngine(TaskType.DECISION_MAKING, seed=0)
>>> engine.add_answers([("t1", "ann", 1), ("t1", "bob", 1),
...                     ("t2", "ann", 0), ("t2", "bob", 0),
...                     ("t2", "cyd", 0)])
5
>>> engine.current_truth("D&S")            # cold fit
{'t1': 1, 't2': 0}
>>> engine.add_answers([("t3", "cyd", 1)])  # stream grows...
1
>>> truth = engine.current_truth("D&S")     # ...warm refit
>>> engine.last_fit_was_warm("D&S")
True
"""

from ..core.policy import (
    ExecutionPlan,
    ExecutionPolicy,
    MethodSpec,
    StorePolicy,
)
from .batch import BatchJob, BatchRunner
from .engine import InferenceEngine
from .runtime import (
    RuntimeLease,
    RuntimeRegistry,
    SerialShardSession,
    ShardRuntime,
    get_runtime_registry,
)
from .sources import (
    AnswerSource,
    CsvAnswerSource,
    IterableAnswerSource,
    LineAnswerSource,
    TaskSchema,
)
from .stream import StreamingAnswerSet

__all__ = [
    "AnswerSource",
    "BatchJob",
    "BatchRunner",
    "CsvAnswerSource",
    "ExecutionPlan",
    "ExecutionPolicy",
    "InferenceEngine",
    "IterableAnswerSource",
    "LineAnswerSource",
    "MethodSpec",
    "RuntimeLease",
    "RuntimeRegistry",
    "SerialShardSession",
    "ShardRuntime",
    "StorePolicy",
    "StreamingAnswerSet",
    "TaskSchema",
    "get_runtime_registry",
]
