"""The three workloads as closed loops over the engine's public surface.

A run repeats *episodes* until its time is up.  An episode is one
set-up (engine construction, base-corpus ingest, first fit) followed by
the workload's fixed sequence of cycles and, for the store-backed
workloads, a recovery from the store the episode wrote.  Episodes of
one run see identical inputs, so per-episode counts repeat exactly and
timings from several episodes pool into steady percentiles.

One client drives each loop and waits for every call (a closed loop):
a cycle ingests its batch, refreshes the truths, then runs its reader
calls; the next cycle starts when the last reader returned.
"""

from __future__ import annotations

import dataclasses
import io
import os
import shutil
import time
import traceback

import numpy as np

from repro.core.policy import ExecutionPolicy, MethodSpec, StorePolicy
from repro.core.registry import create
from repro.core.tasktypes import TaskType
from repro.engine import InferenceEngine, LineAnswerSource, TaskSchema
from repro.engine.runtime import get_runtime_registry

from . import inputs as gen

#: The declared delta-refit parity (ROADMAP contract), checked against a
#: batch fit of the same snapshot from the same starting point.
PARITY_TOLERANCE = 1e-6
#: Label agreement with the reference for delta refits that stopped at
#: their iteration budget (the delta-refit benchmark's floor).
AGREEMENT_FLOOR = 0.999
#: Lowest acceptable final accuracy: a sanity floor far below the
#: 0.90-0.97 every workload reaches, far above a coin flip (0.5).
ACCURACY_FLOOR = 0.8
#: Base-corpus records per ``add_answers`` call during set-up.
SETUP_CHUNK = 20_000
#: Reader visits after each refresh (see :func:`_readers`).
READER_VISITS = 6

#: Fits run under an iteration budget that (nearly) every fit spends in
#: full, so a fit does about the same work whatever the seed; the
#: iterations EM needs to converge vary up to 3x between seeds and
#: would otherwise dominate the spread of the timings.
#: cohort_delta: delta refits spend their budget on the dirty shard.  At
#: 500 iterations up to a third of an episode's refits converged early,
#: and how many did varied with the seed; at 200 (nearly) none do.
COHORT_DS = MethodSpec("D&S", tolerance=1e-8, max_iter=200)
#: cohort_delta's freeze threshold, at the delta-refit benchmark's
#: ratio to the fit tolerance.
FREEZE_TOL = 3e-9
#: firehose_ingest refits cold after every revision; the small budget
#: also keeps inference a minor share of its cycle.
FIREHOSE_DS = MethodSpec("D&S", max_iter=20)
#: process_mixed_reads: the refresher's kwargs (readers pass none).
REFRESH_TOLERANCE = 1e-6
REFRESH_MAX_ITER = 6
MIXED_METHODS = ("D&S", "KOS")


@dataclasses.dataclass
class Tally:
    """Everything one run measured, pooled over its episodes."""

    episodes: int = 0
    setup_s: list = dataclasses.field(default_factory=list)
    refresh_s: list = dataclasses.field(default_factory=list)
    read_s: list = dataclasses.field(default_factory=list)
    recover_s: list = dataclasses.field(default_factory=list)
    #: Seconds spent parsing the source and inside ``add_answers``,
    #: and the answers ``add_answers`` acknowledged (set-up included).
    ingest_s: float = 0.0
    ingested: int = 0
    #: Answers acknowledged by ``add_answers`` inside the timed loops.
    loop_answers: int = 0
    #: Wall time of the timed loops (parse, ingest, refits and reads).
    loop_s: float = 0.0
    db_bytes: int = 0
    replacements: int = 0
    accuracy: list = dataclasses.field(default_factory=list)
    parity: float | None = None
    attempted: int = 0
    failed: int = 0
    failures: list = dataclasses.field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count one correctness check; a failed one is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def _accuracy(truths: dict, hidden: dict) -> float:
    hits = sum(hidden[task] == label for task, label in truths.items())
    return hits / max(len(truths), 1)


def _parity(tally: Tally, engine, spec: MethodSpec, final, warm) -> None:
    """Final posterior vs a batch fit of the same snapshot.

    The reference starts where the engine's last fit started: from the
    previous refresh's result when that fit was warm, cold otherwise.
    A full fit repeats the reference's computation, and a converged
    delta refit carries the declared parity.  A delta refit that spent
    its iteration budget without converging has no declared posterior
    parity (gaps up to ~4e-5 occur), so it is held to the label
    agreement the delta-refit benchmark requires instead.
    """
    reference = create(spec.with_defaults(seed=engine.seed)).fit(
        engine.stream.snapshot(),
        warm_start=warm if final.extras.get("warm_started") else None)
    tally.parity = float(np.abs(reference.posterior - final.posterior).max())
    stats = final.fit_stats
    if final.converged or stats is None or stats.mode != "delta":
        tally.check(tally.parity <= PARITY_TOLERANCE,
                    f"posterior parity {tally.parity:.2e} > "
                    f"{PARITY_TOLERANCE}")
    else:
        agreement = float((reference.truths == final.truths).mean())
        tally.check(agreement >= AGREEMENT_FLOOR,
                    f"label agreement {agreement:.5f} < {AGREEMENT_FLOOR}")


def _refresh(engine, spec: MethodSpec):
    """The refresher: fit the new answers, then read the truths."""
    result = engine.infer(spec)
    return result, engine.current_truth(spec)


def _mark(tracer, cycle) -> None:
    """Tag the spans that follow with ``cycle`` (traced runs only)."""
    if tracer is not None:
        tracer.cycle = cycle


def _readers(tally: Tally, engine, methods) -> None:
    """One burst of dashboard reads after a refresh.

    Each of ``READER_VISITS`` visits reads the truths and the worker
    qualities of every method.  The sample is the mean latency per
    reader call over the burst: single calls of a few milliseconds
    swing up to 2x with the speed of a shared host from one call to the
    next, and their percentiles jump with it; the burst mean does not.
    """
    calls = 0
    started = time.perf_counter()
    for _ in range(READER_VISITS):
        for method in methods:
            engine.current_truth(method)
            engine.worker_quality(method)
            calls += 2
    tally.read_s.append((time.perf_counter() - started) / calls)
    tally.attempted += calls


def _ingest(tally: Tally, engine, records) -> float:
    """``add_answers`` one batch; returns the seconds it took."""
    tally.attempted += 1
    started = time.perf_counter()
    count = engine.add_answers(records)
    took = time.perf_counter() - started
    tally.ingest_s += took
    tally.ingested += count
    tally.check(count == len(records), "add_answers acknowledged a "
                                       "different count than it was given")
    return took


def _store_policy(workdir: str, **kwargs) -> StorePolicy:
    path = os.path.join(workdir, "store")
    shutil.rmtree(path, ignore_errors=True)
    return StorePolicy(path=path, **kwargs)


def _db_bytes(path: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path)
               if entry.is_file())


def _recover(tally: Tally, engine, spec: MethodSpec, policy) -> None:
    """Close, recover from the store, time it, verify the counters."""
    version, replacements = engine.stream.version, engine.stream.replacements
    tally.replacements = replacements
    tally.db_bytes = _db_bytes(policy.store.path)
    engine.close()
    tally.attempted += 1
    started = time.perf_counter()
    recovered = InferenceEngine.recover(policy.store.path, policy=policy)
    recovered.current_truth(spec)
    tally.recover_s.append(time.perf_counter() - started)
    with recovered:
        tally.check(recovered.stream.version == version
                    and recovered.stream.replacements == replacements,
                    "recovered version/replacements differ from the "
                    "stream before close")


# ----------------------------------------------------------------------
# cohort_delta
# ----------------------------------------------------------------------
def cohort_delta(data: gen.Inputs, tally: Tally, workdir: str,
                 tracer=None, first: bool = True) -> None:
    store = _store_policy(workdir, snapshot_every=4 * len(data.batches[0]))
    policy = ExecutionPolicy(n_shards=8, executor="serial", refit="delta",
                             freeze_tol=FREEZE_TOL, store=store)
    _mark(tracer, (tally.episodes, "setup"))
    started = time.perf_counter()
    engine = InferenceEngine(TaskType.DECISION_MAKING, policy=policy)
    for i in range(0, len(data.base), SETUP_CHUNK):
        _ingest(tally, engine, data.base[i:i + SETUP_CHUNK])
    result = engine.infer(COHORT_DS)
    engine.current_truth(COHORT_DS)
    tally.setup_s.append(time.perf_counter() - started)

    loop_started = time.perf_counter()
    for cycle, batch in enumerate(data.batches):
        _mark(tracer, (tally.episodes, cycle))
        previous = result
        started = time.perf_counter()
        _ingest(tally, engine, batch)
        tally.loop_answers += len(batch)
        tally.attempted += 1
        result, truths = _refresh(engine, COHORT_DS)
        tally.refresh_s.append(time.perf_counter() - started)
        tally.check(all(str(task) in truths for task, _, _ in batch),
                    "refreshed truths miss a task of the new batch")
        _readers(tally, engine, (COHORT_DS,))
    tally.loop_s += time.perf_counter() - loop_started

    tally.accuracy.append(_accuracy(truths, data.truth))
    if first:
        _mark(tracer, "check")
        _parity(tally, engine, COHORT_DS, result, previous)
    _mark(tracer, (tally.episodes, "recover"))
    _recover(tally, engine, COHORT_DS, policy)


# ----------------------------------------------------------------------
# firehose_ingest
# ----------------------------------------------------------------------
def firehose_ingest(data: gen.Inputs, tally: Tally, workdir: str,
                    tracer=None, first: bool = True) -> None:
    schema = TaskSchema.declare("decision", labels=gen.FIREHOSE_LABELS)
    store = _store_policy(workdir)
    policy = ExecutionPolicy(n_shards=4, executor="serial", refit="delta",
                             store=store)

    def feed(text: str, timed: bool):
        """Parse ``text`` in ``data.chunk``-line batches into the engine;
        returns the last batch and the seconds its ``add_answers``
        took."""
        batches = LineAnswerSource(io.StringIO(text),
                                   schema).batches(data.chunk)
        last, took = None, 0.0
        while True:
            started = time.perf_counter()
            batch = next(batches, None)
            tally.ingest_s += time.perf_counter() - started
            if batch is None:
                return last, took
            took = _ingest(tally, engine, batch)
            if timed:
                tally.loop_answers += len(batch)
            last = batch

    _mark(tracer, (tally.episodes, "setup"))
    started = time.perf_counter()
    engine = InferenceEngine(on_duplicate="replace", policy=policy,
                             **schema.engine_kwargs())
    feed(data.base, timed=False)
    result = engine.infer(FIREHOSE_DS)
    engine.current_truth(FIREHOSE_DS)
    tally.setup_s.append(time.perf_counter() - started)

    loop_started = time.perf_counter()
    for cycle, text in enumerate(data.batches):
        _mark(tracer, (tally.episodes, cycle))
        previous = result
        last, took = feed(text, timed=True)
        tally.attempted += 1
        started = time.perf_counter()
        result, truths = _refresh(engine, FIREHOSE_DS)
        tally.refresh_s.append(took + time.perf_counter() - started)
        tally.check(all(task in truths for task, _, _ in last),
                    "refreshed truths miss a task of the new batch")
        _readers(tally, engine, (FIREHOSE_DS,))
    tally.loop_s += time.perf_counter() - loop_started

    tally.accuracy.append(_accuracy(truths, data.truth))
    if first:
        _mark(tracer, "check")
        _parity(tally, engine, FIREHOSE_DS, result, previous)
    _mark(tracer, (tally.episodes, "recover"))
    _recover(tally, engine, FIREHOSE_DS, policy)


# ----------------------------------------------------------------------
# process_mixed_reads
# ----------------------------------------------------------------------
def process_mixed_reads(data: gen.Inputs, tally: Tally, workdir: str,
                        tracer=None, first: bool = True) -> None:
    # One worker: with two, every phase waits for the slower of the two
    # CPUs, and contention from other tenants of a shared host on either
    # one swung refresh times up to 2x between runs.
    policy = ExecutionPolicy(n_shards=4, executor="process", max_workers=1,
                             refit="delta")
    specs = {name: MethodSpec(name, tolerance=REFRESH_TOLERANCE,
                              max_iter=REFRESH_MAX_ITER)
             for name in MIXED_METHODS}
    _mark(tracer, (tally.episodes, "setup"))
    started = time.perf_counter()
    engine = InferenceEngine(TaskType.DECISION_MAKING, policy=policy)
    with engine:
        for i in range(0, len(data.base), SETUP_CHUNK):
            _ingest(tally, engine, data.base[i:i + SETUP_CHUNK])
        for spec in specs.values():
            engine.current_truth(spec)
        tally.setup_s.append(time.perf_counter() - started)

        loop_started = time.perf_counter()
        for cycle, batch in enumerate(data.batches):
            _mark(tracer, (tally.episodes, cycle))
            started = time.perf_counter()
            _ingest(tally, engine, batch)
            tally.loop_answers += len(batch)
            tally.attempted += 1
            results, truths = {}, {}
            for name, spec in specs.items():
                results[name], truths[name] = _refresh(engine, spec)
            tally.refresh_s.append(time.perf_counter() - started)
            tally.check(all(str(task) in truths[name] for name in truths
                            for task, _, _ in batch),
                        "refreshed truths miss a task of the new batch")
            # Dashboard readers pass default kwargs, so each method's
            # first read after a refresh misses the refresher's entry.
            _readers(tally, engine, MIXED_METHODS)
        tally.loop_s += time.perf_counter() - loop_started

        tally.accuracy.append(min(_accuracy(t, data.truth)
                                  for t in truths.values()))
        if first:
            # The refresher's last D&S fit followed a default-kwargs
            # read, so it started cold (the cache keeps one entry per
            # method name).
            _mark(tracer, "check")
            _parity(tally, engine, specs["D&S"], results["D&S"], None)


EPISODES = {
    "cohort_delta": cohort_delta,
    "firehose_ingest": firehose_ingest,
    "process_mixed_reads": process_mixed_reads,
}


def drive(data: gen.Inputs, seconds: float, workdir: str,
          tracer=None) -> Tally:
    """Run episodes of ``data.workload`` until ``seconds`` have passed
    (at least one); an exception ends the run as one failure."""
    episode = EPISODES[data.workload]
    tally = Tally()
    deadline = time.perf_counter() + seconds
    try:
        while True:
            episode(data, tally, workdir, tracer, first=tally.episodes == 0)
            tally.episodes += 1
            if time.perf_counter() >= deadline:
                break
    except Exception as exc:  # reported as a failed operation
        traceback.print_exc()
        tally.failed += 1
        tally.failures.append(f"{type(exc).__name__}: {exc}")
    finally:
        get_runtime_registry().close_all()
        shutil.rmtree(os.path.join(workdir, "store"), ignore_errors=True)
    for value in tally.accuracy:
        tally.check(value >= ACCURACY_FLOOR,
                    f"accuracy {value:.4f} below {ACCURACY_FLOOR}")
    return tally
