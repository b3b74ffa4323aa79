"""Per-layer metrics for the traced run.

:func:`instrument` wraps the public entry points of each layer module;
:func:`layer_metrics` folds the recorded spans (plus the fit telemetry
the spans carry) into the per-layer metrics listed in ``LAYER_METRICS``.
Every value is per episode, so counts repeat exactly between runs of
the same inputs.  A layer a workload does not use reports 0.

``LAYER_METRICS`` also records, for each metric, the end-to-end metric
it should move and on which workload; the traced run prints that next
to each value.
"""

from __future__ import annotations

import pickle

from repro.core.base import TruthInferenceMethod
from repro.engine import (
    InferenceEngine,
    LineAnswerSource,
    RuntimeLease,
    RuntimeRegistry,
    SerialShardSession,
    StreamingAnswerSet,
)
from repro.inference.sharded import SerialShardRunner
from repro.store.log import AnswerLog
from repro.store.snapshots import SnapshotStore

from .trace import Tracer, self_times

FIREHOSE = "firehose_ingest"
COHORT = "cohort_delta"
MIXED = "process_mixed_reads"

#: name -> (unit, better, [(end-to-end metric it should move, workload)])
LAYER_METRICS = {
    # engine.sources
    "sources.parse_s": ("s", "lower", [("ingest_answers_per_s", FIREHOSE)]),
    "sources.records": ("count", "higher",
                        [("ingest_answers_per_s", FIREHOSE)]),
    # engine.stream
    "stream.add_s": ("s", "lower", [("ingest_answers_per_s", FIREHOSE),
                                    ("setup_s", COHORT)]),
    "stream.add_us_per_record": ("us", "lower",
                                 [("ingest_answers_per_s", FIREHOSE),
                                  ("setup_s", COHORT)]),
    "stream.records": ("count", "higher",
                       [("ingest_answers_per_s", FIREHOSE)]),
    "stream.replacements": ("count", "higher",
                            [("ingest_answers_per_s", FIREHOSE)]),
    "stream.snapshot_s": ("s", "lower", [("refresh_mean_ms", COHORT)]),
    "stream.snapshot_calls": ("count", "lower", [("refresh_mean_ms", COHORT)]),
    # store.log
    "log.append_s": ("s", "lower", [("ingest_answers_per_s", FIREHOSE)]),
    "log.commits": ("count", "lower", [("ingest_answers_per_s", FIREHOSE)]),
    "log.db_bytes": ("B", "lower", [("recover_s", FIREHOSE)]),
    "log.replay_s": ("s", "lower", [("recover_s", FIREHOSE)]),
    # store.snapshots
    "snapshots.save_s": ("s", "lower", [("refresh_p90_ms", COHORT)]),
    "snapshots.saves": ("count", "lower", [("refresh_p90_ms", COHORT)]),
    "snapshots.load_s": ("s", "lower", [("recover_s", COHORT)]),
    # recovery as a whole (end to end on the store workloads only)
    "store.recover_s": ("s", "lower", [("recover_s", FIREHOSE),
                                       ("recover_s", COHORT)]),
    # engine.runtime
    "runtime.place_s": ("s", "lower", [("refresh_mean_ms", MIXED)]),
    "runtime.dispatch_s": ("s", "lower", [("refresh_mean_ms", MIXED),
                                          ("read_p90_ms", MIXED)]),
    "runtime.dispatch_calls": ("count", "lower", [("refresh_mean_ms", MIXED)]),
    "runtime.dispatch_ms_per_call": ("ms", "lower",
                                     [("refresh_mean_ms", MIXED)]),
    "runtime.bytes_out": ("bytes_pickled", "lower",
                          [("refresh_mean_ms", MIXED)]),
    "runtime.bytes_in": ("bytes_pickled", "lower",
                         [("refresh_mean_ms", MIXED)]),
    "runtime.respawns": ("count", "lower", [("refresh_p90_ms", MIXED)]),
    "runtime.retries": ("count", "lower", [("refresh_p90_ms", MIXED)]),
    "runtime.degraded": ("count", "lower", [("refresh_p90_ms", MIXED)]),
    # inference.sharded
    "sharded.fits": ("count", "lower", [("refresh_mean_ms", COHORT),
                                        ("refresh_mean_ms", MIXED)]),
    "sharded.iterations": ("count", "lower", [("refresh_mean_ms", COHORT),
                                              ("refresh_mean_ms", MIXED)]),
    "sharded.delta_frac": ("ratio", "higher", [("refresh_mean_ms", COHORT),
                                               ("refresh_mean_ms", MIXED)]),
    "sharded.active_shard_frac": ("ratio", "lower",
                                  [("refresh_mean_ms", COHORT),
                                   ("refresh_mean_ms", MIXED)]),
    "sharded.e_block_calls": ("count", "lower", [("refresh_mean_ms", COHORT),
                                                 ("refresh_mean_ms", MIXED)]),
    "sharded.verify_passes": ("count", "lower", [("refresh_mean_ms", COHORT)]),
    "sharded.thaws": ("count", "lower", [("refresh_mean_ms", COHORT)]),
    "sharded.driver_self_s": ("s", "lower", [("refresh_mean_ms", COHORT),
                                             ("refresh_mean_ms", MIXED)]),
    # methods (spec kernels)
    "phase.e_block_s": ("s", "lower", [("refresh_mean_ms", COHORT)]),
    "phase.accumulate_s": ("s", "lower", [("refresh_mean_ms", COHORT)]),
    "phase.m_step_s": ("s", "lower", [("refresh_mean_ms", COHORT)]),
    "phase.calls": ("count", "lower", [("refresh_mean_ms", COHORT)]),
    # engine.engine
    "engine.infer_self_s": ("s", "lower", [("refresh_mean_ms", MIXED)]),
    "engine.read_decode_s": ("s", "lower", [("read_mean_ms", COHORT)]),
    "engine.cache_hits": ("count", "higher", [("read_mean_ms", COHORT),
                                              ("read_mean_ms", MIXED)]),
    "engine.cache_misses": ("count", "lower", [("read_p90_ms", MIXED),
                                               ("refresh_mean_ms", MIXED)]),
    "engine.cold_fits": ("count", "lower", [("read_p90_ms", MIXED),
                                            ("refresh_mean_ms", MIXED)]),
    # the recorder itself
    "trace.overhead_answers_per_s": ("1/s", "higher",
                                     [("throughput_answers_per_s", COHORT),
                                      ("throughput_answers_per_s", FIREHOSE),
                                      ("throughput_answers_per_s", MIXED)]),
    "trace.spans": ("count", "lower", []),
}


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------
def _count_records(span, batch) -> None:
    span.attrs["records"] = len(batch)


def _added(span, args, kwargs, result) -> None:
    span.attrs["records"] = result


def _phase(span, args, kwargs, result) -> None:
    span.attrs["phase"] = args[1]


def _dispatch_bytes(span, args, kwargs, result) -> None:
    # Computed here, not measured on the pipe: per-shard arguments go
    # to one shard each, shared arguments to every shard called.
    lease, phase = args[0], args[1]
    per_shard = kwargs.get("per_shard", args[2] if len(args) > 2 else None)
    shared = kwargs.get("shared", args[3] if len(args) > 3 else ())
    only = kwargs.get("only", args[4] if len(args) > 4 else None)
    called = len(only) if only is not None else lease.n_shards
    size = len(pickle.dumps((phase, shared), pickle.HIGHEST_PROTOCOL))
    span.attrs["bytes_out"] = called * size + (
        len(pickle.dumps(list(per_shard), pickle.HIGHEST_PROTOCOL))
        if per_shard is not None else 0)
    span.attrs["bytes_in"] = len(pickle.dumps(result,
                                              pickle.HIGHEST_PROTOCOL))


def _fit(span, args, kwargs, result) -> None:
    span.attrs["cold"] = kwargs.get("warm_start") is None
    stats = result.fit_stats
    if stats is not None:
        span.attrs["stats"] = {
            "mode": stats.mode, "n_shards": stats.n_shards,
            "iterations": stats.iterations,
            "active": sum(stats.active_shards)
            if stats.active_shards else stats.iterations * stats.n_shards,
            "e_block_calls": stats.e_block_calls,
            "verify_passes": stats.verify_passes, "thaws": stats.thaws,
            "respawns": stats.respawns, "retries": stats.retries,
            "degraded": stats.degraded,
        }


def instrument(tracer: Tracer) -> None:
    """Wrap every traced entry point (undo with ``tracer.restore()``)."""
    tracer.wrap_iter(LineAnswerSource, "batches", "sources.parse",
                     _count_records)
    tracer.wrap(StreamingAnswerSet, "add_answers", "stream.add", _added)
    tracer.wrap(StreamingAnswerSet, "snapshot", "stream.snapshot")
    tracer.wrap(AnswerLog, "append_batch", "log.append")
    tracer.wrap_iter(AnswerLog, "replay", "log.replay")
    tracer.wrap(SnapshotStore, "save", "snapshots.save")
    tracer.wrap(SnapshotStore, "load_latest", "snapshots.load")
    tracer.wrap(SerialShardSession, "runner", "runtime.place")
    tracer.wrap(RuntimeRegistry, "lease", "runtime.place")
    tracer.wrap(RuntimeLease, "call", "runtime.dispatch", _dispatch_bytes)
    tracer.wrap(SerialShardRunner, "call", "phase.call", _phase)
    tracer.wrap(SerialShardRunner, "m_step", "phase.m_step")
    tracer.wrap(TruthInferenceMethod, "fit", "sharded.fit", _fit)
    tracer.wrap(InferenceEngine, "infer", "engine.infer")
    tracer.wrap(InferenceEngine, "current_truth", "engine.read")
    tracer.wrap(InferenceEngine, "worker_quality", "engine.read")
    tracer.wrap(InferenceEngine, "recover", "engine.recover")


# ----------------------------------------------------------------------
# Folding spans into metrics
# ----------------------------------------------------------------------
def layer_metrics(tracer: Tracer, episodes: int, *, replacements: int,
                  db_bytes: int, recover_s: float) -> dict[str, float]:
    """Per-episode per-layer metrics from the traced run's spans.

    Spans recorded while the correctness checks ran (cycle
    ``"check"``) are left out; so are ingest spans under a recovery,
    which ``log.replay_s`` and ``store.recover_s`` already cover.
    """
    spans = [s for s in tracer.spans if s.cycle != "check"]
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    recovering = set()
    for s in spans:
        parent = by_id.get(s.parent)
        if s.name == "engine.recover" or (parent is not None
                                          and parent.id in recovering):
            recovering.add(s.id)
    fits_under = {s.parent for s in spans if s.name == "sharded.fit"}

    def named(name, **attrs):
        return [s for s in spans if s.name == name
                and all(s.attrs.get(k) == v for k, v in attrs.items())]

    def total(items, key=None):
        if key is None:
            return sum(s.end - s.start for s in items)
        return sum(s.attrs.get(key, 0) for s in items)

    adds = [s for s in named("stream.add") if s.id not in recovering]
    dispatch = named("runtime.dispatch")
    fits = named("sharded.fit")
    stats = [s.attrs["stats"] for s in fits if "stats" in s.attrs]
    infers = named("engine.infer")
    per = max(episodes, 1)

    def stat(key):
        return sum(st[key] for st in stats)

    add_s = sum(own[s.id] for s in adds)
    records = total(adds, "records")
    shard_iterations = sum(st["iterations"] * st["n_shards"] for st in stats)
    out = {
        "sources.parse_s": total(named("sources.parse")),
        "sources.records": total(named("sources.parse"), "records"),
        "stream.add_s": add_s,
        "stream.add_us_per_record": 1e6 * add_s / records if records else 0.0,
        "stream.records": records,
        "stream.replacements": replacements,
        "stream.snapshot_s": total(named("stream.snapshot")),
        "stream.snapshot_calls": len(named("stream.snapshot")),
        "log.append_s": total(named("log.append")),
        "log.commits": len(named("log.append")),
        "log.db_bytes": db_bytes,
        "log.replay_s": total(named("log.replay")),
        "snapshots.save_s": total(named("snapshots.save")),
        "snapshots.saves": len(named("snapshots.save")),
        "snapshots.load_s": total(named("snapshots.load")),
        "store.recover_s": recover_s,
        "runtime.place_s": total(named("runtime.place")),
        "runtime.dispatch_s": total(dispatch),
        "runtime.dispatch_calls": len(dispatch),
        "runtime.dispatch_ms_per_call":
            1e3 * total(dispatch) / len(dispatch) if dispatch else 0.0,
        "runtime.bytes_out": total(dispatch, "bytes_out"),
        "runtime.bytes_in": total(dispatch, "bytes_in"),
        "runtime.respawns": stat("respawns"),
        "runtime.retries": stat("retries"),
        "runtime.degraded": stat("degraded"),
        "sharded.fits": len(fits),
        "sharded.iterations": stat("iterations"),
        "sharded.delta_frac":
            sum(st["mode"] == "delta" for st in stats) / len(stats)
            if stats else 0.0,
        "sharded.active_shard_frac":
            stat("active") / shard_iterations if shard_iterations else 0.0,
        "sharded.e_block_calls": stat("e_block_calls"),
        "sharded.verify_passes": stat("verify_passes"),
        "sharded.thaws": stat("thaws"),
        "sharded.driver_self_s": sum(own[s.id] for s in fits),
        "phase.e_block_s": total(named("phase.call", phase="e_block")),
        "phase.accumulate_s": total(named("phase.call", phase="accumulate")),
        "phase.m_step_s": total(named("phase.m_step")),
        "phase.calls": len(named("phase.call")) + len(named("phase.m_step")),
        "engine.infer_self_s": sum(own[s.id] for s in infers),
        "engine.read_decode_s": sum(own[s.id] for s in named("engine.read")),
        "engine.cache_hits": sum(s.id not in fits_under for s in infers),
        "engine.cache_misses": sum(s.id in fits_under for s in infers),
        "engine.cold_fits": sum(bool(s.attrs.get("cold")) for s in fits),
        "trace.spans": len(spans),
    }
    # Totals become per-episode values; ratios and the store's end
    # state are already per episode.
    ratios = {"stream.add_us_per_record", "runtime.dispatch_ms_per_call",
              "sharded.delta_frac", "sharded.active_shard_frac",
              "stream.replacements", "log.db_bytes", "store.recover_s"}
    return {name: value if name in ratios else value / per
            for name, value in out.items()}
