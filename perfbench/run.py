"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cohort_delta --seed 1 \\
        --seconds 20 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off.  With ``--trace 1`` it spends half its time untraced and half
traced, reports the per-layer metrics of the traced half (each next to
the end-to-end metric it should move) and the tracing overhead, and
writes the spans as JSON lines under ``perfbench/_work/``.

Every metric is printed as ``name value unit`` and the last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  The exit code is nonzero when any operation
failed or any correctness check did not hold.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import pathlib
import resource
import shutil
import signal
import statistics
import sys
from multiprocessing import resource_tracker

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# The benchmark runs the checkout's own sources, not an installed copy.
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs, layers, loops  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402

WORKDIR = HERE / "_work"

#: name -> unit of every end-to-end metric in the final JSON line.
END_TO_END = {
    "setup_s": "s",
    "refresh_mean_ms": "ms",
    "refresh_p90_ms": "ms",
    "read_mean_ms": "ms",
    "read_p90_ms": "ms",
    "ingest_answers_per_s": "1/s",
    "throughput_answers_per_s": "1/s",
    "peak_rss_mb": "MB",
    "accuracy": "ratio",
}


def end_to_end(tally: loops.Tally) -> dict[str, float]:
    """The latencies are reported as mean and p90, not median and p90.

    On a shared host a CPU's speed flips by up to 2x every few seconds,
    so the samples of one run fall into a fast and a slow mode.  Their
    median lands in the gap between the two and jumps from one mode to
    the other between runs; their mean moves only in proportion to the
    share of slow time.
    """
    def pct(samples, q):
        return 1e3 * float(np.percentile(samples, q))

    def mean(samples):
        return 1e3 * statistics.fmean(samples)

    return {
        "setup_s": statistics.median(tally.setup_s),
        "refresh_mean_ms": mean(tally.refresh_s),
        "refresh_p90_ms": pct(tally.refresh_s, 90),
        "read_mean_ms": mean(tally.read_s),
        "read_p90_ms": pct(tally.read_s, 90),
        "ingest_answers_per_s": tally.ingested / tally.ingest_s,
        "throughput_answers_per_s": tally.loop_answers / tally.loop_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "accuracy": min(tally.accuracy),
    }


def report(tally: loops.Tally) -> None:
    """Human-readable lines the JSON result does not carry."""
    print(f"episodes {tally.episodes}; samples: setup "
          f"{len(tally.setup_s)}, refresh {len(tally.refresh_s)}, "
          f"read {len(tally.read_s)}, recover {len(tally.recover_s)}")
    if tally.recover_s:
        print(f"recover_s {statistics.median(tally.recover_s):.6g} s")
    else:
        print("recover_s n/a (no store on this workload)")
    print(f"error_rate {tally.failed / max(tally.attempted, 1):.6g} ratio "
          f"({tally.failed} of {tally.attempted})")
    if tally.parity is not None:
        print(f"posterior parity vs batch fit {tally.parity:.3g}")
    for failure in tally.failures:
        print(f"FAILED: {failure}")


#: prctl option that makes orphaned descendants re-parent to this process.
PR_SET_CHILD_SUBREAPER = 36


def _adopt_orphans() -> None:
    """Become the parent of any descendant whose own parent exits first
    (Linux only), so :func:`_reap_children` can wait for it too."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _children() -> list[int]:
    """Pids whose parent is this process (dead but unreaped ones too)."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                ppid = int(stat.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            pids.append(int(entry))
    return pids


def _reap_children() -> None:
    """Stop and wait for every process the run started.

    The process tier's worker pools are joined when the engine closes;
    what remains is multiprocessing's shared-memory tracker, which no
    one waits for, and anything a worker left behind.
    """
    resource_tracker._resource_tracker._stop()
    if not os.path.isdir("/proc"):
        return
    for _ in range(10):
        pids = _children()
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


def main(argv=None) -> int:
    _adopt_orphans()
    # Start the shared-memory tracker before any worker pool forks, so
    # the workers report to this one instead of each starting its own.
    resource_tracker.ensure_running()
    try:
        return _run(argv)
    finally:
        _reap_children()


def _run(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(inputs.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size (tiny: the self-tests)")
    args = parser.parse_args(argv)

    data = inputs.GENERATORS[args.workload](args.seed, args.size)
    # The generated inputs live as long as the run; keep their objects
    # out of the collector's reach so they do not lengthen the engine's
    # garbage-collection pauses.
    gc.collect()
    gc.freeze()
    WORKDIR.mkdir(exist_ok=True)
    workdir = str(WORKDIR / f"{args.workload}-{os.getpid()}")
    if args.trace:
        plain = loops.drive(data, args.seconds / 2, workdir)
        tracer = Tracer()
        layers.instrument(tracer)
        try:
            traced = loops.drive(data, args.seconds / 2, workdir, tracer)
        finally:
            tracer.restore()
        tracer.write_jsonl(WORKDIR / f"spans-{args.workload}.jsonl")
        tallies = (plain, traced)
        metrics = {}
        if not (plain.failed or traced.failed):
            metrics = layers.layer_metrics(
                tracer, traced.episodes, replacements=traced.replacements,
                db_bytes=traced.db_bytes,
                recover_s=(statistics.median(traced.recover_s)
                           if traced.recover_s else 0.0))
            # Traced minus untraced: negative is what tracing costs.
            metrics["trace.overhead_answers_per_s"] = (
                traced.loop_answers / traced.loop_s
                - plain.loop_answers / plain.loop_s)
        units = {name: spec[0] for name, spec in layers.LAYER_METRICS.items()}
        for name, value in metrics.items():
            moves = ", ".join(f"{metric} on {workload}" for metric, workload
                              in layers.LAYER_METRICS[name][2])
            print(f"{name} {value:.6g} {units[name]}"
                  + (f"  -> {moves}" if moves else ""))
    else:
        tally = loops.drive(data, args.seconds, workdir)
        tallies = (tally,)
        metrics = end_to_end(tally) if not tally.failed else {}
        units = END_TO_END
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {units[name]}")
    shutil.rmtree(workdir, ignore_errors=True)
    for tally in tallies:
        report(tally)

    failed = sum(t.failed for t in tallies)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(t.attempted for t in tallies),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
