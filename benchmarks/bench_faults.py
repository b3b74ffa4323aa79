"""Fault-recovery latency, degrade parity and unarmed-hook overhead.

The measured claims (PR 10 acceptance) on a synthetic decision-making
stream at 4 shards:

* **Recovery is invisible in the numbers** — a worker SIGKILLed
  mid-E-step (a scripted ``kill`` trigger on the third ``e_block``
  dispatch) costs at least one pool respawn, and the recovered fit is
  **bit-identical** to the uninterrupted one.  The extra wall time is
  the recovery latency, reported in ``BENCH_faults.json``.
* **Degradation stays exact** — with the retry budget exhausted
  (``kill`` every dispatch, one retry), the orphaned shards fall back
  to the master's serial spec path and the posterior still matches the
  clean fit to 1e-6 (deterministic phases make it bit-identical; the
  tolerance covers the sampling family's contract).
* **Unarmed hooks are free** — deadline-bounded reply waits plus the
  per-dispatch plan check (the whole fault plane when nothing is
  armed) cost **< 2%** against a fit with the deadline disabled: the
  median armed/bare ratio over OVERHEAD_ROUNDS rounds of back-to-back
  warm refits, alternating which side goes first.  A median rather
  than a minimum: one lucky fit moves a minimum of a few milliseconds
  by several percent, a median over many rounds holds still.

Run ``python -m benchmarks.bench_faults`` for the full size,
``--smoke`` for the CI-sized variant; the pytest entry point runs the
smoke size through the shared report fixture.
"""

from __future__ import annotations

import argparse
import os
import time

import numpy as np

from repro.core.answers import AnswerSet
from repro.core.policy import FaultPolicy, MethodSpec
from repro.core.registry import create
from repro.core.tasktypes import TaskType
from repro.engine.runtime import ShardRuntime
from repro.experiments.reporting import format_table
from repro.faults import FaultPlan
from tests.fault_arming import armed

from .conftest import save_json, save_report

FULL_ANSWERS = 120_000
SMOKE_ANSWERS = 20_000
N_SHARDS = 4
MAX_WORKERS = 2
MAX_ITER = 25
OVERHEAD_ROUNDS = 200
OVERHEAD_LIMIT = 0.02
DEGRADE_TOLERANCE = 1e-6


def synthetic_answers(n_answers: int, seed: int = 0) -> AnswerSet:
    rng = np.random.default_rng(seed)
    n_tasks = max(1, n_answers // 8)
    n_workers = max(8, n_tasks // 300)
    truth = rng.integers(0, 2, n_tasks)
    accuracy = rng.beta(6.0, 2.0, n_workers)
    tasks = rng.integers(0, n_tasks, n_answers)
    workers = rng.integers(0, n_workers, n_answers)
    correct = rng.random(n_answers) < accuracy[workers]
    values = np.where(correct, truth[tasks], 1 - truth[tasks])
    return AnswerSet(tasks, workers, values, TaskType.DECISION_MAKING,
                     n_tasks=n_tasks, n_workers=n_workers)


def timed_fit(answers, plan=None, policy=None, method: str = "D&S"):
    """One fit on a private runtime with ``plan`` armed; returns
    (result, events, seconds)."""
    spec = MethodSpec(method, seed=0, max_iter=MAX_ITER)
    with ShardRuntime(n_shards=N_SHARDS,
                      max_workers=MAX_WORKERS) as runtime:
        t0 = time.perf_counter()
        with armed(plan), runtime.lease(answers, spec,
                                        fault_policy=policy) as lease:
            result = create(spec).fit(answers, shard_runner=lease)
            events = dict(lease.fault_events)
        return result, events, time.perf_counter() - t0


def unarmed_overhead(answers) -> tuple[float, float, float]:
    """Alternating warm refits: hooks on (default policy,
    deadline-bounded waits) vs hooks off (no deadline).  Each round
    fits both back to back, swapping which goes first; the overhead is
    the median over rounds of the armed/bare ratio, so drift in the
    host's speed cancels within a round.  Returns (median armed_s,
    median bare_s, overhead fraction)."""
    spec = MethodSpec("D&S", seed=0, max_iter=MAX_ITER)
    sides = [(FaultPolicy(), []), (FaultPolicy(deadline=None), [])]
    with ShardRuntime(n_shards=N_SHARDS,
                      max_workers=MAX_WORKERS) as runtime:
        for round_ in range(OVERHEAD_ROUNDS):
            for policy, bucket in (sides if round_ % 2 == 0
                                   else sides[::-1]):
                t0 = time.perf_counter()
                with runtime.lease(answers, spec,
                                   stream_key="bench-faults",
                                   fault_policy=policy) as lease:
                    create(spec).fit(answers, shard_runner=lease)
                bucket.append(time.perf_counter() - t0)
    armed, bare = (np.array(bucket) for _, bucket in sides)
    overhead = float(np.median(armed / bare)) - 1.0
    return float(np.median(armed)), float(np.median(bare)), overhead


def run_benchmark(n_answers: int):
    answers = synthetic_answers(n_answers)

    clean, clean_events, clean_s = timed_fit(answers)
    assert not any(clean_events.values())

    kill_plan = FaultPlan.parse("kill:phase=e_block,on=3")
    killed, kill_events, killed_s = timed_fit(
        answers, plan=kill_plan, policy=FaultPolicy(deadline=60.0))
    kill_identical = bool(np.array_equal(clean.posterior,
                                         killed.posterior))
    recovery_s = max(0.0, killed_s - clean_s)

    degrade_plan = FaultPlan.parse("kill:shard=1,count=999")
    degraded, degrade_events, degraded_s = timed_fit(
        answers, plan=degrade_plan,
        policy=FaultPolicy(deadline=60.0, retries=1))
    degrade_diff = float(
        np.abs(clean.posterior - degraded.posterior).max())

    armed_s, bare_s, overhead = unarmed_overhead(answers)

    rows = [
        ["clean", f"{clean_s * 1000:.0f}ms", "-", "-", "-", "-"],
        ["kill mid-E-step", f"{killed_s * 1000:.0f}ms",
         str(kill_events["respawns"]), str(kill_events["retries"]),
         "0", "bit-identical" if kill_identical else "DIVERGED"],
        ["degrade (budget spent)", f"{degraded_s * 1000:.0f}ms",
         str(degrade_events["respawns"]), str(degrade_events["retries"]),
         str(degrade_events["degraded"]), f"{degrade_diff:.1e}"],
    ]
    title = (
        f"Fault recovery — D&S, {N_SHARDS} shards, "
        f"{os.cpu_count() or 1} cpu(s), {answers.n_answers:,} answers | "
        f"recovery latency {recovery_s * 1000:.0f}ms | unarmed hooks "
        f"{armed_s * 1000:.0f}ms vs {bare_s * 1000:.0f}ms bare "
        f"({overhead:+.1%})"
    )
    report = format_table(
        ["scenario", "wall", "respawns", "retries", "degraded",
         "max |dposterior|"],
        rows, title=title)
    checks = {
        "kill_respawns": kill_events["respawns"],
        "kill_identical": kill_identical,
        "degraded_phases": degrade_events["degraded"],
        "degrade_diff": degrade_diff,
        "overhead": overhead,
    }
    payload = {
        "n_answers": answers.n_answers,
        "n_shards": N_SHARDS,
        "clean_s": clean_s,
        "killed_s": killed_s,
        "degraded_s": degraded_s,
        "recovery_latency_s": recovery_s,
        "armed_s": armed_s,
        "bare_s": bare_s,
        **checks,
    }
    return report, checks, payload


def enforce(checks: dict) -> None:
    assert checks["kill_respawns"] >= 1, (
        "the scripted mid-E-step kill never triggered a pool respawn"
    )
    assert checks["kill_identical"], (
        "the recovered fit diverged from the uninterrupted one"
    )
    assert checks["degraded_phases"] >= 1, (
        "exhausting the retry budget never degraded a phase"
    )
    assert checks["degrade_diff"] <= DEGRADE_TOLERANCE, (
        f"degraded posterior diverged: max diff "
        f"{checks['degrade_diff']:.2e} > {DEGRADE_TOLERANCE}"
    )
    assert checks["overhead"] < OVERHEAD_LIMIT, (
        f"unarmed fault hooks cost {checks['overhead']:.1%}; "
        f"the budget is {OVERHEAD_LIMIT:.0%}"
    )


def test_fault_recovery(benchmark):
    """CI entry point: smoke size through the report fixture."""
    report, checks, payload = benchmark.pedantic(
        lambda: run_benchmark(SMOKE_ANSWERS), rounds=1, iterations=1)
    save_report("fault_recovery", report)
    save_json("faults", payload)
    enforce(checks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help=f"reduced load ({SMOKE_ANSWERS:,} answers) "
                             f"for CI smoke runs")
    parser.add_argument("--answers", type=int, default=None,
                        help=f"answer count (default {FULL_ANSWERS:,})")
    parser.add_argument("--json", dest="json_path", default=None,
                        metavar="PATH",
                        help="write BENCH_faults.json to PATH (a "
                             "directory or exact file; default "
                             "benchmarks/results/)")
    args = parser.parse_args(argv)
    n = args.answers or (SMOKE_ANSWERS if args.smoke else FULL_ANSWERS)
    report, checks, payload = run_benchmark(n)
    save_report("fault_recovery", report)
    save_json("faults", payload, args.json_path)
    enforce(checks)
    print("all fault-recovery checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
