"""Persistent shard runtime vs per-fit process runtimes on a grown stream.

The measured claim (PR 3 acceptance): on a stream of refits at 8
shards, the persistent :class:`~repro.engine.runtime.ShardRuntime`
cuts the **non-EM overhead per refit** — process-pool spawn, shared
-memory allocation and answer placement, teardown — by **>= 5x**
against a per-fit runtime (a fresh ``ShardRuntime`` plus one lease,
closed together), while producing posteriors that match the per-fit
path to 1e-10.

Protocol: one synthetic decision-making stream grows ~3% per step.
Each step is refit twice —

* **per-fit** — construct a fresh ``ShardRuntime`` and lease it (which
  spawns the pinned workers and copies the task-sorted arrays into
  fresh ``/dev/shm`` segments), fit, close the lease and the runtime;
* **warm** — lease the one persistent runtime (``stream_key`` pinned),
  which reuses the warm pools and *appends* only the new answer tail
  to the placed segments.

Overhead is the lifecycle time around the fit (construct/lease +
close), EM time is the fit call itself; both are reported per refit.

Run ``python -m benchmarks.bench_runtime`` for the full-size stream,
``--smoke`` for the CI-sized variant; the pytest entry point runs the
smoke size through the shared report fixture.
"""

from __future__ import annotations

import argparse
import os
import time

import numpy as np

from repro.core.answers import AnswerSet
from repro.core.policy import ExecutionPolicy, MethodSpec
from repro.core.registry import create
from repro.core.tasktypes import TaskType
from repro.engine.runtime import ShardRuntime
from repro.experiments.reporting import format_table

from .conftest import save_json, save_report

FULL_BASE_ANSWERS = 400_000
SMOKE_BASE_ANSWERS = 30_000
GROWTH_STEPS = 5
GROWTH_FRACTION = 0.03
N_SHARDS = 8
MAX_ITER = 25
OVERHEAD_TARGET = 5.0
POSTERIOR_TOLERANCE = 1e-10


def synthetic_stream(base_answers: int, seed: int = 0):
    """Arrival-order snapshots of a growing stream (each a prefix of
    the next — the append-only property the extend path relies on)."""
    rng = np.random.default_rng(seed)
    total = int(base_answers * (1 + GROWTH_FRACTION * GROWTH_STEPS)) + 1
    n_tasks = max(1, base_answers // 8)
    n_workers = max(8, n_tasks // 300)
    truth = rng.integers(0, 2, n_tasks)
    accuracy = rng.beta(6.0, 2.0, n_workers)
    tasks = rng.integers(0, n_tasks, total)
    workers = rng.integers(0, n_workers, total)
    correct = rng.random(total) < accuracy[workers]
    values = np.where(correct, truth[tasks], 1 - truth[tasks])
    counts = [base_answers]
    for _ in range(GROWTH_STEPS):
        counts.append(min(total,
                          counts[-1] + int(base_answers * GROWTH_FRACTION)))
    return [
        AnswerSet(tasks[:n], workers[:n], values[:n],
                  TaskType.DECISION_MAKING,
                  n_tasks=n_tasks, n_workers=n_workers)
        for n in counts
    ]


def run_benchmark(base_answers: int, n_shards: int = N_SHARDS,
                  method: str = "D&S"):
    snapshots = synthetic_stream(base_answers)
    # The policy-configured spelling: what to run is a MethodSpec, how
    # to run is an ExecutionPolicy resolved to a concrete process plan
    # (both paths below execute that same plan).
    spec = MethodSpec(method, seed=0, max_iter=MAX_ITER)
    plan = ExecutionPolicy(n_shards=n_shards,
                           executor="process").resolve(snapshots[0])
    rows = []
    overhead_perfit, overhead_warm = [], []
    parity = []
    with ShardRuntime(n_shards=plan.n_shards,
                      max_workers=plan.max_workers) as runtime:
        for step, answers in enumerate(snapshots):
            # Per-fit path: spawn + place + fit + teardown, every time.
            t0 = time.perf_counter()
            private = ShardRuntime(n_shards=plan.n_shards,
                                   max_workers=plan.max_workers)
            runner = private.lease(answers, spec)
            t1 = time.perf_counter()
            cold = create(spec).fit(answers, shard_runner=runner)
            t2 = time.perf_counter()
            runner.close()
            private.close()
            t3 = time.perf_counter()
            perfit_over = (t1 - t0) + (t3 - t2)
            perfit_em = t2 - t1

            # Warm path: lease the persistent runtime; growth appends.
            t0 = time.perf_counter()
            lease = runtime.lease(answers, spec,
                                  stream_key="bench-stream")
            t1 = time.perf_counter()
            warm = create(spec).fit(answers, shard_runner=lease)
            t2 = time.perf_counter()
            lease.close()
            t3 = time.perf_counter()
            warm_over = (t1 - t0) + (t3 - t2)
            warm_em = t2 - t1

            diff = float(np.abs(cold.posterior - warm.posterior).max())
            parity.append(diff)
            overhead_perfit.append(perfit_over)
            overhead_warm.append(warm_over)
            rows.append([
                step, f"{answers.n_answers:,}", runtime.last_placement,
                f"{perfit_over * 1000:.1f}ms", f"{warm_over * 1000:.1f}ms",
                f"{perfit_over / max(warm_over, 1e-9):.1f}x",
                f"{perfit_em * 1000:.0f}ms", f"{warm_em * 1000:.0f}ms",
                f"{diff:.1e}",
            ])
        spawns = runtime.pool_spawns
        extends = runtime.extends
    # The enforced ratio covers the *refits* (steps 1+): on step 0 both
    # paths perform the same first placement, which only dilutes the
    # steady-state claim the persistent runtime makes.
    mean_perfit = float(np.mean(overhead_perfit[1:]))
    mean_warm = float(np.mean(overhead_warm[1:]))
    ratio = mean_perfit / max(mean_warm, 1e-9)
    title = (
        f"Persistent runtime vs per-fit process runtimes — {method}, "
        f"{n_shards} shards, {os.cpu_count() or 1} cpu(s); "
        f"{len(snapshots) - 1} refits on a stream growing "
        f"{GROWTH_FRACTION:.0%}/step | warm path: {spawns} pool spawn(s), "
        f"{extends} segment extend(s) | mean non-EM overhead per refit "
        f"{mean_perfit * 1000:.1f}ms -> {mean_warm * 1000:.1f}ms "
        f"({ratio:.1f}x lower)"
    )
    report = format_table(
        ["refit", "answers", "placement", "per-fit overhead",
         "warm overhead", "ratio", "per-fit EM", "warm EM",
         "max |dposterior|"],
        rows, title=title)
    checks = {
        "ratio": ratio,
        "parity": max(parity),
        "spawns": spawns,
        "extends": extends,
    }
    payload = {
        "base_answers": base_answers,
        "n_shards": n_shards,
        "method": method,
        "growth_fraction": GROWTH_FRACTION,
        "mean_overhead_perfit_s": mean_perfit,
        "mean_overhead_warm_s": mean_warm,
        **checks,
    }
    return report, checks, payload


def enforce(checks: dict) -> None:
    assert checks["spawns"] == 1, (
        f"warm path spawned pools {checks['spawns']} times; the whole "
        f"stream must spawn exactly once"
    )
    assert checks["extends"] >= 1, (
        "stream growth never took the segment-extend path"
    )
    assert checks["parity"] < POSTERIOR_TOLERANCE, (
        f"warm posteriors diverged from the per-fit path: "
        f"max diff {checks['parity']:.2e} >= {POSTERIOR_TOLERANCE}"
    )
    assert checks["ratio"] >= OVERHEAD_TARGET, (
        f"non-EM overhead only {checks['ratio']:.1f}x lower; "
        f"target is {OVERHEAD_TARGET}x"
    )


def test_runtime_overhead(benchmark):
    """CI entry point: smoke-sized stream through the report fixture."""
    report, checks, payload = benchmark.pedantic(
        lambda: run_benchmark(SMOKE_BASE_ANSWERS), rounds=1, iterations=1)
    save_report("runtime_overhead", report)
    save_json("runtime", payload)
    enforce(checks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help=f"reduced load ({SMOKE_BASE_ANSWERS:,} base "
                             f"answers) for CI smoke runs")
    parser.add_argument("--answers", type=int, default=None,
                        help=f"base answer count "
                             f"(default {FULL_BASE_ANSWERS:,})")
    parser.add_argument("--shards", type=int, default=N_SHARDS)
    parser.add_argument("--json", dest="json_path", default=None,
                        metavar="PATH",
                        help="write BENCH_runtime.json to PATH (a "
                             "directory or exact file; default "
                             "benchmarks/results/)")
    args = parser.parse_args(argv)
    base = args.answers or (SMOKE_BASE_ANSWERS if args.smoke
                            else FULL_BASE_ANSWERS)
    report, checks, payload = run_benchmark(base, n_shards=args.shards)
    save_report("runtime_overhead", report)
    save_json("runtime", payload, args.json_path)
    enforce(checks)
    print("all persistent-runtime checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
