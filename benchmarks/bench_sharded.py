"""Sharded map-reduce EM benchmark on a million-answer synthetic load.

Three claims are measured and enforced:

1. **Exactness** — the single-shard sharded path reproduces the
   *pre-refactor* global-array EM bit-for-bit (the reference
   implementations in :mod:`benchmarks.reference_em` are faithful
   copies of the old inner loops, shared with the parity test suite).
2. **Agreement** — the 8-shard fit agrees with the single-shard fit on
   at least 99.9% of inferred truths.
3. **Speedup** — the 8-shard fit beats the pre-refactor EM by >= 2x
   wall-clock.  Two effects stack: the frozen CSR scatter operators
   (single-core, what a 1-core CI runner can verify — they carry D&S
   past 2x alone) and process fan-out over shards on multi-core hosts
   (what GLAD, whose gradient loop is pure elementwise compute, needs
   to reach 2x).  On single-core hosts the GLAD target degrades
   gracefully to "no slower than the pre-refactor loop" and the report
   records the machine context.

Run ``python -m benchmarks.bench_sharded`` for the full 1M-answer load,
``--smoke`` for the CI-sized variant; the pytest entry point runs the
smoke size through the shared report fixture.
"""

from __future__ import annotations

import argparse
import os
import time

import numpy as np

from repro.core.answers import AnswerSet
from repro.core.policy import ExecutionPolicy
from repro.core.registry import create
from repro.core.tasktypes import TaskType
from repro.experiments.reporting import format_table

from .conftest import save_json, save_report
from .reference_em import reference_confusion_em, reference_glad

FULL_ANSWERS = 1_000_000
SMOKE_ANSWERS = 30_000
N_SHARDS = 8
REDUNDANCY = 8
MAX_ITER = 50
GLAD_MAX_ITER = 15


def synthetic_answers(n_answers: int, seed: int = 0) -> AnswerSet:
    """A decision-making workload with a realistic worker-accuracy mix."""
    rng = np.random.default_rng(seed)
    n_tasks = max(1, n_answers // REDUNDANCY)
    n_workers = max(8, n_tasks // 300)
    truth = rng.integers(0, 2, n_tasks)
    accuracy = rng.beta(6.0, 2.0, n_workers)  # mostly good, some spammy
    tasks = rng.integers(0, n_tasks, n_answers)
    workers = rng.integers(0, n_workers, n_answers)
    correct = rng.random(n_answers) < accuracy[workers]
    values = np.where(correct, truth[tasks], 1 - truth[tasks])
    return AnswerSet(tasks, workers, values, TaskType.DECISION_MAKING,
                     n_tasks=n_tasks, n_workers=n_workers)


# ----------------------------------------------------------------------

def _timed(fn, rounds: int = 2):
    """Best-of-``rounds`` wall-clock timing (first round's result)."""
    result = None
    best = float("inf")
    for attempt in range(rounds):
        started = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - started)
        if attempt == 0:
            result = out
    return result, best


def run_benchmark(n_answers: int, n_shards: int = N_SHARDS):
    answers = synthetic_answers(n_answers)
    cpus = os.cpu_count() or 1
    # The >=2x wall-clock targets are claims about the large-load regime
    # (the fixed per-fit costs amortise over many heavy iterations); the
    # smoke load only gates correctness plus a no-collapse floor.  D&S
    # clears 2x even on one core (the fused CSR kernels alone); GLAD's
    # gradient loop is pure elementwise compute, so its 2x needs real
    # cores for the process fan-out and degrades to a no-regression
    # check on single-core hosts.
    full_scale = n_answers >= 500_000
    ds_target = 2.0 if full_scale else 0.5
    glad_target = (2.0 if cpus > 1 else 0.8) if full_scale else 0.5
    # Processes only pay off at scale: per-fit pool spawn plus the
    # per-phase IPC dwarfs a smoke-sized fit, so the smoke gate (and any
    # single-core host) stays on the in-process tier.
    policy = ExecutionPolicy(
        n_shards=n_shards,
        max_workers=min(n_shards, cpus),
        executor="process" if (cpus > 1 and full_scale) else "serial",
    )
    mode = policy.resolve(answers).mode
    jobs = [
        ("D&S", MAX_ITER,
         lambda tol, it: reference_confusion_em(
             answers, 0.01, 0.0, tol, it).posterior, ds_target),
        ("GLAD", GLAD_MAX_ITER,
         lambda tol, it: reference_glad(answers, tol, it)[0], glad_target),
    ]
    rows, checks = [], []
    for name, max_iter, reference, target in jobs:
        method = create(name, seed=0, max_iter=max_iter)
        naive_posterior, naive_s = _timed(
            lambda: reference(method.tolerance, max_iter))
        one_shard, one_s = _timed(
            lambda: create(name, seed=0, max_iter=max_iter).fit(answers))
        sharded, sharded_s = _timed(
            lambda: create(name, seed=0, max_iter=max_iter).fit(
                answers, policy=policy))
        bitwise = np.array_equal(naive_posterior, one_shard.posterior)
        agreement = float((sharded.truths == one_shard.truths).mean())
        speedup = naive_s / max(sharded_s, 1e-9)
        rows.append([
            name, f"{answers.n_answers:,}", f"{naive_s:.2f}s",
            f"{one_s:.2f}s", f"{sharded_s:.2f}s", f"{speedup:.2f}x",
            f"{agreement:.4f}", "yes" if bitwise else "NO",
        ])
        checks.append((name, bitwise, agreement, speedup, target))
    title = (
        f"Sharded map-reduce EM vs pre-refactor EM — "
        f"{answers.n_answers:,} answers, {answers.n_tasks:,} tasks, "
        f"{answers.n_workers} workers | {n_shards} shards, "
        f"executor={mode}, {cpus} cpu(s)"
    )
    report = format_table(
        ["method", "answers", "pre-refactor", "sharded(1)",
         f"sharded({n_shards})", "speedup", "truth agreement",
         "1-shard bitwise"],
        rows, title=title)
    payload = {
        "n_answers": answers.n_answers,
        "n_shards": n_shards,
        "executor": mode,
        "methods": [
            {"method": name, "bitwise": bool(bitwise),
             "agreement": agreement, "speedup": speedup, "target": target}
            for name, bitwise, agreement, speedup, target in checks
        ],
    }
    return report, checks, payload


def enforce(checks) -> None:
    for name, bitwise, agreement, speedup, target in checks:
        assert bitwise, f"{name}: single-shard path diverged bit-wise " \
                        f"from the pre-refactor EM"
        assert agreement >= 0.999, (
            f"{name}: sharded truth agreement {agreement:.4f} < 0.999"
        )
        assert speedup >= target, (
            f"{name}: speedup {speedup:.2f}x below the "
            f"{target:.1f}x target for this machine"
        )


def test_sharded_speedup(benchmark):
    """CI entry point: smoke-sized load through the report fixture."""
    (report, checks, payload) = benchmark.pedantic(
        lambda: run_benchmark(SMOKE_ANSWERS), rounds=1, iterations=1)
    save_report("sharded_em", report)
    save_json("sharded", payload)
    enforce(checks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help=f"reduced load ({SMOKE_ANSWERS:,} answers) "
                             f"for CI smoke runs")
    parser.add_argument("--answers", type=int, default=None,
                        help=f"answer count (default {FULL_ANSWERS:,})")
    parser.add_argument("--shards", type=int, default=N_SHARDS)
    parser.add_argument("--json", dest="json_path", default=None,
                        metavar="PATH",
                        help="write BENCH_sharded.json to PATH (a "
                             "directory or exact file; default "
                             "benchmarks/results/)")
    args = parser.parse_args(argv)
    n_answers = args.answers or (SMOKE_ANSWERS if args.smoke
                                 else FULL_ANSWERS)
    report, checks, payload = run_benchmark(n_answers, n_shards=args.shards)
    save_report("sharded_em", report)
    save_json("sharded", payload, args.json_path)
    enforce(checks)
    print("all sharded-EM checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
