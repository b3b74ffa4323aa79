"""Method-zoo sharding benchmark: the rest of the zoo vs its old loops.

The method-zoo sharding pass (CATD, PM, KOS, Minimax, Minimax-Ord,
BCC, CBCC, VI-MF, VI-BP) is measured against the frozen pre-refactor
implementations in :mod:`benchmarks.reference_em`, enforcing:

1. **Exactness** — every method's single-shard fit reproduces its
   pre-refactor loop bit-for-bit.
2. **Agreement** — the 8-shard fit agrees with the single-shard fit on
   at least 99.9% of inferred truths (the Gibbs samplers compare at
   one shard, where the chain is bit-identical; their multi-shard
   chains are statistically equivalent, not comparable truth-by-truth).
3. **Speedup** — CATD and PM, the tentpole targets, beat their
   pre-refactor loops by >= 2x wall-clock at the full 1M-answer load
   even on a single core.  The fused shard kernels alone carry that,
   so the gate times the single-shard tier; the multi-shard column
   adds the sorted shard layout's one-time construction, which only
   pays off under the thread/process executors on real cores.  The
   smoke load only gates a no-collapse floor.  The other methods
   report their speedups without a hard target — their loads are
   scaled down because the pre-refactor loops are the bottleneck.

Run ``python -m benchmarks.bench_method_zoo`` for the full load,
``--smoke`` for the CI-sized variant; the pytest entry point runs the
smoke size through the shared report fixture.
"""

from __future__ import annotations

import argparse
import os
import time

import numpy as np

from repro.core.policy import ExecutionPolicy
from repro.core.registry import create
from repro.experiments.reporting import format_table

from .bench_sharded import synthetic_answers
from .conftest import save_json, save_report
from .reference_em import (
    reference_bcc,
    reference_catd,
    reference_cbcc,
    reference_kos,
    reference_minimax,
    reference_minimax_ordinal,
    reference_pm,
    reference_vi_bp,
    reference_vi_mf,
)

FULL_ANSWERS = 1_000_000
SMOKE_ANSWERS = 100_000
N_SHARDS = 8

#: Per-method slice of the base load.  CATD/PM carry the speedup gate
#: at full scale; the others shrink so their (deliberately unoptimised)
#: reference loops keep the benchmark's wall-clock sane.
LOAD_FRACTION = {
    "CATD": 1.0, "PM": 1.0,
    "KOS": 0.2, "VI-MF": 0.2, "VI-BP": 0.2,
    "Minimax": 0.02, "Minimax-Ord": 0.02,
    "BCC": 0.05, "CBCC": 0.05,
}

#: Methods whose multi-shard run is only statistically equivalent to
#: the single-shard chain (merge order steers the rejection samplers),
#: so the agreement check compares the tiers at one shard instead.
GIBBS = ("BCC", "CBCC")


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


def _reference_posterior(name, method, answers):
    tol, it = method.tolerance, method.max_iter
    if name == "CATD":
        return reference_catd(answers, tol, it, seed=0)[2]
    if name == "PM":
        return reference_pm(answers, tol, it, seed=0)[2]
    if name == "KOS":
        return reference_kos(answers, method.n_rounds, seed=0)[2]
    if name == "Minimax":
        return reference_minimax(answers, tol, it, seed=0)[2]
    if name == "Minimax-Ord":
        return reference_minimax_ordinal(answers, tol, it, seed=0)[2]
    if name == "BCC":
        return reference_bcc(answers, method.n_samples, method.burn_in,
                             seed=0)[2]
    if name == "CBCC":
        return reference_cbcc(answers, method.n_communities,
                              method.n_samples, method.burn_in, seed=0)[2]
    if name == "VI-MF":
        return reference_vi_mf(answers, tol, it, seed=0)[2]
    if name == "VI-BP":
        return reference_vi_bp(answers, tol, it, seed=0)[2]
    raise ValueError(name)


def run_benchmark(n_answers: int, n_shards: int = N_SHARDS):
    cpus = os.cpu_count() or 1
    full_scale = n_answers >= 500_000
    # CATD/PM's >=2x is a claim about the large-load regime; the smoke
    # load (fits of a few milliseconds, dominated by fixed per-fit
    # costs) gates correctness plus a no-collapse floor.
    tentpole_target = 2.0 if full_scale else 0.3
    policy = ExecutionPolicy(
        n_shards=n_shards,
        max_workers=min(n_shards, cpus),
        executor="process" if (cpus > 1 and full_scale) else "serial",
    )
    rows, checks = [], []
    for name, fraction in LOAD_FRACTION.items():
        answers = synthetic_answers(max(2_000, int(n_answers * fraction)))
        method = create(name, seed=0)
        naive_posterior, naive_s = _timed(
            lambda: _reference_posterior(name, method, answers))
        one_shard, one_s = _timed(
            lambda: create(name, seed=0).fit(answers))
        sharded, sharded_s = _timed(
            lambda: create(name, seed=0).fit(answers, policy=policy))
        bitwise = np.array_equal(naive_posterior, one_shard.posterior)
        if name in GIBBS:
            # Multi-shard Gibbs chains are statistically equivalent but
            # not truth-comparable; pin the seeded determinism of the
            # single-shard chain instead.
            repeat = create(name, seed=0).fit(answers)
            agreement = float((repeat.truths == one_shard.truths).mean())
        else:
            agreement = float((sharded.truths == one_shard.truths).mean())
        speedup = naive_s / max(one_s, 1e-9)
        target = tentpole_target if name in ("CATD", "PM") else 0.0
        rows.append([
            name, f"{answers.n_answers:,}", f"{naive_s:.2f}s",
            f"{one_s:.2f}s", f"{sharded_s:.2f}s", f"{speedup:.2f}x",
            f"{agreement:.4f}", "yes" if bitwise else "NO",
        ])
        checks.append((name, bitwise, agreement, speedup, target))
    title = (
        f"Method-zoo sharding vs pre-refactor loops — base load "
        f"{n_answers:,} answers | {n_shards} shards, "
        f"executor={policy.executor}, {cpus} cpu(s)"
    )
    report = format_table(
        ["method", "answers", "pre-refactor", "sharded(1)",
         f"sharded({n_shards})", "kernel speedup", "truth agreement",
         "1-shard bitwise"],
        rows, title=title)
    payload = {
        "base_answers": n_answers,
        "n_shards": n_shards,
        "executor": policy.executor,
        "methods": [
            {"method": name, "bitwise": bool(bitwise),
             "agreement": agreement, "speedup": speedup, "target": target}
            for name, bitwise, agreement, speedup, target in checks
        ],
    }
    return report, checks, payload


def enforce(checks) -> None:
    for name, bitwise, agreement, speedup, target in checks:
        assert bitwise, (
            f"{name}: single-shard path diverged bit-wise from the "
            f"pre-refactor loop")
        # KOS decodes the sign of near-zero message scores, so the
        # last-ulp merge-order differences can flip the odd tie-grade
        # task; every other method's agreement is effectively exact.
        floor = 0.995 if name == "KOS" else 0.999
        assert agreement >= floor, (
            f"{name}: sharded truth agreement {agreement:.4f} < {floor}")
        assert speedup >= target, (
            f"{name}: speedup {speedup:.2f}x below the "
            f"{target:.1f}x target for this machine")


def test_method_zoo_sharding(benchmark):
    """CI entry point: smoke-sized load through the report fixture."""
    (report, checks, payload) = benchmark.pedantic(
        lambda: run_benchmark(SMOKE_ANSWERS), rounds=1, iterations=1)
    save_report("method_zoo", report)
    save_json("method_zoo", payload)
    enforce(checks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help=f"reduced load ({SMOKE_ANSWERS:,} base "
                             f"answers) for CI smoke runs")
    parser.add_argument("--answers", type=int, default=None,
                        help=f"base answer count (default "
                             f"{FULL_ANSWERS:,})")
    parser.add_argument("--shards", type=int, default=N_SHARDS)
    parser.add_argument("--json", dest="json_path", default=None,
                        metavar="PATH",
                        help="write BENCH_method_zoo.json to PATH (a "
                             "directory or exact file; default "
                             "benchmarks/results/)")
    args = parser.parse_args(argv)
    n_answers = args.answers or (SMOKE_ANSWERS if args.smoke
                                 else FULL_ANSWERS)
    report, checks, payload = run_benchmark(n_answers,
                                            n_shards=args.shards)
    save_report("method_zoo", report)
    save_json("method_zoo", payload, args.json_path)
    enforce(checks)
    print("all method-zoo sharding checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
