"""Delta refits vs warm full refits on a growing answer stream.

The measured claim (PR 5 acceptance): with 8 shards and ~3% answer
growth per step, the **delta refit** path (``ExecutionPolicy(refit=
"delta")`` — dirty-shard priming plus converged-shard freezing, see
:mod:`repro.inference.sharded`) beats the **PR 3 warm full refit** —
the same engine, same tier, same tolerance, ``refit="full"`` — by
**>= 3x per refit** on the refits that delta mode targets, while the
stream's final posteriors match the full path to 1e-6 and the labels
agree at >= 0.999.  ``refit="full"`` itself is additionally pinned
bit-identical to a hand-driven warm-refit loop (the pre-delta code
path), so the default mode cannot drift.

Gated scenario — *cohort arrival*: a converged 400k-answer corpus
(task-range-local worker pools, answers ingested in task-creation
order) receives a new task cohort served by its own pool of noisy new
workers, streaming in over five ~0.6% batches (+3% total).  The new
cohort lands in one task-range shard, so each refit is one hard, cold
subproblem (ambiguous new workers need many EM iterations) embedded in
an already-converged stream: the full path pays full E/M sweeps over
every shard for every one of those iterations, the delta path pays for
the dirty shard plus periodic full-verify exchanges.  The >= 3x gate
covers the first two refits — the data-sparse arrivals where the cohort
workers are still ambiguous, which dominate the stream's refit bill;
later refits (cohort nearly saturated) are reported ungated, as are the
growth-rate (1%/3%/10%) and skew (uniform vs hot single-task-range)
trajectory rows measured at a reduced scale.

Delta refits trade a bounded, *verified* approximation for that
speedup: frozen shards may lag the moving parameters by at most
``freeze_tol`` between verify passes (the bench pins ``freeze_tol=3e-8``
against a 1e-7 EM tolerance, which keeps the measured parity well
inside the 1e-6 bound).  When the growth is uniform every shard is
dirty and the win shrinks toward the freezing tail — the uniform rows
document that honestly.

Run ``python -m benchmarks.bench_delta_refit`` for the full-size run,
``--smoke`` for the CI-sized gate, ``--json PATH`` for the
machine-readable ``BENCH_delta_refit.json`` trajectory point.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.core.policy import ExecutionPolicy
from repro.core.tasktypes import TaskType
from repro.engine import InferenceEngine
from repro.experiments.reporting import format_table

from .conftest import save_json, save_report

SMOKE_BASE_ANSWERS = 400_000
FULL_BASE_ANSWERS = 1_000_000
TRAJECTORY_BASE_ANSWERS = 60_000
N_SHARDS = 8
GROWTH_STEPS = 5
GROWTH_FRACTION = 0.03
TOLERANCE = 1e-7
FREEZE_TOL = 3e-8
VERIFY_EVERY = 10
MAX_ITER = 500
SPEEDUP_TARGET = 3.0
PARITY_TOLERANCE = 1e-6
AGREEMENT_FLOOR = 0.999
#: Refits covered by the >= 3x gate: the data-sparse cohort arrivals.
GATED_REFITS = 2


# ----------------------------------------------------------------------
# Stream builders
# ----------------------------------------------------------------------

def cohort_stream(base_answers: int, seed: int = 1, redundancy: int = 8,
                  steps: int = GROWTH_STEPS,
                  growth: float = GROWTH_FRACTION) -> list[list[tuple]]:
    """Converged base corpus + a new task cohort with its own noisy
    worker pool arriving over ``steps`` batches (the gated scenario)."""
    rng = np.random.default_rng(seed)
    n_tasks = base_answers // redundancy
    n_workers = max(64, base_answers // 500)
    g = int(base_answers * growth)
    new_tasks = max(2, g // redundancy)
    new_workers = max(8, new_tasks // 20)
    truth = rng.integers(0, 2, n_tasks + new_tasks)
    acc = np.concatenate([rng.beta(6, 2, n_workers),
                          rng.beta(3, 2, new_workers)])  # noisy cohort pool
    # Base answers arrive in task-creation order, so the stream's
    # first-appearance task indexing matches the generator's ids.
    base_t = np.sort(rng.integers(0, n_tasks, base_answers), kind="stable")
    base_w = rng.integers(0, n_workers, base_answers)
    batches = [(base_t, base_w)]
    chunk = g // steps
    for s in range(steps):
        size = chunk if s < steps - 1 else g - chunk * (steps - 1)
        batches.append((n_tasks + rng.integers(0, new_tasks, size),
                        n_workers + rng.integers(0, new_workers, size)))
    out = []
    for t, w in batches:
        correct = rng.random(len(t)) < acc[w]
        v = np.where(correct, truth[t], 1 - truth[t])
        out.append(list(zip(t.tolist(), w.tolist(), v.tolist())))
    return out


def skew_stream(base_answers: int, skew: str, growth: float,
                seed: int = 0, redundancy: int = 8,
                steps: int = 3) -> list[list[tuple]]:
    """Fixed task/worker universe growing by ``growth`` per step,
    either uniformly or concentrated on the newest task cohort (the
    trajectory scenarios)."""
    rng = np.random.default_rng(seed)
    n_tasks = base_answers // redundancy
    n_workers = max(64, base_answers // 500)
    truth = rng.integers(0, 2, n_tasks)
    acc = rng.beta(6, 2, n_workers)
    base_t = np.sort(rng.integers(0, n_tasks, base_answers), kind="stable")
    batches = [base_t]
    g = int(base_answers * growth)
    hotspan = max(1, n_tasks // 16)
    for _ in range(steps):
        if skew == "hot":
            batches.append(n_tasks - hotspan
                           + rng.integers(0, hotspan, g))
        else:
            batches.append(rng.integers(0, n_tasks, g))
    out = []
    for t in batches:
        w = rng.integers(0, n_workers, len(t))
        correct = rng.random(len(t)) < acc[w]
        v = np.where(correct, truth[t], 1 - truth[t])
        out.append(list(zip(t.tolist(), w.tolist(), v.tolist())))
    return out


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------

def run_stream(batches, refit: str, *, method: str = "D&S",
               executor: str = "serial", tolerance: float = TOLERANCE,
               freeze_tol: float | None = FREEZE_TOL,
               verify_every: int = VERIFY_EVERY):
    """Feed a stream through one engine; returns per-refit telemetry."""
    policy = ExecutionPolicy(n_shards=N_SHARDS, executor=executor,
                             refit=refit, freeze_tol=freeze_tol,
                             verify_every=verify_every)
    rows = []
    with InferenceEngine(TaskType.DECISION_MAKING, policy=policy,
                         seed=0) as engine:
        engine.add_answers(batches[0])
        result = engine.infer(method, tolerance=tolerance,
                              max_iter=MAX_ITER)
        for batch in batches[1:]:
            engine.add_answers(batch)
            started = time.perf_counter()
            result = engine.infer(method, tolerance=tolerance,
                                  max_iter=MAX_ITER)
            rows.append({
                "seconds": time.perf_counter() - started,
                "fit_stats": result.fit_stats,
            })
    return result, rows


def _hand_driven_warm_refits(batches, method: str = "D&S"):
    """The pre-delta spelling of the full warm-refit stream: explicit
    ``fit(warm_start=...)`` chaining over engine snapshots."""
    from repro.core.registry import create

    policy = ExecutionPolicy(n_shards=N_SHARDS, executor="serial")
    with InferenceEngine(TaskType.DECISION_MAKING, policy=policy,
                         seed=0) as engine:
        previous = None
        for batch in batches:
            engine.add_answers(batch)
            snapshot = engine.stream.snapshot()
            instance = create(method, seed=0, tolerance=TOLERANCE,
                              max_iter=MAX_ITER)
            previous = instance.fit(snapshot, warm_start=previous,
                                    policy=policy)
    return previous


def run_cohort_benchmark(base_answers: int):
    """The gated cohort-arrival comparison; returns (report rows, checks,
    json payload)."""
    batches = cohort_stream(base_answers)
    full, full_rows = run_stream(batches, "full")
    delta, delta_rows = run_stream(batches, "delta")

    # refit="full" must be bit-identical to the pre-delta warm-refit
    # loop.  The baseline is driven the pre-delta way — explicit
    # warm_start chaining over snapshots, no refit policy, no engine
    # cache — so a regression of the full path cannot hide behind
    # comparing the same code to itself.
    baseline = _hand_driven_warm_refits(batches)
    bitwise = (np.array_equal(full.posterior, baseline.posterior)
               and np.array_equal(full.truths, baseline.truths))

    speedups = [f["seconds"] / d["seconds"]
                for f, d in zip(full_rows, delta_rows)]
    parity = float(np.abs(full.posterior - delta.posterior).max())
    agreement = float((full.truths == delta.truths).mean())
    rows = []
    for i, (f, d, s) in enumerate(zip(full_rows, delta_rows, speedups)):
        fs = d["fit_stats"]
        rows.append([
            i + 1, "gated" if i < GATED_REFITS else "",
            f"{f['seconds'] * 1e3:.0f}ms",
            f"{f['fit_stats'].iterations}",
            f"{d['seconds'] * 1e3:.0f}ms",
            f"{fs.iterations}",
            f"{fs.dirty_shards}/{fs.n_shards}",
            f"{fs.e_block_calls}",
            f"{f['fit_stats'].e_block_calls}",
            f"{fs.verify_passes}",
            f"{s:.2f}x",
        ])
    gated = float(np.mean(speedups[:GATED_REFITS]))
    checks = {
        "gated_speedup": gated,
        "mean_speedup": float(np.mean(speedups)),
        "parity": parity,
        "agreement": agreement,
        "full_bitwise": bitwise,
    }
    payload = {
        "scenario": "cohort_arrival",
        "base_answers": base_answers,
        "n_shards": N_SHARDS,
        "tolerance": TOLERANCE,
        "freeze_tol": FREEZE_TOL,
        "verify_every": VERIFY_EVERY,
        "refit_seconds_full": [r["seconds"] for r in full_rows],
        "refit_seconds_delta": [r["seconds"] for r in delta_rows],
        "speedups": speedups,
        "delta_fit_stats": [r["fit_stats"].as_dict() for r in delta_rows],
        **checks,
    }
    return rows, checks, payload


def run_trajectory(base_answers: int):
    """Ungated growth-rate x skew rows (the perf trajectory)."""
    rows, points = [], []
    for skew in ("hot", "uniform"):
        for growth in (0.01, 0.03, 0.10):
            batches = skew_stream(base_answers, skew, growth)
            full, full_rows = run_stream(batches, "full",
                                         tolerance=1e-6, freeze_tol=None)
            delta, delta_rows = run_stream(batches, "delta",
                                           tolerance=1e-6, freeze_tol=None)
            speedup = (np.mean([r["seconds"] for r in full_rows])
                       / np.mean([r["seconds"] for r in delta_rows]))
            parity = float(np.abs(full.posterior - delta.posterior).max())
            agreement = float((full.truths == delta.truths).mean())
            dirty = delta_rows[-1]["fit_stats"].dirty_shards
            rows.append([
                skew, f"{growth:.0%}", f"{dirty}/{N_SHARDS}",
                f"{np.mean([r['seconds'] for r in full_rows]) * 1e3:.0f}ms",
                f"{np.mean([r['seconds'] for r in delta_rows]) * 1e3:.0f}ms",
                f"{speedup:.2f}x", f"{parity:.1e}", f"{agreement:.4f}",
            ])
            points.append({"skew": skew, "growth": growth,
                           "speedup": float(speedup), "parity": parity,
                           "agreement": agreement})
    return rows, points


def enforce(checks: dict) -> None:
    assert checks["full_bitwise"], (
        "refit='full' diverged from the pre-delta warm-refit loop; the "
        "default mode must stay bit-identical"
    )
    assert checks["agreement"] >= AGREEMENT_FLOOR, (
        f"label agreement {checks['agreement']:.4f} < {AGREEMENT_FLOOR}"
    )
    assert checks["parity"] < PARITY_TOLERANCE, (
        f"delta-vs-full posterior parity {checks['parity']:.2e} >= "
        f"{PARITY_TOLERANCE}"
    )
    assert checks["gated_speedup"] >= SPEEDUP_TARGET, (
        f"cohort-arrival refits only {checks['gated_speedup']:.2f}x "
        f"faster under refit='delta'; target is {SPEEDUP_TARGET}x"
    )


def run_benchmark(base_answers: int, trajectory_answers: int | None,
                  json_path: str | None = None):
    rows, checks, payload = run_cohort_benchmark(base_answers)
    title = (
        f"Delta refits vs warm full refits — D&S, {N_SHARDS} shards, "
        f"serial tier, {base_answers:,} base answers, new-cohort stream "
        f"(+{GROWTH_FRACTION:.0%} over {GROWTH_STEPS} refits) | gated "
        f"refits (first {GATED_REFITS}): {checks['gated_speedup']:.2f}x "
        f"(target >= {SPEEDUP_TARGET}x), all refits "
        f"{checks['mean_speedup']:.2f}x | posterior parity "
        f"{checks['parity']:.1e}, label agreement "
        f"{checks['agreement']:.4f}, refit='full' bit-identical: "
        f"{'yes' if checks['full_bitwise'] else 'NO'}"
    )
    report = format_table(
        ["refit", "gate", "full", "full it", "delta", "delta it",
         "dirty", "delta E-blocks", "full E-blocks", "verifies",
         "speedup"],
        rows, title=title)
    if trajectory_answers:
        traj_rows, points = run_trajectory(trajectory_answers)
        report += "\n\n" + format_table(
            ["skew", "growth/step", "dirty", "full refit", "delta refit",
             "speedup", "parity", "agreement"],
            traj_rows,
            title=(f"Growth x skew trajectory — D&S, {N_SHARDS} shards, "
                   f"{trajectory_answers:,} base answers, tol=1e-6, "
                   f"freeze_tol=tolerance (ungated)"))
        payload["trajectory"] = points
    save_report("delta_refit", report)
    save_json("delta_refit", payload, json_path)
    return checks


def test_delta_refit(benchmark):
    """CI entry point: smoke-sized gate through the report fixture."""
    checks = benchmark.pedantic(
        lambda: run_benchmark(SMOKE_BASE_ANSWERS, None),
        rounds=1, iterations=1)
    enforce(checks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help=f"CI-sized gate ({SMOKE_BASE_ANSWERS:,} base "
                             f"answers, reduced trajectory)")
    parser.add_argument("--answers", type=int, default=None,
                        help=f"base answer count "
                             f"(default {FULL_BASE_ANSWERS:,})")
    parser.add_argument("--json", dest="json_path", default=None,
                        metavar="PATH",
                        help="write BENCH_delta_refit.json to PATH (a "
                             "directory or exact file; default "
                             "benchmarks/results/)")
    args = parser.parse_args(argv)
    base = args.answers or (SMOKE_BASE_ANSWERS if args.smoke
                            else FULL_BASE_ANSWERS)
    trajectory = TRAJECTORY_BASE_ANSWERS if args.smoke else 4 * TRAJECTORY_BASE_ANSWERS
    checks = run_benchmark(base, trajectory, args.json_path)
    enforce(checks)
    print("all delta-refit checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
