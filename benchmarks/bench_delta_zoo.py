"""Delta refits across the method zoo: KOS, minimax, VI and Gibbs.

The measured claim (PR 8 acceptance): the per-family incremental
contracts — KOS message warm-restarts, minimax gradient restarts from
cached ``tau/sigma``, VI variational warm-starts from cached counts,
BCC Gibbs chain continuation — make ``ExecutionPolicy(refit="delta")``
**>= 2x faster per refit** than the ``refit="full"`` stream on a
cohort-arrival scenario, for every family, while staying correct in
the sense each family can promise:

* **Minimax / VI-MF** are deterministic fixed-point loops with soft
  posteriors, so the delta stream's final posterior must match the
  full stream's to <= 1e-6 with label agreement >= 0.999 (same gate
  as the EM family in ``bench_delta_refit``).
* **KOS** emits *sign decisions* (one-hot posteriors): a warm message
  restart converges to the same fixed point on decisively-separable
  tasks (pinned exactly by the engine-level parity tests) but may
  land marginal tasks on the other side.  At benchmark scale a
  percent of tasks are marginal by construction, so KOS is gated on
  label agreement >= 0.99 against the full stream, truth accuracy no
  more than 0.5% below the full stream's, and bitwise run-to-run
  determinism.
* **BCC** is a Gibbs sampler: the delta refit *continues* the cached
  chain (restored rng state, zero burn-in, half the sweep budget), a
  different — equally valid — trajectory than a cold resample.  It is
  gated like KOS (agreement >= 0.98, accuracy, determinism).

Every gated refit must actually have run in delta mode — a silent
demotion to full (layout mismatch, missing session) fails the run
rather than hiding inside a 1x "speedup".

Run ``python -m benchmarks.bench_delta_zoo`` for the full-size run,
``--smoke`` for the CI-sized gate, ``--json PATH`` for the
machine-readable ``BENCH_delta_zoo.json`` trajectory point.
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

N_SHARDS = 8
GROWTH_STEPS = 3
GROWTH_FRACTION = 0.03
FREEZE_TOL = 3e-8
VERIFY_EVERY = 10
SPEEDUP_TARGET = 2.0
#: Engine streams per side for families whose refits take under 0.5 s:
#: their per-refit minimum needs at least three samples to shrug off a
#: refit slowed by host contention.
REPEATS = 3
PARITY_TOLERANCE = 1e-6
AGREEMENT_FLOOR = 0.999
SIGN_AGREEMENT_FLOOR = 0.99
CHAIN_AGREEMENT_FLOOR = 0.98
ACCURACY_SLACK = 0.005

#: Per-family scenario: answer counts sized so each refit is real work
#: (the gradient and sampling families cost far more per answer than
#: message passing does), and the gate each family can honestly meet.
#: KOS verifies on a slower cadence — its rounds are so cheap that the
#: verify passes, not the dirty-shard rounds, dominate a delta refit.
FAMILIES = [
    {"method": "KOS", "gate": "sign", "smoke": 480_000, "full": 960_000,
     "kwargs": {"tolerance": 1e-7, "max_iter": 500},
     "policy": {"verify_every": 25}},
    # Minimax refits run tens of seconds — a second stream would double
    # the bench for nothing (long runs are relatively noise-free).
    {"method": "Minimax", "gate": "parity", "smoke": 24_000,
     "full": 96_000, "repeats": 1,
     "kwargs": {"tolerance": 1e-7, "max_iter": 500}},
    {"method": "VI-MF", "gate": "parity", "smoke": 120_000,
     "full": 480_000, "kwargs": {"tolerance": 1e-7, "max_iter": 500}},
    {"method": "BCC", "gate": "chain", "smoke": 36_000, "full": 144_000,
     "kwargs": {"n_samples": 50, "burn_in": 20}},
]


def zoo_stream(base_answers: int, seed: int = 1, redundancy: int = 8,
               steps: int = GROWTH_STEPS, growth: float = GROWTH_FRACTION):
    """Converged base corpus + a new task cohort with its own noisier
    worker pool arriving over ``steps`` batches.  Returns
    ``(batches, truth)`` — the ground truth feeds the accuracy gate of
    the sign-decision and sampling families."""
    rng = np.random.default_rng(seed)
    n_tasks = base_answers // redundancy
    n_workers = max(32, base_answers // 600)
    g = int(base_answers * growth)
    new_tasks = max(2, g // redundancy)
    new_workers = max(6, new_tasks // 20)
    truth = rng.integers(0, 2, n_tasks + new_tasks)
    acc = np.concatenate([rng.beta(8, 2, n_workers),
                          rng.beta(6, 2, new_workers)])
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
    # The engine indexes tasks by first appearance (unanswered ids never
    # get a row), so re-order ``truth`` to match ``result.truths``.
    seen = {}
    for batch in out:
        for t, _, _ in batch:
            if t not in seen:
                seen[t] = len(seen)
    ids = np.empty(len(seen), dtype=np.int64)
    for t, i in seen.items():
        ids[i] = t
    return out, truth[ids]


def run_stream(batches, method: str, refit: str, *,
               policy_overrides: dict | None = None, **kwargs):
    """Feed a stream through one engine; returns ``(final result,
    rows)`` with one row (seconds, posterior, fit stats) per refit."""
    options = {"freeze_tol": FREEZE_TOL, "verify_every": VERIFY_EVERY}
    options.update(policy_overrides or {})
    policy = ExecutionPolicy(n_shards=N_SHARDS, executor="serial",
                             refit=refit, **options)
    rows = []
    with InferenceEngine(TaskType.DECISION_MAKING, label_order=[0, 1],
                         policy=policy, seed=0) as engine:
        engine.add_answers(batches[0])
        result = engine.infer(method, **kwargs)
        for batch in batches[1:]:
            engine.add_answers(batch)
            started = time.perf_counter()
            result = engine.infer(method, **kwargs)
            rows.append({
                "seconds": time.perf_counter() - started,
                "posterior": result.posterior,
                "fit_stats": result.fit_stats,
            })
    return result, rows


def merge_runs(runs):
    """Fold repeated ``run_stream`` outputs into ``(final result, rows,
    deterministic)``: per-refit seconds are the **min across runs**
    (interference-robust, the standard repeated-measurement
    estimator), and ``deterministic`` reports whether every run
    reproduced every refit's posterior bitwise — so the repeated stream
    doubles as the determinism gate."""
    result, rows = runs[0]
    deterministic = True
    for _, other in runs[1:]:
        for row, orow in zip(rows, other):
            row["seconds"] = min(row["seconds"], orow["seconds"])
            deterministic &= bool(
                np.array_equal(row["posterior"], orow["posterior"]))
    return result, rows, deterministic


def _accuracy(result, truth: np.ndarray) -> float:
    return float((np.asarray(result.truths) == truth).mean())


def run_family(spec: dict, base_answers: int):
    """One family's full-vs-delta comparison; returns (row, checks,
    json point)."""
    method = spec["method"]
    batches, truth = zoo_stream(base_answers)
    runs = {"full": [], "delta": []}
    for i in range(spec.get("repeats", REPEATS)):
        # ABBA order: full, delta, delta, full, ... so host drift over
        # the family's run lands on both sides alike.
        for refit in ("full", "delta") if i % 2 == 0 else ("delta",
                                                            "full"):
            runs[refit].append(run_stream(
                batches, method, refit,
                policy_overrides=spec.get("policy"), **spec["kwargs"]))
    full, full_rows, _ = merge_runs(runs["full"])
    # A different-but-valid trajectory still has to be *the same*
    # trajectory every time: the repeated delta stream must reproduce
    # every refit's posterior bitwise.
    delta, delta_rows, deterministic = merge_runs(runs["delta"])

    delta_modes = [r["fit_stats"].mode for r in delta_rows]
    speedups = [f["seconds"] / d["seconds"]
                for f, d in zip(full_rows, delta_rows)]
    speedup = float(np.mean(speedups))
    parity = float(np.abs(full.posterior - delta.posterior).max())
    agreement = float((full.truths == delta.truths).mean())
    acc_full = _accuracy(full, truth)
    acc_delta = _accuracy(delta, truth)

    last = delta_rows[-1]["fit_stats"]
    row = [
        method, spec["gate"], f"{base_answers:,}",
        f"{np.mean([r['seconds'] for r in full_rows]) * 1e3:.0f}ms",
        f"{np.mean([r['seconds'] for r in delta_rows]) * 1e3:.0f}ms",
        f"{speedup:.2f}x",
        f"{last.dirty_shards}/{last.n_shards}",
        f"{parity:.1e}" if spec["gate"] == "parity" else "-",
        f"{agreement:.4f}",
        f"{acc_full:.4f}/{acc_delta:.4f}",
        "yes" if all(m == "delta" for m in delta_modes) else "NO",
    ]
    checks = {
        "method": method,
        "gate": spec["gate"],
        "speedup": speedup,
        "parity": parity,
        "agreement": agreement,
        "accuracy_full": acc_full,
        "accuracy_delta": acc_delta,
        "all_delta": all(m == "delta" for m in delta_modes),
        "deterministic": deterministic,
    }
    point = {
        **checks,
        "base_answers": base_answers,
        "refit_seconds_full": [r["seconds"] for r in full_rows],
        "refit_seconds_delta": [r["seconds"] for r in delta_rows],
        "delta_fit_stats": [r["fit_stats"].as_dict() for r in delta_rows],
    }
    return row, checks, point


def enforce(all_checks: list[dict]) -> None:
    floors = {"parity": AGREEMENT_FLOOR, "sign": SIGN_AGREEMENT_FLOOR,
              "chain": CHAIN_AGREEMENT_FLOOR}
    for checks in all_checks:
        method = checks["method"]
        assert checks["all_delta"], (
            f"{method}: a refit silently demoted to full mode"
        )
        assert checks["deterministic"], (
            f"{method}: two identical delta streams diverged bitwise"
        )
        if checks["gate"] == "parity":
            assert checks["parity"] < PARITY_TOLERANCE, (
                f"{method}: delta-vs-full posterior parity "
                f"{checks['parity']:.2e} >= {PARITY_TOLERANCE}"
            )
        else:
            assert (checks["accuracy_delta"]
                    >= checks["accuracy_full"] - ACCURACY_SLACK), (
                f"{method}: delta truth accuracy "
                f"{checks['accuracy_delta']:.4f} fell more than "
                f"{ACCURACY_SLACK} below full's "
                f"{checks['accuracy_full']:.4f}"
            )
        assert checks["agreement"] >= floors[checks["gate"]], (
            f"{method}: label agreement {checks['agreement']:.4f} "
            f"< {floors[checks['gate']]}"
        )
        assert checks["speedup"] >= SPEEDUP_TARGET, (
            f"{method}: delta refits only {checks['speedup']:.2f}x "
            f"faster; target is {SPEEDUP_TARGET}x"
        )


def run_benchmark(scale: str, json_path: str | None = None):
    rows, all_checks, points = [], [], []
    for spec in FAMILIES:
        row, checks, point = run_family(spec, spec[scale])
        rows.append(row)
        all_checks.append(checks)
        points.append(point)
    worst = min(c["speedup"] for c in all_checks)
    title = (
        f"Delta refits across the zoo — {N_SHARDS} shards, serial tier, "
        f"new-cohort stream (+{GROWTH_FRACTION:.0%} over {GROWTH_STEPS} "
        f"refits) | worst family {worst:.2f}x (target >= "
        f"{SPEEDUP_TARGET}x) | parity gate {PARITY_TOLERANCE:.0e} "
        f"(soft fixed-point families); agreement + truth accuracy + "
        f"bitwise determinism (sign/Gibbs families)"
    )
    report = format_table(
        ["method", "gate", "answers", "full refit", "delta refit",
         "speedup", "dirty", "parity", "agreement", "acc full/delta",
         "all delta"],
        rows, title=title)
    save_report("delta_zoo", report)
    save_json("delta_zoo", {
        "scenario": "cohort_arrival_zoo",
        "scale": scale,
        "n_shards": N_SHARDS,
        "growth": GROWTH_FRACTION,
        "speedup_target": SPEEDUP_TARGET,
        "families": points,
    }, json_path)
    return all_checks


def test_delta_zoo(benchmark):
    """CI entry point: smoke-sized gate through the report fixture."""
    all_checks = benchmark.pedantic(
        lambda: run_benchmark("smoke"),
        rounds=1, iterations=1)
    enforce(all_checks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized gate (reduced per-family sizes)")
    parser.add_argument("--json", dest="json_path", default=None,
                        metavar="PATH",
                        help="write BENCH_delta_zoo.json to PATH (a "
                             "directory or exact file; default "
                             "benchmarks/results/)")
    args = parser.parse_args(argv)
    all_checks = run_benchmark("smoke" if args.smoke else "full",
                               args.json_path)
    enforce(all_checks)
    print("all delta-zoo checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
