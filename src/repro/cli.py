"""Command-line interface: run inference and experiments from a shell.

Usage (after ``pip install -e .``)::

    python -m repro methods                    # list the 17 methods
    python -m repro datasets                   # Table 5 of the replicas
    python -m repro infer answers.csv --method "D&S"
    python -m repro stream answers.csv --method "D&S" --chunk-size 200
    python -m repro stream answers.csv --method "D&S" --shards 4 --workers 2
    python -m repro stream answers.csv --shards 8 --executor process
    python -m repro stream answers.csv --shards 8 --refit delta -v
    python -m repro stream --source stdin --task-type decision --method "D&S"
    python -m repro stream --source tcp:feed.example:9000 --task-type decision
    python -m repro stream answers.csv --store runs/store1
    python -m repro recover runs/store1 --method "D&S"
    python -m repro run --dataset D_Product --method D&S --scale 0.2
    python -m repro batch --datasets D_Product D_PosSent --workers 4
    python -m repro batch --methods D&S GLAD --shards 8 --executor process
    python -m repro sweep --dataset D_PosSent --methods MV ZC D&S
    python -m repro plan-redundancy --dataset D_PosSent --method MV

``infer`` reads a headerless/headered CSV of ``task,worker,answer``
triples, so the CLI works on real exported crowd data, not only on the
replicas.  ``stream`` feeds an :class:`~repro.engine.sources.AnswerSource`
through the :class:`~repro.engine.InferenceEngine` in chunks,
warm-starting each refit from the previous one — the online-serving
path.  ``--source stdin`` serves a *live* line-delimited stream; it
requires ``--task-type`` (a declared
:class:`~repro.engine.sources.TaskSchema`), which also lets a CSV run
skip the pre-scan.  ``--store PATH`` makes the stream *durable*: every
acknowledged batch writes through to a WAL-mode answer log and fits
snapshot periodically, so ``recover PATH`` resumes a killed stream warm
(replay the tail, delta-refit) with zero lost acknowledged answers.
``batch`` fans a (dataset × method) grid across a thread pool.

How each fit executes is one :class:`~repro.core.policy.ExecutionPolicy`
spelled identically on both commands: ``--shards``, ``--workers`` and
``--executor {auto,serial,thread,process}`` (``process`` leases the
persistent shared-memory runtime of :mod:`repro.engine.runtime`
instead of spawning pools per fit).  Flag validation is shared across
commands (:func:`_require_minimums`); ``--shards`` beyond the task
count is clamped deterministically by the shard layer.
"""

from __future__ import annotations

import argparse
import sys

from .core.answers import AnswerSet
from .core.policy import (
    DEFAULT_SNAPSHOT_EVERY,
    EXECUTORS,
    ExecutionPolicy,
    StorePolicy,
)
from .core.registry import available_methods, create, methods_for_task_type
from .core.tasktypes import TaskType
from .datasets.paper import PAPER_DATASET_NAMES, all_paper_datasets, load_paper_dataset
from .engine.sources import TASK_TYPE_ALIASES
from .experiments.reporting import format_series, format_table
from .experiments.redundancy import sweep_redundancy
from .experiments.stats import table5

#: CLI spellings of the executor tiers — one source of truth with the
#: policy layer, so argparse and :class:`ExecutionPolicy` cannot drift.
EXECUTOR_CHOICES = list(EXECUTORS)

#: CLI spellings of the declarable task types (every alias the source
#: layer parses).
TASK_TYPE_CHOICES = sorted(TASK_TYPE_ALIASES)


def _cmd_methods(_args) -> int:
    from .core.registry import capabilities

    def yn(flag: bool) -> str:
        return "yes" if flag else "no"

    rows = []
    for name in available_methods():
        caps = capabilities(name)
        types = ", ".join(sorted(t.value for t in caps.task_types))
        rows.append([name, types, yn(caps.initial_quality),
                     yn(caps.golden), yn(caps.sharding)])
    print(format_table(
        ["method", "task types", "qualification", "hidden test",
         "sharded"], rows,
        title="Registered truth-inference methods (paper Table 4; "
              "sharded = sharded EM, warm starts and delta refits)"))
    return 0


def _cmd_datasets(args) -> int:
    datasets = all_paper_datasets(seed=args.seed, scale=args.scale)
    rows = [[r["dataset"], r["n_tasks"], r["n_truth"], r["n_answers"],
             r["redundancy"], r["n_workers"], r["consistency_C"]]
            for r in table5(datasets)]
    print(format_table(
        ["dataset", "#tasks", "#truth", "|V|", "|V|/n", "|W|", "C"], rows,
        title=f"Paper-dataset replicas (seed={args.seed}, "
              f"scale={args.scale})"))
    return 0


def _cmd_run(args) -> int:
    dataset = load_paper_dataset(args.dataset, seed=args.seed,
                                 scale=args.scale)
    names = args.methods or methods_for_task_type(dataset.task_type)
    error = _require_applicable(dataset.task_type, *names)
    if error:
        return _complain(error)
    rows, metric_names = [], None
    for name in names:
        result = create(name, seed=args.seed).fit(dataset.answers)
        scores = dataset.score(result)
        metric_names = metric_names or list(scores)
        rows.append([name]
                    + [round(v, 4) for v in scores.values()]
                    + [f"{result.elapsed_seconds:.2f}s"])
    print(format_table(["method"] + metric_names + ["time"], rows,
                       title=f"{dataset.name} (scale={args.scale})"))
    return 0


def _cmd_sweep(args) -> int:
    dataset = load_paper_dataset(args.dataset, seed=args.seed,
                                 scale=args.scale)
    error = _require_applicable(dataset.task_type, *(args.methods or ()))
    if error:
        return _complain(error)
    sweep = sweep_redundancy(
        dataset,
        redundancies=args.redundancies,
        methods=args.methods or None,
        n_repeats=args.repeats,
        base_seed=args.seed,
    )
    for metric, series in sweep.series.items():
        print(format_series("r", sweep.redundancies, series,
                            title=f"{dataset.name}: {metric} vs redundancy"))
        print()
    return 0


def _read_answer_csv(path: str) -> list[tuple[str, str, str]]:
    """Read ``task,worker,answer`` triples, skipping an optional header.

    One parser for the whole CLI: delegates to
    :class:`~repro.engine.sources.CsvAnswerSource`, which raises
    :class:`ValueError` (with the row location) on malformed rows.
    """
    from .engine.sources import CsvAnswerSource

    return [record
            for batch in CsvAnswerSource(path).batches(4096)
            for record in batch]


def _read_answer_csv_or_complain(path: str):
    """CSV records, or ``None`` after printing the error to stderr."""
    try:
        records = _read_answer_csv(path)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return None
    if not records:
        print("no answers found", file=sys.stderr)
        return None
    return records


def _require_applicable(task_type: TaskType, *methods: str) -> str | None:
    """An error message for the first of ``methods`` that cannot run on
    ``task_type``, checked before any fit starts."""
    for method in methods:
        if method not in available_methods():
            return f"unknown method: {method} (see `repro methods`)"
        if method not in methods_for_task_type(task_type,
                                               include_extensions=True):
            return (f"method {method} does not support {task_type.value} "
                    f"tasks (see `repro methods`)")
    return None


def _require_minimums(*specs: tuple[str, int, int]) -> str | None:
    """Shared flag validation: each spec is ``(flag, value, minimum)``.

    Returns the first violation as an error message, so every command
    rejects bad counts with identical wording (``stream`` and ``batch``
    historically disagreed on ``--workers``).  ``--shards`` above the
    task count is *not* an error:
    :class:`~repro.core.shards.ShardedAnswerSet` clamps it
    deterministically to the task count.
    """
    for flag, value, minimum in specs:
        if value < minimum:
            return f"{flag} must be >= {minimum}, got {value}"
    return None


def _complain(message: str) -> int:
    print(message, file=sys.stderr)
    return 1


def _execution_policy(args) -> ExecutionPolicy:
    """The one ExecutionPolicy a command's flags spell."""
    extra = {}
    if getattr(args, "refit", None) is not None:
        extra["refit"] = args.refit
    if getattr(args, "freeze_tol", None) is not None:
        extra["freeze_tol"] = args.freeze_tol
    if getattr(args, "verify_every", None) is not None:
        extra["verify_every"] = args.verify_every
    if getattr(args, "store", None) is not None:
        store_kwargs = {}
        if getattr(args, "snapshot_every", None) is not None:
            store_kwargs["snapshot_every"] = args.snapshot_every
        extra["store"] = StorePolicy(path=args.store, **store_kwargs)
    return ExecutionPolicy(
        n_shards=args.shards,
        executor=args.executor,
        max_workers=args.workers or None,
        **extra,
    )


def _cmd_infer(args) -> int:
    from .engine.sources import infer_schema

    records = _read_answer_csv_or_complain(args.answers)
    if records is None:
        return 1

    schema = infer_schema(records)
    labels = list(schema.labels)
    error = _require_applicable(schema.task_type, args.method)
    if error:
        print(error, file=sys.stderr)
        return 1
    answers = AnswerSet.from_records(records, schema.task_type,
                                     label_order=labels)
    result = create(args.method, seed=args.seed).fit(answers)

    print(f"# method={args.method} tasks={answers.n_tasks} "
          f"workers={answers.n_workers} answers={answers.n_answers}")
    print("task,inferred_truth")
    for task in range(answers.n_tasks):
        task_id = (answers.task_labels[task] if answers.task_labels
                   else str(task))
        print(f"{task_id},{labels[int(result.truths[task])]}")
    return 0


def _open_stream_source(args):
    """The :class:`AnswerSource` a ``stream`` invocation names, or an
    error string.

    A declared ``--task-type`` builds a :class:`TaskSchema` up front —
    no pre-scan, which is what makes ``--source stdin`` (or the TCP
    socket source, ``--source tcp:HOST:PORT``) possible.  A CSV with no
    declared type keeps the legacy behaviour: the source infers its
    schema with one read-through.
    """
    from .engine.sources import (CsvAnswerSource, LineAnswerSource,
                                 TaskSchema, TcpAnswerSource)

    schema = (TaskSchema.declare(args.task_type)
              if args.task_type else None)
    line_kwargs = {}
    if getattr(args, "max_bad_lines", None) is not None:
        line_kwargs["max_bad_lines"] = args.max_bad_lines
    if args.source == "stdin" or args.source.startswith("tcp:"):
        if args.answers:
            return None, (f"--source {args.source} conflicts with the "
                          f"answers path {args.answers!r}; pass one input")
        if schema is None:
            return None, (f"--source {args.source} requires --task-type: "
                          f"a live stream cannot be pre-scanned")
        if args.source == "stdin":
            return LineAnswerSource(sys.stdin, schema, name="<stdin>",
                                    **line_kwargs), None
        host, _, port = args.source[len("tcp:"):].rpartition(":")
        if not host or not port.isdigit():
            return None, (f"--source {args.source!r} must look like "
                          f"tcp:HOST:PORT")
        from .exceptions import AnswerSourceError

        try:
            return TcpAnswerSource(
                host, int(port), schema, name=args.source,
                reconnect=getattr(args, "reconnect", 0) or 0,
                **line_kwargs), None
        except AnswerSourceError as exc:
            return None, str(exc)
    if args.source != "csv":
        return None, (f"unknown --source {args.source!r}; expected csv, "
                      f"stdin or tcp:HOST:PORT")
    if not args.answers:
        return None, "an answers CSV path is required with --source csv"
    return CsvAnswerSource(args.answers, schema), None


def _cmd_stream(args) -> int:
    from .engine.sources import TcpAnswerSource

    specs = [("--shards", args.shards, 1),
             ("--workers", args.workers, 1),
             ("--chunk-size", args.chunk_size, 1)]
    if args.snapshot_every is not None:
        specs.append(("--snapshot-every", args.snapshot_every, 1))
    if args.max_bad_lines is not None:
        specs.append(("--max-bad-lines", args.max_bad_lines, 0))
    error = _require_minimums(*specs)
    if error:
        return _complain(error)
    if args.snapshot_every is not None and args.store is None:
        return _complain("--snapshot-every requires --store")
    source, error = _open_stream_source(args)
    if error:
        return _complain(error)
    try:
        return _stream_from(source, args)
    finally:
        # Only a TCP source holds something the command opened: a CSV
        # closes its file as it is read, and stdin is not ours to close.
        if isinstance(source, TcpAnswerSource):
            source.close()


def _stream_from(source, args) -> int:
    """Feed ``source`` to an engine chunk by chunk and print the final
    truths (the body of ``stream``, once its source is open)."""
    from .engine import InferenceEngine
    from .exceptions import ReproError

    try:
        schema = source.schema  # may pre-scan an undeclared CSV
    except ValueError as exc:
        return _complain(str(exc))
    error = _require_applicable(schema.task_type, args.method)
    if error:
        return _complain(error)
    policy = _execution_policy(args)
    try:
        engine = InferenceEngine(seed=args.seed, policy=policy,
                                 **schema.engine_kwargs())
    except (ValueError, ReproError) as exc:
        return _complain(str(exc))
    with engine:
        print(f"# streaming {args.source} answers in chunks of "
              f"{args.chunk_size} (method={args.method}, "
              f"task-type={schema.task_type.value})")
        if args.store:
            print(f"# durable store: {args.store} "
                  f"(snapshot every "
                  f"{policy.store.snapshot_every} answers)")
        total = 0
        try:
            for batch in source.batches(args.chunk_size):
                total += engine.add_answers(batch)
                result = engine.infer(args.method)
                warm = ("warm" if result.extras.get("warm_started")
                        else "cold")
                snapshot = engine.stream.snapshot()
                print(f"# +{len(batch)} answers -> "
                      f"{snapshot.n_tasks} tasks, "
                      f"{snapshot.n_workers} workers | "
                      f"{warm} refit: {result.n_iterations} iterations, "
                      f"{result.elapsed_seconds * 1000:.1f} ms")
                if args.verbose and result.fit_stats is not None:
                    print(f"#   fit: {result.fit_stats.summary()}")
        except (ValueError, ReproError) as exc:
            return _complain(str(exc))
        if total == 0:
            return _complain("no answers found")
        if args.verbose:
            totals = getattr(engine, "fault_totals", None)
            if totals and any(totals.values()):
                print("# faults survived: " + ", ".join(
                    f"{count} {kind}" for kind, count in totals.items()))
            if getattr(source, "reconnects", 0):
                print(f"# transport: {source.reconnects} reconnects, "
                      f"{source.bad_lines} bad lines")
        truth = engine.current_truth(args.method)
    print("task,inferred_truth")
    for task_id, value in truth.items():
        print(f"{task_id},{value}")
    return 0


def _cmd_recover(args) -> int:
    """Resume a killed ``stream --store`` run from its durable store.

    Replays the committed answer log (nothing acknowledged is lost),
    seeds the fit cache from the newest snapshot, refits — warm when
    the snapshot's shard layout still matches — and prints the same
    ``task,inferred_truth`` table ``stream`` ends with.  The resumed
    engine keeps writing through to the same store, so a recovered run
    can itself be recovered.
    """
    from .engine import InferenceEngine
    from .exceptions import ReproError

    specs = [("--shards", args.shards, 1),
             ("--workers", args.workers, 1)]
    if args.snapshot_every is not None:
        specs.append(("--snapshot-every", args.snapshot_every, 1))
    error = _require_minimums(*specs)
    if error:
        return _complain(error)
    args.store = args.path  # _execution_policy spells StorePolicy from it
    policy = _execution_policy(args)
    try:
        engine = InferenceEngine.recover(args.path, policy=policy)
    except (ValueError, ReproError) as exc:
        return _complain(str(exc))
    with engine:
        error = _require_applicable(engine.stream.task_type, args.method)
        if error:
            return _complain(error)
        snapshot = engine.stream.snapshot()
        print(f"# recovered {snapshot.n_answers} answers "
              f"({snapshot.n_tasks} tasks, {snapshot.n_workers} "
              f"workers) from {args.path}", file=sys.stderr)
        try:
            result = engine.infer(args.method)
        except (ValueError, ReproError) as exc:
            return _complain(str(exc))
        warm = "warm" if result.extras.get("warm_started") else "cold"
        print(f"# {warm} refit: {result.n_iterations} iterations, "
              f"{result.elapsed_seconds * 1000:.1f} ms", file=sys.stderr)
        if args.verbose and result.fit_stats is not None:
            print(f"#   fit: {result.fit_stats.summary()}",
                  file=sys.stderr)
        truth = engine.current_truth(args.method)
    print("task,inferred_truth")
    for task_id, value in truth.items():
        print(f"{task_id},{value}")
    return 0


def _cmd_batch(args) -> int:
    from .experiments.runner import Timer, run_grid

    error = _require_minimums(("--shards", args.shards, 1),
                              ("--workers", args.workers, 1))
    if error:
        return _complain(error)
    if args.executor in ("thread", "process") and args.shards <= 1:
        # Before the flag unification, batch --executor chose the *job
        # pool*; it now chooses each fit's execution tier, which is a
        # no-op without sharding.  Say so instead of silently differing.
        print(f"note: --executor {args.executor} configures each fit's "
              f"sharded-EM tier and has no effect with --shards 1; job "
              f"fan-out always uses threads (--workers)",
              file=sys.stderr)
    if args.methods:
        unknown = [m for m in args.methods if m not in available_methods()]
        if unknown:
            return _complain(f"unknown methods: {', '.join(unknown)} "
                             f"(see `repro methods`)")
    datasets = [load_paper_dataset(name, seed=args.seed, scale=args.scale)
                for name in (args.datasets or PAPER_DATASET_NAMES)]
    policy = ExecutionPolicy(n_shards=args.shards, executor=args.executor)
    with Timer() as timer:
        runs = run_grid(datasets, methods=args.methods or None,
                        seed=args.seed, max_workers=args.workers,
                        policy=policy)
    if not runs:
        print("no (dataset, method) combinations are applicable; check "
              "the task types with `repro methods`", file=sys.stderr)
        return 1
    rows = [[run.method, run.dataset,
             " ".join(f"{name}={value:.4f}"
                      for name, value in run.scores.items()),
             f"{run.elapsed_seconds:.2f}s"]
            for run in runs]
    print(format_table(
        ["method", "dataset", "scores", "fit time"], rows,
        title=f"Batch grid: {len(runs)} jobs on {args.workers} "
              f"workers (scale={args.scale})"))
    serial = sum(run.elapsed_seconds for run in runs)
    print(f"\nwall time {timer.elapsed:.2f}s vs {serial:.2f}s summed fit "
          f"time ({serial / max(timer.elapsed, 1e-9):.1f}x overlap)")
    return 0


def _cmd_plan_redundancy(args) -> int:
    from .planning import (
        estimate_saturation_redundancy,
        fit_saturation_model,
        redundancy_curve,
    )

    dataset = load_paper_dataset(args.dataset, seed=args.seed,
                                 scale=args.scale)
    error = _require_applicable(dataset.task_type, args.method)
    if error:
        return _complain(error)
    max_r = max(2, int(round(dataset.answers.redundancy)))
    grid = list(range(1, max_r + 1))
    metric = "accuracy" if dataset.task_type.is_categorical else "mae"
    curve = redundancy_curve(dataset, args.method, grid, metric=metric,
                             n_repeats=args.repeats, base_seed=args.seed)
    higher = dataset.task_type.is_categorical
    r_hat = estimate_saturation_redundancy(grid, curve,
                                           higher_is_better=higher)
    print(format_series("r", grid, {args.method: curve},
                        title=f"{dataset.name}: {metric} vs redundancy"))
    print(f"\nestimated saturation redundancy r̂ = {r_hat}")
    if len(grid) >= 3 and higher:
        model = fit_saturation_model(grid, curve)
        print(f"fitted ceiling q_inf = {model.q_inf:.4f}; "
              f"gain from r={max_r} to r={max_r + 1}: "
              f"{model.marginal_gain(max_r):+.4f}")
    return 0


def _cmd_check(args) -> int:
    """Run the repo-native static-analysis pass (see repro.checks)."""
    from pathlib import Path

    from .checks.contracts import check_contracts
    from .checks.lint import run_lint

    if args.root is not None:
        root = Path(args.root)
    else:
        root = Path(__file__).resolve().parent
    if not root.is_dir():
        return _complain(f"check root {root} is not a directory")

    report = run_lint(root)
    findings = list(report.findings)
    if not args.no_contracts:
        findings.extend(check_contracts())
    for finding in findings:
        print(finding.render())

    failed = bool(findings)
    if args.strict:
        for rel, pragma in report.reasonless:
            print(f"{rel}:{pragma.line}: strict: pragma "
                  f"allow-{pragma.slug}(...) has no reason string")
            failed = True
    if report.suppressed and args.verbose:
        for finding, pragma in report.suppressed:
            print(f"{finding.path}:{finding.line}: suppressed "
                  f"{finding.rule} ({pragma.reason.strip()})")
    print(f"repro check: {len(findings)} finding(s), "
          f"{len(report.suppressed)} suppressed, "
          f"{len(report.reasonless)} reasonless pragma(s)")
    return 1 if failed else 0


def _executor_flag(parser: argparse.ArgumentParser) -> None:
    """The unified ``--executor`` spelling (same on every command)."""
    parser.add_argument("--executor", choices=EXECUTOR_CHOICES,
                        default="auto",
                        help="execution tier for each fit's sharded EM: "
                             "auto resolves per input; 'process' leases "
                             "the persistent warm-pool shared-memory "
                             "runtime across fits")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Truth-inference reproduction CLI (VLDB 2017 survey)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("methods",
                   help="list registered methods and their capabilities")

    p_datasets = sub.add_parser("datasets", help="Table 5 of the replicas")
    _common(p_datasets)

    p_run = sub.add_parser("run", help="run methods on a replica")
    _common(p_run)
    p_run.add_argument("--dataset", required=True,
                       choices=PAPER_DATASET_NAMES)
    p_run.add_argument("--methods", nargs="*", default=None)

    p_sweep = sub.add_parser("sweep", help="redundancy sweep on a replica")
    _common(p_sweep)
    p_sweep.add_argument("--dataset", required=True,
                         choices=PAPER_DATASET_NAMES)
    p_sweep.add_argument("--methods", nargs="*", default=None)
    p_sweep.add_argument("--redundancies", nargs="*", type=int, default=None)
    p_sweep.add_argument("--repeats", type=int, default=3)

    p_infer = sub.add_parser("infer",
                             help="infer truths from a CSV of answers")
    p_infer.add_argument("answers", help="CSV of task,worker,answer rows")
    p_infer.add_argument("--method", default="D&S")
    p_infer.add_argument("--seed", type=int, default=0)

    p_stream = sub.add_parser(
        "stream",
        help="feed an answer source through the streaming engine")
    p_stream.add_argument("answers", nargs="?", default=None,
                          help="CSV of task,worker,answer rows "
                               "(omit with --source stdin)")
    p_stream.add_argument("--method", default="D&S")
    p_stream.add_argument("--chunk-size", type=int, default=500)
    p_stream.add_argument("--seed", type=int, default=0)
    p_stream.add_argument("--source", default="csv", metavar="SOURCE",
                          help="where answers come from: csv (default), "
                               "stdin, or tcp:HOST:PORT; the live "
                               "sources read line-delimited "
                               "task,worker,answer rows and need "
                               "--task-type")
    p_stream.add_argument("--task-type", choices=TASK_TYPE_CHOICES,
                          default=None,
                          help="declare the stream's task type instead "
                               "of pre-scanning the CSV (required for "
                               "--source stdin / tcp:...)")
    p_stream.add_argument("--shards", type=int, default=1,
                          help="task-range shards per refit (sharded EM; "
                               "clamped to the task count)")
    p_stream.add_argument("--workers", type=int, default=1,
                          help="parallel width for sharded refits: "
                               "threads, or pool slots with "
                               "--executor process")
    p_stream.add_argument("--refit", choices=["full", "delta"],
                          default=None,
                          help="warm-refit mode: 'delta' primes only "
                               "dirty shards and freezes converged ones "
                               "(see ExecutionPolicy); default full")
    p_stream.add_argument("--freeze-tol", type=float, default=None,
                          help="delta refits: shard freeze/thaw "
                               "tolerance (default: the EM tolerance)")
    p_stream.add_argument("--verify-every", type=int, default=None,
                          help="delta refits: full-verify cadence in EM "
                               "iterations")
    p_stream.add_argument("--store", default=None, metavar="PATH",
                          help="durable store directory: write every "
                               "acknowledged batch through to a "
                               "WAL-mode answer log and snapshot fits "
                               "periodically; resume a killed run with "
                               "`repro recover PATH`")
    p_stream.add_argument("--snapshot-every", type=int, default=None,
                          help="with --store: snapshot fitted state "
                               "every N logged answers (default "
                               f"{DEFAULT_SNAPSHOT_EVERY})")
    p_stream.add_argument("--max-bad-lines", type=int, default=None,
                          help="live line sources: skip and count up "
                               "to N malformed lines before failing "
                               "with the offending line number; 0 "
                               "fails on the first (default 100)")
    p_stream.add_argument("--reconnect", type=int, default=0,
                          metavar="N",
                          help="--source tcp: survive up to N "
                               "transport drops, redialling with "
                               "capped backoff and resuming the "
                               "stream in place (default 0 = fail "
                               "fast)")
    p_stream.add_argument("-v", "--verbose", action="store_true",
                          help="print per-refit fit telemetry "
                               "(iterations, active/frozen shards, "
                               "EM-vs-overhead wall time)")
    _executor_flag(p_stream)

    p_recover = sub.add_parser(
        "recover",
        help="resume a killed `stream --store` run from its store")
    p_recover.add_argument("path",
                           help="store directory a previous "
                                "`repro stream --store PATH` wrote")
    p_recover.add_argument("--method", default="D&S")
    p_recover.add_argument("--shards", type=int, default=1,
                           help="task-range shards per refit (match "
                                "the killed run's --shards to resume "
                                "its snapshot layout warm)")
    p_recover.add_argument("--workers", type=int, default=1,
                           help="parallel width for sharded refits")
    p_recover.add_argument("--refit", choices=["full", "delta"],
                           default=None,
                           help="warm-refit mode (match the killed "
                                "run's --refit delta for a warm "
                                "tail-only resume)")
    p_recover.add_argument("--freeze-tol", type=float, default=None,
                           help="delta refits: shard freeze/thaw "
                                "tolerance")
    p_recover.add_argument("--verify-every", type=int, default=None,
                           help="delta refits: full-verify cadence in "
                                "EM iterations")
    p_recover.add_argument("--snapshot-every", type=int, default=None,
                           help="snapshot cadence for the resumed "
                                "engine (default "
                                f"{DEFAULT_SNAPSHOT_EVERY})")
    p_recover.add_argument("-v", "--verbose", action="store_true",
                           help="print the recovery refit's telemetry")
    _executor_flag(p_recover)

    p_batch = sub.add_parser(
        "batch", help="fan a (dataset x method) grid across workers")
    _common(p_batch)
    p_batch.add_argument("--datasets", nargs="+", default=None,
                         choices=PAPER_DATASET_NAMES)
    p_batch.add_argument("--methods", nargs="+", default=None)
    p_batch.add_argument("--workers", type=int, default=4,
                         help="job fan-out width (fits running at once)")
    p_batch.add_argument("--shards", type=int, default=1,
                         help="task-range shards per fit for methods "
                              "with sharded EM (clamped to each "
                              "dataset's task count)")
    _executor_flag(p_batch)

    p_plan = sub.add_parser("plan-redundancy",
                            help="estimate the saturation redundancy")
    _common(p_plan)
    p_plan.add_argument("--dataset", required=True,
                        choices=PAPER_DATASET_NAMES)
    p_plan.add_argument("--method", default="MV")
    p_plan.add_argument("--repeats", type=int, default=3)

    p_check = sub.add_parser(
        "check",
        help="static-analysis pass: invariant linter (R001-R007) plus "
             "the capability contract checker")
    p_check.add_argument("--root", default=None, metavar="DIR",
                         help="package directory to lint (default: the "
                              "installed repro package)")
    p_check.add_argument("--strict", action="store_true",
                         help="additionally fail on suppression pragmas "
                              "that carry no reason string")
    p_check.add_argument("--no-contracts", action="store_true",
                         help="skip the capability contract checker "
                              "(lint only; useful on partial trees)")
    p_check.add_argument("-v", "--verbose", action="store_true",
                         help="list suppressed findings with their "
                              "pragma reasons")

    return parser


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=0.2)


_COMMANDS = {
    "methods": _cmd_methods,
    "datasets": _cmd_datasets,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "infer": _cmd_infer,
    "stream": _cmd_stream,
    "recover": _cmd_recover,
    "batch": _cmd_batch,
    "plan-redundancy": _cmd_plan_redundancy,
    "check": _cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
