"""InferenceEngine facade and BatchRunner fan-out."""

import threading

import numpy as np
import pytest

from repro.core.policy import MethodSpec
from repro.core.tasktypes import TaskType
from repro.datasets.synthetic import generate_categorical
from repro.engine import BatchJob, BatchRunner, InferenceEngine
from repro.exceptions import EngineError, InvalidAnswerSetError
from repro.experiments.runner import run_grid, run_many, run_method
from repro.simulation.workers import CategoricalWorker


def _feed(engine, seed=0, n_tasks=120, n_workers=8, redundancy=4):
    rng = np.random.default_rng(seed)
    acc = rng.uniform(0.6, 0.95, n_workers)
    truth = rng.integers(0, 2, n_tasks)
    records = []
    for task in range(n_tasks):
        for worker in rng.choice(n_workers, redundancy, replace=False):
            correct = rng.random() < acc[worker]
            records.append((f"t{task}", f"w{worker}",
                            int(truth[task] if correct else 1 - truth[task])))
    engine.add_answers(records)
    return truth


class TestInferenceEngine:
    def test_cached_result_reused_without_refit(self):
        engine = InferenceEngine(TaskType.DECISION_MAKING,
                                 label_order=[0, 1], seed=0)
        _feed(engine)
        first = engine.infer("D&S")
        assert engine.infer("D&S") is first  # no growth -> cache hit

    def test_growth_triggers_warm_refit(self):
        engine = InferenceEngine(TaskType.DECISION_MAKING,
                                 label_order=[0, 1], seed=0)
        _feed(engine)
        engine.infer("D&S")
        assert not engine.last_fit_was_warm("D&S")
        engine.add_answers([("t0", "w_late", 1)])
        result = engine.infer("D&S")
        assert result.extras["warm_started"] is True
        assert engine.last_fit_was_warm("D&S")

    def test_force_cold_skips_warm_state(self):
        engine = InferenceEngine(TaskType.DECISION_MAKING,
                                 label_order=[0, 1], seed=0)
        _feed(engine)
        engine.infer("D&S")
        engine.add_answers([("t0", "w_late", 1)])
        result = engine.infer("D&S", force_cold=True)
        assert result.extras["warm_started"] is False

    def test_force_cold_bypasses_cache_hit(self):
        """force_cold must refit even when the stream is unchanged."""
        engine = InferenceEngine(TaskType.DECISION_MAKING,
                                 label_order=[0, 1], seed=0)
        _feed(engine)
        engine.infer("D&S")
        engine.add_answers([("t0", "w_late", 1)])
        warm = engine.infer("D&S")
        assert warm.extras["warm_started"] is True
        cold = engine.infer("D&S", force_cold=True)  # same stream version
        assert cold is not warm
        assert cold.extras["warm_started"] is False

    def test_methods_without_warm_support_refit_cold(self):
        engine = InferenceEngine(TaskType.DECISION_MAKING,
                                 label_order=[0, 1], seed=0)
        _feed(engine)
        first = engine.infer("MV")
        engine.add_answers([("t0", "w_late", 1)])
        second = engine.infer("MV")
        assert second is not first  # refit happened, just cold

    def test_in_place_replacement_falls_back_to_cold(self):
        """A replaced answer contradicts what the cached state was
        fitted on, so the next refit must be cold."""
        engine = InferenceEngine(TaskType.DECISION_MAKING,
                                 label_order=[0, 1], seed=0,
                                 on_duplicate="replace")
        _feed(engine)
        engine.infer("D&S")
        # Overwrite an existing (task, worker) pair in place.
        snap = engine.stream.snapshot()
        task_id = snap.task_labels[snap.tasks[0]]
        worker_id = snap.worker_labels[snap.workers[0]]
        engine.add_answers([(task_id, worker_id, int(1 - snap.values[0]))])
        assert engine.stream.replacements == 1
        replaced = engine.infer("D&S")
        assert replaced.extras["warm_started"] is False
        # Pure growth afterwards warm-starts again.
        engine.add_answers([("t0", "w_late", 1)])
        grown = engine.infer("D&S")
        assert grown.extras["warm_started"] is True

    def test_label_space_growth_warm_starts_with_padding(self):
        # Label codes are append-only, so a new label no longer forces a
        # cold refit: the cached posterior/confusion state is padded
        # with seed mass for the new label and the iteration resumes.
        engine = InferenceEngine(TaskType.SINGLE_CHOICE, seed=0)
        engine.add_answers([("t1", "w1", "a"), ("t1", "w2", "b"),
                            ("t2", "w1", "b"), ("t2", "w2", "a"),
                            ("t3", "w1", "a")])
        engine.infer("D&S")
        engine.add_answers([("t3", "w2", "c")])  # third label appears
        result = engine.infer("D&S")
        assert result.extras["warm_started"] is True
        assert result.posterior.shape[1] == 3
        assert result.extras["confusion"].shape[1:] == (3, 3)
        # The padded warm refit must agree with a cold fit on the truth.
        cold = engine.infer("D&S", force_cold=True)
        assert (cold.truths == result.truths).mean() == 1.0

    # Tuple labels must decode whole, not as rows of a 2-D table.
    @pytest.mark.parametrize("no, yes", [("no", "yes"),
                                         (("no", 0), ("yes", 1))])
    def test_current_truth_decodes_labels(self, no, yes):
        engine = InferenceEngine(TaskType.DECISION_MAKING,
                                 label_order=[no, yes], seed=0)
        engine.add_answers([("t1", "w1", yes), ("t1", "w2", yes),
                            ("t2", "w1", no), ("t2", "w2", no),
                            ("t2", "w3", no)])
        truth = engine.current_truth("MV")
        assert truth == {"t1": yes, "t2": no}

    def test_current_truth_numeric(self):
        engine = InferenceEngine(TaskType.NUMERIC, seed=0)
        engine.add_answers([("t1", "w1", 2.0), ("t1", "w2", 4.0)])
        truth = engine.current_truth("Mean")
        assert truth == {"t1": pytest.approx(3.0)}

    def test_worker_quality_keyed_by_external_id(self):
        engine = InferenceEngine(TaskType.DECISION_MAKING,
                                 label_order=[0, 1], seed=0)
        truth = _feed(engine)
        quality = engine.worker_quality("D&S")
        assert set(quality) == {f"w{i}" for i in range(8)}
        assert all(0.0 <= q <= 1.0 for q in quality.values())

    def test_warm_engine_matches_cold_labels(self):
        """End-to-end: engine warm refits agree with a from-scratch fit."""
        warm_engine = InferenceEngine(TaskType.DECISION_MAKING,
                                      label_order=[0, 1], seed=0)
        _feed(warm_engine)
        warm_engine.infer("D&S")
        late = [("t0", "w_late", 1), ("t1", "w_late", 0),
                ("t200", "w2", 1)]
        warm_engine.add_answers(late)
        warm = warm_engine.infer("D&S")

        cold_engine = InferenceEngine(TaskType.DECISION_MAKING,
                                      label_order=[0, 1], seed=0)
        _feed(cold_engine)
        cold_engine.add_answers(late)
        cold = cold_engine.infer("D&S")

        np.testing.assert_array_equal(warm.truths, cold.truths)
        assert warm.n_iterations < cold.n_iterations

    def test_invalidate_clears_cache(self):
        engine = InferenceEngine(TaskType.DECISION_MAKING,
                                 label_order=[0, 1], seed=0)
        _feed(engine)
        engine.infer("MV")
        engine.infer("ZC")
        assert set(engine.cached_methods()) == {"MV", "ZC"}
        engine.invalidate("MV")
        assert engine.cached_methods() == ["ZC"]
        engine.invalidate()
        assert engine.cached_methods() == []

    def test_method_kwargs_change_invalidates_cache(self):
        engine = InferenceEngine(TaskType.DECISION_MAKING,
                                 label_order=[0, 1], seed=0)
        _feed(engine)
        first = engine.infer("D&S", max_iter=3)
        second = engine.infer("D&S", max_iter=50)
        assert second is not first

    def test_cache_control_accepts_a_method_spec(self):
        engine = InferenceEngine(TaskType.DECISION_MAKING,
                                 label_order=[0, 1], seed=0)
        _feed(engine)
        spec = MethodSpec("D&S", max_iter=5)
        engine.infer(spec)
        engine.add_answers([("t0", "w_late", 1)])
        engine.infer(spec)
        assert engine.last_fit_was_warm(spec)
        engine.invalidate(spec)
        assert engine.cached_methods() == []
        assert not engine.last_fit_was_warm(spec)


def _counting_decodes(engine, monkeypatch) -> list:
    """Record every decode the engine's stream runs."""
    calls = []
    decode = engine.stream.decode_values

    def counted(codes):
        calls.append(len(codes))
        return decode(codes)

    monkeypatch.setattr(engine.stream, "decode_values", counted)
    return calls


class TestReads:
    def test_each_fit_is_decoded_once(self, monkeypatch):
        engine = InferenceEngine(TaskType.DECISION_MAKING,
                                 label_order=[0, 1], seed=0)
        _feed(engine)
        decodes = _counting_decodes(engine, monkeypatch)
        first = engine.current_truth("D&S")
        for _ in range(3):
            assert engine.current_truth("D&S") == first
            engine.worker_quality("D&S")
        assert decodes == [120]
        engine.add_answers([("t0", "w_late", 1)])
        engine.current_truth("D&S")          # new answers: a new fit
        engine.current_truth("D&S", max_iter=5)  # other kwargs
        engine.current_truth("D&S", max_iter=5, force_cold=True)
        engine.worker_quality("D&S", max_iter=5)
        assert decodes == [120] * 4

    def test_invalidated_fit_loses_its_view(self, monkeypatch):
        engine = InferenceEngine(TaskType.DECISION_MAKING,
                                 label_order=[0, 1], seed=0)
        _feed(engine)
        spec = MethodSpec("D&S", max_iter=5)
        decodes = _counting_decodes(engine, monkeypatch)
        before = engine.current_truth(spec)
        engine.invalidate(spec)
        assert engine.current_truth(spec) == before
        assert len(decodes) == 2
        engine.invalidate()
        engine.worker_quality(spec)
        assert len(decodes) == 3

    def test_reads_return_fresh_dicts(self):
        engine = InferenceEngine(TaskType.DECISION_MAKING,
                                 label_order=["no", "yes"], seed=0)
        engine.add_answers([("t1", "w1", "yes"), ("t2", "w1", "no")])
        truth = engine.current_truth("MV")
        quality = engine.worker_quality("MV")
        truth["t1"] = "no"
        del truth["t2"]
        quality.clear()
        assert engine.current_truth("MV") == {"t1": "yes", "t2": "no"}
        assert engine.worker_quality("MV") == {"w1": 1.0}
        assert engine.current_truth("MV") is not engine.current_truth("MV")

    @pytest.mark.parametrize("code", [2, -1])
    def test_out_of_range_code_raises(self, code):
        engine = InferenceEngine(TaskType.DECISION_MAKING,
                                 label_order=["no", "yes"], seed=0)
        engine.add_answers([("t1", "w1", "yes"), ("t2", "w1", "no")])
        engine.infer("MV").truths[1] = code  # a corrupt fit, not yet read
        with pytest.raises(InvalidAnswerSetError,
                           match=f"unknown label code {code}"):
            engine.current_truth("MV")

    @pytest.mark.parametrize("kind, records", [
        ("task", [(1, "w1", 0), ("1", "w2", 1), ("t2", "w1", 1)]),
        ("worker", [("t1", 7, 0), ("t1", "7", 1)]),
    ])
    def test_ids_that_print_alike_raise(self, kind, records):
        engine = InferenceEngine(TaskType.DECISION_MAKING, seed=0)
        engine.add_answers(records)
        with pytest.raises(EngineError, match=rf"{kind} id.*\['(1|7)'\]"):
            engine.current_truth("MV")
        with pytest.raises(EngineError, match=kind):
            engine.worker_quality("MV")


def _tiny_dataset(seed=0, name="tiny"):
    rng = np.random.default_rng(seed)
    workers = [CategoricalWorker(confusion=np.array([[0.9, 0.1],
                                                     [0.1, 0.9]]))
               for _ in range(6)]
    truths = rng.integers(0, 2, 60)
    return generate_categorical(name, truths, workers,
                                total_answers=240, rng=rng)


class TestBatchRunner:
    def test_results_in_job_order_and_match_serial(self):
        dataset = _tiny_dataset()
        jobs = [BatchJob(dataset=dataset, method=m, seed=0)
                for m in ("MV", "ZC", "D&S")]
        parallel = BatchRunner(max_workers=3).run(jobs)
        assert [run.method for run in parallel] == ["MV", "ZC", "D&S"]
        for job, run in zip(jobs, parallel):
            serial = run_method(job.method, dataset, seed=0)
            assert run.scores == serial.scores

    def test_single_worker_path(self):
        dataset = _tiny_dataset()
        runs = BatchRunner(max_workers=1).run(
            [BatchJob(dataset=dataset, method="MV")])
        assert len(runs) == 1

    def test_empty_jobs(self):
        assert BatchRunner().run([]) == []

    def test_invalid_max_workers(self):
        with pytest.raises(ValueError):
            BatchRunner(max_workers=0)

    def test_worker_exception_propagates(self):
        dataset = _tiny_dataset()
        jobs = [BatchJob(dataset=dataset, method="MV"),
                BatchJob(dataset=dataset, method="NoSuchMethod")]
        with pytest.raises(Exception):
            BatchRunner(max_workers=2).run(jobs)

    def test_run_grid_skips_inapplicable_methods(self):
        dataset = _tiny_dataset()
        runs = BatchRunner(max_workers=2).run_grid(
            [dataset], methods=["MV", "Mean"])  # Mean is numeric-only
        assert [run.method for run in runs] == ["MV"]

    def test_jobs_actually_overlap(self):
        """The pool really runs jobs concurrently (not serially)."""
        dataset = _tiny_dataset()
        seen = set()
        barrier = threading.Barrier(2, timeout=10)

        class _Probe(BatchRunner):
            @staticmethod
            def _run_one(job):
                barrier.wait()  # deadlocks unless two jobs run at once
                seen.add(job.method)
                return run_method(job.method, job.dataset, seed=job.seed)

        runs = _Probe(max_workers=2).run(
            [BatchJob(dataset=dataset, method="MV"),
             BatchJob(dataset=dataset, method="ZC")])
        assert seen == {"MV", "ZC"}
        assert len(runs) == 2


def test_package_doctests_stay_honest():
    """The examples in the module docs must run: the streaming protocol,
    the execution vocabulary and its one entry point."""
    import doctest

    import repro.core.policy
    import repro.core.registry
    import repro.engine
    import repro.engine.engine

    for module in (repro.engine, repro.engine.engine, repro.core.policy,
                   repro.core.registry):
        outcome = doctest.testmod(module)
        assert outcome.attempted and not outcome.failed, module.__name__


class TestRunnerWiring:
    def test_run_many_parallel_matches_serial(self):
        dataset = _tiny_dataset()
        serial = run_many(dataset, ["MV", "ZC"], seed=0)
        parallel = run_many(dataset, ["MV", "ZC"], seed=0, max_workers=2)
        assert [r.method for r in parallel] == [r.method for r in serial]
        for a, b in zip(serial, parallel):
            assert a.scores == b.scores

    def test_run_grid_wrapper(self):
        datasets = [_tiny_dataset(seed=1, name="a"),
                    _tiny_dataset(seed=2, name="b")]
        runs = run_grid(datasets, methods=["MV"], max_workers=2)
        assert [(r.method, r.dataset) for r in runs] == [("MV", "a"),
                                                         ("MV", "b")]
