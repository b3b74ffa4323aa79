"""Tests for the common experiment runner."""

import numpy as np
import pytest

from repro.core.policy import MethodSpec
from repro.experiments.runner import (
    MethodRun,
    average_scores,
    repeat_with_seeds,
    run_many,
    run_method,
)


class TestRunMethod:
    def test_scores_and_timing(self, small_product):
        run = run_method("MV", small_product, seed=0)
        assert run.method == "MV"
        assert run.dataset == "D_Product"
        assert set(run.scores) == {"accuracy", "f1"}
        assert run.elapsed_seconds > 0

    def test_golden_excluded_from_scoring(self, small_product):
        golden = {0: float(small_product.truth[0])}
        run = run_method("ZC", small_product, seed=0, golden=golden)
        assert np.isfinite(run.scores["accuracy"])

    def test_method_spec_kwargs_forwarded(self, small_product):
        run = run_method(MethodSpec("BCC", n_samples=5, burn_in=2),
                         small_product, seed=0)
        assert run.n_iterations == 7


class TestRunMany:
    def test_defaults_to_all_applicable(self, small_emotion):
        runs = run_many(small_emotion, seed=0)
        assert {r.method for r in runs} == \
            {"Mean", "Median", "CATD", "PM", "LFC_N"}

    def test_explicit_subset(self, small_product):
        runs = run_many(small_product, ["MV", "D&S"], seed=0)
        assert [r.method for r in runs] == ["MV", "D&S"]


class TestAveraging:
    def test_average_scores(self):
        runs = [
            MethodRun("MV", "d", {"accuracy": 0.8}, 0.0, 0, True),
            MethodRun("MV", "d", {"accuracy": 0.6}, 0.0, 0, True),
        ]
        assert average_scores(runs) == {"accuracy": 0.7}

    def test_empty_runs(self):
        assert average_scores([]) == {}


class TestRepeatWithSeeds:
    def test_distinct_seeds(self):
        seeds = repeat_with_seeds(lambda seed: seed, 5, base_seed=0)
        assert len(set(seeds)) == 5

    def test_reproducible(self):
        first = repeat_with_seeds(lambda seed: seed, 4, base_seed=3)
        second = repeat_with_seeds(lambda seed: seed, 4, base_seed=3)
        assert first == second

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            repeat_with_seeds(lambda seed: seed, 0)
