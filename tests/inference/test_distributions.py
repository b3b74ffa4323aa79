"""Tests for the distribution helpers."""

import numpy as np
from scipy import stats

from repro.inference.distributions import (
    beta_expected_log,
    chi_square_confidence,
    dirichlet_expected_log,
    sample_categorical_rows,
    sample_dirichlet_rows,
)


class TestExpectations:
    def test_dirichlet_expected_log_matches_montecarlo(self):
        alpha = np.array([2.0, 3.0, 5.0])
        expected = dirichlet_expected_log(alpha)
        rng = np.random.default_rng(0)
        samples = rng.dirichlet(alpha, size=200_000)
        empirical = np.log(samples).mean(axis=0)
        np.testing.assert_allclose(expected, empirical, atol=5e-3)

    def test_beta_expected_log_consistent_with_dirichlet(self):
        a, b = np.array([3.0]), np.array([4.0])
        e_log_p, e_log_q = beta_expected_log(a, b)
        dir_version = dirichlet_expected_log(np.array([3.0, 4.0]))
        np.testing.assert_allclose([e_log_p[0], e_log_q[0]], dir_version)


class TestSampling:
    def test_dirichlet_rows_normalised(self):
        rng = np.random.default_rng(1)
        alpha = np.abs(rng.normal(size=(10, 4))) + 0.1
        samples = sample_dirichlet_rows(alpha, rng)
        np.testing.assert_allclose(samples.sum(axis=-1), 1.0)
        assert (samples >= 0).all()

    def test_dirichlet_multidim(self):
        rng = np.random.default_rng(2)
        alpha = np.ones((3, 2, 5))
        samples = sample_dirichlet_rows(alpha, rng)
        assert samples.shape == (3, 2, 5)
        np.testing.assert_allclose(samples.sum(axis=-1), 1.0)

    def test_dirichlet_mean_approaches_expectation(self):
        rng = np.random.default_rng(3)
        alpha = np.array([[1.0, 2.0, 7.0]])
        draws = np.stack([sample_dirichlet_rows(alpha, rng)[0]
                          for _ in range(20_000)])
        np.testing.assert_allclose(draws.mean(axis=0), alpha[0] / 10.0,
                                   atol=0.01)

    def test_categorical_rows_frequency(self):
        rng = np.random.default_rng(4)
        probabilities = np.tile([0.1, 0.6, 0.3], (50_000, 1))
        draws = sample_categorical_rows(probabilities, rng)
        freqs = np.bincount(draws, minlength=3) / len(draws)
        np.testing.assert_allclose(freqs, [0.1, 0.6, 0.3], atol=0.01)

    def test_categorical_handles_unnormalised_rows(self):
        rng = np.random.default_rng(5)
        probabilities = np.array([[2.0, 2.0]])
        draws = [sample_categorical_rows(probabilities, rng)[0]
                 for _ in range(200)]
        assert set(draws) == {0, 1}


class TestChiSquare:
    def test_matches_scipy(self):
        """Equal to ``stats.chi2.ppf`` bit for bit, not just close."""
        counts = np.concatenate([np.arange(1, 20_001), [0.5, 2.5, 1e6]])
        for confidence in (0.025, 0.5, 0.95, 0.975, 0.999):
            np.testing.assert_array_equal(
                chi_square_confidence(counts, confidence),
                stats.chi2.ppf(confidence, df=counts))

    def test_zero_count_gives_zero(self):
        out = chi_square_confidence(np.array([0, 5]))
        assert out[0] == 0.0
        assert out[1] > 0

    def test_monotone_in_count(self):
        out = chi_square_confidence(np.arange(1, 50))
        assert (np.diff(out) > 0).all()
