"""Small distribution helpers used by the PGM-based methods.

Centralising these keeps the per-method modules focused on the model
structure rather than numerics: Dirichlet/Beta expectations and samples,
categorical sampling for Gibbs chains, and the chi-square confidence
coefficient CATD scales worker weights with (Section 4.2.4).
"""

from __future__ import annotations

import numpy as np
from scipy import special


def dirichlet_expected_log(alpha: np.ndarray) -> np.ndarray:
    """E[log p] under Dirichlet(alpha), row-wise over the last axis.

    Used by the mean-field updates of VI-MF: for q(p) = Dir(alpha),
    E[log p_k] = digamma(alpha_k) - digamma(sum alpha).
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    return special.digamma(alpha) - special.digamma(
        alpha.sum(axis=-1, keepdims=True)
    )


def beta_expected_log(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(E[log p], E[log (1-p)]) under Beta(a, b), elementwise."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    total = special.digamma(a + b)
    return special.digamma(a) - total, special.digamma(b) - total


def sample_dirichlet_rows(alpha: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sample one probability vector per row of ``alpha``.

    Accepts any array whose last axis holds Dirichlet parameters; returns
    samples with the same shape.  Gamma-based so it vectorises.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    gammas = rng.gamma(shape=np.maximum(alpha, 1e-12))
    sums = gammas.sum(axis=-1, keepdims=True)
    sums = np.where(sums > 0, sums, 1.0)
    return gammas / sums


def sample_categorical_rows(probabilities: np.ndarray,
                            rng: np.random.Generator) -> np.ndarray:
    """Draw one category per row from a (rows, K) probability matrix.

    Vectorised inverse-CDF sampling; the workhorse of the Gibbs chains
    in BCC and CBCC.
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    cdf = probabilities.cumsum(axis=1)
    # Guard against rows that do not sum exactly to one.
    cdf /= cdf[:, -1:]
    draws = rng.random((len(probabilities), 1))
    return (draws > cdf).sum(axis=1)


def chi_square_confidence(counts: np.ndarray, confidence: float = 0.975
                          ) -> np.ndarray:
    """CATD's confidence coefficient X^2_(0.975, |T^w|) per worker.

    ``counts`` holds the number of tasks each worker answered.  The
    coefficient grows with the count, scaling up qualities of workers who
    answered many tasks (Section 4.2.4).  Workers with zero answers get
    coefficient 0 (their weight never matters — they answered nothing).

    The quantile is ``2 * gammaincinv(df / 2, confidence)``: X^2 with
    ``df`` degrees of freedom is Gamma(df / 2, scale=2).  It is the
    expression ``scipy.stats.chi2.ppf`` evaluates, so the two are equal
    bit for bit; calling ``scipy.special`` directly keeps ``scipy.stats``
    (and the ``optimize``/``spatial``/``ndimage`` modules it loads) out
    of every process that imports the engine.
    """
    counts = np.asarray(counts, dtype=np.float64)
    out = np.zeros_like(counts)
    positive = counts > 0
    out[positive] = 2.0 * special.gammaincinv(counts[positive] / 2,
                                              confidence)
    return out
