"""Reusable inference machinery shared by the method implementations.

These are the "substrates" the paper's algorithms are built on: the
sharded EM, alternating and Gibbs drivers, segment operators,
variational helpers, and distribution utilities.
"""

from .distributions import (
    beta_expected_log,
    chi_square_confidence,
    dirichlet_expected_log,
    sample_categorical_rows,
    sample_dirichlet_rows,
)
from .segops import BasedScatterAdd, SegmentSum
from .sharded import (
    EMOutcome,
    SerialShardRunner,
    ShardedEMSpec,
    SufficientStats,
    make_runner,
    run_em_sharded,
)
from .variational import BetaPrior, expected_log_beta_counts, posterior_mean_accuracy

__all__ = [
    "BasedScatterAdd",
    "BetaPrior",
    "EMOutcome",
    "SegmentSum",
    "SerialShardRunner",
    "ShardedEMSpec",
    "SufficientStats",
    "make_runner",
    "run_em_sharded",
    "beta_expected_log",
    "chi_square_confidence",
    "dirichlet_expected_log",
    "expected_log_beta_counts",
    "posterior_mean_accuracy",
    "sample_categorical_rows",
    "sample_dirichlet_rows",
]
