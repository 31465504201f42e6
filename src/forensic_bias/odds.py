"""Log-space odds arithmetic on plain floats.

Odds and likelihood ratios are natural logarithms held as floats, so
Bayes' rule in odds form is a sum: the posterior log odds are the prior
log odds plus the log likelihood ratios.  Long products of per-analyst
factors then neither overflow nor underflow for realistic chain
lengths; a caller exponentiates a value once, when it is written.
Probabilities of exactly 0 and 1 have no finite log odds and are
refused.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = [
    "log_prior_odds",
    "log_odds",
    "probability",
    "binomial_log_pmf",
    "LOG_FLOAT_MAX",
]

# The largest log value whose linear value is a finite float.
LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _check_count(name: str, value: object) -> None:
    """ValueError naming the count unless it is an int >= 1; a bool, a
    float and a numpy integer are refused."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be an int >= 1, got {value!r}")


def log_prior_odds(pool_n: int) -> float:
    """Log of the uniform prior odds 1/n that the suspect is the source
    in a closed pool of n candidates, suspect included.

    A pool of one gives even odds (log 0.0); larger pools shrink the
    prior harmonically.  Raises ValueError unless pool_n is an int >= 1
    (a bool is refused)."""
    _check_count("pool_n", pool_n)
    return -math.log(pool_n)


def log_odds(p: float) -> float:
    """log(p / (1 - p)).  Raises ValueError unless 0 < p < 1, so the odds
    stay finite (nan is refused too)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"cannot form odds from probability {p!r}; p must lie strictly inside (0, 1)")
    return math.log(p) - math.log1p(-p)


def probability(log_odds: float) -> float:
    """odds / (1 + odds) from log odds, stable in both tails."""
    if log_odds >= 0.0:
        return 1.0 / (1.0 + math.exp(-log_odds))
    e = math.exp(log_odds)
    return e / (1.0 + e)


def binomial_log_pmf(n: int, p: float, k: np.ndarray) -> np.ndarray:
    """log P(K = k) at each count of the integer array k, K ~ Binomial(n, p);
    -inf where P(K = k) is 0.

    Taken from log factorials, so it neither overflows nor underflows
    for large n, and costs O(len(k)) whatever n is."""
    if p in (0.0, 1.0):
        return np.where(k == round(p * n), 0.0, -np.inf)

    def log_fact(j: np.ndarray) -> np.ndarray:  # log j!, elementwise
        return np.array([math.lgamma(v + 1.0) for v in j.tolist()])

    return math.lgamma(n + 1.0) - log_fact(k) - log_fact(n - k) + k * math.log(p) + (n - k) * math.log1p(-p)
