"""Log-space odds and likelihood-ratio arithmetic.

Odds and likelihood ratios are stored as natural logarithms so that long
products of per-analyst factors keep their multiplicative structure and
neither overflow nor underflow for realistic chain lengths.  Probabilities
of exactly 0 and 1 are representable as `Probability` values but cannot be
converted to odds: every odds ratio in this package is finite and positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

__all__ = [
    "Probability",
    "OddsRatio",
    "LikelihoodRatio",
    "SuspectPool",
    "ProbabilityLike",
    "as_probability",
    "posterior_odds",
    "uniform_prior_odds",
    "probability_to_odds",
    "odds_to_probability",
    "compose_lr",
    "binomial_log_pmf",
]


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class Probability:
    """A probability in the closed interval [0, 1]."""

    value: float

    def __post_init__(self) -> None:
        value = _require_finite("Probability.value", self.value)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"Probability.value must lie in [0, 1], got {value!r}")
        object.__setattr__(self, "value", value)

    @property
    def complement(self) -> "Probability":
        return Probability(1.0 - self.value)


ProbabilityLike = Union[Probability, float]


def as_probability(value: ProbabilityLike) -> Probability:
    """Coerce a float or Probability to a validated Probability."""
    if isinstance(value, Probability):
        return value
    return Probability(float(value))


@dataclass(frozen=True)
class OddsRatio:
    """Odds in favour of a hypothesis, stored as log(odds).

    Finite log values only: odds of 0 or infinity are rejected at
    construction, which is what makes repeated Bayes updates safe.
    """

    log_value: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "log_value", _require_finite("OddsRatio.log_value", self.log_value)
        )

    @classmethod
    def from_linear(cls, odds: float) -> "OddsRatio":
        odds = _require_finite("odds", odds)
        if odds <= 0.0:
            raise ValueError(f"odds must be positive, got {odds!r}")
        return cls(math.log(odds))

    @property
    def linear(self) -> float:
        return math.exp(self.log_value)


@dataclass(frozen=True)
class LikelihoodRatio:
    """Evidence strength P(evidence | H) / P(evidence | not H), stored as a log."""

    log_value: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "log_value",
            _require_finite("LikelihoodRatio.log_value", self.log_value),
        )

    @classmethod
    def from_linear(cls, ratio: float) -> "LikelihoodRatio":
        ratio = _require_finite("ratio", ratio)
        if ratio <= 0.0:
            raise ValueError(f"likelihood ratio must be positive, got {ratio!r}")
        return cls(math.log(ratio))

    @classmethod
    def unit(cls) -> "LikelihoodRatio":
        return cls(0.0)

    @property
    def linear(self) -> float:
        return math.exp(self.log_value)


@dataclass(frozen=True)
class SuspectPool:
    """The closed set of n candidate sources for a trace, suspect included."""

    n: int

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, int):
            raise ValueError(f"SuspectPool.n must be an int, got {self.n!r}")
        if self.n < 1:
            raise ValueError(f"SuspectPool.n must be >= 1, got {self.n!r}")


def posterior_odds(prior: OddsRatio, lr: LikelihoodRatio) -> OddsRatio:
    """Bayes' rule in odds form: posterior = prior * LR (a log-space sum)."""
    total = prior.log_value + lr.log_value
    if not math.isfinite(total):
        raise OverflowError(
            f"posterior log-odds overflowed: {prior.log_value!r} + {lr.log_value!r}"
        )
    return OddsRatio(total)


def uniform_prior_odds(pool: SuspectPool) -> OddsRatio:
    """Uniform prior odds 1/n that the suspect is the source in a pool of n.

    A pool of one yields even odds (1.0); larger pools shrink the prior
    harmonically.  Returned as log(1/n) = -log(n), exact for n = 1.
    """
    return OddsRatio(-math.log(pool.n))


def probability_to_odds(p: ProbabilityLike) -> OddsRatio:
    """Convert probability to odds p/(1-p).  Rejects p of exactly 0 or 1."""
    value = as_probability(p).value
    if value <= 0.0 or value >= 1.0:
        raise ValueError(
            f"cannot form odds from probability {value!r}; odds must stay finite"
        )
    return OddsRatio(math.log(value) - math.log1p(-value))


def odds_to_probability(odds: OddsRatio) -> Probability:
    """Convert odds to probability odds/(1+odds), stable in both tails."""
    log_value = odds.log_value
    if log_value >= 0.0:
        p = 1.0 / (1.0 + math.exp(-log_value))
    else:
        e = math.exp(log_value)
        p = e / (1.0 + e)
    return Probability(p)


def compose_lr(parts: Iterable[LikelihoodRatio]) -> LikelihoodRatio:
    """Product of likelihood ratios from conditionally independent evidence.

    Computed as a sum of logs, left to right, so composition is exactly
    associative up to float addition.
    """
    parts = tuple(parts)
    if not parts:
        raise ValueError("compose_lr requires at least one likelihood ratio")
    total = 0.0
    for part in parts:
        total += part.log_value
    if not math.isfinite(total):
        raise OverflowError("composed log likelihood ratio overflowed")
    return LikelihoodRatio(total)


def binomial_log_pmf(n: int, p: float) -> np.ndarray:
    """log P(K = k) for k = 0..n, K ~ Binomial(n, p); -inf where P(K = k) is 0.

    Taken from log factorials, so it neither overflows nor underflows
    for large n."""
    k = np.arange(n + 1)
    if p in (0.0, 1.0):
        return np.where(k == round(p * n), 0.0, -np.inf)
    log_fact = np.array([math.lgamma(j + 1.0) for j in range(n + 1)])  # log j!
    return log_fact[-1] - log_fact - log_fact[::-1] + k * math.log(p) + (n - k) * math.log1p(-p)
