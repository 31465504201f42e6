"""How the trier of fact compounds biased expert reports.

The trier multiplies the prior guilt odds by every discipline's reported
likelihood ratio and by the contextual evidence heard directly.  The
trier applies no discipline weights and cannot see bias, so if stream j
arrives tilted by beta_j the guilt odds come out exactly
prod(beta_j) too large: per-stream tilts compound multiplicatively, they
never dilute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .contextual import BiasFactor, Provenance
from .odds import (
    LOG_FLOAT_MAX,
    LikelihoodRatio,
    OddsRatio,
    SuspectPool,
    odds_to_probability,
    uniform_prior_odds,
)

__all__ = [
    "EvidenceBundle",
    "StreamBias",
    "neutral_guilt_odds",
    "biased_guilt_odds",
    "systemic_bias_ratio",
    "case_report",
]


@dataclass(frozen=True)
class EvidenceBundle:
    """Everything the trier hears: prior pool, expert streams, direct context."""

    pool: SuspectPool
    stream_lrs: tuple[LikelihoodRatio, ...]
    context_lr: LikelihoodRatio = LikelihoodRatio(0.0)

    def __post_init__(self) -> None:
        streams = tuple(self.stream_lrs)
        if not streams:
            raise ValueError("an evidence bundle needs at least one stream")
        object.__setattr__(self, "stream_lrs", streams)

    @property
    def n_streams(self) -> int:
        return len(self.stream_lrs)


@dataclass(frozen=True)
class StreamBias:
    """The per-stream multiplicative tilt each expert report carries."""

    betas: tuple[BiasFactor, ...]

    def __post_init__(self) -> None:
        betas = tuple(self.betas)
        if not betas:
            raise ValueError("StreamBias needs at least one factor")
        object.__setattr__(self, "betas", betas)

    @property
    def total_log(self) -> float:
        total = 0.0
        for beta in self.betas:
            total += beta.log_value
        return total


def neutral_guilt_odds(bundle: EvidenceBundle) -> OddsRatio:
    """Guilt odds from unbiased reports: prior * prod(LR_j) * context."""
    total = uniform_prior_odds(bundle.pool).log_value
    for lr in bundle.stream_lrs:
        total += lr.log_value
    total += bundle.context_lr.log_value
    if not math.isfinite(total):
        raise OverflowError("guilt log-odds overflowed")
    return OddsRatio(total)


def biased_guilt_odds(bundle: EvidenceBundle, bias: StreamBias) -> OddsRatio:
    """Guilt odds when stream j arrives tilted by beta_j."""
    if len(bias.betas) != bundle.n_streams:
        raise ValueError(
            f"{len(bias.betas)} bias factors for {bundle.n_streams} streams"
        )
    total = uniform_prior_odds(bundle.pool).log_value
    for lr, beta in zip(bundle.stream_lrs, bias.betas):
        total += lr.log_value + beta.log_value
    total += bundle.context_lr.log_value
    if not math.isfinite(total):
        raise OverflowError("guilt log-odds overflowed")
    return OddsRatio(total)


def systemic_bias_ratio(bundle: EvidenceBundle, bias: StreamBias) -> BiasFactor:
    """biased / neutral guilt odds: the product of the betas."""
    ratio = biased_guilt_odds(bundle, bias).log_value - neutral_guilt_odds(bundle).log_value
    return BiasFactor(ratio, Provenance.COMPOSITE)


def case_report(bundle: EvidenceBundle, bias: StreamBias) -> dict:
    """JSON-ready account of one case: inputs, both verdict odds, the gap.

    Raises OverflowError when a reported LR, either guilt odds or the
    systemic ratio exceeds float range.
    """
    neutral = neutral_guilt_odds(bundle)
    biased = biased_guilt_odds(bundle, bias)
    ratio = systemic_bias_ratio(bundle, bias)
    reported = [lr.log_value + beta.log_value for lr, beta in zip(bundle.stream_lrs, bias.betas)]
    for name, log_value in (
        ("a reported LR", max(reported)),
        ("the neutral guilt odds", neutral.log_value),
        ("the biased guilt odds", biased.log_value),
        ("the systemic bias ratio", ratio.log_value),
    ):
        if log_value > LOG_FLOAT_MAX:
            raise OverflowError(f"{name}: e**{log_value:.1f} exceeds float range")
    return {
        "pool_size": bundle.pool.n,
        "prior_odds": uniform_prior_odds(bundle.pool).linear,
        "context_lr": bundle.context_lr.linear,
        "streams": [
            {
                "stream": i + 1,
                "neutral_lr": lr.linear,
                "beta": beta.linear,
                "reported_lr": math.exp(log_lr),
            }
            for i, (lr, beta, log_lr) in enumerate(zip(bundle.stream_lrs, bias.betas, reported))
        ],
        "neutral_guilt_odds": neutral.linear,
        "biased_guilt_odds": biased.linear,
        "neutral_guilt_probability": odds_to_probability(neutral).value,
        "biased_guilt_probability": odds_to_probability(biased).value,
        "systemic_bias_ratio": ratio.linear,
    }
