"""How the trier of fact compounds biased expert reports.

The trier multiplies the prior guilt odds by every discipline's reported
likelihood ratio and by the contextual evidence heard directly.  The
trier applies no discipline weights and cannot see bias, so if stream j
arrives tilted by beta_j the guilt odds come out exactly
prod(beta_j) too large: per-stream tilts compound multiplicatively, they
never dilute.  Every input is a plain log value, so a chain study's
log(bias_ratio) row is a valid set of log betas as it stands.
"""

from __future__ import annotations

import math
from typing import Sequence

from .odds import LOG_FLOAT_MAX, log_prior_odds, probability

__all__ = ["case_report"]


def case_report(
    pool_n: int, log_lrs: Sequence[float], log_betas: Sequence[float], log_context: float = 0.0
) -> dict:
    """JSON-ready account of one case: inputs, both verdict odds, the gap.

    Stream j's neutral log likelihood ratio is log_lrs[j] and its log
    tilt log_betas[j]; log_context is the log likelihood ratio of the
    context the trier hears directly, and the prior is uniform over a
    pool of pool_n.  The logs are summed in stream order and each value
    is exponentiated once, when the report is built.  Raises ValueError
    for no streams or a length mismatch, and OverflowError when a
    reported LR, either guilt odds or the systemic ratio exceeds float
    range.
    """
    if len(log_lrs) == 0:
        raise ValueError("a case needs at least one evidence stream")
    if len(log_betas) != len(log_lrs):
        raise ValueError(f"{len(log_betas)} bias factors for {len(log_lrs)} streams")
    prior = log_prior_odds(pool_n)
    reported = [lr + beta for lr, beta in zip(log_lrs, log_betas)]
    neutral = biased = prior
    for lr, log_lr in zip(log_lrs, reported):
        neutral += lr
        biased += log_lr
    neutral += log_context
    biased += log_context
    ratio = biased - neutral
    for name, log_value in (
        ("a reported LR", max(reported)),
        ("the neutral guilt odds", neutral),
        ("the biased guilt odds", biased),
        ("the systemic bias ratio", ratio),
    ):
        if log_value > LOG_FLOAT_MAX:
            raise OverflowError(f"{name}: e**{log_value:.1f} exceeds float range")
    return {
        "pool_size": pool_n,
        "prior_odds": math.exp(prior),
        "context_lr": math.exp(log_context),
        "streams": [
            {
                "stream": i + 1,
                "neutral_lr": math.exp(lr),
                "beta": math.exp(beta),
                "reported_lr": math.exp(log_lr),
            }
            for i, (lr, beta, log_lr) in enumerate(zip(log_lrs, log_betas, reported))
        ],
        "neutral_guilt_odds": math.exp(neutral),
        "biased_guilt_odds": math.exp(biased),
        "neutral_guilt_probability": probability(neutral),
        "biased_guilt_probability": probability(biased),
        "systemic_bias_ratio": math.exp(ratio),
    }
