"""Multiplicative bias factors on likelihood ratios, as plain log values.

An analyst who is exposed to task-irrelevant information reports a
likelihood ratio that differs from the neutral one by a multiplicative
factor.  In the odds form of Bayes' rule that factor is one more
additive term in the log odds, so every factor here is a plain float
log value: a caller sums the logs and takes exp once, when it writes.
The panel averages are the exception; they take and return linear
factors.

Prevalence model: a binary trait occurs with probability alpha among
actual sources and beta among non-sources.  An analyst who instead
believes the rates are alpha* and beta* multiplies the trait evidence
into the reported likelihood ratio, which tilts it by

    delta = (alpha*/beta*) * (beta/alpha)            if the trait is present
    delta = ((1-alpha*)/(1-beta*)) * ((1-beta)/(1-alpha))   otherwise

relative to an analyst holding the true rates.  A factor above 1 (a
positive log) inflates the evidence against the suspect; below 1
deflates it; exactly 1 is neutral.
"""

from __future__ import annotations

import math
from statistics import fmean
from typing import Sequence

__all__ = [
    "delta_contextual",
    "race_example_delta",
    "average_bias",
    "MAYFIELD_DELTAS",
    "mayfield_average",
]


def _open_unit(name: str, value: float) -> float:
    v = float(value)
    if not 0.0 < v < 1.0:
        raise ValueError(f"{name} must lie strictly inside (0, 1), got {v!r}")
    return v


def delta_contextual(
    alpha: float, beta: float, alpha_star: float, beta_star: float, trait_present: bool
) -> float:
    """Log bias factor from evaluating trait evidence under believed rates.

    alpha and beta are the true trait rates among sources and non-sources,
    alpha_star and beta_star the rates the analyst acts on; each must lie
    strictly inside (0, 1).  Zero exactly when belief matches truth.
    Computed from the four rates directly, so nearly-cancelling ratios
    stay accurate.
    """
    rates = {"alpha": alpha, "beta": beta, "alpha_star": alpha_star, "beta_star": beta_star}
    alpha, beta, alpha_star, beta_star = (_open_unit(name, v) for name, v in rates.items())
    if trait_present:
        return math.log(alpha_star) - math.log(beta_star) + math.log(beta) - math.log(alpha)
    return math.log1p(-alpha_star) - math.log1p(-beta_star) + math.log1p(-beta) - math.log1p(-alpha)


def race_example_delta(trait_prob: float, trait_present: bool) -> float:
    """Log bias factor when an analyst doubles the perceived source-side rate.

    The trait occurs with the same base rate p on both sides (so the trait
    carries no evidence), but exposure leads the analyst to act as if
    sources carry it at 2p.  Requires p < 1/2 so the doubled rate is still
    a probability.  Present traits are overweighted by exactly 2; absent
    traits are underweighted by 2 - 1/(1-p), which must not round to 0.
    """
    p = _open_unit("trait_prob", trait_prob)
    if p >= 0.5:
        raise ValueError(f"trait_prob must be < 0.5 so the doubled rate stays valid, got {p!r}")
    if trait_present:
        return math.log(2.0)
    absent = 2.0 - 1.0 / (1.0 - p)
    if absent <= 0.0:  # 1 - p rounds to 1/2 at p = 0.5 - 2**-54
        raise ValueError(f"trait_prob={p!r} rounds the absent-trait factor 2 - 1/(1-p) to 0; use a smaller trait_prob")
    return math.log(absent)


def average_bias(factors: Sequence[float], geometric: bool = False) -> float:
    """Case-level average of per-examiner linear bias factors.

    The default is the arithmetic mean, matching how a panel's individual
    tilts are summarised into one case figure.  The geometric mean (exp
    of the mean log) is available for sensitivity checks.  Every factor
    must be positive and finite.
    """
    factors = tuple(float(f) for f in factors)
    if not factors:
        raise ValueError("average_bias requires at least one factor")
    if not all(0.0 < f < math.inf for f in factors):
        raise ValueError(f"bias factors must be positive and finite, got {factors!r}")
    if geometric:
        return math.exp(fmean(math.log(f) for f in factors))
    return fmean(factors)


# Mayfield panel: three examiners swayed by the circulated intelligence
# context (factor 2 each), one partially swayed (1.5), one unmoved (1.0).
MAYFIELD_DELTAS: tuple[float, ...] = (2.0, 2.0, 2.0, 1.5, 1.0)


def mayfield_average() -> float:
    """Arithmetic mean bias of the five-examiner Mayfield panel: 1.7."""
    return average_bias(MAYFIELD_DELTAS)
