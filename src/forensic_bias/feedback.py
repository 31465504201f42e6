"""The conviction feedback loop on an analyst's prevalence belief.

An analyst holds a Beta belief about how often actual sources carry some
trait and updates it conjugately after every adjudicated case.  Under a
truthful court the observed sources are real sources, so the belief
converges to the true rate.  Under a biased court a fraction of
convictions are wrongful and trait-skewed: those cases feed distorted
observations back into the belief, which then converges to the wrong
place, and more slowly toward truth than a clean record would.

A regime is only its (wrongful_rate, trait_skew) pair; the truthful one,
FeedbackRegime(), is (0, 1).  A FeedbackParams record holds one
experiment's alpha_true, n_obs, prior and biased regime, checked once
when built; it sets the wrongful-case trait rate, and warns once if it
clamps that rate to 1.  Every function reads the record.  The two courts
are always run as a pair under common random numbers, and every result
holds the truthful court first and the biased one second.
simulate_feedback draws one stream of cases and returns both belief
trajectories; with a zero wrongful rate its two rows are equal bit for
bit.

A final posterior mean depends only on the trait count K, which is
Binomial(n_obs, p) in either regime.  Under common random numbers each
case puts the (truthful, biased) pair in one of four cells: both show
the trait, only the truthful one, only the biased one, or neither.  So
a replicate's two counts are sums of one Multinomial(n_obs, cells)
draw, and the paired experiment (run_paired_feedback) draws every
replicate's cell counts in one call; no trajectory is built.
exact_final_mean_and_gap gives the exact means it estimates, the final
posterior mean and its gap to the true rate, for both courts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .odds import _check_count, binomial_log_pmf
from .seeding import substream

__all__ = [
    "FeedbackRegime",
    "BetaPrior",
    "DEFAULT_PRIOR",
    "FeedbackParams",
    "simulate_feedback",
    "exact_final_mean_and_gap",
    "run_paired_feedback",
]


@dataclass(frozen=True)
class FeedbackRegime:
    """How adjudicated cases are generated.

    wrongful_rate is the share of convictions that are wrongful; in those
    cases the trait appears at min(1, trait_skew * true rate) instead of
    the true rate.  The truthful regime, the default, has no wrongful
    convictions.
    """

    wrongful_rate: float = 0.0
    trait_skew: float = 1.0

    def __post_init__(self) -> None:
        rate, skew = float(self.wrongful_rate), float(self.trait_skew)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"wrongful_rate must lie in [0, 1], got {rate!r}")
        if not skew > 0.0 or not np.isfinite(skew):
            raise ValueError(f"trait_skew must be positive and finite, got {skew!r}")
        object.__setattr__(self, "wrongful_rate", rate)
        object.__setattr__(self, "trait_skew", skew)


@dataclass(frozen=True)
class BetaPrior:
    """Beta(a, b) belief over a rate; mean a / (a + b)."""

    a: float
    b: float

    def __post_init__(self) -> None:
        a, b = float(self.a), float(self.b)
        if not (a > 0.0 and b > 0.0 and np.isfinite(a) and np.isfinite(b)):
            raise ValueError(f"Beta parameters must be positive and finite, got a={a!r} b={b!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def mean(self) -> float:
        return self.a / (self.a + self.b)


DEFAULT_PRIOR = BetaPrior(12.0, 8.0)


@dataclass(frozen=True)
class FeedbackParams:
    """One feedback experiment's parameters, checked once when built: the
    true trait rate alpha_true in (0, 1), the cases per trajectory n_obs,
    the analyst's prior and the biased court's regime.  It sets skewed,
    the trait rate in wrongful cases, min(1, trait_skew * alpha_true); a
    clamp to 1 warns once, at the record's construction.  Raises
    ValueError naming a bad field."""

    alpha_true: float = 0.5
    n_obs: int = 100
    prior: BetaPrior = DEFAULT_PRIOR
    biased: FeedbackRegime = FeedbackRegime(0.06, 2.0)
    skewed: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        alpha_true = float(self.alpha_true)
        if not 0.0 < alpha_true < 1.0:
            raise ValueError(f"alpha_true must lie strictly inside (0, 1), got {alpha_true!r}")
        _check_count("n_obs", self.n_obs)
        skewed = self.biased.trait_skew * alpha_true
        if skewed > 1.0:
            warnings.warn(
                f"trait_skew * alpha_true = {skewed!r} exceeds 1; clamping the wrongful-case trait rate to 1",
                RuntimeWarning,
                stacklevel=3,
            )
            skewed = 1.0
        object.__setattr__(self, "alpha_true", alpha_true)
        object.__setattr__(self, "skewed", skewed)


def simulate_feedback(params: FeedbackParams, *, rng: np.random.Generator) -> np.ndarray:
    """The posterior means after cases 1, 2, ..., n_obs of a truthful and
    a biased belief trajectory under common random numbers, as a
    (2, n_obs) array, truthful first.  Case j reads column j of
    rng.random((2, n_obs)): row 0 decides whether it is wrongful, row 1
    whether it shows the trait."""
    alpha_true, n_obs, prior = params.alpha_true, params.n_obs, params.prior
    wrongful, trait = rng.random((2, n_obs))
    biased_rate = np.where(wrongful < params.biased.wrongful_rate, params.skewed, alpha_true)
    traits = np.stack((trait < alpha_true, trait < biased_rate))
    steps = np.arange(1, n_obs + 1, dtype=float)
    return (prior.a + np.cumsum(traits, axis=1)) / (prior.a + prior.b + steps)


def exact_final_mean_and_gap(params: FeedbackParams) -> tuple[tuple[float, float], tuple[float, float]]:
    """Exact means of a trajectory's final posterior mean and of its gap to
    alpha_true, as (truthful, biased) pairs.  The trait count K is
    Binomial(n_obs, p) with p = (1 - w) * alpha + w * skewed, w = 0 in the
    truthful regime, so the final mean (a + K) / (a + b + n_obs) averages
    (a + n_obs * p) / (a + b + n_obs); the gap sums the binomial pmf,
    taken in log space, over |final - alpha|."""
    alpha_true, n_obs, prior = params.alpha_true, params.n_obs, params.prior
    total = prior.a + prior.b + n_obs
    counts = np.arange(n_obs + 1)
    gaps = np.abs((prior.a + counts) / total - alpha_true)

    def mean_and_gap(w: float) -> tuple[float, float]:
        p = (1.0 - w) * alpha_true + w * params.skewed
        return (prior.a + n_obs * p) / total, float(np.exp(binomial_log_pmf(n_obs, p, counts)) @ gaps)

    return mean_and_gap(0.0), mean_and_gap(params.biased.wrongful_rate)


def _paired_cells(params: FeedbackParams) -> list[float]:
    """One case's probabilities of the four (truthful, biased) cells under
    common random numbers: both show the trait, only the truthful run,
    only the biased run, neither.  Both runs read the trait uniform
    against alpha_true, except the biased run in a wrongful case, which
    reads it against skewed; so the runs part only in wrongful cases whose
    uniform falls between the two rates.  The last cell is the remainder:
    numpy's multinomial ignores it but requires it to lie in [0, 1], and
    the first three sum to at most max(alpha_true, skewed) <= 1 up to
    rounding, within the 1e-12 numpy allows."""
    alpha_true, skewed, w = params.alpha_true, params.skewed, params.biased.wrongful_rate
    lo = min(alpha_true, skewed)
    cells = [(1.0 - w) * alpha_true + w * lo, w * (alpha_true - lo), w * (skewed - lo)]
    return cells + [max(0.0, 1.0 - sum(cells))]


def run_paired_feedback(params: FeedbackParams, n_seeds: int, *, master_seed: int) -> np.ndarray:
    """Final posterior means of truthful and biased runs under common
    random numbers, as a (2, n_seeds) float64 array, truthful first.

    Each replicate's cell counts c are one row of a single
    Multinomial(n_obs, cells) draw of shape (n_seeds, 4) from
    substream(master_seed, 1) (see _paired_cells).  Its trait counts are
    K_truthful = c0 + c1 and K_biased = c0 + c2, and each final mean is
    (a + K) / (a + b + n_obs).  exact_final_mean_and_gap gives the exact
    means of the results.  Raises ValueError for a bad n_seeds.
    """
    _check_count("n_seeds", n_seeds)
    prior = params.prior
    c0, c1, c2, _ = substream(master_seed, 1).multinomial(params.n_obs, _paired_cells(params), size=n_seeds).T
    return (prior.a + np.stack((c0 + c1, c0 + c2))) / (prior.a + prior.b + params.n_obs)
