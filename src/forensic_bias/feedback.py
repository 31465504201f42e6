"""The conviction feedback loop on an analyst's prevalence belief.

An analyst holds a Beta belief about how often actual sources carry some
trait and updates it conjugately after every adjudicated case.  Under a
truthful court the observed sources are real sources, so the belief
converges to the true rate.  Under a biased court a fraction of
convictions are wrongful and trait-skewed: those cases feed distorted
observations back into the belief, which then converges to the wrong
place, and more slowly toward truth than a clean record would.

A regime is only its (wrongful_rate, trait_skew) pair; the truthful one
is (0, 1).  Every regime consumes the random stream identically (two
uniforms per case), so running two on generators with the same seed
compares them under common random numbers, and a regime with a zero
wrongful rate reproduces the truthful run bit for bit.

A final posterior mean depends only on the trait count K, which is
Binomial(n_obs, p) in either regime.  The paired experiment
(run_paired_feedback) therefore draws the replicates' (2, n_obs) blocks
in batches and keeps only the two regimes' counts, and
exact_final_mean_and_gap gives the exact means it estimates: the final
posterior mean and its gap to the true rate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .odds import binomial_log_pmf
from .seeding import substream_uniforms

__all__ = [
    "FeedbackRegime",
    "BetaPrior",
    "DEFAULT_PRIOR",
    "conjugate_update",
    "Trajectory",
    "simulate_feedback",
    "convergence_gap",
    "exact_final_mean_and_gap",
    "PairedFeedbackResult",
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

    @classmethod
    def truthful(cls) -> "FeedbackRegime":
        return cls()

    @classmethod
    def biased(cls, wrongful_rate: float = 0.06, trait_skew: float = 2.0) -> "FeedbackRegime":
        return cls(wrongful_rate, trait_skew)


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


def conjugate_update(prior: BetaPrior, trait_observed: bool) -> BetaPrior:
    """One Bernoulli observation: increment a on a trait, b otherwise."""
    if trait_observed:
        return BetaPrior(prior.a + 1.0, prior.b)
    return BetaPrior(prior.a, prior.b + 1.0)


@dataclass(frozen=True)
class Trajectory:
    prior: BetaPrior
    alpha_true: float
    traits: tuple[bool, ...]
    posterior_means: tuple[float, ...]  # after observation 1, 2, ..., n

    @property
    def n_obs(self) -> int:
        return len(self.traits)

    @property
    def final(self) -> BetaPrior:
        k = sum(self.traits)
        return BetaPrior(self.prior.a + k, self.prior.b + (self.n_obs - k))


def _validate_alpha(alpha_true: float) -> float:
    alpha_true = float(alpha_true)
    if not 0.0 < alpha_true < 1.0:
        raise ValueError(f"alpha_true must lie strictly inside (0, 1), got {alpha_true!r}")
    return alpha_true


def _wrongful_trait_rate(regime: FeedbackRegime, alpha_true: float) -> float:
    """The trait rate in wrongful cases, clamped to 1 with a warning that
    names the caller's caller."""
    skewed = regime.trait_skew * alpha_true
    if skewed > 1.0:
        warnings.warn(
            f"trait_skew * alpha_true = {skewed!r} exceeds 1; clamping the "
            "wrongful-case trait rate to 1",
            RuntimeWarning,
            stacklevel=3,
        )
        skewed = 1.0
    return skewed


def _traits(u: np.ndarray, regime: FeedbackRegime, alpha_true: float, skewed: float) -> np.ndarray:
    """Traits from (..., 2, n_obs) uniform blocks: row 0 wrongful, row 1 trait."""
    return u[..., 1, :] < np.where(u[..., 0, :] < regime.wrongful_rate, skewed, alpha_true)


def simulate_feedback(
    regime: FeedbackRegime,
    alpha_true: float,
    n_obs: int = 100,
    prior: BetaPrior = DEFAULT_PRIOR,
    *,
    rng: np.random.Generator,
) -> Trajectory:
    """Run one belief trajectory through n_obs adjudicated cases."""
    alpha_true = _validate_alpha(alpha_true)
    if n_obs < 1:
        raise ValueError(f"n_obs must be >= 1, got {n_obs!r}")
    skewed = _wrongful_trait_rate(regime, alpha_true)
    traits = _traits(rng.random((2, n_obs)), regime, alpha_true, skewed)
    steps = np.arange(1, n_obs + 1, dtype=float)
    means = (prior.a + np.cumsum(traits)) / (prior.a + prior.b + steps)
    return Trajectory(
        prior=prior,
        alpha_true=alpha_true,
        traits=tuple(bool(t) for t in traits),
        posterior_means=tuple(float(m) for m in means),
    )


def convergence_gap(trajectory: Trajectory, alpha_true: float | None = None) -> float:
    """Absolute distance between the final posterior mean and the true rate."""
    target = trajectory.alpha_true if alpha_true is None else _validate_alpha(alpha_true)
    return abs(trajectory.posterior_means[-1] - target)


def exact_final_mean_and_gap(
    regime: FeedbackRegime, alpha_true: float, n_obs: int = 100, prior: BetaPrior = DEFAULT_PRIOR
) -> tuple[float, float]:
    """Exact means of a trajectory's final posterior mean and of its gap to
    alpha_true.  The trait count K is Binomial(n_obs, p) with
    p = (1 - w) * alpha + w * min(1, skew * alpha), so the final mean
    (a + K) / (a + b + n_obs) averages (a + n_obs * p) / (a + b + n_obs);
    the gap sums the binomial pmf, taken in log space, over |final - alpha|."""
    alpha_true = _validate_alpha(alpha_true)
    if n_obs < 1:
        raise ValueError(f"n_obs must be >= 1, got {n_obs!r}")
    w = regime.wrongful_rate
    p = (1.0 - w) * alpha_true + w * _wrongful_trait_rate(regime, alpha_true)
    total = prior.a + prior.b + n_obs
    counts = np.arange(n_obs + 1)
    gaps = np.abs((prior.a + counts) / total - alpha_true)
    mean = (prior.a + n_obs * p) / total
    return mean, float(np.exp(binomial_log_pmf(n_obs, p, counts)) @ gaps)


@dataclass(frozen=True)
class PairedFeedbackResult:
    """Final posterior means from truthful/biased pairs sharing each seed."""

    alpha_true: float
    n_obs: int
    truthful_means: tuple[float, ...]
    biased_means: tuple[float, ...]

    @property
    def truthful_gaps(self) -> tuple[float, ...]:
        return tuple(abs(m - self.alpha_true) for m in self.truthful_means)

    @property
    def biased_gaps(self) -> tuple[float, ...]:
        return tuple(abs(m - self.alpha_true) for m in self.biased_means)

    @property
    def mean_truthful_gap(self) -> float:
        return float(np.mean(self.truthful_gaps))

    @property
    def mean_biased_gap(self) -> float:
        return float(np.mean(self.biased_gaps))


# Replicates per substream_uniforms call in run_paired_feedback: 256 keeps
# the uniforms held at once to 256 * 2 * n_obs doubles (400 kB at the
# default n_obs); drawing all replicates at once costs more peak memory.
_BATCH = 256


def run_paired_feedback(
    n_seeds: int = 1000,
    alpha_true: float = 0.5,
    n_obs: int = 100,
    prior: BetaPrior = DEFAULT_PRIOR,
    biased: FeedbackRegime | None = None,
    *,
    master_seed: int,
) -> PairedFeedbackResult:
    """Replicate truthful and biased runs under common random numbers.

    Replicate i reads both regimes' traits from one (2, n_obs) block of
    substream(master_seed, i), the draws simulate_feedback makes, so every
    difference in a pair is the regime's doing; each final mean is
    (a + K) / (a + b + n_obs) for its trait count K, and no trajectory is
    built.  The blocks come from substream_uniforms in batches of
    _BATCH replicates, which bounds the uniforms held at once.
    exact_final_mean_and_gap gives the exact means of the results.  A
    clamped wrongful-case trait rate warns once per call.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds!r}")
    if n_obs < 1:
        raise ValueError(f"n_obs must be >= 1, got {n_obs!r}")
    if biased is None:
        biased = FeedbackRegime.biased()
    truthful = FeedbackRegime.truthful()
    alpha_true = _validate_alpha(alpha_true)
    skewed = _wrongful_trait_rate(biased, alpha_true)
    k_truthful = np.empty(n_seeds, dtype=np.intp)
    k_biased = np.empty(n_seeds, dtype=np.intp)
    for start in range(0, n_seeds, _BATCH):
        stop = min(start + _BATCH, n_seeds)
        u = substream_uniforms(master_seed, range(start, stop), 2 * n_obs).reshape(-1, 2, n_obs)
        k_truthful[start:stop] = np.count_nonzero(_traits(u, truthful, alpha_true, alpha_true), axis=1)
        k_biased[start:stop] = np.count_nonzero(_traits(u, biased, alpha_true, skewed), axis=1)
        del u  # free this batch before the next is drawn
    total = prior.a + prior.b + n_obs
    return PairedFeedbackResult(
        alpha_true=alpha_true,
        n_obs=n_obs,
        truthful_means=tuple(((prior.a + k_truthful) / total).tolist()),
        biased_means=tuple(((prior.a + k_biased) / total).tolist()),
    )
