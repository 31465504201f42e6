"""Bias propagation along a chain of analysts on one case.

Each of k analysts examines an independent evidence stream for the same
case and reports posterior odds.  Every analyst's reported likelihood
ratio is the neutral one tilted by multiplicative terms, kept as logs:

    impute      direct: filling in missing evidence toward the exemplar
    context     direct: exposure to a task-irrelevant case trait
    tilde_peer  history: conformity growing with supportive reports

CASCADE mode applies only the direct terms, so analysts distort
independently.  SNOWBALL mode also applies the history term, so each
report feeds the next analyst's distortion and the tilt compounds along
the chain.  At k = 1 there is no history and the two modes coincide
exactly.

The history handed to the conformity term is, by default, each
predecessor's evidence contribution: reported posterior odds divided by
the shared prior, i.e. the reported LR as odds relative to an even prior
(peer_history="contribution").  Passing peer_history="posterior" records
raw reported posterior odds instead; with a small prior (say 1/10) those
rarely clear 1, which mutes the history term and makes snowball collapse
onto cascade.

One pass evaluates every replicate at once, as arrays of log terms.
A chain is a run of a PropagationStudy: run i of
monte_carlo_chains(n, master_seed=s) is the paired chain drawn from
substream(s, i), whatever n is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .contextual import race_example_delta
from .fingerprints import CellAgreementModel
from .odds import LOG_FLOAT_MAX, LikelihoodRatio, SuspectPool, uniform_prior_odds
from .seeding import substream_uniforms

__all__ = [
    "ChainMode",
    "BiasProfile",
    "PropagationStudy",
    "monte_carlo_chains",
]


class ChainMode(Enum):
    CASCADE = "cascade"
    SNOWBALL = "snowball"


_MODES = (ChainMode.CASCADE, ChainMode.SNOWBALL)


@dataclass(frozen=True)
class BiasProfile:
    """Coefficients of the per-analyst tilt terms.

    impute      1 + impute_share * missing_share + impute_trait * trait
    context     log tilt race_example_delta(context_trait_prob, trait), 0 when None
    tilde_peer  1 + conformity * (number of earlier supportive reports)

    peer, tilde_impute and tilde_context are unit in every profile.
    """

    impute_share: float
    impute_trait: float
    context_trait_prob: float | None
    conformity: float

    def __post_init__(self) -> None:
        for name in ("impute_share", "impute_trait", "conformity"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"BiasProfile.{name} must be finite and >= 0, got {value!r}")
            object.__setattr__(self, name, value)

    @classmethod
    def standard(cls, trait_prob: float = 0.15) -> "BiasProfile":
        """The profile used by the chain experiments.

        Imputation tilts by 1 + missing_share (+0.5 more on trait cases);
        context tilts like an analyst doubling a rare trait's source-side
        rate; the only active history term is the conformity count.
        """
        return cls(impute_share=1.0, impute_trait=0.5, context_trait_prob=trait_prob, conformity=1.0)

    @classmethod
    def unbiased(cls) -> "BiasProfile":
        """Every term unit: reports reproduce neutral odds exactly."""
        return cls(impute_share=0.0, impute_trait=0.0, context_trait_prob=None, conformity=0.0)

    def impute(self, missing_share, trait):
        """Linear imputation tilt; takes floats or broadcastable arrays."""
        return 1.0 + self.impute_share * missing_share + self.impute_trait * trait

    def context(self, trait: bool) -> float:
        """Log context tilt for a case with or without the trait."""
        if self.context_trait_prob is None:
            return 0.0
        return race_example_delta(self.context_trait_prob, trait)

    def tilde_peer(self, supportive: int) -> float:
        """Linear conformity tilt after `supportive` earlier supportive reports."""
        return 1.0 + self.conformity * supportive


@dataclass(frozen=True)
class PropagationStudy:
    """A replicated paired chain experiment; run i is one paired chain.

    Every array is indexed by (run, mode, analyst - 1), the summary's by
    (mode, analyst - 1), with modes in ChainMode order; any may be a
    broadcast view.  `columns` maps each results.csv header, in order, to
    its column, so its C-order rows put the run outermost.  `log_terms`
    maps each live tilt term ("impute", "context", "tilde_peer") to its
    log values; a report's terms sum to log(reported_odds) -
    log(neutral_odds).  `summary` maps each summary.csv header (mode,
    analyst_index, mean_bias_ratio, q025, median, q975), in order, to its
    column: statistics over the runs.
    """

    n_runs: int
    k: int
    columns: dict[str, np.ndarray]
    log_terms: dict[str, np.ndarray]
    summary: dict[str, np.ndarray]

    def mean_curve(self, mode: ChainMode) -> tuple[float, ...]:
        return tuple(self.summary["mean_bias_ratio"][_MODES.index(mode)].tolist())


def monte_carlo_chains(
    n_runs: int = 1000,
    *,
    master_seed: int,
    k: int = 5,
    pool: SuspectPool = SuspectPool(10),
    trait_prob: float = 0.15,
    model: CellAgreementModel = CellAgreementModel(),
    profile: BiasProfile | None = None,
    same_source: bool = True,
    missing_share: float | None = None,
    peer_history: str = "contribution",
) -> PropagationStudy:
    """Replicate paired chains; deterministic for a given master seed.

    Replicate i reads the first uniforms of substream(master_seed, i), in
    an order that is part of the reproducibility contract: trait, then
    the k missing shares (only when random), then the k match indicators.
    All replicates are drawn in one substream_uniforms call and evaluated
    at once, so run i is the same chain, bit for bit, in a study of any
    size.  Sums keep the terms' order and logs of drawn values are scalar
    math.log (np.log can differ in the last bit), so every replicate is
    bit-identical to evaluating its chain one report at a time.  Raises
    OverflowError, checked in log space, when p_same/p_diff or a reported
    odds exceeds float range.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k!r}")
    if not 0.0 <= trait_prob <= 1.0:
        raise ValueError(f"trait_prob must lie in [0, 1], got {trait_prob!r}")
    if missing_share is not None and not 0.0 <= missing_share <= 1.0:
        raise ValueError(f"missing_share must lie in [0, 1], got {missing_share!r}")
    if peer_history not in ("contribution", "posterior"):
        raise ValueError(
            f"peer_history must be 'contribution' or 'posterior', got {peer_history!r}"
        )
    if profile is None:
        profile = BiasProfile.standard(trait_prob)
    m = 1 + k if missing_share is not None else 1 + 2 * k
    draws = substream_uniforms(master_seed, range(n_runs), m)
    trait = draws[:, 0] < trait_prob
    if missing_share is None:
        shares = draws[:, 1 : k + 1] * 0.5
    else:
        shares = np.full((n_runs, k), float(missing_share))
    match = draws[:, -k:] < (model.p_same if same_source else model.p_diff)

    match_ratio = model.p_same / model.p_diff
    if not math.isfinite(match_ratio):
        raise OverflowError(f"the match likelihood ratio p_same/p_diff = {match_ratio} exceeds float range")
    prior = uniform_prior_odds(pool).log_value
    lr_match = LikelihoodRatio.from_linear(match_ratio).log_value
    lr_mismatch = LikelihoodRatio.from_linear((1.0 - model.p_same) / (1.0 - model.p_diff)).log_value
    neutral_lr = np.where(match, lr_match, lr_mismatch)
    linear_impute = profile.impute(shares, trait[:, None]).ravel().tolist()
    log_impute = np.reshape([math.log(v) for v in linear_impute], (n_runs, k))
    log_context = np.where(trait, profile.context(True), profile.context(False))
    cascade_lr = neutral_lr + log_impute + log_context[:, None]

    # Snowball: the conformity term counts the supportive reports so far;
    # cascade's stays zero.
    by_count = np.array([math.log(profile.tilde_peer(c)) for c in range(k)])
    shape = (n_runs, 2, k)
    tilde_peer = np.zeros(shape)
    conformity = tilde_peer[:, 1]
    supportive = np.zeros(n_runs, dtype=np.intp)
    for j in range(k):
        conformity[:, j] = by_count[supportive]
        history = cascade_lr[:, j] + conformity[:, j]
        if peer_history == "posterior":
            history = prior + history
        supportive += history >= 0.0
    neutral_log = prior + neutral_lr
    reported_log = prior + np.stack((cascade_lr, cascade_lr + conformity), axis=1)
    if (top := reported_log.max()) > LOG_FLOAT_MAX:
        raise OverflowError(f"the reported odds e**{top:.1f} exceed float range")
    ratio = np.exp(reported_log - neutral_log[:, None, :])

    # Broadcast views: the CSV writer formats each stored value once, so a
    # value repeated across modes or analysts is formatted once per run.
    columns = {
        name: np.broadcast_to(values, shape)
        for name, values in (
            ("mode", np.array([mode.value for mode in _MODES])[:, None]),
            ("run_id", np.arange(n_runs)[:, None, None]),
            ("analyst_index", np.arange(1, k + 1)),
            ("neutral_odds", np.exp(neutral_log)[:, None, :]),
            ("reported_odds", np.exp(reported_log)),
            ("bias_ratio", ratio),
            ("trait", trait[:, None, None]),
            ("missing_share", shares[:, None, :]),
        )
    }
    log_terms = {
        "impute": np.broadcast_to(log_impute[:, None, :], shape),
        "context": np.broadcast_to(log_context[:, None, None], shape),
        "tilde_peer": tilde_peer,
    }
    # One contiguous row per (mode, analyst), so each mean sums in the
    # same order as a mean over that column's values alone.
    per_index = np.ascontiguousarray(np.moveaxis(ratio, 0, -1))
    q025, median, q975 = np.percentile(per_index, [2.5, 50.0, 97.5], axis=-1)
    summary = {
        "mode": columns["mode"][0],
        "analyst_index": columns["analyst_index"][0],
        "mean_bias_ratio": per_index.mean(axis=-1),
        "q025": q025,
        "median": median,
        "q975": q975,
    }
    return PropagationStudy(n_runs=n_runs, k=k, columns=columns, log_terms=log_terms, summary=summary)
