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
(peer_history="contribution").  With peer_history="posterior" it records
raw reported posterior odds instead; with a small prior (say 1/10) those
rarely clear 1, which mutes the history term and makes snowball collapse
onto cascade.

A ChainParams record holds a chain's parameters, checked once.  One
pass evaluates every replicate at once, as arrays of log terms: run i of
monte_carlo_chains(chain, n, master_seed=s) is the paired chain drawn
from substream(s, i), whatever n is.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

from ._lazy import np
from .contextual import race_example_delta
from .fingerprints import CellAgreementModel, percentiles
from .odds import LOG_FLOAT_MAX, _check_count, log_prior_odds
from .seeding import substream_uniforms

__all__ = [
    "ChainMode",
    "BiasProfile",
    "ChainParams",
    "PropagationStudy",
    "monte_carlo_chains",
]


class ChainMode(Enum):
    CASCADE = "cascade"
    SNOWBALL = "snowball"


_MODES = (ChainMode.CASCADE, ChainMode.SNOWBALL)


@dataclass(frozen=True)
class BiasProfile:
    """Coefficients of the per-analyst tilt terms; the defaults are the
    chain experiments' profile.

    impute      1 + impute_share * missing_share + impute_trait * trait
    context     on: log tilt race_example_delta(trait_prob, trait) at the
                chain's trait_prob; off: 0
    tilde_peer  1 + conformity * (number of earlier supportive reports)

    peer, tilde_impute and tilde_context are unit in every profile.
    """

    impute_share: float = 1.0
    impute_trait: float = 0.5
    context: bool = True
    conformity: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.context, bool):
            raise ValueError(f"BiasProfile.context must be a bool, got {self.context!r}")
        for name in ("impute_share", "impute_trait", "conformity"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"BiasProfile.{name} must be finite and >= 0, got {value!r}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ChainParams:
    """One chain experiment's parameters, checked once when built, and the
    constants a sampler and an exact law of the chain share.  trait_prob
    must lie in (0, 0.5) when the profile's context is on; a missing_share
    of None draws each analyst's share uniform on [0, 0.5).  Raises
    ValueError naming a bad field, or OverflowError when p_same/p_diff
    exceeds float range."""

    k: int = 5
    pool_n: int = 10
    trait_prob: float = 0.15
    model: CellAgreementModel = CellAgreementModel()
    profile: BiasProfile = BiasProfile()
    same_source: bool = True
    missing_share: float | None = None
    peer_history: str = "contribution"
    log_prior: float = field(init=False, repr=False)
    lr_match: float = field(init=False, repr=False)  # neutral log LR of a match
    lr_mismatch: float = field(init=False, repr=False)
    log_context: tuple[float, float] = field(init=False, repr=False)  # indexed by the trait T
    impute_trait_term: tuple[float, float] = field(init=False, repr=False)  # impute_trait * T, by T

    def __post_init__(self) -> None:
        _check_count("k", self.k)
        if not isinstance(self.same_source, bool):
            raise ValueError(f"same_source must be a bool, got {self.same_source!r}")
        if not 0.0 <= self.trait_prob <= 1.0:
            raise ValueError(f"trait_prob must lie in [0, 1], got {self.trait_prob!r}")
        share = self.missing_share
        if share is not None and (isinstance(share, bool) or not 0.0 <= share <= 1.0):
            raise ValueError(f"missing_share must be None or lie in [0, 1], got {share!r}")
        if self.peer_history not in ("contribution", "posterior"):
            raise ValueError(f"peer_history must be 'contribution' or 'posterior', got {self.peer_history!r}")
        model, profile, p = self.model, self.profile, self.trait_prob
        match_ratio = model.p_same / model.p_diff
        if not math.isfinite(match_ratio):
            raise OverflowError(f"the match likelihood ratio p_same/p_diff = {match_ratio} exceeds float range")
        context = (race_example_delta(p, False), race_example_delta(p, True)) if profile.context else (0.0, 0.0)
        object.__setattr__(self, "log_prior", log_prior_odds(self.pool_n))
        object.__setattr__(self, "lr_match", math.log(match_ratio))
        object.__setattr__(self, "lr_mismatch", math.log((1.0 - model.p_same) / (1.0 - model.p_diff)))
        object.__setattr__(self, "log_context", context)
        object.__setattr__(self, "impute_trait_term", (profile.impute_trait * False, profile.impute_trait * True))

    @functools.cached_property  # built on first use, so checking a long chain costs O(1)
    def log_tilde_peer(self) -> tuple[float, ...]:  # by earlier supportive reports, 0..k-1
        return tuple(math.log(1.0 + self.profile.conformity * c) for c in range(self.k))


@dataclass(frozen=True)
class PropagationStudy:
    """A replicated paired chain experiment; run i is one paired chain.

    Every array is indexed by (run, mode, analyst - 1), the summary's by
    (mode, analyst - 1), with modes in ChainMode order; any may be a
    broadcast view.  `columns` maps each results.csv header, in order, to
    its column, so its C-order rows put the run outermost.  `log_terms`
    maps each live tilt term ("impute", "context", "tilde_peer") to its
    log values; a report's terms sum to log(bias_ratio).  `summary` maps
    each summary.csv header (mode, analyst_index, mean_bias_ratio, q025,
    median, q975), in order, to its column: statistics over the runs.  The
    quantiles are numpy's default linear ones (Hyndman & Fan type 7) over
    the n_runs replicates.
    """

    n_runs: int
    k: int
    columns: dict[str, np.ndarray]
    log_terms: dict[str, np.ndarray]
    summary: dict[str, np.ndarray]

    def mean_curve(self, mode: ChainMode) -> tuple[float, ...]:
        return tuple(self.summary["mean_bias_ratio"][_MODES.index(mode)].tolist())


def monte_carlo_chains(chain: ChainParams, n_runs: int, *, master_seed: int) -> PropagationStudy:
    """Replicate the paired chain; deterministic for a given master seed.

    Replicate i reads the first uniforms of substream(master_seed, i), in
    an order that is part of the reproducibility contract: trait, then
    the k missing shares (only when random), then the k match indicators.
    All replicates are drawn in one substream_uniforms call and evaluated
    at once, so run i is the same chain, bit for bit, in a study of any
    size.  Sums keep the terms' order and logs of drawn values are scalar
    math.log, mapped over the values into one array (np.log can differ in
    the last bit), so every replicate is bit-identical to evaluating its
    chain one report at a time.  Raises ValueError for a bad n_runs, before
    any draw (the record checked the rest), and OverflowError, checked in
    log space, when a reported odds exceeds float range.
    """
    _check_count("n_runs", n_runs)
    k, prior = chain.k, chain.log_prior
    m = 1 + k if chain.missing_share is not None else 1 + 2 * k
    draws = substream_uniforms(master_seed, range(n_runs), m)
    trait = draws[:, 0] < chain.trait_prob
    if chain.missing_share is None:
        shares = draws[:, 1 : k + 1] * 0.5
    else:
        shares = np.full((n_runs, k), float(chain.missing_share))
    match = draws[:, -k:] < (chain.model.p_same if chain.same_source else chain.model.p_diff)

    neutral_lr = np.where(match, chain.lr_match, chain.lr_mismatch)
    impute_trait = np.where(trait, chain.impute_trait_term[True], chain.impute_trait_term[False])
    linear_impute = (1.0 + chain.profile.impute_share * shares + impute_trait[:, None]).ravel().tolist()
    log_impute = np.fromiter(map(math.log, linear_impute), np.float64, n_runs * k).reshape(n_runs, k)
    log_context = np.where(trait, chain.log_context[True], chain.log_context[False])
    cascade_lr = neutral_lr + log_impute + log_context[:, None]

    # Snowball: the conformity term counts the supportive reports so far;
    # cascade's stays zero.
    by_count = np.array(chain.log_tilde_peer)
    shape = (n_runs, 2, k)
    tilde_peer = np.zeros(shape)
    conformity = tilde_peer[:, 1]
    supportive = np.zeros(n_runs, dtype=np.intp)
    for j in range(k):
        conformity[:, j] = by_count[supportive]
        history = cascade_lr[:, j] + conformity[:, j]
        if chain.peer_history == "posterior":
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
    q025, median, q975 = percentiles(per_index, [2.5, 50.0, 97.5])
    summary = {
        "mode": columns["mode"][0],
        "analyst_index": columns["analyst_index"][0],
        "mean_bias_ratio": per_index.mean(axis=-1),
        "q025": q025,
        "median": median,
        "q975": q975,
    }
    return PropagationStudy(n_runs=n_runs, k=k, columns=columns, log_terms=log_terms, summary=summary)
