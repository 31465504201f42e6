"""Bias propagation along a chain of analysts on one case.

Each of k analysts examines an independent evidence stream for the same
case and reports posterior odds.  Every analyst's reported likelihood
ratio is tilted by six multiplicative terms, recorded in a ledger:

    impute         direct: filling in missing evidence toward the exemplar
    context        direct: exposure to a task-irrelevant case trait
    peer           direct: a constant conformity pull
    tilde_impute   history: imputation amplified by earlier reports
    tilde_context  history: context amplified by earlier reports
    tilde_peer     history: conformity growing with supportive reports

CASCADE mode applies only the direct terms, so analysts distort
independently.  SNOWBALL mode also applies the history terms, so each
report feeds the next analyst's distortion and the tilt compounds along
the chain.  At k = 1 there is no history and the two modes coincide
exactly.

The history handed to the tilde terms is, by default, each predecessor's
evidence contribution: reported posterior odds divided by the shared
prior, i.e. the reported LR as odds relative to an even prior
(peer_history="contribution").  Passing peer_history="posterior" records
raw reported posterior odds instead; with a small prior (say 1/10) those
rarely clear 1, which mutes the history terms and makes snowball collapse
onto cascade.

One kernel evaluates every replicate at once, as (n_runs, k) arrays of
log terms; a single chain is the n_runs = 1 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .contextual import BiasFactor, BiasLedger, LedgerEntry, Provenance, race_example_delta
from .fingerprints import CellAgreementModel
from .odds import LikelihoodRatio, OddsRatio, SuspectPool, posterior_odds, uniform_prior_odds
from .seeding import substream_uniforms

__all__ = [
    "ChainMode",
    "BiasProfile",
    "tilde_peer_count",
    "AnalystReport",
    "ChainResult",
    "run_chain",
    "run_chain_pair",
    "ChainRecord",
    "IndexSummary",
    "PropagationStudy",
    "monte_carlo_chains",
]


class ChainMode(Enum):
    CASCADE = "cascade"
    SNOWBALL = "snowball"


_MODES = (ChainMode.CASCADE, ChainMode.SNOWBALL)


def tilde_peer_count(history: Sequence[OddsRatio]) -> BiasFactor:
    """Conformity factor 1 + (number of prior reports with odds >= 1)."""
    supportive = sum(1 for h in history if h.log_value >= 0.0)
    return BiasFactor.from_linear(1.0 + supportive, Provenance.PEER)


@dataclass(frozen=True)
class BiasProfile:
    """Coefficients of the per-analyst tilt terms.

    impute      1 + impute_share * missing_share + impute_trait * trait
    context     race_example_delta(context_trait_prob, trait), unit when None
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
        """All six terms unit: reports reproduce neutral odds exactly."""
        return cls(impute_share=0.0, impute_trait=0.0, context_trait_prob=None, conformity=0.0)

    def impute(self, missing_share, trait):
        """Linear imputation tilt; takes floats or broadcastable arrays."""
        return 1.0 + self.impute_share * missing_share + self.impute_trait * trait

    def context(self, trait: bool) -> BiasFactor:
        if self.context_trait_prob is None:
            return BiasFactor.unit(Provenance.CONTEXTUAL)
        return race_example_delta(self.context_trait_prob, trait)

    def tilde_peer(self, supportive: int) -> float:
        """Linear conformity tilt after `supportive` earlier supportive reports."""
        return 1.0 + self.conformity * supportive


@dataclass(frozen=True)
class AnalystReport:
    index: int  # 1-based position in the chain
    match: bool
    missing_share: float
    neutral_lr: LikelihoodRatio
    reported_lr: LikelihoodRatio
    neutral_odds: OddsRatio
    reported_odds: OddsRatio
    ledger: BiasLedger

    @property
    def bias_ratio(self) -> float:
        return float(np.exp(self.reported_odds.log_value - self.neutral_odds.log_value))


@dataclass(frozen=True)
class ChainResult:
    mode: ChainMode
    pool: SuspectPool
    same_source: bool
    trait: bool
    reports: tuple[AnalystReport, ...]

    @property
    def bias_ratios(self) -> tuple[float, ...]:
        return tuple(r.bias_ratio for r in self.reports)


_LEDGER = (
    ("impute", Provenance.IMPUTE),
    ("context", Provenance.CONTEXTUAL),
    ("peer", Provenance.PEER),
    ("tilde_impute", Provenance.IMPUTE),
    ("tilde_context", Provenance.CONTEXTUAL),
    ("tilde_peer", Provenance.PEER),
)


@dataclass(frozen=True, eq=False)
class _ChainArrays:
    """Paired chains in log space, indexed [run, (mode,) analyst - 1].

    Only the live tilt terms are stored: impute and context apply in both
    modes, the conformity count only in snowball; peer, tilde_impute and
    tilde_context are unit in every profile.
    """

    prior: float
    trait: np.ndarray  # (n,) bool
    missing_share: np.ndarray  # (n, k)
    match: np.ndarray  # (n, k) bool
    neutral_lr: np.ndarray  # (n, k)
    log_impute: np.ndarray  # (n, k)
    log_context: np.ndarray  # (n,)
    log_conformity: np.ndarray  # (n, k), snowball's tilde_peer
    reported_lr: np.ndarray  # (n, 2, k)


def _draw_count(k: int, trait_prob: float, missing_share: float | None, peer_history: str) -> int:
    """Validate a chain's arguments; return the uniforms one replicate draws.

    Draw order is part of the reproducibility contract: trait, then the
    k missing shares (only when random), then the k match indicators, as
    the first m uniforms of the replicate's stream.
    """
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
    return 1 + k if missing_share is not None else 1 + 2 * k


def _chain_kernel(
    draws: np.ndarray,
    k: int,
    pool: SuspectPool,
    trait_prob: float,
    model: CellAgreementModel,
    profile: BiasProfile | None,
    same_source: bool,
    missing_share: float | None,
    peer_history: str,
) -> _ChainArrays:
    """Evaluate one paired chain per row of the (n, m) uniform block.

    Row i holds replicate i's m = _draw_count(...) uniforms in draw
    order; the caller validates the arguments through _draw_count.  Sums
    keep the ledger's order and logs of drawn values are scalar math.log
    (np.log can differ in the last bit), so every replicate is
    bit-identical to evaluating its chain one report at a time.
    """
    if profile is None:
        profile = BiasProfile.standard(trait_prob)
    p_agree = model.p_same if same_source else model.p_diff
    n = len(draws)
    trait = draws[:, 0] < trait_prob
    if missing_share is None:
        shares = draws[:, 1 : k + 1] * 0.5
    else:
        shares = np.full((n, k), float(missing_share))
    match = draws[:, -k:] < p_agree

    prior = uniform_prior_odds(pool).log_value
    lr_match = LikelihoodRatio.from_linear(model.p_same / model.p_diff).log_value
    lr_mismatch = LikelihoodRatio.from_linear((1.0 - model.p_same) / (1.0 - model.p_diff)).log_value
    neutral_lr = np.where(match, lr_match, lr_mismatch)
    linear_impute = profile.impute(shares, trait[:, None]).ravel().tolist()
    log_impute = np.reshape([math.log(v) for v in linear_impute], (n, k))
    log_context = np.where(trait, profile.context(True).log_value, profile.context(False).log_value)
    cascade_lr = neutral_lr + log_impute + log_context[:, None]

    # Snowball: the conformity term counts the supportive reports so far.
    by_count = np.array([math.log(profile.tilde_peer(c)) for c in range(k)])
    log_conformity = np.empty((n, k))
    supportive = np.zeros(n, dtype=np.intp)
    for j in range(k):
        log_conformity[:, j] = by_count[supportive]
        history = cascade_lr[:, j] + log_conformity[:, j]
        if peer_history == "posterior":
            history = prior + history
        supportive += history >= 0.0
    return _ChainArrays(
        prior=prior,
        trait=trait,
        missing_share=shares,
        match=match,
        neutral_lr=neutral_lr,
        log_impute=log_impute,
        log_context=log_context,
        log_conformity=log_conformity,
        reported_lr=np.stack((cascade_lr, cascade_lr + log_conformity), axis=1),
    )


def _chain_result(arrays: _ChainArrays, m: int, pool: SuspectPool, same_source: bool) -> ChainResult:
    """Replicate 0 in mode _MODES[m] as reports with their six-entry ledgers."""
    prior = OddsRatio(arrays.prior)
    context = float(arrays.log_context[0])
    impute = arrays.log_impute[0].tolist()
    conformity = arrays.log_conformity[0].tolist() if m else [0.0] * len(impute)
    reports = []
    for j, (log_impute, tilde_peer) in enumerate(zip(impute, conformity)):
        neutral_lr = LikelihoodRatio(arrays.neutral_lr[0, j])
        reported_lr = LikelihoodRatio(arrays.reported_lr[0, m, j])
        logs = (log_impute, context, 0.0, 0.0, 0.0, tilde_peer)
        ledger = BiasLedger(
            tuple(LedgerEntry(label, BiasFactor(v, p)) for (label, p), v in zip(_LEDGER, logs))
        )
        reports.append(
            AnalystReport(
                j + 1,
                bool(arrays.match[0, j]),
                float(arrays.missing_share[0, j]),
                neutral_lr,
                reported_lr,
                posterior_odds(prior, neutral_lr),
                posterior_odds(prior, reported_lr),
                ledger,
            )
        )
    return ChainResult(_MODES[m], pool, same_source, bool(arrays.trait[0]), tuple(reports))


def run_chain(
    mode: ChainMode,
    *,
    k: int = 5,
    pool: SuspectPool = SuspectPool(10),
    trait_prob: float = 0.15,
    model: CellAgreementModel = CellAgreementModel(),
    profile: BiasProfile | None = None,
    same_source: bool = True,
    missing_share: float | None = None,
    peer_history: str = "contribution",
    rng: np.random.Generator,
) -> ChainResult:
    """Run one k-analyst chain in one mode."""
    draws = rng.random((1, _draw_count(k, trait_prob, missing_share, peer_history)))
    arrays = _chain_kernel(
        draws, k, pool, trait_prob, model, profile, same_source, missing_share, peer_history
    )
    return _chain_result(arrays, _MODES.index(mode), pool, same_source)


def run_chain_pair(
    *,
    k: int = 5,
    pool: SuspectPool = SuspectPool(10),
    trait_prob: float = 0.15,
    model: CellAgreementModel = CellAgreementModel(),
    profile: BiasProfile | None = None,
    same_source: bool = True,
    missing_share: float | None = None,
    peer_history: str = "contribution",
    rng: np.random.Generator,
) -> tuple[ChainResult, ChainResult]:
    """Evaluate cascade and snowball on one shared set of draws.

    The pairing is structural: randomness is drawn once, so the two modes
    differ only in the history terms, and at k = 1 their reports are
    bit-identical.
    """
    draws = rng.random((1, _draw_count(k, trait_prob, missing_share, peer_history)))
    arrays = _chain_kernel(
        draws, k, pool, trait_prob, model, profile, same_source, missing_share, peer_history
    )
    return _chain_result(arrays, 0, pool, same_source), _chain_result(arrays, 1, pool, same_source)


@dataclass(frozen=True)
class ChainRecord:
    """One analyst's row in the replicated experiment."""

    mode: str
    run_id: int
    analyst_index: int
    neutral_odds: float
    reported_odds: float
    bias_ratio: float
    trait: bool
    missing_share: float


@dataclass(frozen=True)
class IndexSummary:
    mode: str
    analyst_index: int
    mean_bias_ratio: float
    q025: float
    median: float
    q975: float


@dataclass(frozen=True)
class PropagationStudy:
    """A replicated paired chain experiment.

    `columns` maps each results.csv header, which is a ChainRecord field
    name, in field order, to its column: an (n_runs, 2, k) broadcast view
    indexed by (run, mode, analyst), so its C-order rows put the run
    outermost.  `records` builds ChainRecords from them on demand.
    """

    n_runs: int
    k: int
    columns: dict[str, np.ndarray]
    summaries: tuple[IndexSummary, ...]

    @property
    def records(self) -> tuple[ChainRecord, ...]:
        values = (column.ravel().tolist() for column in self.columns.values())
        return tuple(ChainRecord(*row) for row in zip(*values))

    def records_for(self, mode: ChainMode) -> tuple[ChainRecord, ...]:
        return tuple(r for r in self.records if r.mode == mode.value)

    def mean_curve(self, mode: ChainMode) -> tuple[float, ...]:
        by_index = {s.analyst_index: s.mean_bias_ratio for s in self.summaries if s.mode == mode.value}
        return tuple(by_index[i] for i in range(1, self.k + 1))


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

    Replicate i reads the first uniforms of substream(master_seed, i), all
    replicates drawn in one substream_uniforms call, so run_chain_pair
    with that generator re-creates it on its own, bit for bit.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs!r}")
    m = _draw_count(k, trait_prob, missing_share, peer_history)
    draws = substream_uniforms(master_seed, range(n_runs), m)
    arrays = _chain_kernel(
        draws, k, pool, trait_prob, model, profile, same_source, missing_share, peer_history
    )
    neutral_log = arrays.prior + arrays.neutral_lr
    reported_log = arrays.prior + arrays.reported_lr
    ratio = np.exp(reported_log - neutral_log[:, None, :])
    # Broadcast views: the CSV writer formats each stored value once, so a
    # value repeated across modes or analysts is formatted once per run.
    shape = (n_runs, 2, k)
    columns = {
        name: np.broadcast_to(values, shape)
        for name, values in (
            ("mode", np.array([mode.value for mode in _MODES])[:, None]),
            ("run_id", np.arange(n_runs)[:, None, None]),
            ("analyst_index", np.arange(1, k + 1)),
            ("neutral_odds", np.exp(neutral_log)[:, None, :]),
            ("reported_odds", np.exp(reported_log)),
            ("bias_ratio", ratio),
            ("trait", arrays.trait[:, None, None]),
            ("missing_share", arrays.missing_share[:, None, :]),
        )
    }

    # One contiguous row per (mode, analyst), so each mean sums in the
    # same order as a mean over that column's values alone.
    per_index = np.ascontiguousarray(ratio.reshape(n_runs, 2 * k).T)
    quantiles = np.percentile(per_index, [2.5, 50.0, 97.5], axis=1).T.tolist()
    summaries = tuple(
        IndexSummary(_MODES[c // k].value, c % k + 1, float(row.mean()), *quantiles[c])
        for c, row in enumerate(per_index)
    )
    return PropagationStudy(n_runs=n_runs, k=k, columns=columns, summaries=summaries)
