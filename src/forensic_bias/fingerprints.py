"""A toy minutiae-comparison model for imputation bias.

Prints are binary grids: each cell either shows a minutia or does not.
A latent print additionally has missing cells (smudged or not lifted).
An examiner who fills missing cells by copying the suspect's exemplar
("imputation") manufactures agreement, which inflates the reported
likelihood ratio by a factor of r = p_same/p_diff per imputed cell, so
by exactly r**M for M missing cells, whatever the prints show.  The
Monte Carlo over that factor (sample_delta_impute) draws only that
sufficient statistic, M ~ Binomial(n, s), as one binomial per replicate;
the delta-impute preset reports its mean with a standard error
(mc_standard_error) next to the exact mean (exact_mean_delta), and its
quantiles next to the exact ones (exact_delta_quantiles).

Grid text format, one row per line:

    'm' minutia present, '.' absent, '?' missing

Match scoring counts cell agreements over comparable (non-missing)
cells; the source decision is taken on the number of agreeing minutiae
(cells where both prints show one), with the usual 12-point style
thresholds: >= 12 identification, >= 7 support for same source, >= 3
inconclusive, below that exclusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import Sequence, Union

import numpy as np

from .contextual import BiasFactor, Provenance
from .odds import LOG_FLOAT_MAX, LikelihoodRatio, binomial_log_pmf

__all__ = [
    "Cell",
    "MinutiaVector",
    "LatentVector",
    "PrintGrid",
    "MatchSummary",
    "SourceDecision",
    "DEFAULT_THRESHOLDS",
    "CellAgreementModel",
    "ImputationSimParams",
    "impute_from_reference",
    "count_matches",
    "decide_source",
    "agreement_log_likelihood",
    "source_lr",
    "delta_impute_exact",
    "sample_delta_impute",
    "exact_mean_delta",
    "exact_delta_quantiles",
    "exact_relative_standard_error",
    "GridFixture",
    "imputation_grid_fixture",
]


class Cell(Enum):
    ABSENT = "."
    PRESENT = "m"
    MISSING = "?"


_CHAR_TO_CELL = {c.value: c for c in Cell}


def _cells_from_text(text: str) -> tuple[Cell, ...]:
    cells = []
    for ch in text:
        if ch in (" ", "\n", "\r"):
            continue
        try:
            cells.append(_CHAR_TO_CELL[ch])
        except KeyError:
            raise ValueError(f"unknown grid character {ch!r}; expected one of 'm', '.', '?'")
    return tuple(cells)


@dataclass(frozen=True)
class MinutiaVector:
    """A fully observed print: every cell is PRESENT or ABSENT."""

    cells: tuple[Cell, ...]

    def __post_init__(self) -> None:
        cells = tuple(self.cells)
        if not cells:
            raise ValueError("MinutiaVector needs at least one cell")
        for i, cell in enumerate(cells):
            if not isinstance(cell, Cell):
                raise ValueError(f"cell {i} is {cell!r}, not a Cell")
            if cell is Cell.MISSING:
                raise ValueError(f"MinutiaVector cannot contain MISSING (cell {i})")
        object.__setattr__(self, "cells", cells)

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "MinutiaVector":
        return cls(tuple(Cell.PRESENT if b else Cell.ABSENT for b in bits))

    @classmethod
    def from_text(cls, text: str) -> "MinutiaVector":
        return cls(_cells_from_text(text))

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(1 if c is Cell.PRESENT else 0 for c in self.cells)

    @property
    def n_minutiae(self) -> int:
        return sum(self.bits)

    def __len__(self) -> int:
        return len(self.cells)


@dataclass(frozen=True)
class LatentVector:
    """A partially observed print: cells may also be MISSING."""

    cells: tuple[Cell, ...]

    def __post_init__(self) -> None:
        cells = tuple(self.cells)
        if not cells:
            raise ValueError("LatentVector needs at least one cell")
        for i, cell in enumerate(cells):
            if not isinstance(cell, Cell):
                raise ValueError(f"cell {i} is {cell!r}, not a Cell")
        object.__setattr__(self, "cells", cells)

    @classmethod
    def from_text(cls, text: str) -> "LatentVector":
        return cls(_cells_from_text(text))

    @property
    def n_missing(self) -> int:
        return sum(1 for c in self.cells if c is Cell.MISSING)

    @property
    def missing_indices(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.cells) if c is Cell.MISSING)

    def __len__(self) -> int:
        return len(self.cells)


PrintVector = Union[MinutiaVector, LatentVector]


@dataclass(frozen=True)
class PrintGrid:
    """A print vector laid out as rows x cols for display and fixtures."""

    rows: int
    cols: int
    vector: PrintVector

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"grid shape must be positive, got {self.rows}x{self.cols}")
        if (n := self.rows * self.cols) != len(self.vector):
            raise ValueError(f"{self.rows}x{self.cols} grid needs {n} cells, got {len(self.vector)}")

    @classmethod
    def from_text(cls, text: str) -> "PrintGrid":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty grid text")
        widths = {len(ln) for ln in lines}
        if len(widths) != 1:
            raise ValueError(f"ragged grid rows: widths {sorted(widths)!r}")
        cells = _cells_from_text("".join(lines))
        vector = (LatentVector if Cell.MISSING in cells else MinutiaVector)(cells)
        return cls(len(lines), widths.pop(), vector)

    def to_text(self) -> str:
        chars = "".join(c.value for c in self.vector.cells)
        return "\n".join(chars[r * self.cols : (r + 1) * self.cols] for r in range(self.rows))

    def __len__(self) -> int:
        return len(self.vector)


def _as_vector(print_like: Union[PrintGrid, PrintVector]) -> PrintVector:
    return print_like.vector if isinstance(print_like, PrintGrid) else print_like


def _as_pair(
    reference: Union[PrintGrid, PrintVector], print_: Union[PrintGrid, PrintVector], role: str
) -> tuple[MinutiaVector, PrintVector]:
    x = _as_vector(reference)
    y = _as_vector(print_)
    if isinstance(x, LatentVector):
        raise ValueError(f"the {role} must be fully observed")
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {role} has {len(x)} cells, print has {len(y)}")
    return x, y


@dataclass(frozen=True)
class MatchSummary:
    """Cell-level comparison counts between an exemplar and a print."""

    n_cells: int
    n_correspondences: int  # comparable cells that agree (both absent counts)
    n_matches: int  # agreeing cells where both show a minutia
    n_missing: int

    def __post_init__(self) -> None:
        ok = (
            0 <= self.n_matches <= self.n_correspondences
            and self.n_correspondences + self.n_missing <= self.n_cells
            and self.n_missing >= 0
        )
        if not ok:
            raise ValueError(
                f"inconsistent counts: cells={self.n_cells} correspondences="
                f"{self.n_correspondences} matches={self.n_matches} missing={self.n_missing}"
            )


class SourceDecision(Enum):
    IDENTIFICATION = "Identification"
    SUPPORT_SAME_SOURCE = "SupportSameSource"
    INCONCLUSIVE = "Inconclusive"
    EXCLUSION = "Exclusion"


DEFAULT_THRESHOLDS: tuple[int, int, int] = (12, 7, 3)


def count_matches(
    exemplar: Union[PrintGrid, MinutiaVector], print_: Union[PrintGrid, PrintVector]
) -> MatchSummary:
    """Count agreements between a complete exemplar and a (possibly latent) print.

    Missing cells are not comparable and contribute only to n_missing.
    """
    x, y = _as_pair(exemplar, print_, "exemplar")
    correspondences = 0
    matches = 0
    missing = 0
    for cx, cy in zip(x.cells, y.cells):
        if cy is Cell.MISSING:
            missing += 1
        elif cx is cy:
            correspondences += 1
            if cx is Cell.PRESENT:
                matches += 1
    return MatchSummary(len(x), correspondences, matches, missing)


def decide_source(
    summary: MatchSummary, thresholds: tuple[int, int, int] = DEFAULT_THRESHOLDS
) -> SourceDecision:
    """Threshold the agreeing-minutiae count into a categorical decision."""
    t_id, t_support, t_inconclusive = thresholds
    if not t_id > t_support > t_inconclusive >= 0:
        raise ValueError(f"thresholds must be strictly decreasing and nonnegative, got {thresholds!r}")
    m = summary.n_matches
    if m >= t_id:
        return SourceDecision.IDENTIFICATION
    if m >= t_support:
        return SourceDecision.SUPPORT_SAME_SOURCE
    if m >= t_inconclusive:
        return SourceDecision.INCONCLUSIVE
    return SourceDecision.EXCLUSION


def _round_half_up(x: float) -> int:
    # round() would take 12.5 to 12 (banker's rounding); the share contract
    # is half-up, so 0.25 of 50 cells masks 13 of them.
    return int(math.floor(x + 0.5))


def _fixed_count(n: int, missing_share: float, mode: str) -> int | None:
    """The missing count M of an n-cell grid when it cannot vary:
    round-half-up(s * n) for an exact mask or a share of 0 or 1.  None when
    M ~ Binomial(n, s)."""
    if not 0.0 <= missing_share <= 1.0:
        raise ValueError(f"missing_share must lie in [0, 1], got {missing_share!r}")
    if mode not in ("exact", "per_cell"):
        raise ValueError(f"mode must be 'exact' or 'per_cell', got {mode!r}")
    if mode == "exact" or missing_share in (0.0, 1.0):
        return _round_half_up(missing_share * n)
    return None


def impute_from_reference(
    latent: Union[PrintGrid, LatentVector, MinutiaVector],
    reference: Union[PrintGrid, MinutiaVector],
) -> Union[PrintGrid, MinutiaVector]:
    """Fill every missing cell with the reference's cell value.

    This is the biasing move: the examiner resolves ambiguity toward the
    exemplar, so each imputed cell agrees with it by construction.
    """
    x, y = _as_pair(reference, latent, "reference")
    cells = tuple(cx if cy is Cell.MISSING else cy for cx, cy in zip(x.cells, y.cells))
    completed = MinutiaVector(cells)
    if isinstance(latent, PrintGrid):
        return PrintGrid(latent.rows, latent.cols, completed)
    return completed


@dataclass(frozen=True)
class CellAgreementModel:
    """Per-cell agreement rates: p_same under same source, p_diff otherwise.

    Informative, non-degenerate evidence requires 0 < p_diff < p_same < 1;
    each agreeing cell then multiplies the source LR by p_same/p_diff and
    each disagreeing cell by (1-p_same)/(1-p_diff).
    """

    p_same: float = 0.5
    p_diff: float = 0.25

    def __post_init__(self) -> None:
        p_same, p_diff = float(self.p_same), float(self.p_diff)
        if not (0.0 < p_diff < p_same < 1.0):
            raise ValueError(f"need 0 < p_diff < p_same < 1, got p_same={p_same!r} p_diff={p_diff!r}")
        object.__setattr__(self, "p_same", p_same)
        object.__setattr__(self, "p_diff", p_diff)


def agreement_log_likelihood(
    print_: Union[PrintGrid, PrintVector],
    reference: Union[PrintGrid, MinutiaVector],
    p_agree: float,
) -> float:
    """log P(print | reference) when each comparable cell agrees iid w.p. p_agree.

    Missing cells are marginalised out: they contribute a factor of one.
    """
    if not 0.0 < p_agree < 1.0:
        raise ValueError(f"p_agree must lie strictly inside (0, 1), got {p_agree!r}")
    x, y = _as_pair(reference, print_, "reference")
    log_agree = math.log(p_agree)
    log_disagree = math.log1p(-p_agree)
    total = 0.0
    for cx, cy in zip(x.cells, y.cells):
        if cy is Cell.MISSING:
            continue
        total += log_agree if cx is cy else log_disagree
    return total


def source_lr(
    print_: Union[PrintGrid, PrintVector],
    reference: Union[PrintGrid, MinutiaVector],
    model: CellAgreementModel = CellAgreementModel(),
) -> LikelihoodRatio:
    """Likelihood ratio P(print | same source) / P(print | different source)."""
    return LikelihoodRatio(
        agreement_log_likelihood(print_, reference, model.p_same)
        - agreement_log_likelihood(print_, reference, model.p_diff)
    )


def delta_impute_exact(
    latent: Union[PrintGrid, LatentVector, MinutiaVector],
    reference: Union[PrintGrid, MinutiaVector],
    model: CellAgreementModel = CellAgreementModel(),
) -> BiasFactor:
    """Bias factor from imputing, LR(imputed) / LR(observed).

    The observed LR marginalises missing cells out; the imputed print adds
    one agreeing cell per missing cell, so the factor is exactly
    (p_same/p_diff) ** n_missing.  Complete prints give a unit factor.
    """
    imputed = impute_from_reference(latent, reference)
    log_delta = (
        source_lr(imputed, reference, model).log_value
        - source_lr(latent, reference, model).log_value
    )
    return BiasFactor(log_delta, Provenance.IMPUTE)


@dataclass(frozen=True)
class ImputationSimParams:
    """Grid shape and agreement model of the imputation-bias Monte Carlo."""

    rows: int = 10
    cols: int = 5
    model: CellAgreementModel = CellAgreementModel()

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"grid shape must be positive, got {self.rows}x{self.cols}")


def sample_delta_impute(
    params: ImputationSimParams = ImputationSimParams(),
    missing_share: float = 0.25,
    n_reps: int = 10_000,
    *,
    rng: np.random.Generator,
    mask_mode: str = "per_cell",
) -> np.ndarray:
    """Monte Carlo draws of the imputation bias factor r**M, r = p_same/p_diff.

    Only the missing count M is drawn, so memory grows with n_reps and not
    with the grid.  "per_cell": one rng.binomial(n, s, n_reps) call.
    "exact", or a share of 0 or 1: M = round-half-up(s * n), no draws.
    Raises OverflowError, checked in log space, if a draw exceeds float
    range."""
    if n_reps < 1:
        raise ValueError(f"n_reps must be >= 1, got {n_reps!r}")
    n = params.rows * params.cols
    fixed = _fixed_count(n, missing_share, mask_mode)
    counts = rng.binomial(n, missing_share, n_reps) if fixed is None else np.full(n_reps, fixed)
    log_draws = counts * math.log(params.model.p_same / params.model.p_diff)
    if log_draws.max() > LOG_FLOAT_MAX:
        raise OverflowError(f"the draw r**{counts.max()} = e**{log_draws.max():.1f} exceeds float range")
    return np.exp(log_draws)


def exact_mean_delta(params: ImputationSimParams, missing_share: float, mask_mode: str) -> float:
    """Exact mean of sample_delta_impute's draws: (1 - s + s * r) ** n per cell,
    r ** round-half-up(s * n) for an exact mask; OverflowError past float range."""
    n = params.rows * params.cols
    r = params.model.p_same / params.model.p_diff
    if mask_mode == "exact":
        log_mean = _round_half_up(missing_share * n) * math.log(r)
    else:
        log_mean = n * math.log1p(missing_share * (r - 1.0))
    if log_mean > LOG_FLOAT_MAX:
        raise OverflowError(f"the exact mean e**{log_mean:.1f} exceeds float range")
    return math.exp(log_mean)


# A cumulative probability this close to a quantile level counts as
# reaching it, so rounding in the log-space pmf cannot move a quantile
# off an exact tie such as P(M <= 4) = 1/2 at n = 9, s = 1/2.
_CDF_SLACK = 1e-9


def exact_delta_quantiles(
    params: ImputationSimParams, missing_share: float, mask_mode: str
) -> tuple[float, float, float]:
    """Exact 2.5%, 50% and 97.5% quantiles of sample_delta_impute's draws.

    A draw is r**M with r > 1 and M ~ Binomial(n, s) per cell, so each
    quantile is r**j for the first count j whose cumulative probability
    reaches the level.  The pmf and the power are taken in log space.  An
    exact mask, or a share of 0 or 1, gives r**round-half-up(s * n) for all
    three without building the pmf.  Raises OverflowError past float range.
    """
    n = params.rows * params.cols
    fixed = _fixed_count(n, missing_share, mask_mode)
    log_r = math.log(params.model.p_same / params.model.p_diff)
    if fixed is not None:
        counts = [fixed] * 3
    else:
        cdf = np.cumsum(np.exp(binomial_log_pmf(n, missing_share)))
        counts = np.searchsorted(cdf, [0.025 - _CDF_SLACK, 0.5 - _CDF_SLACK, 0.975 - _CDF_SLACK])
    # The draws' own arithmetic, so a quantile the Monte Carlo hits is equal.
    log_quantiles = np.asarray(counts) * log_r
    if log_quantiles.max() > LOG_FLOAT_MAX:
        raise OverflowError(f"the exact quantile e**{log_quantiles.max():.1f} exceeds float range")
    q025, median, q975 = np.exp(log_quantiles).tolist()
    return q025, median, q975


def exact_relative_standard_error(
    params: ImputationSimParams, missing_share: float, mask_mode: str, n_reps: int
) -> float | None:
    """Exact standard error of the mean of n_reps draws, relative to the
    exact mean: sqrt(expm1(L) / n_reps) with
    L = n * (log1p(s * (r**2 - 1)) - 2 * log1p(s * (r - 1))), the log of
    E[r**2M] / E[r**M]**2.  0.0 when M is fixed (an exact mask, share 0 or
    1); None past float range."""
    n = params.rows * params.cols
    if _fixed_count(n, missing_share, mask_mode) is not None:
        return 0.0
    r = params.model.p_same / params.model.p_diff
    s = missing_share
    log_ratio = n * (math.log1p(s * (r * r - 1.0)) - 2.0 * math.log1p(s * (r - 1.0)))
    if log_ratio <= 0.0:  # rounding, when r is within a few ulps of 1
        return 0.0
    # log expm1(L) = L + log(1 - e**-L), finite for every L > 0.
    log_se = 0.5 * (log_ratio + math.log(-math.expm1(-log_ratio)) - math.log(n_reps))
    return math.exp(log_se) if log_se <= LOG_FLOAT_MAX else None


@dataclass(frozen=True)
class GridFixture:
    """The committed worked example: one exemplar, the true mark, the
    observed (smudged) mark, and everything imputation changes."""

    exemplar: PrintGrid
    true_mark: PrintGrid
    observed: PrintGrid
    imputed: PrintGrid
    true_summary: MatchSummary
    observed_summary: MatchSummary
    imputed_summary: MatchSummary
    observed_decision: SourceDecision
    imputed_decision: SourceDecision


def imputation_grid_fixture() -> GridFixture:
    """Load the committed 10x5 example where imputation flips the decision.

    The true mark shares 5 minutiae with the exemplar; smudging drops the
    observed count to 3 (Inconclusive) and imputation raises it to 8
    (SupportSameSource).
    """
    d = resources.files("forensic_bias").joinpath("fixtures/grids")
    exemplar = PrintGrid.from_text(d.joinpath("exemplar_x.txt").read_text(encoding="utf-8"))
    true_mark = PrintGrid.from_text(d.joinpath("true_y.txt").read_text(encoding="utf-8"))
    observed = PrintGrid.from_text(d.joinpath("observed_y.txt").read_text(encoding="utf-8"))
    imputed = impute_from_reference(observed, exemplar)
    assert isinstance(imputed, PrintGrid)
    return GridFixture(
        exemplar=exemplar,
        true_mark=true_mark,
        observed=observed,
        imputed=imputed,
        true_summary=count_matches(exemplar, true_mark),
        observed_summary=count_matches(exemplar, observed),
        imputed_summary=count_matches(exemplar, imputed),
        observed_decision=decide_source(count_matches(exemplar, observed)),
        imputed_decision=decide_source(count_matches(exemplar, imputed)),
    )
