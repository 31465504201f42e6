"""A toy minutiae-comparison model for imputation bias.

A print is a string with one character per cell: 'm' a minutia, '.' no
minutia, and, in a latent print only, '?' a missing cell (smudged or not
lifted).  An examiner who fills missing cells by copying the suspect's
exemplar ("imputation") manufactures agreement, which inflates the
reported likelihood ratio by a factor of r = p_same/p_diff per imputed
cell, so by exactly r**M for M missing cells, whatever the prints show.
An ImputationSimParams record holds one experiment's grid, model,
missing share and mask mode, checked once when built, and the values
derived from them; every function below reads it.
The Monte Carlo over that factor (sample_delta_impute) draws only that
sufficient statistic, M ~ Binomial(n, s), one per replicate, by inverse
CDF: each of the generator's uniforms is looked up, through a guide
table, in the exact binomial CDF that the exact quantiles
(exact_delta_quantiles) are read from, so the draws rest on the uniforms
alone and on no numpy distribution algorithm.  bias_factors turns the
counts into factors r**M.  The delta-impute preset reports their mean
with a standard error (mc_standard_error) next to the exact mean
(exact_mean_delta), and their quantiles (bias_factor_percentiles, read
off the histogram of the counts) next to the exact ones.

Grid text holds one row of cells per line; parse_grid reads it as the
string of its cells plus its row width, and grid_text lays such a string
out in rows again.

Match scoring counts cell agreements over comparable (non-missing)
cells; the source decision is taken on the number of agreeing minutiae
(cells where both prints show one), with the usual 12-point style
thresholds: >= 12 identification, >= 7 support for same source, >= 3
inconclusive, below that exclusion.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from ._lazy import np
from .odds import LOG_FLOAT_MAX, _check_count

__all__ = [
    "parse_grid",
    "grid_text",
    "SourceDecision",
    "DEFAULT_THRESHOLDS",
    "CellAgreementModel",
    "ImputationSimParams",
    "impute_from_reference",
    "count_matches",
    "decide_source",
    "sample_delta_impute",
    "bias_factors",
    "exact_mean_delta",
    "exact_delta_quantiles",
    "percentiles",
    "bias_factor_percentiles",
    "exact_relative_standard_error",
]


def parse_grid(text: str) -> tuple[str, int]:
    """The cells of grid text, row after row, as one string, and the row width.

    Rows are the non-blank lines, stripped at both ends.  Raises ValueError
    for text with no row, rows of unequal width, or a character other than
    'm', '.' and '?' (a space inside a row included)."""
    rows = [line.strip() for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty grid text")
    widths = {len(row) for row in rows}
    if len(widths) != 1:
        raise ValueError(f"ragged grid rows: widths {sorted(widths)!r}")
    cells = "".join(rows)
    # Stripping the known characters from both ends leaves text only if
    # some other character is present, and that text starts with the first.
    if unknown := cells.strip("m.?"):
        raise ValueError(f"unknown grid character {unknown[0]!r}; expected one of 'm', '.', '?'")
    return cells, widths.pop()


def grid_text(cells: str, width: int) -> str:
    """cells laid out in rows of width cells, each ending in a newline."""
    return "".join(cells[i : i + width] + "\n" for i in range(0, len(cells), width))


def _check_pair(reference: str, print_: str, role: str) -> None:
    if "?" in reference:
        raise ValueError(f"the {role} must be fully observed")
    if len(reference) != len(print_):
        raise ValueError(f"length mismatch: {role} has {len(reference)} cells, print has {len(print_)}")


class SourceDecision(Enum):
    IDENTIFICATION = "Identification"
    SUPPORT_SAME_SOURCE = "SupportSameSource"
    INCONCLUSIVE = "Inconclusive"
    EXCLUSION = "Exclusion"


DEFAULT_THRESHOLDS: tuple[int, int, int] = (12, 7, 3)


def count_matches(exemplar: str, print_: str) -> tuple[int, int, int]:
    """(correspondences, matches, missing) of a (possibly latent) print
    against a complete exemplar: the comparable cells that agree (both
    absent counts), those of them that show a minutia, and the missing
    cells, which are not comparable."""
    _check_pair(exemplar, print_, "exemplar")
    agreeing = [cx for cx, cy in zip(exemplar, print_) if cx == cy]
    return len(agreeing), agreeing.count("m"), print_.count("?")


def decide_source(n_matches: int) -> SourceDecision:
    """Threshold the agreeing-minutiae count into a categorical decision at
    DEFAULT_THRESHOLDS, the least counts for identification, support for
    same source and inconclusive; below the last, exclusion."""
    t_id, t_support, t_inconclusive = DEFAULT_THRESHOLDS
    if n_matches >= t_id:
        return SourceDecision.IDENTIFICATION
    if n_matches >= t_support:
        return SourceDecision.SUPPORT_SAME_SOURCE
    if n_matches >= t_inconclusive:
        return SourceDecision.INCONCLUSIVE
    return SourceDecision.EXCLUSION


def impute_from_reference(latent: str, reference: str) -> str:
    """Fill every missing cell with the reference's cell value.

    This is the biasing move: the examiner resolves ambiguity toward the
    exemplar, so each imputed cell agrees with it by construction.
    """
    _check_pair(reference, latent, "reference")
    return "".join(cx if cy == "?" else cy for cx, cy in zip(reference, latent))


@dataclass(frozen=True)
class CellAgreementModel:
    """Per-cell agreement rates: p_same under same source, p_diff otherwise.

    Informative, non-degenerate evidence requires 0 < p_diff < p_same < 1;
    each agreeing cell then multiplies the source LR by p_same/p_diff and
    each disagreeing cell by (1-p_same)/(1-p_diff).  It sets log_r =
    log(p_same/p_diff); OverflowError when that ratio exceeds float range.
    """

    p_same: float = 0.5
    p_diff: float = 0.25
    log_r: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        p_same, p_diff = float(self.p_same), float(self.p_diff)
        if not (0.0 < p_diff < p_same < 1.0):
            raise ValueError(f"need 0 < p_diff < p_same < 1, got p_same={p_same!r} p_diff={p_diff!r}")
        if math.isinf(ratio := p_same / p_diff):
            raise OverflowError(f"the match likelihood ratio p_same/p_diff = {ratio} exceeds float range")
        object.__setattr__(self, "p_same", p_same)
        object.__setattr__(self, "p_diff", p_diff)
        object.__setattr__(self, "log_r", math.log(ratio))


@dataclass(frozen=True)
class ImputationSimParams:
    """One imputation-bias Monte Carlo's parameters, checked once when
    built: the grid shape, the agreement model, the missing share s and
    the mask mode ("per_cell": each cell is missing with probability s, so
    M ~ Binomial(n, s); "exact": M = round-half-up(s * n)).  It sets the
    cell count n, log r = log(p_same/p_diff), and fixed, the missing count
    M when it cannot vary (an exact mask, or a share of 0 or 1), else None.
    Raises ValueError naming a bad field, a grid past int64 (M is drawn in
    it) or a drawn M's pmf window past _MAX_WINDOW counts."""

    rows: int = 10
    cols: int = 5
    model: CellAgreementModel = CellAgreementModel()
    missing_share: float = 0.25
    mask_mode: str = "per_cell"
    n: int = field(init=False, repr=False)
    log_r: float = field(init=False, repr=False)
    fixed: int | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _check_count("rows", self.rows)
        _check_count("cols", self.cols)
        share = self.missing_share
        if isinstance(share, bool) or not 0.0 <= share <= 1.0:
            raise ValueError(f"missing_share must lie in [0, 1], got {share!r}")
        if self.mask_mode not in ("exact", "per_cell"):
            raise ValueError(f"mask_mode must be 'exact' or 'per_cell', got {self.mask_mode!r}")
        if (n := self.rows * self.cols) > 2**63 - 1:
            raise ValueError(f"parameters rows and cols: the grid's rows * cols = {n} cells exceeds the int64 limit 2**63 - 1")
        # Rounded half up, not by round(), which takes 12.5 to 12: 0.25 of
        # 50 cells masks 13 of them.
        fixed = math.floor(share * n + 0.5) if self.mask_mode == "exact" or share in (0.0, 1.0) else None
        if fixed is None:
            _count_window(n, share)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "log_r", self.model.log_r)
        object.__setattr__(self, "fixed", fixed)


def sample_delta_impute(params: ImputationSimParams, n_reps: int, *, rng: np.random.Generator) -> np.ndarray:
    """Monte Carlo draws of the missing count M, an int64 array of n_reps;
    bias_factors turns them into the imputation bias factors r**M.

    Only M is drawn, so memory grows with n_reps and not with the grid.
    A varying M: one row of rng.random(n_reps) uniforms, each read through
    the binomial CDF on the counts lo..hi within n*s ± (40*sigma + 40), the
    table exact_delta_quantiles reads: M = lo + the number of the entries
    cdf[:-1] at or below u, so hi at most.  The mass outside that window is
    below 2e-26, far under a uniform's 2**-53 grain.  The entries are
    counted through a guide table (Chen & Asau 1974): [0, 1) is cut into
    1,024 buckets, u starts from the entries at or below its bucket's left
    edge and, where the bucket holds one entry, compares u with it; only a
    u whose bucket holds two or more entries (the tails, and many buckets
    of a wide window) is searched among them.  u * 1024 is exact, so each
    count equals searchsorted's.  A fixed M: no draws.  Raises ValueError
    for a bad n_reps; the record has refused a window of more than
    _MAX_WINDOW counts."""
    _check_count("n_reps", n_reps)
    if params.fixed is not None:
        return np.full(n_reps, params.fixed, dtype=np.int64)
    lo, cdf = _count_cdf(params.n, params.missing_share)
    entries, u = cdf[:-1], rng.random(n_reps)
    # first[b]: the entries at or below b / 1024, the left edge of bucket b.
    first = np.searchsorted(entries, _guide_edges(), side="right")
    held = np.diff(first)
    # A bucket's one entry, which u passes or not; past an empty bucket, none.
    threshold = np.where(held == 1, cdf.take(first[:-1]), np.inf)
    # A u of 1 or more, which no Generator gives, reads the last bucket.
    bucket = (u * _GUIDE_BUCKETS).astype(np.intp)
    crowded = np.flatnonzero((held > 1).take(bucket, mode="clip"))
    passed = threshold.take(bucket, mode="clip") <= u
    # take reads each index before it writes that slot, so bucket's memory
    # can hold the counts.
    counts = first.take(bucket, mode="clip", out=bucket)
    counts += passed
    counts[crowded] = np.searchsorted(entries, u[crowded], side="right")
    counts += lo
    return counts


def bias_factors(params: ImputationSimParams, counts: np.ndarray) -> np.ndarray:
    """The imputation bias factors r**M, r = p_same/p_diff, of the missing
    counts M, as exp(M * log r).  Raises OverflowError, checked in log
    space, if one exceeds float range."""
    log_draws = counts * params.log_r
    if log_draws.max() > LOG_FLOAT_MAX:
        raise OverflowError(f"the draw r**{counts.max()} = e**{log_draws.max():.1f} exceeds float range")
    return np.exp(log_draws, out=log_draws)


def exact_mean_delta(params: ImputationSimParams) -> float:
    """Exact mean of sample_delta_impute's draws: (1 - s + s * r) ** n per cell,
    r ** round-half-up(s * n) for an exact mask; OverflowError past float range."""
    if params.mask_mode == "exact":
        log_mean = params.fixed * params.log_r
    else:
        r = params.model.p_same / params.model.p_diff
        log_mean = params.n * math.log1p(params.missing_share * (r - 1.0))
    if log_mean > LOG_FLOAT_MAX:
        raise OverflowError(f"the exact mean e**{log_mean:.1f} exceeds float range")
    return math.exp(log_mean)


# A cumulative probability this close to a quantile level counts as
# reaching it, so rounding in the log-space pmf cannot move a quantile
# off an exact tie such as P(M <= 4) = 1/2 at n = 9, s = 1/2.
_CDF_SLACK = 1e-9
# Bernstein's inequality puts under 2 * e**-60 < 2e-26 of the mass of
# Binomial(n, s) outside n*s ± (40*sigma + 40), far below _CDF_SLACK and a
# uniform's 2**-53 grain, so the quantiles are found, and the counts drawn,
# on that window alone.  A window of more than _MAX_WINDOW counts (sigma
# above about 12,500) is refused: it would cost several float arrays per
# count.
_MAX_WINDOW = 10**6
# sample_delta_impute's guide table: bucket b of [0, 1) starts at b / 1024.
_GUIDE_BUCKETS = 1024
_guide_edges = functools.cache(lambda: np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS)


def _count_window(n: int, missing_share: float) -> tuple[int, int]:
    """(lo, hi) of the counts in n*s ± (40*sigma + 40) within 0..n; ValueError
    past _MAX_WINDOW counts.  Plain math, so the record checks it without numpy."""
    mean = n * missing_share
    half = 40.0 * math.sqrt(mean * (1.0 - missing_share)) + 40.0
    lo, hi = max(0, math.ceil(mean - half)), min(n, math.floor(mean + half))
    if hi - lo >= _MAX_WINDOW:
        raise ValueError(
            f"the sampler and the exact quantiles need the pmf at {hi - lo + 1} counts, more than {_MAX_WINDOW}"
        )
    return lo, hi


@functools.lru_cache(maxsize=1)
def _count_cdf(n: int, missing_share: float) -> tuple[int, np.ndarray]:
    """(lo, cdf): the cumulative probabilities P(M <= j) of M ~ Binomial(n, s)
    at the counts j = lo..hi of _count_window, which a built record has
    passed, and cdf[-1] exactly 1.  It is the one table that exact_delta_quantiles
    searches and that sample_delta_impute reads through its guide table.
    The last table is kept for the next call with the same n and s, so a
    delta-impute run, which asks for it twice, builds it once; it is
    read-only.

    The pmf is summed in log space from the ratios
    P(M = j + 1) / P(M = j) = (n - j) s / ((j + 1)(1 - s)) and scaled so the
    window's mass is 1.  From log factorials it would not be: lgamma(n + 1)
    alone is off by an ulp of n log n, a whole unit of log probability on a
    10**15-cell grid."""
    lo, hi = _count_window(n, missing_share)
    j = np.arange(lo, hi)
    log_odds = math.log(missing_share) - math.log1p(-missing_share)
    log_pmf = np.concatenate(([0.0], np.cumsum(np.log((n - j) / (j + 1.0)) + log_odds)))
    cdf = np.cumsum(np.exp(log_pmf - log_pmf.max()))
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return lo, cdf


def exact_delta_quantiles(params: ImputationSimParams) -> tuple[float, float, float]:
    """Exact 2.5%, 50% and 97.5% quantiles of sample_delta_impute's draws.

    A draw is r**M with r > 1 and M ~ Binomial(n, s) per cell, so each
    quantile is r**j for the first count j whose cumulative probability
    reaches the level.  The pmf and the power are taken in log space.  A
    fixed M gives r**M for all three without building the pmf; otherwise
    it is built only on the counts within n*s ± (40*sigma + 40), which the
    record has checked holds at most _MAX_WINDOW counts.  Raises
    OverflowError past float range.
    """
    if params.fixed is not None:
        counts = [params.fixed] * 3
    else:
        lo, cdf = _count_cdf(params.n, params.missing_share)
        counts = lo + np.searchsorted(cdf, [0.025 - _CDF_SLACK, 0.5 - _CDF_SLACK, 0.975 - _CDF_SLACK])
    # The draws' own arithmetic, so a quantile the Monte Carlo hits is equal.
    log_quantiles = np.asarray(counts) * params.log_r
    if log_quantiles.max() > LOG_FLOAT_MAX:
        raise OverflowError(f"the exact quantile e**{log_quantiles.max():.1f} exceeds float range")
    q025, median, q975 = np.exp(log_quantiles).tolist()
    return q025, median, q975


def _virtual_indices(n: int, levels: Sequence[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(below, above, gamma) of numpy's default "linear" quantile, type 7 of
    Hyndman & Fan (1996), over n sorted values: a level p reads the virtual
    index (n - 1) * p / 100, between positions below and above, at weight
    gamma.  Like numpy, the top reads the last value at both positions (-1),
    so gamma = virtual + 1 there."""
    virtual = (n - 1) * (np.asarray(levels, dtype=np.float64) / 100)
    below = np.floor(virtual)
    above = below + 1
    at_top = virtual >= n - 1
    below[at_top] = above[at_top] = -1
    gamma = virtual - below
    return below.astype(np.intp), above.astype(np.intp), gamma


def _lerp(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """numpy's _lerp: a + (b - a) * t, or b - (b - a) * (1 - t) from t = 1/2 on."""
    diff = b - a
    out = np.add(a, diff * t)
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    return out


def percentiles(values: np.ndarray, levels: Sequence[float]) -> np.ndarray:
    """np.percentile(values, levels, axis=-1), bit for bit, shaped
    (len(levels), *values.shape[:-1]), for levels in [0, 100].

    Each step repeats numpy's own (_get_indexes, the partition at the same
    indices, _lerp), but without np.percentile and np.unique, whose first
    call imports all of numpy.ma.  NaN is out of scope: np.percentile
    returns NaN for a slice that holds one, and this function does not.
    """
    below, above, gamma = _virtual_indices(values.shape[-1], levels)
    kth = sorted({0, -1, *below.tolist(), *above.tolist()})
    ordered = np.moveaxis(np.partition(values, kth, axis=-1), -1, 0)
    return _lerp(ordered[below], ordered[above], gamma.reshape(gamma.shape + (1,) * (values.ndim - 1)))


def bias_factor_percentiles(params: ImputationSimParams, counts: np.ndarray, levels: Sequence[float]) -> np.ndarray:
    """percentiles(bias_factors(params, counts), levels), bit for bit, for a
    1-d array of missing counts, read off their histogram with no sort.

    r**M rises with M (r > 1), so the k-th smallest factor is the factor
    of the k-th smallest count: the first count whose cumulative frequency
    exceeds k."""
    n = len(counts)
    below, above, gamma = _virtual_indices(n, levels)
    base = counts.min()
    cumulative = np.bincount(counts - base).cumsum()
    ranks = np.concatenate((below, above)) % n
    order_stats = bias_factors(params, base + np.searchsorted(cumulative, ranks, side="right"))
    return _lerp(order_stats[: len(gamma)], order_stats[len(gamma) :], gamma)


def exact_relative_standard_error(params: ImputationSimParams, n_reps: int) -> float | None:
    """Exact standard error of the mean of n_reps draws, relative to the
    exact mean: sqrt(expm1(L) / n_reps) with
    L = n * (log1p(s * (r**2 - 1)) - 2 * log1p(s * (r - 1))), the log of
    E[r**2M] / E[r**M]**2.  0.0 when M is fixed; None past float range."""
    if params.fixed is not None:
        return 0.0
    r = params.model.p_same / params.model.p_diff
    s = params.missing_share
    log_ratio = params.n * (math.log1p(s * (r * r - 1.0)) - 2.0 * math.log1p(s * (r - 1.0)))
    if log_ratio <= 0.0:  # rounding, when r is within a few ulps of 1
        return 0.0
    # log expm1(L) = L + log(1 - e**-L), finite for every L > 0.
    log_se = 0.5 * (log_ratio + math.log(-math.expm1(-log_ratio)) - math.log(n_reps))
    return math.exp(log_se) if log_se <= LOG_FLOAT_MAX else None
