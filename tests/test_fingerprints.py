"""Grids, imputation, match scoring, and the imputation bias factor."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from forensic_bias.contextual import Provenance
from forensic_bias.fingerprints import (
    Cell,
    CellAgreementModel,
    DEFAULT_THRESHOLDS,
    ImputationSimParams,
    LatentVector,
    MatchSummary,
    MinutiaVector,
    PrintGrid,
    SourceDecision,
    agreement_log_likelihood,
    count_matches,
    decide_source,
    delta_impute_exact,
    exact_delta_quantiles,
    exact_mean_delta,
    imputation_grid_fixture,
    impute_from_reference,
    sample_delta_impute,
    source_lr,
)
from forensic_bias.odds import binomial_log_pmf
from forensic_bias.presets import run_preset
from forensic_bias.seeding import substream

TOL = 1e-12

# The six-cell worked example.
X6 = MinutiaVector.from_text("...mmm")
Y6 = MinutiaVector.from_text(".m.mm.")
LATENT6 = LatentVector.from_text("??.?m.")


def _every_pair(n_cells=4):
    """Every n-cell exemplar, built from its bits, with every n-cell latent print."""
    for bits in itertools.product((0, 1), repeat=n_cells):
        exemplar = MinutiaVector.from_bits(bits)
        for cells in itertools.product(Cell, repeat=n_cells):
            yield exemplar, LatentVector(cells)


class TestVectors:
    def test_text_round_trip(self):
        assert "".join(c.value for c in X6.cells) == "...mmm"
        assert X6.bits == (0, 0, 0, 1, 1, 1)
        assert MinutiaVector.from_bits((0, 1, 0)).cells[1] is Cell.PRESENT

    def test_latent_counts(self):
        assert LATENT6.n_missing == 3
        assert LATENT6.missing_indices == (0, 1, 3)

    def test_minutia_vector_rejects_missing(self):
        with pytest.raises(ValueError):
            MinutiaVector.from_text("m?.")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MinutiaVector(())
        with pytest.raises(ValueError):
            LatentVector(())

    def test_unknown_character_rejected(self):
        with pytest.raises(ValueError, match="x"):
            MinutiaVector.from_text("m.x")

    def test_grid_shape_checked(self):
        with pytest.raises(ValueError):
            PrintGrid(2, 4, X6)
        grid = PrintGrid(2, 3, X6)
        assert grid.to_text() == "...\nmmm"
        assert PrintGrid.from_text("...\nmmm").vector == X6

    def test_ragged_grid_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            PrintGrid.from_text("..\nmmm")


class TestCountMatches:
    def test_complete_pair(self):
        summary = count_matches(X6, Y6)
        assert summary == MatchSummary(6, 4, 2, 0)

    def test_latent_pair(self):
        summary = count_matches(X6, LATENT6)
        assert summary == MatchSummary(6, 2, 1, 3)

    def test_imputed_pair(self):
        imputed = impute_from_reference(LATENT6, X6)
        assert "".join(c.value for c in imputed.cells) == "...mm."
        assert count_matches(X6, imputed) == MatchSummary(6, 5, 2, 0)

    def test_self_match(self):
        summary = count_matches(X6, X6)
        assert summary.n_correspondences == 6
        assert summary.n_matches == X6.n_minutiae

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            count_matches(X6, MinutiaVector.from_text("..m"))

    def test_latent_exemplar_rejected(self):
        with pytest.raises(ValueError, match="fully observed"):
            count_matches(LATENT6, Y6)

    def test_inconsistent_summary_rejected(self):
        with pytest.raises(ValueError):
            MatchSummary(6, 4, 5, 0)
        with pytest.raises(ValueError):
            MatchSummary(6, 5, 2, 2)


class TestImpute:
    def test_no_missing_is_identity(self):
        assert impute_from_reference(Y6, X6) == Y6

    def test_all_missing_copies_reference(self):
        latent = LatentVector.from_text("??????")
        assert impute_from_reference(latent, X6) == X6

    def test_grid_in_grid_out(self):
        grid = PrintGrid(2, 3, LATENT6)
        ref = PrintGrid(2, 3, X6)
        out = impute_from_reference(grid, ref)
        assert isinstance(out, PrintGrid)
        assert out.rows == 2

    def test_imputed_cells_agree_with_reference(self):
        for ref, latent in _every_pair():
            imputed = impute_from_reference(latent, ref)
            for i in latent.missing_indices:
                assert imputed.cells[i] is ref.cells[i]
            # correspondences never drop when ambiguity resolves toward the
            # reference
            before = count_matches(ref, latent)
            after = count_matches(ref, imputed)
            assert after.n_correspondences == before.n_correspondences + before.n_missing
            assert after.n_matches >= before.n_matches


class TestDecide:
    @pytest.mark.parametrize(
        "matches, expected",
        [
            (0, SourceDecision.EXCLUSION),
            (2, SourceDecision.EXCLUSION),
            (3, SourceDecision.INCONCLUSIVE),
            (6, SourceDecision.INCONCLUSIVE),
            (7, SourceDecision.SUPPORT_SAME_SOURCE),
            (11, SourceDecision.SUPPORT_SAME_SOURCE),
            (12, SourceDecision.IDENTIFICATION),
            (40, SourceDecision.IDENTIFICATION),
        ],
    )
    def test_threshold_bands(self, matches, expected):
        summary = MatchSummary(50, matches, matches, 0)
        assert decide_source(summary) is expected

    def test_default_thresholds(self):
        assert DEFAULT_THRESHOLDS == (12, 7, 3)

    def test_bad_thresholds_rejected(self):
        summary = MatchSummary(50, 5, 5, 0)
        for bad in ((7, 7, 3), (3, 7, 12), (12, 7, -1)):
            with pytest.raises(ValueError):
                decide_source(summary, bad)

    def test_monotone_in_matches(self):
        order = [
            SourceDecision.EXCLUSION,
            SourceDecision.INCONCLUSIVE,
            SourceDecision.SUPPORT_SAME_SOURCE,
            SourceDecision.IDENTIFICATION,
        ]
        last = 0
        for m in range(0, 20):
            rank = order.index(decide_source(MatchSummary(50, m, m, 0)))
            assert rank >= last
            last = rank


class TestAgreementModel:
    def test_defaults(self):
        model = CellAgreementModel()
        assert model.p_same == 0.5 and model.p_diff == 0.25

    @pytest.mark.parametrize("ps, pd", [(0.25, 0.5), (0.5, 0.5), (1.0, 0.25), (0.5, 0.0)])
    def test_degenerate_rejected(self, ps, pd):
        with pytest.raises(ValueError):
            CellAgreementModel(ps, pd)

    def test_log_likelihood_skips_missing(self):
        full = agreement_log_likelihood(Y6, X6, 0.5)
        assert full == pytest.approx(6 * math.log(0.5), abs=TOL)
        partial = agreement_log_likelihood(LATENT6, X6, 0.5)
        assert partial == pytest.approx(3 * math.log(0.5), abs=TOL)

    def test_source_lr_counts_agreements(self):
        # 4 agreements, 2 disagreements against (0.5, 0.25).
        lr = source_lr(Y6, X6)
        expected = (0.5 / 0.25) ** 4 * (0.5 / 0.75) ** 2
        assert lr.linear == pytest.approx(expected, rel=1e-12)


class TestDeltaImpute:
    def test_closed_form(self):
        delta = delta_impute_exact(LATENT6, X6)
        assert delta.provenance is Provenance.IMPUTE
        assert delta.linear == pytest.approx((0.5 / 0.25) ** 3, rel=1e-12)

    def test_no_missing_is_unit(self):
        assert abs(delta_impute_exact(Y6, X6).log_value) < TOL

    def test_full_mask_is_ratio_power_n(self):
        latent = LatentVector.from_text("??????")
        delta = delta_impute_exact(latent, X6)
        assert delta.linear == pytest.approx(2.0**6, rel=1e-12)

    def test_never_deflates(self):
        for ref, latent in _every_pair():
            assert delta_impute_exact(latent, ref).log_value >= -TOL

    def test_imputed_lr_dominates_observed(self):
        model = CellAgreementModel(0.7, 0.2)
        for ref, latent in _every_pair():
            imputed = impute_from_reference(latent, ref)
            assert (
                source_lr(imputed, ref, model).log_value
                >= source_lr(latent, ref, model).log_value - TOL
            )

    def test_monte_carlo_matches_binomial_mean(self):
        # Per-cell masking makes n_missing ~ Binomial(n, s), so
        # E[delta] = (1 - s + s * p_same/p_diff)^n.
        sim = ImputationSimParams(rows=2, cols=3)
        draws = sample_delta_impute(sim, 0.25, 4_000, rng=substream(13))
        expected = 1.25**6
        assert abs(draws.mean() - expected) / expected < 0.05

    def test_exact_mask_mode_is_degenerate(self):
        # n_missing is pinned at 3, so every draw is (p_same/p_diff)^3 up
        # to the rounding of the log-space round trip.
        sim = ImputationSimParams(rows=2, cols=3)
        draws = sample_delta_impute(sim, 0.5, 50, rng=substream(14), mask_mode="exact")
        assert np.all(np.abs(draws - 2.0**3) <= 1e-11)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            ImputationSimParams(rows=0)
        with pytest.raises(ValueError):
            sample_delta_impute(n_reps=0, rng=substream(16))
        with pytest.raises(ValueError, match="missing_share"):
            sample_delta_impute(missing_share=1.5, rng=substream(16))
        with pytest.raises(ValueError, match="mode"):
            sample_delta_impute(mask_mode="often", rng=substream(16))


# (seed, rows, cols, model, same_source, missing_share, mask_mode, n_reps):
# every seed, shape, share and mode; one replicate, and enough for a
# histogram. same_source is the side the object path these cases were first
# written against drew for; M's law does not depend on it, and it stays only
# so that each case keeps its id.
ORACLE_CASES = [
    (0, 10, 5, CellAgreementModel(), True, 0.25, "per_cell", 20_000),
    (7, 2, 3, CellAgreementModel(0.7, 0.2), True, 0.4, "per_cell", 20_000),
    (13, 7, 9, CellAgreementModel(), False, 0.4, "per_cell", 20_000),
    (7, 10, 5, CellAgreementModel(0.7, 0.2), False, 0.0, "per_cell", 255),
    (13, 2, 3, CellAgreementModel(), True, 1.0, "per_cell", 1),
    (0, 7, 9, CellAgreementModel(0.7, 0.2), True, 1.0, "per_cell", 255),
    (0, 7, 9, CellAgreementModel(), False, 0.4, "exact", 257),
    (7, 2, 3, CellAgreementModel(0.7, 0.2), True, 0.4, "exact", 1),
    (13, 10, 5, CellAgreementModel(), True, 0.25, "exact", 256),
    (0, 2, 3, CellAgreementModel(), False, 0.0, "exact", 255),
    (7, 10, 5, CellAgreementModel(0.7, 0.2), False, 1.0, "exact", 600),
]

# Upper normal quantile at 1e-6: through Wilson-Hilferty, the chi-square
# bound below fails a correct sampler at about one seed in a million per
# case, a little less at these degrees of freedom, where it errs high.
_Z_FALSE_ALARM = 4.753


def _pooled_chi_square(counts, n, share):
    """Pearson's chi-square of the missing counts against Binomial(n, share),
    contiguous counts pooled until each bin expects at least 5, with its
    Wilson-Hilferty critical value at the _Z_FALSE_ALARM level."""
    expected = len(counts) * np.exp(binomial_log_pmf(n, share))
    observed = np.bincount(counts, minlength=n + 1)
    bins, e, o = [], 0.0, 0
    for ej, oj in zip(expected.tolist(), observed.tolist()):
        e, o = e + ej, o + oj
        if e >= 5.0:
            bins.append((e, o))
            e, o = 0.0, 0
    bins[-1] = (bins[-1][0] + e, bins[-1][1] + o)
    chi_square = sum((o - e) ** 2 / e for e, o in bins)
    df = len(bins) - 1
    critical = df * (1.0 - 2.0 / (9 * df) + _Z_FALSE_ALARM * math.sqrt(2.0 / (9 * df))) ** 3
    return chi_square, critical


def _case_id(case):
    seed, rows, cols, model, same_source, share, mode, n_reps = case
    return f"{seed}-{rows}x{cols}-{model.p_same}-{same_source}-{share}-{mode}-{n_reps}"


class TestSampleMatchesObjectOracle:
    """Once bit-equality with the object path; now the law of M it sampled."""

    @pytest.mark.parametrize("case", ORACLE_CASES, ids=_case_id)
    def test_same_missing_count_and_draw(self, case):
        seed, rows, cols, model, _same_source, share, mode, n_reps = case
        n, log_r = rows * cols, math.log(model.p_same / model.p_diff)
        draws = sample_delta_impute(
            ImputationSimParams(rows, cols, model), share, n_reps, rng=substream(seed, 0), mask_mode=mode
        )
        assert draws.shape == (n_reps,)
        counts = np.rint(np.log(draws) / log_r).astype(np.int64)
        # Each draw is r**M in the log-space arithmetic, bit for bit.
        np.testing.assert_array_equal(draws, np.exp(counts * log_r))
        if mode == "exact" or share in (0.0, 1.0):
            fixed = math.floor(share * n + 0.5)  # round half up: 0.4 of 63 cells is 25
            assert np.all(counts == fixed)
            np.testing.assert_allclose(draws, (model.p_same / model.p_diff) ** fixed, rtol=1e-12, atol=0.0)
        else:
            chi_square, critical = _pooled_chi_square(counts, n, share)
            assert chi_square <= critical


class TestExactMean:
    def test_per_cell_closed_form(self):
        sim = ImputationSimParams(rows=10, cols=5)
        assert exact_mean_delta(sim, 0.25, "per_cell") == pytest.approx(1.25**50, rel=1e-12)

    def test_per_cell_matches_enumeration(self):
        model = CellAgreementModel(0.7, 0.2)
        sim = ImputationSimParams(rows=2, cols=3, model=model)
        share, r = 0.4, 0.7 / 0.2
        oracle = sum(
            math.comb(6, m) * share**m * (1 - share) ** (6 - m) * r**m for m in range(7)
        )
        assert exact_mean_delta(sim, share, "per_cell") == pytest.approx(oracle, rel=1e-12)

    def test_exact_mode_rounds_half_up(self):
        sim = ImputationSimParams(rows=10, cols=5)
        assert exact_mean_delta(sim, 0.25, "exact") == pytest.approx(2.0**13, rel=1e-12)

    def test_overflow_raises_before_exponentiating(self):
        sim = ImputationSimParams(rows=60, cols=60)
        with pytest.raises(OverflowError, match="exact mean"):
            exact_mean_delta(sim, 0.25, "per_cell")
        # The draws themselves still fit at 60x60 ...
        assert np.all(np.isfinite(sample_delta_impute(sim, 0.25, 20, rng=substream(17))))
        # ... but not at 80x80.
        with pytest.raises(OverflowError, match="draw"):
            sample_delta_impute(ImputationSimParams(rows=80, cols=80), 0.25, 20, rng=substream(17))

    def test_estimate_finite_where_the_sum_overflows(self, tmp_path):
        # Every draw is r**1021 ~ 2.2e307, so the plain sum of ten overflows;
        # the preset's mean, scaled by the largest draw, does not.
        sim = ImputationSimParams(rows=1, cols=1021)
        draws = sample_delta_impute(sim, 1.0, 10, rng=substream(18))
        assert np.all(np.isfinite(draws))
        overrides = {"rows": "1", "cols": "1021", "missing_share": "1", "n_reps": "10"}
        run_preset("delta-impute", 18, overrides, out_dir=tmp_path)
        est = json.loads((tmp_path / "estimate.json").read_text())
        assert math.log(est["mean_delta"]) == pytest.approx(1021 * math.log(2.0), rel=1e-12)


def _enumerated_quantile_counts(n, share, r):
    """Missing counts M at the 2.5%, 50% and 97.5% quantiles of r**M, from
    exact Fraction probabilities of every per-cell mask: for each level,
    the first r**M in ascending order whose cumulative probability reaches it."""
    s = Fraction(share)
    law = {}
    for mask in itertools.product((0, 1), repeat=n):
        m = sum(mask)
        law[m] = law.get(m, 0) + s**m * (1 - s) ** (n - m)
    ordered = sorted(law, key=lambda m: r**m)
    counts = []
    for level in (Fraction(1, 40), Fraction(1, 2), Fraction(39, 40)):
        cumulative = Fraction(0)
        for m in ordered:
            cumulative += law[m]
            if cumulative >= level:
                counts.append(m)
                break
    return counts


class TestExactQuantiles:
    @pytest.mark.parametrize(
        "rows, cols, share, p_same, p_diff",
        [
            (2, 3, 0.25, 0.5, 0.25),
            # P(M <= 4) = 1/2 exactly, so the median is M = 4; the float
            # cumulative sum reads 0.4999999999999988 there.
            (3, 3, 0.5, 0.5, 0.25),
            (2, 2, 0.5, 0.5, 0.25),
            (2, 4, 0.1, 0.7, 0.2),
            (2, 4, 0.9, 0.6, 0.3),
            (2, 3, 0.0, 0.5, 0.25),
            (2, 3, 1.0, 0.5, 0.25),
        ],
    )
    def test_per_cell_matches_enumeration(self, rows, cols, share, p_same, p_diff):
        model = CellAgreementModel(p_same, p_diff)
        sim = ImputationSimParams(rows=rows, cols=cols, model=model)
        r = Fraction(p_same) / Fraction(p_diff)
        want = [float(r**m) for m in _enumerated_quantile_counts(rows * cols, share, r)]
        got = exact_delta_quantiles(sim, share, "per_cell")
        assert got == pytest.approx(want, rel=1e-12)
        assert all(type(q) is float for q in got)

    def test_exact_mode_rounds_half_up(self):
        sim = ImputationSimParams(rows=10, cols=5)
        assert exact_delta_quantiles(sim, 0.25, "exact") == pytest.approx((2.0**13,) * 3, rel=1e-12)

    def test_defaults_equal_the_monte_carlo_where_it_hits(self):
        # At defaults the 10,000-draw quantiles fall on the exact atoms 2**7,
        # 2**12 and 2**19, bit for bit.
        sim = ImputationSimParams()
        draws = sample_delta_impute(sim, 0.25, 10_000, rng=substream(7, 0))
        monte_carlo = tuple(np.percentile(draws, [2.5, 50.0, 97.5]).tolist())
        assert exact_delta_quantiles(sim, 0.25, "per_cell") == monte_carlo

    def test_overflow_raises(self):
        with pytest.raises(OverflowError, match="exact quantile"):
            exact_delta_quantiles(ImputationSimParams(rows=80, cols=80), 0.25, "per_cell")

    def test_validation(self):
        with pytest.raises(ValueError):
            exact_delta_quantiles(ImputationSimParams(), 1.5, "per_cell")
        with pytest.raises(ValueError):
            exact_delta_quantiles(ImputationSimParams(), 0.25, "often")


class TestGridFixture:
    def test_counts_and_decisions(self):
        fx = imputation_grid_fixture()
        assert fx.exemplar.vector.n_minutiae == 15
        assert fx.true_mark.vector.n_minutiae == 15
        assert fx.observed.vector.n_missing == 13
        assert fx.true_summary.n_matches == 5
        assert fx.observed_summary.n_matches == 3
        assert fx.imputed_summary.n_matches == 8
        assert fx.observed_decision is SourceDecision.INCONCLUSIVE
        assert fx.imputed_decision is SourceDecision.SUPPORT_SAME_SOURCE

    def test_shapes(self):
        fx = imputation_grid_fixture()
        for grid in (fx.exemplar, fx.true_mark, fx.observed, fx.imputed):
            assert (grid.rows, grid.cols) == (10, 5)

    def test_observed_is_true_mark_smudged(self):
        fx = imputation_grid_fixture()
        for t, o in zip(fx.true_mark.vector.cells, fx.observed.vector.cells):
            assert o is Cell.MISSING or o is t
