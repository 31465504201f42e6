"""Grids, imputation, match scoring, and the imputation bias factor."""

import itertools
import json
import math
import re
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from forensic_bias.fingerprints import (
    _MAX_WINDOW,
    CellAgreementModel,
    DEFAULT_THRESHOLDS,
    ImputationSimParams,
    SourceDecision,
    bias_factor_percentiles,
    bias_factors,
    count_matches,
    decide_source,
    exact_delta_quantiles,
    exact_mean_delta,
    grid_text,
    impute_from_reference,
    parse_grid,
    percentiles,
    sample_delta_impute,
    _count_cdf,
)
from forensic_bias.odds import binomial_log_pmf
from forensic_bias.presets import run_preset
from forensic_bias.seeding import substream

from chi_square import pooled_chi_square

# The six-cell worked example.
X6 = "...mmm"
Y6 = ".m.mm."
LATENT6 = "??.?m."


def _every_pair(n_cells=4):
    """Every n-cell exemplar with every n-cell latent print."""
    for exemplar in map("".join, itertools.product(".m", repeat=n_cells)):
        for latent in map("".join, itertools.product(".m?", repeat=n_cells)):
            yield exemplar, latent


def _grid_fixture():
    """The committed grid files, parsed: {file name: (cells, width)}."""
    fixtures = resources.files("forensic_bias").joinpath("fixtures/grids")
    return {
        name: parse_grid(fixtures.joinpath(name).read_text(encoding="utf-8"))
        for name in ("exemplar_x.txt", "true_y.txt", "observed_y.txt")
    }


class TestVectors:
    def test_text_round_trip(self):
        assert parse_grid(grid_text(LATENT6, 2)) == (LATENT6, 2)
        assert parse_grid("  ..m \r\n\n mm. \n") == ("..mmm.", 3)

    def test_latent_counts(self):
        assert count_matches(X6, LATENT6)[2] == 3
        assert [i for i, c in enumerate(LATENT6) if c == "?"] == [0, 1, 3]

    def test_minutia_vector_rejects_missing(self):
        # The reference of an imputation, like an exemplar, has no missing cell.
        with pytest.raises(ValueError, match="reference must be fully observed"):
            impute_from_reference(Y6, LATENT6)

    def test_empty_rejected(self):
        for text in ("", "\n", " \n\t\n"):
            with pytest.raises(ValueError, match="empty"):
                parse_grid(text)

    def test_unknown_character_rejected(self):
        # A space inside a row is refused too; only the row's ends are stripped.
        for text, char in (("m.x", "x"), ("m .", " "), ("m..\n.\tm", "\t")):
            with pytest.raises(ValueError, match=re.escape(f"unknown grid character {char!r}")):
                parse_grid(text)

    def test_grid_shape_checked(self):
        assert grid_text(X6, 3) == "...\nmmm\n"
        assert grid_text(X6, 2) == "..\n.m\nmm\n"
        assert parse_grid("...\nmmm") == (X6, 3)

    def test_ragged_grid_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            parse_grid("..\nmmm")


class TestCountMatches:
    def test_complete_pair(self):
        assert count_matches(X6, Y6) == (4, 2, 0)

    def test_latent_pair(self):
        assert count_matches(X6, LATENT6) == (2, 1, 3)

    def test_imputed_pair(self):
        imputed = impute_from_reference(LATENT6, X6)
        assert imputed == "...mm."
        assert count_matches(X6, imputed) == (5, 2, 0)

    def test_self_match(self):
        assert count_matches(X6, X6) == (6, X6.count("m"), 0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            count_matches(X6, "..m")
        with pytest.raises(ValueError, match="mismatch"):
            impute_from_reference("??m", X6)

    def test_latent_exemplar_rejected(self):
        with pytest.raises(ValueError, match="fully observed"):
            count_matches(LATENT6, Y6)


class TestImpute:
    def test_no_missing_is_identity(self):
        assert impute_from_reference(Y6, X6) == Y6

    def test_all_missing_copies_reference(self):
        assert impute_from_reference("??????", X6) == X6

    def test_grid_in_grid_out(self):
        latent, width = parse_grid("??.\n?m.")
        reference, _ = parse_grid("...\nmmm")
        assert grid_text(impute_from_reference(latent, reference), width) == "...\nmm.\n"

    def test_imputed_cells_agree_with_reference(self):
        for ref, latent in _every_pair():
            imputed = impute_from_reference(latent, ref)
            for i, cell in enumerate(latent):
                assert imputed[i] == (ref[i] if cell == "?" else cell)
            # correspondences never drop when ambiguity resolves toward the
            # reference
            before = count_matches(ref, latent)
            after = count_matches(ref, imputed)
            assert after[0] == before[0] + before[2]
            assert after[1] >= before[1]


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
        assert decide_source(matches) is expected

    def test_default_thresholds(self):
        assert DEFAULT_THRESHOLDS == (12, 7, 3)

    def test_monotone_in_matches(self):
        order = [
            SourceDecision.EXCLUSION,
            SourceDecision.INCONCLUSIVE,
            SourceDecision.SUPPORT_SAME_SOURCE,
            SourceDecision.IDENTIFICATION,
        ]
        last = 0
        for m in range(0, 20):
            rank = order.index(decide_source(m))
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


class TestDeltaImpute:
    def test_closed_form(self, tmp_path):
        # The six-cell example has three missing cells: exactly (0.5/0.25)**3.
        run_preset("imputation-table", 7, {}, out_dir=tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["delta_impute"] == 2.0**3

    def test_no_missing_is_unit(self):
        sim = ImputationSimParams(rows=2, cols=3, missing_share=0.0)
        counts = sample_delta_impute(sim, 5, rng=substream(15))
        assert counts.dtype == np.int64 and np.all(counts == 0)
        assert np.all(bias_factors(sim, counts) == 1.0)

    def test_full_mask_is_ratio_power_n(self):
        sim = ImputationSimParams(rows=2, cols=3, missing_share=1.0)
        counts = sample_delta_impute(sim, 5, rng=substream(15))
        assert counts.dtype == np.int64 and np.all(counts == 6)
        np.testing.assert_allclose(bias_factors(sim, counts), 2.0**6, rtol=1e-12, atol=0.0)

    def test_never_deflates(self):
        # r = p_same/p_diff > 1, so a factor r**M is never below 1.
        for share in (0.0, 0.25, 1.0):
            for mode in ("per_cell", "exact"):
                sim = ImputationSimParams(2, 3, CellAgreementModel(0.7, 0.2), share, mode)
                counts = sample_delta_impute(sim, 200, rng=substream(15))
                assert np.all(bias_factors(sim, counts) >= 1.0)

    def test_monte_carlo_matches_binomial_mean(self):
        # Per-cell masking makes n_missing ~ Binomial(n, s), so
        # E[delta] = (1 - s + s * p_same/p_diff)^n.
        sim = ImputationSimParams(rows=2, cols=3)
        draws = bias_factors(sim, sample_delta_impute(sim, 4_000, rng=substream(13)))
        expected = 1.25**6
        assert abs(draws.mean() - expected) / expected < 0.05

    def test_exact_mask_mode_is_degenerate(self):
        # n_missing is pinned at 3, so every draw is (p_same/p_diff)^3 up
        # to the rounding of the log-space round trip.
        sim = ImputationSimParams(rows=2, cols=3, missing_share=0.5, mask_mode="exact")
        counts = sample_delta_impute(sim, 50, rng=substream(14))
        assert np.all(counts == 3)
        assert np.all(np.abs(bias_factors(sim, counts) - 2.0**3) <= 1e-11)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            ImputationSimParams(rows=0)
        with pytest.raises(ValueError):
            sample_delta_impute(ImputationSimParams(), 0, rng=substream(16))
        with pytest.raises(ValueError, match="missing_share"):
            ImputationSimParams(missing_share=1.5)
        with pytest.raises(ValueError, match="mode"):
            ImputationSimParams(mask_mode="often")


class TestImputationSimParams:
    """Every field is checked when the record is built, before any draw or
    exact value is computed."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("missing_share", 1.5),
            ("missing_share", -0.5),
            ("missing_share", float("nan")),
            ("missing_share", True),
            ("mask_mode", "often"),
            ("rows", 2.5),
            ("rows", True),
            ("rows", 0),
            ("cols", 2.5),
            ("cols", True),
            ("cols", 0),
        ],
    )
    def test_bad_field_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            ImputationSimParams(**{field: value})

    @pytest.mark.parametrize("n_reps", [2.5, True, 0])
    def test_bad_n_reps_named(self, n_reps):
        with pytest.raises(ValueError, match="^n_reps must be an int >= 1"):
            sample_delta_impute(ImputationSimParams(), n_reps, rng=substream(16))

    @pytest.mark.parametrize(
        "share, mode, fixed",
        [(0.25, "per_cell", None), (0.0, "per_cell", 0), (1.0, "per_cell", 50), (0.25, "exact", 13), (0.0, "exact", 0)],
    )
    def test_derived_constants(self, share, mode, fixed):
        # 0.25 of 50 cells is 12.5, rounded half up to 13.
        sim = ImputationSimParams(10, 5, CellAgreementModel(0.7, 0.2), share, mode)
        assert (sim.n, sim.fixed, sim.log_r) == (50, fixed, math.log(0.7 / 0.2))


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

def _case_id(case):
    seed, rows, cols, model, same_source, share, mode, n_reps = case
    return f"{seed}-{rows}x{cols}-{model.p_same}-{same_source}-{share}-{mode}-{n_reps}"


class TestSampleMatchesObjectOracle:
    """Once bit-equality with the object path; now the law of M it sampled."""

    @pytest.mark.parametrize("case", ORACLE_CASES, ids=_case_id)
    def test_same_missing_count_and_draw(self, case):
        seed, rows, cols, model, _same_source, share, mode, n_reps = case
        n, log_r = rows * cols, math.log(model.p_same / model.p_diff)
        sim = ImputationSimParams(rows, cols, model, share, mode)
        counts = sample_delta_impute(sim, n_reps, rng=substream(seed, 0))
        assert counts.shape == (n_reps,) and counts.dtype == np.int64
        draws = bias_factors(sim, counts)
        # Each draw is r**M in the log-space arithmetic, bit for bit.
        np.testing.assert_array_equal(draws, np.exp(counts * log_r))
        if mode == "exact" or share in (0.0, 1.0):
            fixed = math.floor(share * n + 0.5)  # round half up: 0.4 of 63 cells is 25
            assert np.all(counts == fixed)
            np.testing.assert_allclose(draws, (model.p_same / model.p_diff) ** fixed, rtol=1e-12, atol=0.0)
        else:
            expected = n_reps * np.exp(binomial_log_pmf(n, share, np.arange(n + 1)))
            chi_square, critical = pooled_chi_square(np.bincount(counts, minlength=n + 1), expected)
            assert chi_square <= critical


class _FixedUniforms:
    """A stand-in generator whose only method, random, returns chosen values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def random(self, size):
        assert size == len(self.values)
        return self.values


class TestInverseCdfDraw:
    """Per cell, M is one uniform read through the exact CDF on the window."""

    @pytest.mark.parametrize(
        "seed, rows, cols, share, model",
        [
            (7, 10, 5, 0.25, CellAgreementModel()),
            (11, 2, 3, 0.9, CellAgreementModel(0.7, 0.2)),
            (3, 10, 10, 0.999, CellAgreementModel()),
            (0, 1000, 100, 0.5, CellAgreementModel(0.5, 0.4999)),
        ],
    )
    def test_draws_depend_only_on_uniforms(self, seed, rows, cols, share, model):
        lo, cdf = _count_cdf(rows * cols, share)
        uniforms = substream(seed, 0).random(5_000)
        want = np.minimum(lo + np.searchsorted(cdf, uniforms, side="right"), lo + len(cdf) - 1)
        got = sample_delta_impute(ImputationSimParams(rows, cols, model, share), 5_000, rng=substream(seed, 0))
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n, share", [(50, 0.25), (63, 0.4), (100, 0.999)])
    def test_cdf_matches_exact_fractions(self, n, share):
        lo, cdf = _count_cdf(n, share)
        s = Fraction(share)
        pmf = [math.comb(n, m) * s**m * (1 - s) ** (n - m) for m in range(n + 1)]
        # The window's own law: the mass outside it is below 2e-26.
        window = pmf[lo : lo + len(cdf)]
        want = [float(sum(window[: i + 1]) / sum(window)) for i in range(len(window))]
        np.testing.assert_allclose(cdf, want, rtol=1e-13, atol=1e-300)

    @pytest.mark.parametrize("n, share", [(10**8, 0.5), (10**15, 1e-9), (2**62, 1e-12)])
    def test_cdf_keeps_the_binomial_moments_on_huge_grids(self, n, share):
        # log factorials of n ~ 1e15 are off by whole units; the ratios are not.
        lo, cdf = _count_cdf(n, share)
        assert cdf[-1] == 1.0
        counts, pmf = np.arange(lo, lo + len(cdf)), np.diff(cdf, prepend=0.0)
        mean = counts @ pmf
        assert mean == pytest.approx(n * share, rel=1e-12)
        assert ((counts - mean) ** 2) @ pmf == pytest.approx(n * share * (1 - share), rel=1e-9)

    def test_uniforms_past_either_end_map_to_the_window_ends(self):
        # 100 cells at share 0.999: the window is M = 48..100, with
        # P(M <= 48) ~ 1e-127 still a normal float.
        lo, cdf = _count_cdf(100, 0.999)
        hi = lo + len(cdf) - 1
        assert (lo, hi) == (48, 100) and cdf[0] > 0.0
        below = [0.0, 5e-324, np.nextafter(cdf[0], 0.0)]
        above = [cdf[-1], np.nextafter(cdf[-1], 2.0), 1.0, np.nextafter(1.0, 0.0)]
        counts = sample_delta_impute(
            ImputationSimParams(10, 10, missing_share=0.999), len(below) + len(above), rng=_FixedUniforms(below + above)
        )
        np.testing.assert_array_equal(counts, [lo] * len(below) + [hi] * len(above))

    @pytest.mark.parametrize("seed", [0, 7, 13])
    def test_windowed_counts_follow_the_binomial(self, seed):
        # 10**5 cells at share 1/2: the window starts at M = 43,636, not 0.
        model = CellAgreementModel(0.5, 0.4999)
        n, n_reps = 100_000, 20_000
        lo, cdf = _count_cdf(n, 0.5)
        assert lo > 0
        counts = sample_delta_impute(ImputationSimParams(1000, 100, model, 0.5), n_reps, rng=substream(seed, 0))
        expected = n_reps * np.exp(binomial_log_pmf(n, 0.5, np.arange(lo, lo + len(cdf))))
        observed = np.bincount(counts - lo, minlength=len(cdf))
        assert len(observed) == len(cdf)
        chi_square, critical = pooled_chi_square(observed, expected)
        assert chi_square <= critical


# (rows, cols, share): the default window, skewed shares, the two counts of
# one cell, and 36,741 counts, where over half the guide buckets hold two or
# more CDF entries.  One cell at 0.063 or 0.719 puts the entry next to a
# decimal edge k / 1000, which 1,000 buckets (u * 1000 is inexact) misread.
GUIDE_WINDOWS = [
    (10, 5, 0.25),
    (10, 5, 0.02),
    (10, 5, 0.9),
    (1, 1, 0.3),
    (1, 1, 0.063),
    (1, 1, 0.719),
    (1000, 1000, 0.3),
]


class TestGuideTable:
    """The guided count lookup is searchsorted(cdf[:-1], u, "right") exactly."""

    @staticmethod
    def _assert_searchsorted_counts(rows, cols, share, uniforms):
        lo, cdf = _count_cdf(rows * cols, share)
        sim = ImputationSimParams(rows, cols, missing_share=share)
        got = sample_delta_impute(sim, len(uniforms), rng=_FixedUniforms(uniforms))
        np.testing.assert_array_equal(got, lo + np.searchsorted(cdf[:-1], uniforms, side="right"))

    @pytest.mark.parametrize("rows, cols, share", GUIDE_WINDOWS)
    def test_every_entry_and_its_neighbours(self, rows, cols, share):
        _, cdf = _count_cdf(rows * cols, share)
        uniforms = np.concatenate((cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0), [0.0, 1.0 - 2.0**-53]))
        # A generator's uniforms lie in [0, 1).
        self._assert_searchsorted_counts(rows, cols, share, uniforms[uniforms < 1.0])

    @pytest.mark.parametrize("rows, cols, share", GUIDE_WINDOWS)
    def test_bucket_edges_and_random_uniforms(self, rows, cols, share):
        edges = np.arange(1024) / 1024
        uniforms = np.concatenate((edges, np.nextafter(edges[1:], 0.0), substream(23, 0).random(20_000)))
        self._assert_searchsorted_counts(rows, cols, share, uniforms)

    def test_the_crowded_window_takes_the_fallback(self):
        _, cdf = _count_cdf(10**6, 0.3)
        held = np.diff(np.searchsorted(cdf[:-1], np.arange(1025) / 1024, side="right"))
        assert len(cdf) == 36_741 and held.min() >= 1 and (held > 1).sum() == 540

    def test_a_run_builds_the_table_once(self, tmp_path):
        _count_cdf.cache_clear()
        run_preset("delta-impute", 7, {"rows": "9", "cols": "7"}, out_dir=tmp_path)
        assert (_count_cdf.cache_info().misses, _count_cdf.cache_info().hits) == (1, 1)
        with pytest.raises(ValueError, match="read-only"):
            _count_cdf(63, 0.25)[1][0] = 0.5


class TestHistogramQuantiles:
    """bias_factor_percentiles reads the same order statistics as percentiles."""

    @staticmethod
    def _assert_percentile_bytes(sim, counts):
        draws = bias_factors(sim, counts)
        got = bias_factor_percentiles(sim, counts, LEVELS)
        assert got.tobytes() == percentiles(draws, LEVELS).tobytes()
        assert got.tobytes() == np.percentile(draws, LEVELS).tobytes()

    @pytest.mark.parametrize("n_reps", [1, 2, 3, 7, 40, 10_000])
    @pytest.mark.parametrize(
        "rows, cols, share, model",
        [
            (10, 5, 0.25, CellAgreementModel()),
            (7, 9, 0.4, CellAgreementModel(0.7, 0.2)),
            (1000, 1000, 0.3, CellAgreementModel(0.5000001, 0.5)),
            # r = 1 + 2**-52: neighbouring counts give factors a few ulps apart.
            (10, 5, 0.5, CellAgreementModel(math.nextafter(0.5, 1.0), 0.5)),
        ],
    )
    def test_matches_percentiles_of_the_draws(self, n_reps, rows, cols, share, model):
        sim = ImputationSimParams(rows, cols, model, share)
        for seed in range(3):
            self._assert_percentile_bytes(sim, sample_delta_impute(sim, n_reps, rng=substream(seed, 0)))

    @pytest.mark.parametrize("share, mode", [(0.25, "exact"), (0.0, "per_cell"), (1.0, "per_cell")])
    @pytest.mark.parametrize("n_reps", [1, 2, 40])
    def test_fixed_masks(self, share, mode, n_reps):
        sim = ImputationSimParams(model=CellAgreementModel(0.7, 0.2), missing_share=share, mask_mode=mode)
        self._assert_percentile_bytes(sim, sample_delta_impute(sim, n_reps, rng=substream(5)))


class TestExactMean:
    def test_per_cell_closed_form(self):
        sim = ImputationSimParams(rows=10, cols=5)
        assert exact_mean_delta(sim) == pytest.approx(1.25**50, rel=1e-12)

    def test_per_cell_matches_enumeration(self):
        share, r = 0.4, 0.7 / 0.2
        sim = ImputationSimParams(rows=2, cols=3, model=CellAgreementModel(0.7, 0.2), missing_share=share)
        oracle = sum(
            math.comb(6, m) * share**m * (1 - share) ** (6 - m) * r**m for m in range(7)
        )
        assert exact_mean_delta(sim) == pytest.approx(oracle, rel=1e-12)

    def test_exact_mode_rounds_half_up(self):
        sim = ImputationSimParams(rows=10, cols=5, mask_mode="exact")
        assert exact_mean_delta(sim) == pytest.approx(2.0**13, rel=1e-12)

    def test_overflow_raises_before_exponentiating(self):
        sim = ImputationSimParams(rows=60, cols=60)
        with pytest.raises(OverflowError, match="exact mean"):
            exact_mean_delta(sim)
        # The draws themselves still fit at 60x60 ...
        assert np.all(np.isfinite(bias_factors(sim, sample_delta_impute(sim, 20, rng=substream(17)))))
        # ... but not at 80x80, where the counts are still drawn.
        big = ImputationSimParams(rows=80, cols=80)
        counts = sample_delta_impute(big, 20, rng=substream(17))
        with pytest.raises(OverflowError, match="draw"):
            bias_factors(big, counts)

    def test_estimate_finite_where_the_sum_overflows(self, tmp_path):
        # Every draw is r**1021 ~ 2.2e307, so the plain sum of ten overflows;
        # the preset's mean, scaled by the largest draw, does not.
        sim = ImputationSimParams(rows=1, cols=1021, missing_share=1.0)
        draws = bias_factors(sim, sample_delta_impute(sim, 10, rng=substream(18)))
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
        sim = ImputationSimParams(rows=rows, cols=cols, model=model, missing_share=share)
        r = Fraction(p_same) / Fraction(p_diff)
        want = [float(r**m) for m in _enumerated_quantile_counts(rows * cols, share, r)]
        got = exact_delta_quantiles(sim)
        assert got == pytest.approx(want, rel=1e-12)
        assert all(type(q) is float for q in got)

    def test_exact_mode_rounds_half_up(self):
        sim = ImputationSimParams(rows=10, cols=5, mask_mode="exact")
        assert exact_delta_quantiles(sim) == pytest.approx((2.0**13,) * 3, rel=1e-12)

    def test_defaults_equal_the_monte_carlo_where_it_hits(self):
        # At defaults the 10,000-draw quantiles fall on the exact atoms 2**7,
        # 2**12 and 2**19, bit for bit.
        sim = ImputationSimParams()
        draws = bias_factors(sim, sample_delta_impute(sim, 10_000, rng=substream(7, 0)))
        monte_carlo = tuple(np.percentile(draws, [2.5, 50.0, 97.5]).tolist())
        assert exact_delta_quantiles(sim) == monte_carlo

    def test_overflow_raises(self):
        with pytest.raises(OverflowError, match="exact quantile"):
            exact_delta_quantiles(ImputationSimParams(rows=80, cols=80))

    @pytest.mark.parametrize("share", [0.5, 1e-3, 1.0 - 1e-3])
    def test_window_matches_the_full_pmf(self, share):
        # 10**5 cells: the window keeps about an eighth of the counts at
        # share 1/2 and a few hundred at the skewed shares.
        model = CellAgreementModel(0.5, 0.4999)
        sim = ImputationSimParams(rows=1000, cols=100, model=model, missing_share=share)
        n = sim.rows * sim.cols
        cdf = np.cumsum(np.exp(binomial_log_pmf(n, share, np.arange(n + 1))))
        counts = np.searchsorted(cdf, [0.025 - 1e-9, 0.5 - 1e-9, 0.975 - 1e-9])
        want = np.exp(counts * math.log(model.p_same / model.p_diff)).tolist()
        assert exact_delta_quantiles(sim) == tuple(want)

    def test_too_wide_a_window_is_refused_when_built(self):
        # sigma = 5e5 counts: a window of about 4e7, past the cap that the
        # sampler and the exact quantiles share.  A fixed M needs no window.
        model = CellAgreementModel(0.5, 0.4999999999999)
        with pytest.raises(ValueError, match=f"sampler and the exact quantiles need the pmf at .* counts, more than {_MAX_WINDOW}"):
            ImputationSimParams(10**6, 10**6, model, 0.5)
        assert ImputationSimParams(10**6, 10**6, model, 0.5, "exact").fixed == 5 * 10**11

    def test_grid_past_int64_is_refused_when_built(self):
        # M is drawn in int64, so rows * cols must fit in it.
        with pytest.raises(ValueError, match=r"parameters rows and cols: .* int64 limit 2\*\*63 - 1"):
            ImputationSimParams(2**62, 2, missing_share=1e-300)
        assert ImputationSimParams(2**63 - 1, 1, missing_share=1e-300).n == 2**63 - 1

    def test_infinite_match_ratio_is_refused(self):
        with pytest.raises(OverflowError, match="p_same/p_diff"):
            ImputationSimParams(model=CellAgreementModel(0.5, 5e-324))

    def test_validation(self):
        with pytest.raises(ValueError):
            ImputationSimParams(missing_share=1.5)
        with pytest.raises(ValueError):
            ImputationSimParams(mask_mode="often")



# Both ends, numpy's own levels, and levels just inside the ends.
LEVELS = [0.0, 5e-324, 1e-12, 2.5, 50.0, 97.5, 100.0 - 1e-12, math.nextafter(100.0, 0.0), 100.0]
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1.0, 1.0])


class TestPercentiles:
    @staticmethod
    def _assert_numpy_bytes(values):
        with np.errstate(invalid="ignore"):  # inf - inf between equal infinite neighbours
            got = percentiles(values, LEVELS)
            want = np.percentile(values, LEVELS, axis=-1)
        assert got.shape == want.shape == (len(LEVELS), *values.shape[:-1])
        assert got.tobytes() == want.tobytes()

    def test_single_negative_zero(self):
        # numpy reads the last value at both ends (gamma = 1 at level 100),
        # so -0.0 stays -0.0; clamping to gamma = 0 would return 0.0.
        self._assert_numpy_bytes(np.array([-0.0]))
        assert np.signbit(percentiles(np.array([-0.0]), [2.5, 50.0, 97.5, 100.0])).all()

    @pytest.mark.parametrize("batch", [(), (2, 3)], ids=["1-d", "2-k-n"])
    @pytest.mark.parametrize("kind", ["normal", "ties", "specials"])
    def test_matches_numpy_bit_for_bit(self, batch, kind):
        rng = np.random.default_rng(5)
        sizes = [1, 2, 3, *rng.integers(4, 3000, size=12).tolist()]
        for n in sizes:
            shape = (*batch, n)
            for _ in range(4):
                if kind == "normal":
                    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300)
                elif kind == "ties":
                    values = rng.integers(-2, 3, size=shape).astype(np.float64)
                else:
                    values = rng.choice(SPECIALS, size=shape)
                self._assert_numpy_bytes(values)


class TestGridFixture:
    def test_counts_and_decisions(self):
        grids = _grid_fixture()
        exemplar, _ = grids["exemplar_x.txt"]
        true_mark, _ = grids["true_y.txt"]
        observed, _ = grids["observed_y.txt"]
        imputed = impute_from_reference(observed, exemplar)
        assert exemplar.count("m") == 15
        assert true_mark.count("m") == 15
        assert observed.count("?") == 13
        assert count_matches(exemplar, true_mark)[1] == 5
        assert count_matches(exemplar, observed)[1] == 3
        assert count_matches(exemplar, imputed)[1] == 8
        assert decide_source(3) is SourceDecision.INCONCLUSIVE
        assert decide_source(8) is SourceDecision.SUPPORT_SAME_SOURCE

    def test_shapes(self):
        for cells, width in _grid_fixture().values():
            assert (len(cells), width) == (50, 5)

    def test_observed_is_true_mark_smudged(self):
        grids = _grid_fixture()
        for t, o in zip(grids["true_y.txt"][0], grids["observed_y.txt"][0]):
            assert o == "?" or o == t
