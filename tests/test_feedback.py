"""The conviction feedback loop on a conjugate prevalence belief."""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from forensic_bias.feedback import (
    BetaPrior,
    DEFAULT_PRIOR,
    FeedbackRegime,
    exact_final_mean_and_gap,
    run_paired_feedback,
    simulate_feedback,
)
from forensic_bias.seeding import substream

from chi_square import pooled_chi_square

TOL = 1e-12


class TestBetaPrior:
    def test_default_prior(self):
        assert DEFAULT_PRIOR == BetaPrior(12.0, 8.0)
        assert DEFAULT_PRIOR.mean == pytest.approx(0.6, abs=TOL)

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, -2.0), (float("inf"), 1.0)])
    def test_bad_parameters_rejected(self, a, b):
        with pytest.raises(ValueError):
            BetaPrior(a, b)

    def test_conjugate_update(self):
        # A case showing the trait increments a, any other increments b;
        # the uniforms fix each case (row 0: never wrongful, row 1: trait
        # when below the true rate 0.5).
        def means(trait_uniforms, prior=DEFAULT_PRIOR):
            uniforms = np.array([[0.9] * len(trait_uniforms), trait_uniforms])
            return simulate_feedback(
                FeedbackRegime(), 0.5, len(trait_uniforms), prior, rng=_FixedUniforms(uniforms)
            )[0]

        up = means([0.1])
        assert up[0] == BetaPrior(13.0, 8.0).mean
        assert up[0] == pytest.approx(13 / 21, abs=TOL)
        down = means([0.7])
        assert down[0] == BetaPrior(12.0, 9.0).mean
        np.testing.assert_allclose(means([0.1, 0.7]), [13 / 21, 13 / 22], rtol=0, atol=TOL)
        assert means([0.7], BetaPrior(0.3, 7.0))[0] == pytest.approx(BetaPrior(0.3, 8.0).mean, abs=TOL)


class _FixedUniforms:
    """A stand-in generator whose random() returns the given array."""

    def __init__(self, uniforms):
        self.uniforms = uniforms

    def random(self, shape):
        assert shape == self.uniforms.shape
        return self.uniforms


class TestRegime:
    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_rate_bounds(self, rate):
        with pytest.raises(ValueError):
            FeedbackRegime(wrongful_rate=rate)

    def test_skew_positive(self):
        with pytest.raises(ValueError):
            FeedbackRegime(trait_skew=0.0)


class TestSimulate:
    def test_posterior_mean_identity(self):
        # The recorded means must equal the conjugate closed form: a case
        # showing the trait (the second row's uniform below the true rate)
        # increments a, any other increments b.
        both = simulate_feedback(FeedbackRegime(), 0.5, 50, rng=substream(1))
        assert both.shape == (2, 50)
        means = both[0]
        belief = DEFAULT_PRIOR
        for trait, mean in zip(substream(1).random((2, 50))[1] < 0.5, means):
            belief = BetaPrior(belief.a + trait, belief.b + (not trait))
            assert mean == pytest.approx(belief.mean, abs=TOL)
        assert means[0] in (13 / 21, 12 / 21)

    def test_deterministic_given_stream(self):
        a = simulate_feedback(FeedbackRegime(0.06, 2.0), 0.5, 100, rng=substream(2, 5))
        b = simulate_feedback(FeedbackRegime(0.06, 2.0), 0.5, 100, rng=substream(2, 5))
        np.testing.assert_array_equal(a, b)

    def test_zero_rate_biased_equals_truthful_bitwise(self):
        # Skewed but never wrongful: the skew is never applied, so the two
        # rows are equal bit for bit.
        t, b = simulate_feedback(FeedbackRegime(0.0, 2.0), 0.37, 200, rng=substream(3))
        assert np.array_equal(t.view(np.uint64), b.view(np.uint64))

    def test_rows_read_one_draw(self):
        # Row 0 is the truthful trajectory: its trait shows when the second
        # uniform falls below the true rate, whatever the first.  Row 1 reads
        # the skewed rate in wrongful cases, so with skew above 1 it never
        # shows fewer traits.
        t, b = simulate_feedback(FeedbackRegime(0.3, 1.5), 0.4, 300, rng=substream(9))
        wrongful, trait = substream(9).random((2, 300))
        total = DEFAULT_PRIOR.a + DEFAULT_PRIOR.b + np.arange(1, 301)
        np.testing.assert_array_equal(t, (DEFAULT_PRIOR.a + np.cumsum(trait < 0.4)) / total)
        want = trait < np.where(wrongful < 0.3, 1.5 * 0.4, 0.4)
        np.testing.assert_array_equal(b, (DEFAULT_PRIOR.a + np.cumsum(want)) / total)
        assert np.all(b >= t) and np.any(b > t)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_feedback(FeedbackRegime(), 0.0, 10, rng=substream(4))
        with pytest.raises(ValueError):
            simulate_feedback(FeedbackRegime(), 0.5, 0, rng=substream(4))

    def test_skew_clamp_warns(self):
        with pytest.warns(RuntimeWarning, match="clamping"):
            simulate_feedback(FeedbackRegime(0.5, 3.0), 0.4, 20, rng=substream(5))

    def test_paired_run_warns_once_per_call(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_paired_feedback(30, 0.4, 20, biased=FeedbackRegime(0.5, 3.0), master_seed=5)
        assert [str(w.message).count("clamping") for w in caught] == [1]
        assert caught[0].filename == __file__


class TestTruthfulConvergence:
    def test_mean_gap_shrinks_with_more_cases(self):
        # Consistency at two scales: longer records lie closer to truth.
        short = _mean_gaps(run_paired_feedback(300, 0.5, 100, master_seed=11), 0.5)
        long = _mean_gaps(run_paired_feedback(300, 0.5, 2_000, master_seed=11), 0.5)
        assert long[0] < short[0]

    def test_posterior_concentrates_near_truth(self):
        truthful, _ = run_paired_feedback(500, 0.3, 2_000, master_seed=13)
        assert abs(float(np.mean(truthful)) - 0.3) < 0.01


class TestPairedExperiment:
    def test_biased_mean_gap_exceeds_truthful(self):
        truthful_gap, biased_gap = _mean_gaps(run_paired_feedback(1_000, 0.5, 100, master_seed=0), 0.5)
        assert biased_gap > truthful_gap

    def test_biased_mean_dominates_pairwise(self):
        # Under common random numbers a wrongful, trait-skewed case can only
        # push the posterior mean up; at least one occurs in ~95% of runs.
        t, b = run_paired_feedback(1_000, 0.5, 100, master_seed=0)
        assert np.all(b >= t - TOL)
        assert float(np.mean(b > t)) >= 0.90

    def test_gap_win_rate_band(self):
        # The biased run's *gap* only beats the truthful one when the
        # truthful trajectory did not overshoot; measured near 0.71.
        truthful_gaps, biased_gaps = np.abs(run_paired_feedback(1_000, 0.5, 100, master_seed=0) - 0.5)
        win = float(np.mean(biased_gaps > truthful_gaps))
        assert 0.60 < win < 0.85

    def test_biased_converges_slower(self):
        short = _mean_gaps(run_paired_feedback(400, 0.5, 100, master_seed=7), 0.5)
        long = _mean_gaps(run_paired_feedback(400, 0.5, 1_000, master_seed=7), 0.5)
        # Both regimes improve with data, but the biased gap shrinks by a
        # smaller factor: the wrongful stream never stops feeding it.
        t_ratio, b_ratio = long / short
        assert long[1] < short[1]
        assert b_ratio > t_ratio

    def test_reproducible(self):
        a = run_paired_feedback(50, 0.5, 100, master_seed=21)
        b = run_paired_feedback(50, 0.5, 100, master_seed=21)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "alpha_true, n_obs, regime, order",
        [
            (0.5, 100, (0.06, 2.0), "biased >= truthful"),
            (0.5, 100, (0.3, 0.5), "biased <= truthful"),
            (0.3, 100, (0.0, 2.0), "equal"),
            (0.4, 100, (1.0, 3.0), "biased all traits"),
            (0.5, 1, (0.06, 2.0), "biased >= truthful"),
            (0.5, 2_000, (0.06, 2.0), "biased >= truthful"),
        ],
        ids=["skew-above-1", "skew-below-1", "rate-0", "rate-1-clamped", "n_obs-1", "n_obs-2000"],
    )
    def test_pairing_invariants(self, alpha_true, n_obs, regime, order):
        # Both regimes read one stream of cases, and the biased one differs
        # only in wrongful cases, at a trait rate skewed up or down.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            means = run_paired_feedback(200, alpha_true, n_obs, biased=FeedbackRegime(*regime), master_seed=3)
        assert means.dtype == np.float64 and means.shape == (2, 200)
        k_truthful, k_biased = _trait_counts(means, n_obs, DEFAULT_PRIOR)
        assert np.all((0 <= k_truthful) & (k_truthful <= n_obs))
        if order == "biased >= truthful":
            assert np.all(k_biased >= k_truthful) and np.any(k_biased > k_truthful)
        elif order == "biased <= truthful":
            assert np.all(k_biased <= k_truthful) and np.any(k_biased < k_truthful)
        elif order == "equal":
            np.testing.assert_array_equal(means[1], means[0])
        else:  # every case is wrongful and shows the trait at a clamped rate of 1
            assert np.all(k_biased == n_obs)

    def test_validation(self):
        for n_seeds, alpha_true, n_obs in ((0, 0.5, 100), (5, 0.5, 0), (5, 0.0, 100), (5, 1.0, 100)):
            with pytest.raises(ValueError):
                run_paired_feedback(n_seeds, alpha_true, n_obs, master_seed=0)


def _mean_gaps(means, alpha_true):
    """The (truthful, biased) mean gaps |final mean - alpha_true|."""
    return np.mean(np.abs(means - alpha_true), axis=1)


def _trait_counts(means, n_obs, prior):
    """Each replicate's (truthful, biased) trait counts K, read back from
    its final means, which must be (a + K) / (a + b + n_obs) bit for bit."""
    total = prior.a + prior.b + n_obs
    k = np.rint(means * total - prior.a).astype(np.int64)
    np.testing.assert_array_equal(means, (prior.a + k) / total)
    return k


def _object_path_cells(regime, alpha_true):
    """One case's probabilities of the (truthful, biased) cells both,
    truthful only, biased only and neither, from the two uniforms the
    object path reads per case: the first below the wrongful rate makes
    the case wrongful, and the trait shows when the second falls below the
    true rate, or below the skewed rate in the biased regime's wrongful
    cases."""
    alpha, w = Fraction(alpha_true), Fraction(regime.wrongful_rate)
    skewed = min(Fraction(1), Fraction(regime.trait_skew) * alpha)
    cells = [Fraction(0)] * 4
    for share, biased_rate in ((w, skewed), (1 - w, alpha)):
        both = min(alpha, biased_rate)
        cells[0] += share * both
        cells[1] += share * (alpha - both)
        cells[2] += share * (biased_rate - both)
        cells[3] += share * (1 - max(alpha, biased_rate))
    return cells


class TestPairedMatchesReference:
    """Once bit-equality with the per-replicate object path; now equality
    in law.  The one-sided cells never both fill, so a replicate's trait
    counts give back its cell counts: c0 = min(K_truthful, K_biased) and
    the one-sided count |K_biased - K_truthful|.  Their histogram is tested
    against the exact multinomial law of the object path's cells.  The
    n_seeds-255, -256 and -257 cases straddled a 256-replicate batch that
    no longer exists; they stay only so that each case keeps its id."""

    @pytest.mark.parametrize("master_seed", [0, 7, 2**64 - 1])
    @pytest.mark.parametrize(
        "n_seeds, alpha_true, n_obs, prior, regime",
        [
            (200, 0.5, 100, DEFAULT_PRIOR, (0.06, 2.0)),
            (200, 0.5, 1, DEFAULT_PRIOR, (0.06, 2.0)),
            (20, 0.5, 2_000, DEFAULT_PRIOR, (0.06, 2.0)),
            (100, 0.3, 100, DEFAULT_PRIOR, (0.0, 2.0)),
            (100, 0.3, 100, DEFAULT_PRIOR, (1.0, 2.0)),
            (100, 0.4, 100, DEFAULT_PRIOR, (0.5, 3.0)),
            (200, 0.5, 100, DEFAULT_PRIOR, (0.3, 0.5)),
            (100, 0.2, 30, BetaPrior(0.3, 7.0), (0.06, 2.0)),
            (255, 0.5, 20, DEFAULT_PRIOR, (0.06, 2.0)),
            (256, 0.5, 20, DEFAULT_PRIOR, (0.06, 2.0)),
            (257, 0.5, 20, DEFAULT_PRIOR, (0.06, 2.0)),
            (1_000, 0.5, 100, DEFAULT_PRIOR, (0.06, 2.0)),
        ],
        ids=[
            "defaults",
            "n_obs-1",
            "n_obs-2000",
            "rate-0",
            "rate-1",
            "clamped",
            "skew-below-1",
            "prior",
            "n_seeds-255",
            "n_seeds-256",
            "n_seeds-257",
            "n_seeds-1000",
        ],
    )
    def test_equals_object_path(self, master_seed, n_seeds, alpha_true, n_obs, prior, regime):
        biased = FeedbackRegime(*regime)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = run_paired_feedback(n_seeds, alpha_true, n_obs, prior, biased, master_seed=master_seed)
        k_truthful, k_biased = _trait_counts(got, n_obs, prior)
        both, truthful_only, biased_only, neither = _object_path_cells(biased, alpha_true)
        assert truthful_only == 0 or biased_only == 0
        # The support of (c0, one-sided count), c0-major, each c0's row over
        # one-sided counts 0 .. n_obs - c0; the rest of a row's cases are neither.
        sizes = np.arange(n_obs + 1, 0, -1)
        row_starts = np.cumsum(sizes) - sizes
        c0 = np.repeat(np.arange(n_obs + 1), sizes)
        one_sided = np.arange(len(c0)) - np.repeat(row_starts, sizes)
        log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n_obs + 1)))))
        log_pmf = log_fact[n_obs] - log_fact[c0] - log_fact[one_sided] - log_fact[n_obs - c0 - one_sided]
        with np.errstate(divide="ignore", invalid="ignore"):  # 0 * log 0 is 0
            for count, p in ((c0, both), (one_sided, truthful_only + biased_only), (n_obs - c0 - one_sided, neither)):
                log_pmf += np.where(count > 0, count * np.log(float(p)), 0.0)
        expected = n_seeds * np.exp(log_pmf)
        observed = np.bincount(
            row_starts[np.minimum(k_truthful, k_biased)] + np.abs(k_biased - k_truthful), minlength=len(expected)
        )
        chi_square, critical = pooled_chi_square(observed, expected)
        assert chi_square <= critical


def _enumerated_final_mean_and_gap(regime, alpha_true, n_obs, prior):
    """Exact means over every (wrongful, trait) outcome of every case."""
    alpha, w = Fraction(alpha_true), Fraction(regime.wrongful_rate)
    skewed = min(Fraction(1), Fraction(regime.trait_skew) * alpha)
    outcomes = [  # (probability, trait) of one case
        (w * skewed, 1),
        (w * (1 - skewed), 0),
        ((1 - w) * alpha, 1),
        ((1 - w) * (1 - alpha), 0),
    ]
    a, total = Fraction(prior.a), Fraction(prior.a) + Fraction(prior.b) + n_obs
    mean = gap = Fraction(0)
    for cases in itertools.product(outcomes, repeat=n_obs):
        prob = math.prod((p for p, _ in cases), start=Fraction(1))
        final = (a + sum(t for _, t in cases)) / total
        mean += prob * final
        gap += prob * abs(final - alpha)
    return mean, gap


class TestExactFinalMeanAndGap:
    @pytest.mark.parametrize(
        "regime, alpha_true, n_obs, prior",
        [
            (FeedbackRegime(), 0.5, 1, DEFAULT_PRIOR),
            (FeedbackRegime(), 0.3, 6, DEFAULT_PRIOR),
            (FeedbackRegime(0.06, 2.0), 0.5, 6, DEFAULT_PRIOR),
            (FeedbackRegime(0.5, 3.0), 0.4, 5, DEFAULT_PRIOR),
            (FeedbackRegime(1.0, 3.0), 0.4, 4, DEFAULT_PRIOR),
            (FeedbackRegime(0.2, 1.5), 0.1, 6, BetaPrior(0.3, 7.0)),
        ],
    )
    def test_matches_enumeration(self, regime, alpha_true, n_obs, prior):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            mean, gap = exact_final_mean_and_gap(regime, alpha_true, n_obs, prior)
        want_mean, want_gap = _enumerated_final_mean_and_gap(regime, alpha_true, n_obs, prior)
        assert mean == pytest.approx(float(want_mean), rel=1e-13)
        assert gap == pytest.approx(float(want_gap), rel=1e-12)

    def test_defaults(self):
        # Gaps from the exact binomial sum in fractions, rounded to float.
        truthful = exact_final_mean_and_gap(FeedbackRegime(), 0.5)
        biased = exact_final_mean_and_gap(FeedbackRegime(0.06, 2.0), 0.5)
        assert truthful == pytest.approx((62 / 120, 0.03578914726952875), rel=1e-13)
        assert biased == pytest.approx((65 / 120, 0.04854660119493734), rel=1e-13)

    def test_monte_carlo_within_four_standard_errors(self):
        # run_paired_feedback's default biased regime is (0.06, 2.0).
        for regime, means in zip((FeedbackRegime(), FeedbackRegime(0.06, 2.0)), run_paired_feedback(master_seed=7)):
            for sample, exact in zip((means, np.abs(means - 0.5)), exact_final_mean_and_gap(regime, 0.5)):
                se = np.std(sample, ddof=1) / math.sqrt(len(sample))
                assert abs(np.mean(sample) - exact) < 4 * se

    def test_validation_and_clamp_warning(self):
        with pytest.raises(ValueError):
            exact_final_mean_and_gap(FeedbackRegime(), 0.5, 0)
        with pytest.raises(ValueError):
            exact_final_mean_and_gap(FeedbackRegime(), 1.0)
        with pytest.warns(RuntimeWarning, match="clamping"):
            exact_final_mean_and_gap(FeedbackRegime(0.5, 3.0), 0.4)
