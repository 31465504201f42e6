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
    FeedbackKind,
    FeedbackRegime,
    Trajectory,
    conjugate_update,
    PairedFeedbackResult,
    convergence_gap,
    exact_final_mean_and_gap,
    run_paired_feedback,
    simulate_feedback,
)
from forensic_bias.seeding import substream

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
        up = conjugate_update(DEFAULT_PRIOR, True)
        assert up == BetaPrior(13.0, 8.0)
        assert up.mean == pytest.approx(13 / 21, abs=TOL)
        down = conjugate_update(DEFAULT_PRIOR, False)
        assert down == BetaPrior(12.0, 9.0)


class TestRegime:
    def test_constructors(self):
        t = FeedbackRegime.truthful()
        assert t.kind is FeedbackKind.TRUTHFUL and t.wrongful_rate == 0.0
        b = FeedbackRegime.biased()
        assert b.wrongful_rate == 0.06 and b.trait_skew == 2.0

    def test_truthful_cannot_be_skewed(self):
        with pytest.raises(ValueError):
            FeedbackRegime(FeedbackKind.TRUTHFUL, wrongful_rate=0.1)
        with pytest.raises(ValueError):
            FeedbackRegime(FeedbackKind.TRUTHFUL, trait_skew=2.0)

    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_rate_bounds(self, rate):
        with pytest.raises(ValueError):
            FeedbackRegime.biased(wrongful_rate=rate)

    def test_skew_positive(self):
        with pytest.raises(ValueError):
            FeedbackRegime.biased(trait_skew=0.0)


class TestSimulate:
    def test_posterior_mean_identity(self):
        # The recorded means must equal the conjugate closed form.
        traj = simulate_feedback(FeedbackRegime.truthful(), 0.5, 50, rng=substream(1))
        belief = DEFAULT_PRIOR
        for trait, mean in zip(traj.traits, traj.posterior_means):
            belief = conjugate_update(belief, trait)
            assert mean == pytest.approx(belief.mean, abs=TOL)
        assert traj.final == belief

    def test_deterministic_given_stream(self):
        a = simulate_feedback(FeedbackRegime.biased(), 0.5, 100, rng=substream(2, 5))
        b = simulate_feedback(FeedbackRegime.biased(), 0.5, 100, rng=substream(2, 5))
        assert a == b

    def test_zero_rate_biased_equals_truthful_bitwise(self):
        t = simulate_feedback(FeedbackRegime.truthful(), 0.37, 200, rng=substream(3))
        b = simulate_feedback(
            FeedbackRegime(FeedbackKind.BIASED, 0.0, 1.0), 0.37, 200, rng=substream(3)
        )
        assert t.posterior_means == b.posterior_means
        assert t.traits == b.traits

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_feedback(FeedbackRegime.truthful(), 0.0, 10, rng=substream(4))
        with pytest.raises(ValueError):
            simulate_feedback(FeedbackRegime.truthful(), 0.5, 0, rng=substream(4))

    def test_skew_clamp_warns(self):
        with pytest.warns(RuntimeWarning, match="clamping"):
            simulate_feedback(FeedbackRegime.biased(0.5, 3.0), 0.4, 20, rng=substream(5))

    def test_paired_run_warns_once_per_call(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_paired_feedback(30, 0.4, 20, biased=FeedbackRegime.biased(0.5, 3.0), master_seed=5)
        assert [str(w.message).count("clamping") for w in caught] == [1]
        assert caught[0].filename == __file__

    def test_convergence_gap(self):
        traj = Trajectory(DEFAULT_PRIOR, 0.5, (True,), (0.61904761904761907,))
        assert convergence_gap(traj) == pytest.approx(0.11904761904761907, abs=TOL)
        assert convergence_gap(traj, 0.6) == pytest.approx(0.01904761904761907, abs=TOL)


class TestTruthfulConvergence:
    def test_mean_gap_shrinks_with_more_cases(self):
        # Consistency at two scales: longer records lie closer to truth.
        short = run_paired_feedback(300, 0.5, 100, master_seed=11)
        long = run_paired_feedback(300, 0.5, 2_000, master_seed=11)
        assert long.mean_truthful_gap < short.mean_truthful_gap

    def test_posterior_concentrates_near_truth(self):
        res = run_paired_feedback(500, 0.3, 2_000, master_seed=13)
        assert abs(float(np.mean(res.truthful_means)) - 0.3) < 0.01


class TestPairedExperiment:
    def test_biased_mean_gap_exceeds_truthful(self):
        res = run_paired_feedback(1_000, 0.5, 100, master_seed=0)
        assert res.mean_biased_gap > res.mean_truthful_gap

    def test_biased_mean_dominates_pairwise(self):
        # Under common random numbers a wrongful, trait-skewed case can only
        # push the posterior mean up; at least one occurs in ~95% of runs.
        res = run_paired_feedback(1_000, 0.5, 100, master_seed=0)
        t = np.array(res.truthful_means)
        b = np.array(res.biased_means)
        assert np.all(b >= t - TOL)
        assert float(np.mean(b > t)) >= 0.90

    def test_gap_win_rate_band(self):
        # The biased run's *gap* only beats the truthful one when the
        # truthful trajectory did not overshoot; measured near 0.71.
        res = run_paired_feedback(1_000, 0.5, 100, master_seed=0)
        win = float(
            np.mean(np.array(res.biased_gaps) > np.array(res.truthful_gaps))
        )
        assert 0.60 < win < 0.85

    def test_biased_converges_slower(self):
        short = run_paired_feedback(400, 0.5, 100, master_seed=7)
        long = run_paired_feedback(400, 0.5, 1_000, master_seed=7)
        # Both regimes improve with data, but the biased gap shrinks by a
        # smaller factor: the wrongful stream never stops feeding it.
        t_ratio = long.mean_truthful_gap / short.mean_truthful_gap
        b_ratio = long.mean_biased_gap / short.mean_biased_gap
        assert long.mean_biased_gap < short.mean_biased_gap
        assert b_ratio > t_ratio

    def test_reproducible(self):
        a = run_paired_feedback(50, 0.5, 100, master_seed=21)
        b = run_paired_feedback(50, 0.5, 100, master_seed=21)
        assert a == b

    def test_validation(self):
        for n_seeds, alpha_true, n_obs in ((0, 0.5, 100), (5, 0.5, 0), (5, 0.0, 100), (5, 1.0, 100)):
            with pytest.raises(ValueError):
                run_paired_feedback(n_seeds, alpha_true, n_obs, master_seed=0)


def _reference_paired(n_seeds, alpha_true, n_obs, prior, biased, master_seed):
    """The object path: two simulate_feedback runs per replicate on equal
    substreams, keeping each trajectory's last posterior mean."""
    t_means, b_means = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for i in range(n_seeds):
            t = simulate_feedback(
                FeedbackRegime.truthful(), alpha_true, n_obs, prior, rng=substream(master_seed, i)
            )
            b = simulate_feedback(biased, alpha_true, n_obs, prior, rng=substream(master_seed, i))
            t_means.append(t.posterior_means[-1])
            b_means.append(b.posterior_means[-1])
    return PairedFeedbackResult(float(alpha_true), n_obs, tuple(t_means), tuple(b_means))


class TestPairedMatchesReference:
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
            (100, 0.2, 30, BetaPrior(0.3, 7.0), (0.06, 2.0)),
            # Around and past the 256-replicate batch edges.
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
            "prior",
            "n_seeds-255",
            "n_seeds-256",
            "n_seeds-257",
            "n_seeds-1000",
        ],
    )
    def test_equals_object_path(self, master_seed, n_seeds, alpha_true, n_obs, prior, regime):
        biased = FeedbackRegime.biased(*regime)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = run_paired_feedback(
                n_seeds, alpha_true, n_obs, prior, biased, master_seed=master_seed
            )
        want = _reference_paired(n_seeds, alpha_true, n_obs, prior, biased, master_seed)
        assert got == want
        assert all(type(m) is float for m in got.truthful_means + got.biased_means)


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
            (FeedbackRegime.truthful(), 0.5, 1, DEFAULT_PRIOR),
            (FeedbackRegime.truthful(), 0.3, 6, DEFAULT_PRIOR),
            (FeedbackRegime.biased(), 0.5, 6, DEFAULT_PRIOR),
            (FeedbackRegime.biased(0.5, 3.0), 0.4, 5, DEFAULT_PRIOR),
            (FeedbackRegime.biased(1.0, 3.0), 0.4, 4, DEFAULT_PRIOR),
            (FeedbackRegime.biased(0.2, 1.5), 0.1, 6, BetaPrior(0.3, 7.0)),
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
        truthful = exact_final_mean_and_gap(FeedbackRegime.truthful(), 0.5)
        biased = exact_final_mean_and_gap(FeedbackRegime.biased(), 0.5)
        assert truthful == pytest.approx((62 / 120, 0.03578914726952875), rel=1e-13)
        assert biased == pytest.approx((65 / 120, 0.04854660119493734), rel=1e-13)

    def test_monte_carlo_within_four_standard_errors(self):
        res = run_paired_feedback(master_seed=7)
        for regime, means, gaps in (
            (FeedbackRegime.truthful(), res.truthful_means, res.truthful_gaps),
            (FeedbackRegime.biased(), res.biased_means, res.biased_gaps),
        ):
            for sample, exact in zip((means, gaps), exact_final_mean_and_gap(regime, 0.5)):
                se = np.std(sample, ddof=1) / math.sqrt(len(sample))
                assert abs(np.mean(sample) - exact) < 4 * se

    def test_validation_and_clamp_warning(self):
        with pytest.raises(ValueError):
            exact_final_mean_and_gap(FeedbackRegime.truthful(), 0.5, 0)
        with pytest.raises(ValueError):
            exact_final_mean_and_gap(FeedbackRegime.truthful(), 1.0)
        with pytest.warns(RuntimeWarning, match="clamping"):
            exact_final_mean_and_gap(FeedbackRegime.biased(0.5, 3.0), 0.4)
