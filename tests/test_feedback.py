"""The conviction feedback loop on a conjugate prevalence belief."""

import warnings

import numpy as np
import pytest

from forensic_bias.feedback import (
    BetaPrior,
    DEFAULT_PRIOR,
    FeedbackKind,
    FeedbackRegime,
    Trajectory,
    conjugate_update,
    convergence_gap,
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
        with pytest.raises(ValueError):
            run_paired_feedback(0, 0.5, 100, master_seed=0)
