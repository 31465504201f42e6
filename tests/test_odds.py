"""Log-space odds on plain floats: the uniform prior, log odds and probability."""

import math

import numpy as np
import pytest

from forensic_bias.odds import log_odds, log_prior_odds, probability

N_CASES = 10_000
TOL = 1e-12


class TestLogPriorOdds:
    def test_sizes(self):
        assert log_prior_odds(1) == 0.0
        assert log_prior_odds(10) == -math.log(10)

    @pytest.mark.parametrize("bad", [0, -3, 2.0, True])
    def test_bad_sizes_rejected(self, bad):
        with pytest.raises(ValueError):
            log_prior_odds(bad)

    def test_uniform_prior_values(self):
        assert math.exp(log_prior_odds(1)) == 1.0
        assert abs(math.exp(log_prior_odds(10)) - 0.1) < TOL
        assert abs(math.exp(log_prior_odds(3)) - 1 / 3) < TOL

    def test_prior_times_n_is_even_odds(self):
        rng = np.random.default_rng(11)
        for n in rng.integers(1, 10_000, size=200):
            recovered = log_prior_odds(int(n)) + math.log(int(n))
            assert abs(recovered) < TOL


class TestPosteriorOdds:
    """Bayes' rule in odds form: posterior log odds = prior log odds + log LR."""

    def test_worked_example(self):
        # A prior probability of 1/11 is odds 0.1; a likelihood ratio of 20
        # takes it to odds 2.
        post = log_odds(1 / 11) + math.log(20.0)
        assert abs(math.exp(post) - 2.0) < TOL

    def test_unit_lr_is_identity(self):
        prior = log_odds(0.37)
        assert prior + math.log(1.0) == prior

    def test_pool_example(self):
        post = log_prior_odds(10) + math.log(2.0)
        assert abs(math.exp(post) - 0.2) < TOL


class TestConversions:
    def test_known_values(self):
        assert probability(0.0) == 0.5
        assert abs(probability(math.log(3.0)) - 0.75) < TOL
        assert log_odds(0.5) == 0.0
        assert abs(math.exp(log_odds(0.75)) - 3.0) < TOL

    def test_hardline_probabilities_rejected(self):
        with pytest.raises(ValueError):
            log_odds(0.0)
        with pytest.raises(ValueError):
            log_odds(1.0)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan"), float("inf")])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            log_odds(bad)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        ps = rng.uniform(1e-12, 1 - 1e-12, size=N_CASES)
        for p in ps:
            back = probability(log_odds(float(p)))
            assert abs(back - p) <= TOL

    def test_extreme_tails_stable(self):
        for value in (-700.0, -100.0, 100.0, 700.0):
            p = probability(value)
            assert 0.0 <= p <= 1.0
