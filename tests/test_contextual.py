"""Bias factors as plain log values and the trait-prevalence tilt."""

import math
from fractions import Fraction

import numpy as np
import pytest

from forensic_bias.contextual import (
    MAYFIELD_DELTAS,
    average_bias,
    delta_contextual,
    mayfield_average,
    race_example_delta,
)

TOL = 1e-12


def exact_log_absent_factor(p):
    """log((1-2p)/(1-p)), p read at its binary value, from the exact Fraction ratio r.

    log r below r = 1/2 and log1p(r - 1) above, each well conditioned there.
    """
    r = (1 - 2 * Fraction(p)) / (1 - Fraction(p))
    return math.log(float(r)) if r < Fraction(1, 2) else math.log1p(float(r - 1))


class TestDeltaContextual:
    def test_doubled_rate_example(self):
        # Believing sources carry a p=0.15 trait at twice its rate doubles
        # the evidence weight when the trait is present.
        assert abs(math.exp(delta_contextual(0.15, 0.15, 0.30, 0.15, True)) - 2.0) < TOL

    def test_matching_belief_is_unit(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            a, b = rng.uniform(0.05, 0.95, size=2).tolist()
            for present in (True, False):
                assert abs(delta_contextual(a, b, a, b, present)) < TOL

    def test_absent_branch_value(self):
        expected = (0.3 / 0.6) * (0.6 / 0.6)
        assert abs(math.exp(delta_contextual(0.4, 0.4, 0.7, 0.4, False)) - expected) < TOL

    def test_monotone_in_believed_source_rate(self):
        last = -math.inf
        for a_star in (0.2, 0.3, 0.4, 0.6, 0.8):
            value = delta_contextual(0.2, 0.2, a_star, 0.2, True)
            assert value > last
            last = value

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3])
    def test_boundary_rates_rejected(self, bad):
        names = ("alpha", "beta", "alpha_star", "beta_star")
        for i, name in enumerate(names):
            rates = [0.5] * 4
            rates[i] = bad
            with pytest.raises(ValueError, match=f"^{name} must lie"):
                delta_contextual(*rates, True)


class TestRaceExampleDelta:
    def test_present_is_exactly_two(self):
        assert race_example_delta(0.15, True) == math.log(2.0)
        assert math.exp(race_example_delta(0.49, True)) == 2.0

    def test_absent_value(self):
        expected = 2.0 - 1.0 / 0.85
        assert abs(math.exp(race_example_delta(0.15, False)) - expected) < TOL
        assert race_example_delta(0.15, False) < 0.0  # an absent trait deflates

    def test_rate_at_or_above_half_rejected(self):
        for bad in (0.5, 0.7):
            with pytest.raises(ValueError):
                race_example_delta(bad, True)
        # An ulp below 0.5, where 2 - 1/(1-p) rounds to 0, the factor is exact.
        p = math.nextafter(0.5, 0.0)
        assert race_example_delta(p, False) == exact_log_absent_factor(p)
        assert race_example_delta(p, False) == pytest.approx(-36.04365338911715, rel=1e-15)

    @pytest.mark.parametrize("p", [1e-300, 0.01, 0.15, 0.3, 0.4999999, 0.49999999999, math.nextafter(0.5, 0.0)])
    def test_absent_factor_against_fractions(self, p):
        # The log of the exact factor (1-2p)/(1-p), p read at its binary value,
        # within two ulps: near p = 1/2 the form 2 - 1/(1-p) was off by 7e-10.
        want = exact_log_absent_factor(p)
        got = race_example_delta(p, False)
        assert abs(got - want) <= 2 * math.ulp(want)

    def test_consistency_with_general_delta(self):
        # Doubling the believed source-side rate of an uninformative trait
        # is the special case the closed form collapses.
        for p in np.linspace(0.05, 0.45, 9).tolist():
            for present in (True, False):
                general = delta_contextual(p, p, 2 * p, p, present)
                assert abs(general - race_example_delta(p, present)) < TOL


class TestAverageBias:
    def test_panel_mean_exact(self):
        assert mayfield_average() == 1.7
        assert MAYFIELD_DELTAS == (2.0, 2.0, 2.0, 1.5, 1.0)

    def test_simple_means(self):
        assert abs(average_bias((3.0, 1.0)) - 2.0) < TOL
        assert abs(average_bias([1.0] * 4) - 1.0) < TOL

    def test_geometric_mean(self):
        assert abs(average_bias((2.0, 8.0), geometric=True) - 4.0) < TOL

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_bias(())

    @pytest.mark.parametrize("bad", [0.0, -2.0, float("inf"), float("nan")])
    def test_nonpositive_rejected(self, bad):
        for geometric in (False, True):
            with pytest.raises(ValueError, match="positive and finite"):
                average_bias((1.5, bad), geometric=geometric)

    def test_mean_between_extremes(self):
        rng = np.random.default_rng(29)
        for _ in range(500):
            values = rng.uniform(0.2, 5.0, size=6)
            mean = average_bias(values.tolist())
            assert values.min() - TOL <= mean <= values.max() + TOL
