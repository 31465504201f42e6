"""Compounded guilt odds and the systemic bias ratio."""

import math

import numpy as np
import pytest

from forensic_bias.odds import log_prior_odds
from forensic_bias.propagation import ChainParams, monte_carlo_chains
from forensic_bias.trier import case_report

TOL = 1e-12


def _report(lrs, betas=None, n=10, context=1.0):
    """case_report on linear inputs; unit betas when none are given."""
    betas = [1.0] * len(lrs) if betas is None else betas
    return case_report(n, np.log(lrs).tolist(), np.log(betas).tolist(), math.log(context))


def _log(report, key):
    return math.log(report[key])


class TestNeutral:
    def test_worked_example(self):
        assert abs(_report((2.0, 3.0, 5.0))["neutral_guilt_odds"] - 3.0) < TOL

    def test_context_multiplies_in(self):
        assert abs(_report((2.0, 3.0, 5.0), context=2.0)["neutral_guilt_odds"] - 6.0) < TOL

    def test_single_stream_pool_of_one(self):
        assert abs(_report((1.0,), n=1)["neutral_guilt_odds"] - 1.0) < TOL

    def test_empty_bundle_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            case_report(10, [], [])


class TestBiased:
    def test_unit_bias_reproduces_neutral(self):
        report = _report((2.0, 3.0, 5.0), (1.0, 1.0, 1.0))
        assert report["biased_guilt_odds"] == report["neutral_guilt_odds"]

    def test_single_tilt_doubles(self):
        report = _report((2.0, 3.0, 5.0), (2.0, 1.0, 1.0))
        assert abs(report["biased_guilt_odds"] - 6.0) < TOL

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="streams"):
            case_report(10, [math.log(2.0), math.log(3.0)], [math.log(1.5)])

    def test_stream_order_irrelevant(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            lrs = rng.uniform(0.2, 5.0, size=4)
            betas = rng.uniform(0.5, 3.0, size=4)
            order = rng.permutation(4)
            a = _log(_report(lrs, betas), "biased_guilt_odds")
            b = _log(_report(lrs[order], betas[order]), "biased_guilt_odds")
            assert abs(a - b) <= TOL


class TestSystemicRatio:
    def test_equals_product_of_betas(self):
        report = _report((2.0, 3.0, 5.0), (1.5, 1.0, 2.0))
        assert abs(report["systemic_bias_ratio"] - 3.0) < 1e-10

    def test_random_bundles_product_identity(self):
        rng = np.random.default_rng(47)
        for _ in range(1_000):
            n_streams = int(rng.integers(1, 7))
            lrs = rng.uniform(0.1, 10.0, size=n_streams)
            betas = rng.uniform(0.2, 5.0, size=n_streams)
            report = _report(lrs, betas, n=int(rng.integers(1, 50)))
            assert abs(_log(report, "systemic_bias_ratio") - float(np.sum(np.log(betas)))) <= 1e-10

    def test_biases_compound_never_dilute(self):
        # Two inflating streams hurt more than either alone.
        one = _report((2.0, 2.0), (1.5, 1.0))["systemic_bias_ratio"]
        both = _report((2.0, 2.0), (1.5, 1.5))["systemic_bias_ratio"]
        assert both > one > 1.0

    def test_inflation_enlarges_the_convicted_set(self):
        # Any guilt threshold the neutral odds clear, the inflated odds
        # clear too; the converse fails whenever the product exceeds 1.
        rng = np.random.default_rng(53)
        for _ in range(200):
            report = _report(rng.uniform(0.2, 4.0, size=3), rng.uniform(1.0, 3.0, size=3))
            assert _log(report, "biased_guilt_odds") >= _log(report, "neutral_guilt_odds") - TOL


def _snowball_handoff(seed):
    """A one-run chain study and its snowball analysts' log LRs and log
    bias ratios, the trier's streams as they come out of the study."""
    study = monte_carlo_chains(ChainParams(), 1, master_seed=seed)
    prior = log_prior_odds(10)
    row = {name: column[0, 1] for name, column in study.columns.items()}
    log_lrs = [v - prior for v in np.log(row["neutral_odds"]).tolist()]
    return study, row, log_lrs, np.log(row["bias_ratio"]).tolist()


class TestChainHandoff:
    def test_bundle_reproduces_chain_totals(self):
        _, row, log_lrs, log_betas = _snowball_handoff(61)
        assert len(log_lrs) == 5
        prior = log_prior_odds(10)
        # A report's reported odds are its neutral odds times its bias ratio.
        reported = row["neutral_odds"] * row["bias_ratio"]
        expected = prior + sum(v - prior for v in np.log(reported).tolist())
        got = _log(case_report(10, log_lrs, log_betas), "biased_guilt_odds")
        assert abs(got - expected) <= 1e-10

    def test_systemic_ratio_is_product_of_ledger_totals(self):
        # The guilt odds come out exactly prod(bias_ratio) too large, and
        # that product is the sum of every analyst's live log terms.
        study, row, log_lrs, log_betas = _snowball_handoff(67)
        ratio = _log(case_report(10, log_lrs, log_betas), "systemic_bias_ratio")
        assert abs(ratio - math.log(math.prod(row["bias_ratio"].tolist()))) <= 1e-10
        terms = sum(term[0, 1].sum() for term in study.log_terms.values())
        assert abs(ratio - terms) <= 1e-10
        # The study's live log terms serve as the log betas directly.
        live = [sum(term[0, 1, j] for term in study.log_terms.values()) for j in range(5)]
        assert abs(_log(case_report(10, log_lrs, live), "systemic_bias_ratio") - terms) <= 1e-10


class TestCaseReport:
    def test_fields_and_consistency(self):
        report = _report((2.0, 3.0, 5.0), (1.5, 1.0, 2.0))
        assert report["pool_size"] == 10
        assert report["neutral_guilt_odds"] == pytest.approx(3.0, abs=TOL)
        assert report["biased_guilt_odds"] == pytest.approx(9.0, rel=1e-12)
        assert report["systemic_bias_ratio"] == pytest.approx(3.0, rel=1e-10)
        assert report["neutral_guilt_probability"] == pytest.approx(0.75, abs=1e-12)
        assert len(report["streams"]) == 3
        assert report["streams"][0]["reported_lr"] == pytest.approx(3.0, rel=1e-12)

    def test_overflow_checked_in_log_space(self):
        # Each log is finite; only the exp at write would leave float range.
        with pytest.raises(OverflowError, match="a reported LR"):
            case_report(1, [700.0], [10.0])
        with pytest.raises(OverflowError, match="the neutral guilt odds"):
            case_report(1, [700.0, 700.0], [-700.0, -700.0])
