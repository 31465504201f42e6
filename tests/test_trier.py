"""Compounded guilt odds and the systemic bias ratio."""

import math

import numpy as np
import pytest

from forensic_bias.contextual import BiasFactor, Provenance
from forensic_bias.odds import LikelihoodRatio, SuspectPool, uniform_prior_odds
from forensic_bias.propagation import ChainMode, run_chain
from forensic_bias.seeding import substream
from forensic_bias.trier import (
    EvidenceBundle,
    StreamBias,
    biased_guilt_odds,
    bundle_from_chain,
    case_report,
    neutral_guilt_odds,
    systemic_bias_ratio,
)

TOL = 1e-12


def _bundle(lrs, n=10, context=1.0):
    return EvidenceBundle(
        pool=SuspectPool(n),
        stream_lrs=tuple(LikelihoodRatio.from_linear(v) for v in lrs),
        context_lr=LikelihoodRatio.from_linear(context),
    )


def _bias(values):
    return StreamBias(tuple(BiasFactor.from_linear(v, Provenance.COMPOSITE) for v in values))


class TestNeutral:
    def test_worked_example(self):
        odds = neutral_guilt_odds(_bundle((2.0, 3.0, 5.0)))
        assert abs(odds.linear - 3.0) < TOL

    def test_context_multiplies_in(self):
        odds = neutral_guilt_odds(_bundle((2.0, 3.0, 5.0), context=2.0))
        assert abs(odds.linear - 6.0) < TOL

    def test_single_stream_pool_of_one(self):
        odds = neutral_guilt_odds(_bundle((1.0,), n=1))
        assert abs(odds.linear - 1.0) < TOL

    def test_empty_bundle_rejected(self):
        with pytest.raises(ValueError):
            EvidenceBundle(SuspectPool(10), ())


class TestBiased:
    def test_unit_bias_reproduces_neutral(self):
        bundle = _bundle((2.0, 3.0, 5.0))
        bias = _bias((1.0, 1.0, 1.0))
        assert biased_guilt_odds(bundle, bias) == neutral_guilt_odds(bundle)

    def test_single_tilt_doubles(self):
        bundle = _bundle((2.0, 3.0, 5.0))
        odds = biased_guilt_odds(bundle, _bias((2.0, 1.0, 1.0)))
        assert abs(odds.linear - 6.0) < TOL

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="streams"):
            biased_guilt_odds(_bundle((2.0, 3.0)), _bias((1.5,)))

    def test_stream_order_irrelevant(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            lrs = rng.uniform(0.2, 5.0, size=4)
            betas = rng.uniform(0.5, 3.0, size=4)
            order = rng.permutation(4)
            a = biased_guilt_odds(_bundle(lrs), _bias(betas))
            b = biased_guilt_odds(_bundle(lrs[order]), _bias(betas[order]))
            assert abs(a.log_value - b.log_value) <= TOL


class TestSystemicRatio:
    def test_equals_product_of_betas(self):
        bundle = _bundle((2.0, 3.0, 5.0))
        ratio = systemic_bias_ratio(bundle, _bias((1.5, 1.0, 2.0)))
        assert ratio.provenance is Provenance.COMPOSITE
        assert abs(ratio.linear - 3.0) < 1e-10

    def test_random_bundles_product_identity(self):
        rng = np.random.default_rng(47)
        for _ in range(1_000):
            n_streams = int(rng.integers(1, 7))
            lrs = rng.uniform(0.1, 10.0, size=n_streams)
            betas = rng.uniform(0.2, 5.0, size=n_streams)
            pool = SuspectPool(int(rng.integers(1, 50)))
            bundle = EvidenceBundle(
                pool, tuple(LikelihoodRatio.from_linear(float(v)) for v in lrs)
            )
            ratio = systemic_bias_ratio(bundle, _bias(betas))
            assert abs(ratio.log_value - float(np.sum(np.log(betas)))) <= 1e-10

    def test_biases_compound_never_dilute(self):
        # Two inflating streams hurt more than either alone.
        bundle = _bundle((2.0, 2.0))
        one = systemic_bias_ratio(bundle, _bias((1.5, 1.0))).linear
        both = systemic_bias_ratio(bundle, _bias((1.5, 1.5))).linear
        assert both > one > 1.0

    def test_inflation_enlarges_the_convicted_set(self):
        # Any guilt threshold the neutral odds clear, the inflated odds
        # clear too; the converse fails whenever the product exceeds 1.
        rng = np.random.default_rng(53)
        for _ in range(200):
            lrs = rng.uniform(0.2, 4.0, size=3)
            betas = rng.uniform(1.0, 3.0, size=3)
            bundle = _bundle(lrs)
            bias = _bias(betas)
            neutral = neutral_guilt_odds(bundle).log_value
            tilted = biased_guilt_odds(bundle, bias).log_value
            assert tilted >= neutral - TOL


class TestChainHandoff:
    def test_bundle_reproduces_chain_totals(self):
        chain = run_chain(ChainMode.SNOWBALL, rng=substream(61))
        bundle, bias = bundle_from_chain(chain)
        assert bundle.n_streams == 5
        expected = uniform_prior_odds(chain.pool).log_value + sum(
            r.reported_lr.log_value for r in chain.reports
        )
        got = biased_guilt_odds(bundle, bias).log_value
        assert abs(got - expected) <= 1e-10

    def test_systemic_ratio_is_product_of_ledger_totals(self):
        chain = run_chain(ChainMode.SNOWBALL, rng=substream(67))
        bundle, bias = bundle_from_chain(chain)
        ratio = systemic_bias_ratio(bundle, bias).log_value
        expected = sum(r.ledger.total_log for r in chain.reports)
        assert abs(ratio - expected) <= 1e-10


class TestCaseReport:
    def test_fields_and_consistency(self):
        bundle = _bundle((2.0, 3.0, 5.0))
        report = case_report(bundle, _bias((1.5, 1.0, 2.0)))
        assert report["pool_size"] == 10
        assert report["neutral_guilt_odds"] == pytest.approx(3.0, abs=TOL)
        assert report["biased_guilt_odds"] == pytest.approx(9.0, rel=1e-12)
        assert report["systemic_bias_ratio"] == pytest.approx(3.0, rel=1e-10)
        assert report["neutral_guilt_probability"] == pytest.approx(0.75, abs=1e-12)
        assert len(report["streams"]) == 3
        assert report["streams"][0]["reported_lr"] == pytest.approx(3.0, rel=1e-12)
