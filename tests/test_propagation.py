"""Cascade vs snowball chains and their replicated comparison."""

from dataclasses import astuple, fields

import numpy as np
import pytest

from forensic_bias.contextual import (
    BiasFactor,
    BiasLedger,
    Provenance,
    apply_bias,
    compose_bias,
    race_example_delta,
)
from forensic_bias.fingerprints import CellAgreementModel
from forensic_bias.odds import (
    LikelihoodRatio,
    OddsRatio,
    SuspectPool,
    posterior_odds,
    uniform_prior_odds,
)
from forensic_bias.propagation import (
    BiasProfile,
    ChainMode,
    ChainRecord,
    monte_carlo_chains,
    run_chain,
    run_chain_pair,
    tilde_peer_count,
)
from forensic_bias.seeding import substream

TOL = 1e-12


def _oracle_chain(
    rng,
    *,
    k=5,
    pool=SuspectPool(10),
    trait_prob=0.15,
    model=CellAgreementModel(),
    profile=None,
    same_source=True,
    missing_share=None,
    peer_history="contribution",
):
    """Reference: one paired chain, one report and one ledger entry at a time.

    Returns (trait, {mode: [(missing share, neutral odds, reported odds,
    bias ratio, ledger log-values)] per report}).
    """
    if profile is None:
        profile = BiasProfile.standard(trait_prob)
    trait = bool(rng.random() < trait_prob)
    if missing_share is None:
        shares = tuple(float(s) for s in rng.random(k) * 0.5)
    else:
        shares = (float(missing_share),) * k
    p_agree = model.p_same if same_source else model.p_diff
    matches = tuple(bool(m) for m in (rng.random(k) < p_agree))

    prior = uniform_prior_odds(pool)
    lr_match = LikelihoodRatio.from_linear(model.p_same / model.p_diff)
    lr_mismatch = LikelihoodRatio.from_linear((1.0 - model.p_same) / (1.0 - model.p_diff))
    out = {}
    for mode in ChainMode:
        snowball = mode is ChainMode.SNOWBALL
        history = ()
        reports = []
        for match, share in zip(matches, shares):
            neutral_lr = lr_match if match else lr_mismatch
            supportive = sum(1 for h in history if h.log_value >= 0.0)
            factors = (
                ("impute", BiasFactor.from_linear(profile.impute(share, trait), Provenance.IMPUTE)),
                ("context", profile.context(trait)),
                ("peer", BiasFactor.unit(Provenance.PEER)),
                ("tilde_impute", BiasFactor.unit(Provenance.IMPUTE)),
                ("tilde_context", BiasFactor.unit(Provenance.CONTEXTUAL)),
                (
                    "tilde_peer",
                    BiasFactor.from_linear(profile.tilde_peer(supportive), Provenance.PEER)
                    if snowball
                    else BiasFactor.unit(Provenance.PEER),
                ),
            )
            ledger = BiasLedger()
            reported_lr = neutral_lr
            for label, factor in factors:
                ledger = ledger.add(label, factor)
                reported_lr = apply_bias(reported_lr, factor)
            neutral = posterior_odds(prior, neutral_lr)
            reported = posterior_odds(prior, reported_lr)
            reports.append(
                (
                    share,
                    float(np.exp(neutral.log_value)),
                    float(np.exp(reported.log_value)),
                    float(np.exp(reported.log_value - neutral.log_value)),
                    tuple(e.factor.log_value for e in ledger.entries),
                )
            )
            if peer_history == "contribution":
                history = history + (OddsRatio(reported_lr.log_value),)
            else:
                history = history + (reported,)
        out[mode] = reports
    return trait, out


ORACLE_CASES = {
    "defaults": {},
    "posterior-history": {"peer_history": "posterior"},
    "fixed-share": {"missing_share": 0.2},
    "different-source": {"same_source": False},
    "k1": {"k": 1},
    "k12-pool1": {"k": 12, "pool": SuspectPool(1)},
    "unbiased": {"profile": BiasProfile.unbiased()},
}


class TestKernelMatchesScalarOracle:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_study_bit_equal(self, case, seed):
        kwargs = ORACLE_CASES[case]
        n_runs = 80
        study = monte_carlo_chains(n_runs, master_seed=seed, **kwargs)
        records = study.records
        per_run = len(records) // n_runs
        for run_id in range(n_runs):
            trait, oracle = _oracle_chain(substream(seed, run_id), **kwargs)
            expected = [
                (mode.value, run_id, j, neutral, reported, ratio, trait, share)
                for mode in ChainMode
                for j, (share, neutral, reported, ratio, _) in enumerate(oracle[mode], start=1)
            ]
            got = [astuple(r) for r in records[run_id * per_run : (run_id + 1) * per_run]]
            assert got == expected

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_chain_ledgers_bit_equal(self, case, seed):
        kwargs = ORACLE_CASES[case]
        for run_id in range(20):
            pair = run_chain_pair(rng=substream(seed, run_id), **kwargs)
            trait, oracle = _oracle_chain(substream(seed, run_id), **kwargs)
            for chain in pair:
                assert chain.trait == trait
                got = [
                    (
                        r.missing_share,
                        float(np.exp(r.neutral_odds.log_value)),
                        float(np.exp(r.reported_odds.log_value)),
                        r.bias_ratio,
                        tuple(e.factor.log_value for e in r.ledger.entries),
                    )
                    for r in chain.reports
                ]
                assert got == oracle[chain.mode]


class TestTildePeer:
    def test_empty_history_is_unit(self):
        assert tilde_peer_count(()).linear == 1.0

    def test_counts_supportive_reports(self):
        history = tuple(OddsRatio.from_linear(v) for v in (2.0, 0.5, 3.0))
        assert tilde_peer_count(history).linear == pytest.approx(3.0, abs=TOL)

    def test_even_odds_count_as_supportive(self):
        history = (OddsRatio.from_linear(1.0),)
        assert tilde_peer_count(history).linear == pytest.approx(2.0, abs=TOL)

    def test_all_supportive(self):
        history = tuple(OddsRatio.from_linear(v) for v in (1.5, 2.0, 9.0, 1.0, 4.0))
        assert tilde_peer_count(history).linear == pytest.approx(6.0, abs=TOL)


class TestProfile:
    def test_standard_direct_terms(self):
        profile = BiasProfile.standard(0.15)
        assert profile.impute(0.25, True) == pytest.approx(1.75, abs=TOL)
        assert profile.impute(0.25, False) == pytest.approx(1.25, abs=TOL)
        assert profile.impute(0.0, False) == pytest.approx(1.0, abs=TOL)
        assert profile.context(True).linear == 2.0
        assert profile.context(False).linear == pytest.approx(
            race_example_delta(0.15, False).linear, abs=TOL
        )
        chain = run_chain(ChainMode.SNOWBALL, rng=substream(13))
        assert all(r.ledger["peer"].log_value == 0.0 for r in chain.reports)

    def test_standard_history_terms(self):
        profile = BiasProfile.standard(0.15)
        supportive = sum(1 for v in (2.0, 3.0) if OddsRatio.from_linear(v).log_value >= 0.0)
        assert profile.tilde_peer(supportive) == pytest.approx(3.0, abs=TOL)
        chain = run_chain(ChainMode.SNOWBALL, rng=substream(14))
        for r in chain.reports:
            assert r.ledger["tilde_impute"].log_value == 0.0
            assert r.ledger["tilde_context"].log_value == 0.0

    def test_coefficients_validated(self):
        with pytest.raises(ValueError):
            BiasProfile(-1.0, 0.5, 0.15, 1.0)
        with pytest.raises(ValueError):
            BiasProfile(1.0, 0.5, 0.15, float("nan"))

    def test_cascade_delta_product(self):
        combined = compose_bias(
            (
                BiasFactor.from_linear(1.75, Provenance.IMPUTE),
                BiasFactor.from_linear(2.0, Provenance.CONTEXTUAL),
            ),
            Provenance.CASCADE,
        )
        assert combined.provenance is Provenance.CASCADE
        assert combined.linear == pytest.approx(3.5, abs=TOL)


class TestRunChain:
    def test_report_shape(self):
        chain = run_chain(ChainMode.SNOWBALL, rng=substream(1))
        assert len(chain.reports) == 5
        assert [r.index for r in chain.reports] == [1, 2, 3, 4, 5]
        for r in chain.reports:
            assert r.ledger.labels == (
                "impute",
                "context",
                "peer",
                "tilde_impute",
                "tilde_context",
                "tilde_peer",
            )

    def test_unbiased_profile_reports_neutral(self):
        chain = run_chain(
            ChainMode.SNOWBALL, profile=BiasProfile.unbiased(), rng=substream(2)
        )
        for r in chain.reports:
            assert r.reported_odds == r.neutral_odds
            assert r.bias_ratio == pytest.approx(1.0, abs=TOL)

    def test_ledger_soundness(self):
        _, chain = run_chain_pair(rng=substream(3))
        for r in chain.reports:
            gap = (r.reported_lr.log_value - r.neutral_lr.log_value) - r.ledger.total_log
            assert abs(gap) <= 1e-10

    def test_counterfactual_removal(self):
        _, chain = run_chain_pair(rng=substream(4))
        r = chain.reports[-1]
        without_peer = r.ledger.without("tilde_peer").total_log
        explained = r.ledger.total_log - r.ledger["tilde_peer"].log_value
        assert without_peer == pytest.approx(explained, abs=TOL)

    def test_deflation_when_trait_absent_and_nothing_missing(self):
        # With no missing cells and no trait, the only active tilt is the
        # context term below one: every cascade report is deflated.
        expected = race_example_delta(0.15, False).linear
        for i in range(40):
            chain = run_chain(
                ChainMode.CASCADE, missing_share=0.0, rng=substream(5, i)
            )
            if not chain.trait:
                for r in chain.reports:
                    assert r.bias_ratio == pytest.approx(expected, abs=1e-12)
                break
        else:
            pytest.fail("no trait-absent chain in 40 seeds")

    def test_pair_sharing_draws(self):
        cascade, snowball = run_chain_pair(rng=substream(6))
        assert cascade.trait == snowball.trait
        for a, b in zip(cascade.reports, snowball.reports):
            assert a.match == b.match
            assert a.missing_share == b.missing_share
            assert a.neutral_odds == b.neutral_odds

    def test_k1_pair_bit_identical(self):
        for i in range(100):
            cascade, snowball = run_chain_pair(k=1, rng=substream(7, i))
            assert cascade.reports[0].reported_odds == snowball.reports[0].reported_odds
            assert cascade.reports[0].ledger == snowball.reports[0].ledger

    def test_snowball_dominates_cascade_pointwise(self):
        for i in range(60):
            cascade, snowball = run_chain_pair(rng=substream(8, i))
            for a, b in zip(cascade.reports, snowball.reports):
                assert b.bias_ratio >= a.bias_ratio - TOL

    def test_posterior_history_collapses_snowball(self):
        # Raw posterior odds under a 1/10 prior never clear 1 here, so the
        # conformity count stays zero and the modes coincide.
        for i in range(20):
            cascade, snowball = run_chain_pair(
                peer_history="posterior", rng=substream(9, i)
            )
            for a, b in zip(cascade.reports, snowball.reports):
                assert a.reported_odds == b.reported_odds

    def test_fixed_missing_share_applied(self):
        chain = run_chain(ChainMode.CASCADE, missing_share=0.2, rng=substream(10))
        assert all(r.missing_share == 0.2 for r in chain.reports)

    def test_random_missing_share_below_half(self):
        chain = run_chain(ChainMode.CASCADE, rng=substream(11))
        assert all(0.0 <= r.missing_share < 0.5 for r in chain.reports)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_chain(ChainMode.CASCADE, k=0, rng=substream(12))
        with pytest.raises(ValueError):
            run_chain(ChainMode.CASCADE, trait_prob=1.5, rng=substream(12))
        with pytest.raises(ValueError):
            run_chain(ChainMode.CASCADE, missing_share=2.0, rng=substream(12))
        with pytest.raises(ValueError):
            run_chain(ChainMode.CASCADE, peer_history="gossip", rng=substream(12))


class TestMonteCarlo:
    def test_single_run_matches_pair(self):
        study = monte_carlo_chains(1, master_seed=99)
        cascade, snowball = run_chain_pair(rng=substream(99, 0))
        cas_records = study.records_for(ChainMode.CASCADE)
        assert [r.bias_ratio for r in cas_records] == [r.bias_ratio for r in cascade.reports]
        snow_records = study.records_for(ChainMode.SNOWBALL)
        assert [r.bias_ratio for r in snow_records] == [r.bias_ratio for r in snowball.reports]

    def test_record_layout(self):
        study = monte_carlo_chains(8, master_seed=1)
        assert len(study.records) == 8 * 5 * 2
        assert {r.mode for r in study.records} == {"cascade", "snowball"}
        assert {r.run_id for r in study.records} == set(range(8))

    def test_columns_keyed_by_record_fields(self):
        study = monte_carlo_chains(3, master_seed=1, k=2)
        assert list(study.columns) == [f.name for f in fields(ChainRecord)]
        assert all(column.shape == (3, 2, 2) for column in study.columns.values())
        rebuilt = tuple(
            ChainRecord(*(column[run, mode, i].item() for column in study.columns.values()))
            for run in range(3)
            for mode in range(2)
            for i in range(2)
        )
        assert study.records == rebuilt

    def test_mean_curves_separate(self):
        study = monte_carlo_chains(300, master_seed=42)
        cascade = study.mean_curve(ChainMode.CASCADE)
        snowball = study.mean_curve(ChainMode.SNOWBALL)
        assert snowball[0] == pytest.approx(cascade[0], abs=TOL)
        for i in range(1, 5):
            assert snowball[i] > cascade[i]
        assert all(b >= a - TOL for a, b in zip(snowball, snowball[1:]))

    def test_summary_quantiles_ordered(self):
        study = monte_carlo_chains(200, master_seed=17)
        for s in study.summaries:
            assert s.q025 <= s.median <= s.q975

    def test_validation(self):
        with pytest.raises(ValueError):
            monte_carlo_chains(0, master_seed=0)
