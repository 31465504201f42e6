"""Cascade vs snowball chains and their replicated comparison."""

import math

import numpy as np
import pytest

from forensic_bias.contextual import race_example_delta
from forensic_bias.fingerprints import CellAgreementModel
from forensic_bias.odds import (
    LikelihoodRatio,
    OddsRatio,
    SuspectPool,
    posterior_odds,
    uniform_prior_odds,
)
from forensic_bias.propagation import BiasProfile, ChainMode, monte_carlo_chains
from forensic_bias.seeding import substream

TOL = 1e-12
HEADER = [
    "mode",
    "run_id",
    "analyst_index",
    "neutral_odds",
    "reported_odds",
    "bias_ratio",
    "trait",
    "missing_share",
]
LIVE_TERMS = ("impute", "context", "tilde_peer")
UNIT_TERMS = ("peer", "tilde_impute", "tilde_context")
CASCADE, SNOWBALL = 0, 1  # the mode axis, in ChainMode order


def _rows(study):
    """The results.csv rows as tuples of Python values, run outermost."""
    return list(zip(*(column.ravel().tolist() for column in study.columns.values())))


def _total_log(study):
    """Each report's total log tilt: the sum of its live log terms, in order."""
    total = 0.0
    for name in LIVE_TERMS:
        total = total + study.log_terms[name]
    return total


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
    """Reference: one paired chain, one report and one log term at a time.

    Returns (trait, {mode: [(missing share, neutral odds, reported odds,
    bias ratio, {term label: log value})] per report}), with all six
    terms labelled, unit terms included.
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
            terms = {
                "impute": math.log(profile.impute(share, trait)),
                "context": profile.context(trait),
                "peer": 0.0,
                "tilde_impute": 0.0,
                "tilde_context": 0.0,
                "tilde_peer": math.log(profile.tilde_peer(supportive)) if snowball else 0.0,
            }
            reported_lr = neutral_lr
            for value in terms.values():
                reported_lr = LikelihoodRatio(reported_lr.log_value + value)
            neutral = posterior_odds(prior, neutral_lr)
            reported = posterior_odds(prior, reported_lr)
            reports.append(
                (
                    share,
                    float(np.exp(neutral.log_value)),
                    float(np.exp(reported.log_value)),
                    float(np.exp(reported.log_value - neutral.log_value)),
                    terms,
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
    # log(0.5) + log(2.0) == 0.0 exactly: every mismatching report sits on
    # the supportive threshold, so `>=` against `>` shows.
    "tie": {
        "model": CellAgreementModel(0.75, 0.5),
        "missing_share": 1.0,
        "profile": BiasProfile(1.0, 0.0, None, 1.0),
    },
}


class TestKernelMatchesScalarOracle:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_study_bit_equal(self, case, seed):
        kwargs = ORACLE_CASES[case]
        n_runs = 80
        study = monte_carlo_chains(n_runs, master_seed=seed, **kwargs)
        rows = _rows(study)
        per_run = len(rows) // n_runs
        for run_id in range(n_runs):
            trait, oracle = _oracle_chain(substream(seed, run_id), **kwargs)
            expected = [
                (mode.value, run_id, j, neutral, reported, ratio, trait, share)
                for mode in ChainMode
                for j, (share, neutral, reported, ratio, _) in enumerate(oracle[mode], start=1)
            ]
            got = rows[run_id * per_run : (run_id + 1) * per_run]
            assert got == expected

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_chain_ledgers_bit_equal(self, case, seed):
        kwargs = ORACLE_CASES[case]
        study = monte_carlo_chains(20, master_seed=seed, **kwargs)
        assert tuple(study.log_terms) == LIVE_TERMS
        for run_id in range(20):
            _, oracle = _oracle_chain(substream(seed, run_id), **kwargs)
            for m, mode in enumerate(ChainMode):
                for j, (*_, terms) in enumerate(oracle[mode]):
                    assert all(terms[name] == 0.0 for name in UNIT_TERMS)
                    got = tuple(float(study.log_terms[name][run_id, m, j]) for name in LIVE_TERMS)
                    assert got == tuple(terms[name] for name in LIVE_TERMS)


class TestProfile:
    def test_standard_direct_terms(self):
        profile = BiasProfile.standard(0.15)
        assert profile.impute(0.25, True) == pytest.approx(1.75, abs=TOL)
        assert profile.impute(0.25, False) == pytest.approx(1.25, abs=TOL)
        assert profile.impute(0.0, False) == pytest.approx(1.0, abs=TOL)
        assert math.exp(profile.context(True)) == 2.0
        assert profile.context(False) == race_example_delta(0.15, False)
        assert BiasProfile.unbiased().context(True) == 0.0
        # The direct terms are the same in both modes; peer is no live term.
        study = monte_carlo_chains(1, master_seed=13)
        assert not set(UNIT_TERMS) & set(study.log_terms)
        for name in ("impute", "context"):
            cascade, snowball = study.log_terms[name][0]
            assert cascade.tolist() == snowball.tolist()

    def test_standard_history_terms(self):
        profile = BiasProfile.standard(0.15)
        supportive = sum(1 for v in (2.0, 3.0) if OddsRatio.from_linear(v).log_value >= 0.0)
        assert profile.tilde_peer(supportive) == pytest.approx(3.0, abs=TOL)
        # Only the conformity count is a live history term, and only in snowball.
        study = monte_carlo_chains(1, master_seed=14)
        assert not set(UNIT_TERMS) & set(study.log_terms)
        tilde_peer = study.log_terms["tilde_peer"][0]
        assert tilde_peer[CASCADE].tolist() == [0.0] * 5
        assert tilde_peer[SNOWBALL, 0] == 0.0

    def test_coefficients_validated(self):
        with pytest.raises(ValueError):
            BiasProfile(-1.0, 0.5, 0.15, 1.0)
        with pytest.raises(ValueError):
            BiasProfile(1.0, 0.5, 0.15, float("nan"))

    def test_cascade_delta_product(self):
        # A cascade report's tilt is its direct terms' product, a sum of logs.
        profile = BiasProfile.standard(0.15)
        combined = math.log(profile.impute(0.25, True)) + profile.context(True)
        assert math.exp(combined) == pytest.approx(3.5, abs=TOL)


class TestRunChain:
    """Single paired chains, each a run of a study."""

    def test_report_shape(self):
        study = monte_carlo_chains(1, master_seed=1)
        assert all(column.shape == (1, 2, 5) for column in study.columns.values())
        assert study.columns["analyst_index"][0, SNOWBALL].tolist() == [1, 2, 3, 4, 5]
        assert tuple(study.log_terms) == LIVE_TERMS
        assert all(term.shape == (1, 2, 5) for term in study.log_terms.values())

    def test_unbiased_profile_reports_neutral(self):
        study = monte_carlo_chains(1, master_seed=2, profile=BiasProfile.unbiased())
        columns = study.columns
        assert np.array_equal(columns["reported_odds"], columns["neutral_odds"])
        assert np.allclose(columns["bias_ratio"], 1.0, rtol=0.0, atol=TOL)
        assert all(not term.any() for term in study.log_terms.values())

    def test_ledger_soundness(self):
        study = monte_carlo_chains(1, master_seed=3)
        columns = study.columns
        gap = np.log(columns["reported_odds"]) - np.log(columns["neutral_odds"]) - _total_log(study)
        assert np.abs(gap).max() <= 1e-10

    def test_counterfactual_removal(self):
        # Removing the conformity term from a snowball report leaves exactly
        # the cascade report of the same chain.
        study = monte_carlo_chains(1, master_seed=4)
        total = _total_log(study)[0]
        without_peer = total[SNOWBALL] - study.log_terms["tilde_peer"][0, SNOWBALL]
        assert without_peer == pytest.approx(total[CASCADE], abs=TOL)
        assert np.allclose(np.log(study.columns["bias_ratio"][0, CASCADE]), without_peer, atol=1e-10)

    def test_deflation_when_trait_absent_and_nothing_missing(self):
        # With no missing cells and no trait, the only active tilt is the
        # context term below one: every cascade report is deflated.
        expected = math.exp(race_example_delta(0.15, False))
        study = monte_carlo_chains(40, master_seed=5, missing_share=0.0)
        absent = ~study.columns["trait"][:, CASCADE, 0]
        assert absent.any(), "no trait-absent chain in 40 seeds"
        ratios = study.columns["bias_ratio"][absent, CASCADE]
        assert np.allclose(ratios, expected, rtol=0.0, atol=1e-12)

    def test_pair_sharing_draws(self):
        study = monte_carlo_chains(1, master_seed=6)
        for name in ("trait", "missing_share", "neutral_odds"):
            cascade, snowball = study.columns[name][0]
            assert cascade.tolist() == snowball.tolist()

    def test_k1_pair_bit_identical(self):
        study = monte_carlo_chains(100, master_seed=7, k=1)
        reported = study.columns["reported_odds"]
        assert reported[:, CASCADE].tolist() == reported[:, SNOWBALL].tolist()
        for name, term in study.log_terms.items():
            assert term[:, CASCADE].tolist() == term[:, SNOWBALL].tolist(), name

    def test_snowball_dominates_cascade_pointwise(self):
        ratio = monte_carlo_chains(60, master_seed=8).columns["bias_ratio"]
        assert (ratio[:, SNOWBALL] >= ratio[:, CASCADE] - TOL).all()

    def test_posterior_history_collapses_snowball(self):
        # Raw posterior odds under a 1/10 prior never clear 1 here, so the
        # conformity count stays zero and the modes coincide.
        study = monte_carlo_chains(20, master_seed=9, peer_history="posterior")
        reported = study.columns["reported_odds"]
        assert reported[:, CASCADE].tolist() == reported[:, SNOWBALL].tolist()

    def test_fixed_missing_share_applied(self):
        study = monte_carlo_chains(1, master_seed=10, missing_share=0.2)
        assert (study.columns["missing_share"] == 0.2).all()

    def test_random_missing_share_below_half(self):
        shares = monte_carlo_chains(1, master_seed=11).columns["missing_share"]
        assert ((0.0 <= shares) & (shares < 0.5)).all()

    def test_validation(self):
        for bad in (
            {"k": 0},
            {"trait_prob": 1.5},
            {"missing_share": 2.0},
            {"peer_history": "gossip"},
        ):
            with pytest.raises(ValueError):
                monte_carlo_chains(1, master_seed=12, **bad)


class TestMonteCarlo:
    def test_single_run_matches_pair(self):
        # A one-run study is the paired chain drawn from substream(99, 0),
        # and the same chain is run 0 of a larger study.
        study = monte_carlo_chains(1, master_seed=99)
        _, oracle = _oracle_chain(substream(99, 0))
        ratio = study.columns["bias_ratio"][0]
        assert ratio[CASCADE].tolist() == [r[3] for r in oracle[ChainMode.CASCADE]]
        assert ratio[SNOWBALL].tolist() == [r[3] for r in oracle[ChainMode.SNOWBALL]]
        assert _rows(study) == _rows(monte_carlo_chains(4, master_seed=99))[:10]

    def test_record_layout(self):
        rows = _rows(monte_carlo_chains(8, master_seed=1))
        assert len(rows) == 8 * 5 * 2
        assert {row[0] for row in rows} == {"cascade", "snowball"}
        assert {row[1] for row in rows} == set(range(8))

    def test_columns_keyed_by_record_fields(self):
        study = monte_carlo_chains(3, master_seed=1, k=2)
        assert list(study.columns) == HEADER
        assert all(column.shape == (3, 2, 2) for column in study.columns.values())
        rebuilt = [
            tuple(column[run, mode, i].item() for column in study.columns.values())
            for run in range(3)
            for mode in range(2)
            for i in range(2)
        ]
        assert _rows(study) == rebuilt
        assert [row[0] for row in rebuilt[:4]] == ["cascade"] * 2 + ["snowball"] * 2

    def test_mean_curves_separate(self):
        study = monte_carlo_chains(300, master_seed=42)
        cascade = study.mean_curve(ChainMode.CASCADE)
        snowball = study.mean_curve(ChainMode.SNOWBALL)
        assert snowball[0] == pytest.approx(cascade[0], abs=TOL)
        for i in range(1, 5):
            assert snowball[i] > cascade[i]
        assert all(b >= a - TOL for a, b in zip(snowball, snowball[1:]))

    def test_summary_quantiles_ordered(self):
        summary = monte_carlo_chains(200, master_seed=17).summary
        assert list(summary) == ["mode", "analyst_index", "mean_bias_ratio", "q025", "median", "q975"]
        assert all(column.shape == (2, 5) for column in summary.values())
        assert np.all(summary["q025"] <= summary["median"])
        assert np.all(summary["median"] <= summary["q975"])

    @pytest.mark.parametrize("n_runs", [1, 7, 1000])
    def test_summary_mean_is_mean_of_its_column(self, n_runs):
        study = monte_carlo_chains(n_runs, master_seed=3)
        summary, ratio = study.summary, study.columns["bias_ratio"]
        for mode in (CASCADE, SNOWBALL):
            for i in range(5):
                assert summary["mode"][mode, i] == ("cascade", "snowball")[mode]
                assert summary["analyst_index"][mode, i] == i + 1
                assert summary["mean_bias_ratio"][mode, i] == ratio[:, mode, i].mean()
        assert study.mean_curve(ChainMode.SNOWBALL) == tuple(summary["mean_bias_ratio"][SNOWBALL].tolist())

    def test_validation(self):
        with pytest.raises(ValueError):
            monte_carlo_chains(0, master_seed=0)
