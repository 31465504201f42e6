"""Cascade vs snowball chains and their replicated comparison."""

import csv
import math

import numpy as np
import pytest

from forensic_bias.cli import main
from forensic_bias.contextual import race_example_delta
from forensic_bias.fingerprints import CellAgreementModel
from forensic_bias.propagation import BiasProfile, ChainMode, ChainParams, monte_carlo_chains
from forensic_bias.seeding import substream

TOL = 1e-12
HEADER = [
    "mode",
    "run_id",
    "analyst_index",
    "neutral_odds",
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


def _oracle_chain(rng, chain):
    """Reference: one paired chain, one report and one log term at a time.

    Reads only the record's fields, not its derived constants, and takes
    each term from the profile's coefficients.  Returns (trait, {mode:
    [(missing share, neutral odds, bias ratio, {term label: log value})]
    per report}), with all six terms labelled, unit terms included.  The
    bias ratio is derived from the reported log odds, as the kernel
    derives it.
    """
    k, model, profile = chain.k, chain.model, chain.profile
    trait = bool(rng.random() < chain.trait_prob)
    if chain.missing_share is None:
        shares = tuple(float(s) for s in rng.random(k) * 0.5)
    else:
        shares = (float(chain.missing_share),) * k
    p_agree = model.p_same if chain.same_source else model.p_diff
    matches = tuple(bool(m) for m in (rng.random(k) < p_agree))

    prior = -math.log(chain.pool_n)
    lr_match = math.log(model.p_same / model.p_diff)
    lr_mismatch = math.log((1.0 - model.p_same) / (1.0 - model.p_diff))
    context = race_example_delta(chain.trait_prob, trait) if profile.context else 0.0
    out = {}
    for mode in ChainMode:
        snowball = mode is ChainMode.SNOWBALL
        history = ()
        reports = []
        for match, share in zip(matches, shares):
            neutral_lr = lr_match if match else lr_mismatch
            supportive = sum(1 for h in history if h >= 0.0)
            terms = {
                "impute": math.log(1.0 + profile.impute_share * share + profile.impute_trait * trait),
                "context": context,
                "peer": 0.0,
                "tilde_impute": 0.0,
                "tilde_context": 0.0,
                "tilde_peer": math.log(1.0 + profile.conformity * supportive) if snowball else 0.0,
            }
            reported_lr = neutral_lr
            for value in terms.values():
                reported_lr = reported_lr + value
            neutral = prior + neutral_lr
            reported = prior + reported_lr
            reports.append(
                (
                    share,
                    float(np.exp(neutral)),
                    float(np.exp(reported - neutral)),
                    terms,
                )
            )
            history = history + (reported_lr if chain.peer_history == "contribution" else reported,)
        out[mode] = reports
    return trait, out


ORACLE_CASES = {
    "defaults": {},
    "posterior-history": {"peer_history": "posterior"},
    "fixed-share": {"missing_share": 0.2},
    "different-source": {"same_source": False},
    "k1": {"k": 1},
    "k12-pool1": {"k": 12, "pool_n": 1},
    "unbiased": {"profile": BiasProfile(0.0, 0.0, False, 0.0)},
    # log(0.5) + log(2.0) == 0.0 exactly: every mismatching report sits on
    # the supportive threshold, so `>=` against `>` shows.
    "tie": {
        "model": CellAgreementModel(0.75, 0.5),
        "missing_share": 1.0,
        "profile": BiasProfile(1.0, 0.0, False, 1.0),
    },
}


class TestKernelMatchesScalarOracle:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_study_bit_equal(self, case, seed):
        chain = ChainParams(**ORACLE_CASES[case])
        n_runs = 80
        study = monte_carlo_chains(chain, n_runs, master_seed=seed)
        rows = _rows(study)
        per_run = len(rows) // n_runs
        for run_id in range(n_runs):
            trait, oracle = _oracle_chain(substream(seed, run_id), chain)
            expected = [
                (mode.value, run_id, j, neutral, ratio, trait, share)
                for mode in ChainMode
                for j, (share, neutral, ratio, _) in enumerate(oracle[mode], start=1)
            ]
            got = rows[run_id * per_run : (run_id + 1) * per_run]
            assert got == expected

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_chain_ledgers_bit_equal(self, case, seed):
        chain = ChainParams(**ORACLE_CASES[case])
        study = monte_carlo_chains(chain, 20, master_seed=seed)
        assert tuple(study.log_terms) == LIVE_TERMS
        for run_id in range(20):
            _, oracle = _oracle_chain(substream(seed, run_id), chain)
            for m, mode in enumerate(ChainMode):
                for j, (*_, terms) in enumerate(oracle[mode]):
                    assert all(terms[name] == 0.0 for name in UNIT_TERMS)
                    got = tuple(float(study.log_terms[name][run_id, m, j]) for name in LIVE_TERMS)
                    assert got == tuple(terms[name] for name in LIVE_TERMS)


class TestProfile:
    def test_defaults_are_the_chain_profile(self):
        assert BiasProfile() == BiasProfile(1.0, 0.5, True, 1.0)
        assert ChainParams().profile == BiasProfile()

    def test_standard_direct_terms(self):
        chain = ChainParams(trait_prob=0.15)
        assert chain.impute_trait_term == (0.0, 0.5)
        assert math.exp(chain.log_context[True]) == 2.0
        assert chain.log_context[False] == race_example_delta(0.15, False)
        assert ChainParams(profile=BiasProfile(0.0, 0.0, False, 0.0)).log_context == (0.0, 0.0)
        # The direct terms are the same in both modes; peer is no live term.
        study = monte_carlo_chains(chain, 1, master_seed=13)
        assert not set(UNIT_TERMS) & set(study.log_terms)
        for name in ("impute", "context"):
            cascade, snowball = study.log_terms[name][0]
            assert cascade.tolist() == snowball.tolist()

    def test_standard_history_terms(self):
        chain = ChainParams()
        supportive = sum(1 for v in (2.0, 3.0) if math.log(v) >= 0.0)
        assert math.exp(chain.log_tilde_peer[supportive]) == pytest.approx(3.0, abs=TOL)
        assert chain.log_tilde_peer == tuple(math.log(1.0 + c) for c in range(5))
        # Only the conformity count is a live history term, and only in snowball.
        study = monte_carlo_chains(chain, 1, master_seed=14)
        assert not set(UNIT_TERMS) & set(study.log_terms)
        tilde_peer = study.log_terms["tilde_peer"][0]
        assert tilde_peer[CASCADE].tolist() == [0.0] * 5
        assert tilde_peer[SNOWBALL, 0] == 0.0

    def test_coefficients_validated(self):
        with pytest.raises(ValueError):
            BiasProfile(-1.0, 0.5, True, 1.0)
        with pytest.raises(ValueError):
            BiasProfile(1.0, 0.5, True, float("nan"))

    @pytest.mark.parametrize("context", [0.15, 1, "false", None])
    def test_context_must_be_a_bool(self, context):
        # Read by truthiness, 0.15 would turn the context term on.
        with pytest.raises(ValueError, match="^BiasProfile.context must be a bool"):
            BiasProfile(context=context)

    def test_cascade_delta_product(self):
        # A cascade report's tilt is its direct terms' product, a sum of logs.
        chain = ChainParams(trait_prob=0.15)
        combined = math.log(1.0 + 0.25 + chain.impute_trait_term[True]) + chain.log_context[True]
        assert math.exp(combined) == pytest.approx(3.5, abs=TOL)


class TestChainParams:
    """Every chain field is checked when the record is built, before any draw."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("k", 0),
            ("k", 2.0),
            ("k", True),
            ("trait_prob", 1.5),
            ("trait_prob", 0.7),
            ("trait_prob", 0.0),
            ("missing_share", 2.0),
            ("missing_share", True),
            ("peer_history", "gossip"),
            ("pool_n", 0),
            ("pool_n", True),
            # Read by truthiness, "false" would run a same-source chain.
            ("same_source", "false"),
            ("same_source", 1),
        ],
    )
    def test_bad_field_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            ChainParams(**{field: value})

    def test_trait_prob_free_with_context_off(self):
        # Without the context term trait_prob is only the trait's rate.
        off = BiasProfile(context=False)
        for p in (0.0, 0.5, 0.7, 1.0):
            assert ChainParams(trait_prob=p, profile=off).log_context == (0.0, 0.0)
        with pytest.raises(ValueError, match="^trait_prob must lie in"):
            ChainParams(trait_prob=1.5, profile=off)

    def test_match_ratio_overflow(self):
        with pytest.raises(OverflowError, match="p_same/p_diff"):
            ChainParams(model=CellAgreementModel(0.5, 5e-324))

    @pytest.mark.parametrize("n_runs", [0, 3.0, True, float(2**62)])
    def test_bad_n_runs_named(self, n_runs):
        # Refused before any draw: numpy would refuse 2**62 runs' uniforms
        # with a message of its own.
        with pytest.raises(ValueError, match="^n_runs must be an int >= 1"):
            monte_carlo_chains(ChainParams(), n_runs, master_seed=12)

    def test_constants(self):
        chain = ChainParams(k=3, pool_n=7, model=CellAgreementModel(0.6, 0.2))
        assert chain.log_prior == -math.log(7)
        assert chain.lr_match == math.log(0.6 / 0.2)
        assert chain.lr_mismatch == math.log(0.4 / 0.8)
        assert len(chain.log_tilde_peer) == 3
        with pytest.raises(TypeError):
            ChainParams(lr_match=0.0)


class TestRunChain:
    """Single paired chains, each a run of a study."""

    def test_report_shape(self):
        study = monte_carlo_chains(ChainParams(), 1, master_seed=1)
        assert all(column.shape == (1, 2, 5) for column in study.columns.values())
        assert study.columns["analyst_index"][0, SNOWBALL].tolist() == [1, 2, 3, 4, 5]
        assert tuple(study.log_terms) == LIVE_TERMS
        assert all(term.shape == (1, 2, 5) for term in study.log_terms.values())

    def test_unbiased_profile_reports_neutral(self):
        study = monte_carlo_chains(ChainParams(profile=BiasProfile(0.0, 0.0, False, 0.0)), 1, master_seed=2)
        # Every log term is zero, so the reported log odds equal the neutral
        # ones bit for bit and each ratio is exp(0.0).
        assert (study.columns["bias_ratio"] == 1.0).all()
        assert all(not term.any() for term in study.log_terms.values())

    def test_ledger_soundness(self):
        study = monte_carlo_chains(ChainParams(), 1, master_seed=3)
        gap = np.log(study.columns["bias_ratio"]) - _total_log(study)
        assert np.abs(gap).max() <= 1e-10

    def test_counterfactual_removal(self):
        # Removing the conformity term from a snowball report leaves exactly
        # the cascade report of the same chain.
        study = monte_carlo_chains(ChainParams(), 1, master_seed=4)
        total = _total_log(study)[0]
        without_peer = total[SNOWBALL] - study.log_terms["tilde_peer"][0, SNOWBALL]
        assert without_peer == pytest.approx(total[CASCADE], abs=TOL)
        assert np.allclose(np.log(study.columns["bias_ratio"][0, CASCADE]), without_peer, atol=1e-10)

    def test_deflation_when_trait_absent_and_nothing_missing(self):
        # With no missing cells and no trait, the only active tilt is the
        # context term below one: every cascade report is deflated.
        expected = math.exp(race_example_delta(0.15, False))
        study = monte_carlo_chains(ChainParams(missing_share=0.0), 40, master_seed=5)
        absent = ~study.columns["trait"][:, CASCADE, 0]
        assert absent.any(), "no trait-absent chain in 40 seeds"
        ratios = study.columns["bias_ratio"][absent, CASCADE]
        assert np.allclose(ratios, expected, rtol=0.0, atol=1e-12)

    def test_pair_sharing_draws(self):
        study = monte_carlo_chains(ChainParams(), 1, master_seed=6)
        for name in ("trait", "missing_share", "neutral_odds"):
            cascade, snowball = study.columns[name][0]
            assert cascade.tolist() == snowball.tolist()

    def test_k1_pair_bit_identical(self):
        study = monte_carlo_chains(ChainParams(k=1), 100, master_seed=7)
        ratio = study.columns["bias_ratio"]
        assert ratio[:, CASCADE].tolist() == ratio[:, SNOWBALL].tolist()
        for name, term in study.log_terms.items():
            assert term[:, CASCADE].tolist() == term[:, SNOWBALL].tolist(), name

    def test_snowball_dominates_cascade_pointwise(self):
        ratio = monte_carlo_chains(ChainParams(), 60, master_seed=8).columns["bias_ratio"]
        assert (ratio[:, SNOWBALL] >= ratio[:, CASCADE] - TOL).all()

    def test_posterior_history_collapses_snowball(self):
        # Raw posterior odds under a 1/10 prior never clear 1 here, so the
        # conformity count stays zero and the modes coincide.
        study = monte_carlo_chains(ChainParams(peer_history="posterior"), 20, master_seed=9)
        ratio = study.columns["bias_ratio"]
        assert ratio[:, CASCADE].tolist() == ratio[:, SNOWBALL].tolist()

    def test_fixed_missing_share_applied(self):
        study = monte_carlo_chains(ChainParams(missing_share=0.2), 1, master_seed=10)
        assert (study.columns["missing_share"] == 0.2).all()

    def test_random_missing_share_below_half(self):
        shares = monte_carlo_chains(ChainParams(), 1, master_seed=11).columns["missing_share"]
        assert ((0.0 <= shares) & (shares < 0.5)).all()


class TestMonteCarlo:
    def test_single_run_matches_pair(self):
        # A one-run study is the paired chain drawn from substream(99, 0),
        # and the same chain is run 0 of a larger study.
        study = monte_carlo_chains(ChainParams(), 1, master_seed=99)
        _, oracle = _oracle_chain(substream(99, 0), ChainParams())
        ratio = study.columns["bias_ratio"][0]
        assert ratio[CASCADE].tolist() == [r[2] for r in oracle[ChainMode.CASCADE]]
        assert ratio[SNOWBALL].tolist() == [r[2] for r in oracle[ChainMode.SNOWBALL]]
        assert _rows(study) == _rows(monte_carlo_chains(ChainParams(), 4, master_seed=99))[:10]

    def test_runs_are_a_prefix_of_a_larger_study(self):
        # k = 40 draws m = 81 uniforms a run, so a block of the batched
        # draw is 101 rows and both studies cross a block edge.
        chain = ChainParams(k=40)
        small = monte_carlo_chains(chain, 120, master_seed=5)
        large = monte_carlo_chains(chain, 250, master_seed=5)
        for got, want in [(small.columns, large.columns), (small.log_terms, large.log_terms)]:
            assert list(got) == list(want)
            for name in got:
                a, b = got[name], want[name][:120]
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes(), name

    def test_impute_logs_are_scalar_math_log(self):
        # np.log can differ from math.log in the last bit (on 16 of these
        # 5,000 values with numpy 2.4.6 on x86-64), which would break
        # bit-equality with a chain evaluated one report at a time.
        study = monte_carlo_chains(ChainParams(), 1000, master_seed=7)
        shares = study.columns["missing_share"][:, 0].ravel().tolist()
        traits = study.columns["trait"][:, 0].ravel().tolist()
        want = np.array([math.log(1.0 + 1.0 * s + 0.5 * t) for s, t in zip(shares, traits)])
        got = study.log_terms["impute"][:, 0].ravel()
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_record_layout(self):
        rows = _rows(monte_carlo_chains(ChainParams(), 8, master_seed=1))
        assert len(rows) == 8 * 5 * 2
        assert {row[0] for row in rows} == {"cascade", "snowball"}
        assert {row[1] for row in rows} == set(range(8))

    def test_columns_keyed_by_record_fields(self):
        study = monte_carlo_chains(ChainParams(k=2), 3, master_seed=1)
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

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_reported_odds_are_neutral_times_ratio(self, case):
        # results.csv writes no reported odds: a reader takes them as
        # neutral_odds * bias_ratio, which is exp(prior + neutral_lr + the
        # live log terms) up to the last bits.
        chain = ChainParams(**ORACLE_CASES[case])
        study = monte_carlo_chains(chain, 1000, master_seed=7)
        model = chain.model
        prior = -math.log(chain.pool_n)
        lr_match = math.log(model.p_same / model.p_diff)
        lr_mismatch = math.log((1.0 - model.p_same) / (1.0 - model.p_diff))
        # A match lifts the neutral odds above the prior, a mismatch lowers them.
        assert lr_mismatch < 0.0 < lr_match
        neutral = study.columns["neutral_odds"]
        reported_lr = np.where(neutral > math.exp(prior), lr_match, lr_mismatch)
        for name in LIVE_TERMS:
            reported_lr = reported_lr + study.log_terms[name]
        want = np.exp(prior + reported_lr)
        got = neutral * study.columns["bias_ratio"]
        assert np.abs(got / want - 1.0).max() <= 1e-15

    def test_results_csv_header(self, tmp_path):
        out = tmp_path / "run"
        assert main(["run", "--preset", "propagation", "--seed", "7", "--set", "n_runs=2", "--out", str(out)]) == 0
        with (out / "results.csv").open(encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == HEADER
        assert len(rows) == 1 + 2 * 2 * 5

    def test_mean_curves_separate(self):
        study = monte_carlo_chains(ChainParams(), 300, master_seed=42)
        cascade = study.mean_curve(ChainMode.CASCADE)
        snowball = study.mean_curve(ChainMode.SNOWBALL)
        assert snowball[0] == pytest.approx(cascade[0], abs=TOL)
        for i in range(1, 5):
            assert snowball[i] > cascade[i]
        assert all(b >= a - TOL for a, b in zip(snowball, snowball[1:]))

    def test_summary_quantiles_ordered(self):
        summary = monte_carlo_chains(ChainParams(), 200, master_seed=17).summary
        assert list(summary) == ["mode", "analyst_index", "mean_bias_ratio", "q025", "median", "q975"]
        assert all(column.shape == (2, 5) for column in summary.values())
        assert np.all(summary["q025"] <= summary["median"])
        assert np.all(summary["median"] <= summary["q975"])

    @pytest.mark.parametrize("n_runs", [1, 7, 1000])
    def test_summary_mean_is_mean_of_its_column(self, n_runs):
        study = monte_carlo_chains(ChainParams(), n_runs, master_seed=3)
        summary, ratio = study.summary, study.columns["bias_ratio"]
        for mode in (CASCADE, SNOWBALL):
            for i in range(5):
                assert summary["mode"][mode, i] == ("cascade", "snowball")[mode]
                assert summary["analyst_index"][mode, i] == i + 1
                assert summary["mean_bias_ratio"][mode, i] == ratio[:, mode, i].mean()
        assert study.mean_curve(ChainMode.SNOWBALL) == tuple(summary["mean_bias_ratio"][SNOWBALL].tolist())

