"""End-to-end acceptance gate, one printed pass/fail line per criterion.

Run `pytest tests/test_acceptance.py -s` to watch the lines print, or
`-rA` to see them in the summary.  Every check states its tolerance
inline; whole-suite runtime stays well under two minutes.
"""

import itertools
import math
import time
from contextlib import contextmanager
from importlib import resources

import numpy as np

from forensic_bias import (
    CellAgreementModel,
    ChainMode,
    ChainParams,
    DEFAULT_PRIOR,
    FeedbackRegime,
    ImputationSimParams,
    PRESETS,
    SourceDecision,
    average_bias,
    bias_factors,
    builtin_joint_names,
    case_report,
    classify_relevance,
    count_matches,
    decide_source,
    impute_from_reference,
    load_builtin_joint,
    log_odds,
    log_prior_odds,
    mayfield_average,
    monte_carlo_chains,
    parse_grid,
    probability,
    race_example_delta,
    run_paired_feedback,
    run_preset,
    sample_delta_impute,
    substream,
)


@contextmanager
def criterion(n: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n:02d} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {n:02d} {label}: PASS")


def _joint_prob(y: str, x: str, p_agree: float) -> float:
    # Hand-rolled mark likelihood for the oracle side: observed cells agree
    # iid, and a missing cell ('?') is marginalised out.
    out = 1.0
    for cy, cx in zip(y, x):
        if cy != "?":
            out *= p_agree if cy == cx else 1.0 - p_agree
    return out


class TestAcceptance:
    def test_01_panel_average(self):
        with criterion(1, "five-examiner panel averages to 1.7"):
            assert mayfield_average() == 1.7
            assert average_bias((2.0, 2.0, 2.0, 1.5, 1.0)) == 1.7

    def test_02_race_example(self):
        with criterion(2, "doubled-belief trait example"):
            present = race_example_delta(0.15, trait_present=True)
            assert math.exp(present) == 2.0
            absent = race_example_delta(0.15, trait_present=False)
            assert abs(math.exp(absent) - (2.0 - 1.0 / 0.85)) <= 1e-12
            # True LR of 1 plus the present-trait tilt doubles the prior.
            reported = math.log(1.0) + present
            posterior = log_prior_odds(10) + reported
            assert abs(math.exp(posterior) - 2.0 / 10) <= 1e-12

    def test_03_six_cell_tables(self):
        with criterion(3, "six-cell worked example tables"):
            exemplar, true_mark, observed = "...mmm", ".m.mm.", "??.?m."
            full = count_matches(exemplar, true_mark)
            assert full[:2] == (4, 2)
            imputed = impute_from_reference(observed, exemplar)
            assert imputed == "...mm."
            assert count_matches(exemplar, imputed)[0] == 5

    def test_04_grid_fixture_flip(self):
        with criterion(4, "grid example flips the source decision"):
            grids = resources.files("forensic_bias").joinpath("fixtures/grids")
            exemplar, true_mark, observed = (
                parse_grid(grids.joinpath(name).read_text(encoding="utf-8"))[0]
                for name in ("exemplar_x.txt", "true_y.txt", "observed_y.txt")
            )
            imputed = impute_from_reference(observed, exemplar)
            assert count_matches(exemplar, true_mark)[1] == 5
            observed_matches = count_matches(exemplar, observed)[1]
            imputed_matches = count_matches(exemplar, imputed)[1]
            assert observed_matches == 3
            assert imputed_matches == 8
            assert decide_source(observed_matches) is SourceDecision.INCONCLUSIVE
            assert decide_source(imputed_matches) is SourceDecision.SUPPORT_SAME_SOURCE

    def test_05_imputation_dominance_and_mc(self):
        with criterion(5, "imputation dominance (exhaustive) and MC mean within 2%"):
            # Exhaustive sweep over every 6-cell exemplar, latent, and
            # completion: the imputed print maximises the same-source
            # likelihood, minimises the different-source likelihood, and
            # the bias factor never deflates.
            models = (CellAgreementModel(), CellAgreementModel(0.7, 0.2))
            for x_text in map("".join, itertools.product(".m", repeat=6)):
                for latent_cells in itertools.product(".m?", repeat=6):
                    latent_text = "".join(latent_cells)
                    star_text = impute_from_reference(latent_text, x_text)
                    missing = [i for i, c in enumerate(latent_cells) if c == "?"]
                    completions = []
                    for fill in itertools.product(".m", repeat=len(missing)):
                        y = list(latent_text)
                        for i, ch in zip(missing, fill):
                            y[i] = ch
                        completions.append("".join(y))
                    for model in models:
                        star_same = _joint_prob(star_text, x_text, model.p_same)
                        star_diff = _joint_prob(star_text, x_text, model.p_diff)
                        for y in completions:
                            assert star_same >= _joint_prob(y, x_text, model.p_same) - 1e-15
                            assert star_diff <= _joint_prob(y, x_text, model.p_diff) + 1e-15
                        observed_lr = _joint_prob(latent_text, x_text, model.p_same) / _joint_prob(
                            latent_text, x_text, model.p_diff
                        )
                        factor = (star_same / star_diff) / observed_lr
                        assert factor >= 1.0 - 1e-12
                        closed = (model.p_same / model.p_diff) ** len(missing)
                        assert abs(factor - closed) <= 1e-9 * closed

            # Monte Carlo mean vs the exhaustively enumerated expectation
            # over per-cell masks at share 0.25 on a 6-cell grid.
            share, model = 0.25, CellAgreementModel()
            ratio = model.p_same / model.p_diff
            oracle = 0.0
            for mask in itertools.product((False, True), repeat=6):
                weight = math.prod(share if m else 1.0 - share for m in mask)
                oracle += weight * ratio ** sum(mask)
            params = ImputationSimParams(rows=2, cols=3, model=model)
            draws = bias_factors(params, sample_delta_impute(params, share, 10_000, rng=substream(0, 0)))
            mean = float(draws.mean())
            assert abs(mean - oracle) <= 0.02 * oracle

    def test_06_feedback_gaps(self):
        with criterion(6, "biased feedback converges worse and slower (<10s)"):
            started = time.perf_counter()
            biased = FeedbackRegime(0.06, 2.0)
            short = run_paired_feedback(1000, 0.5, 100, DEFAULT_PRIOR, biased, master_seed=0)
            short_truthful_gap, short_biased_gap = np.mean(np.abs(short - 0.5), axis=1)
            assert short_biased_gap > short_truthful_gap
            long = run_paired_feedback(1000, 0.5, 1000, DEFAULT_PRIOR, biased, master_seed=0)
            assert np.mean(np.abs(long[1] - 0.5)) < short_biased_gap
            assert time.perf_counter() - started < 10.0

    def test_07_cascade_vs_snowball(self):
        with criterion(7, "snowball dominates cascade; k=1 coincides bit-exactly (<30s)"):
            started = time.perf_counter()
            study = monte_carlo_chains(ChainParams(), 1000, master_seed=42)
            cascade = study.mean_curve(ChainMode.CASCADE)
            snowball = study.mean_curve(ChainMode.SNOWBALL)
            for i, (c, s) in enumerate(zip(cascade, snowball)):
                assert s >= c - 1e-12
                if i >= 1:  # strict from the second analyst on
                    assert s > c
            for earlier, later in zip(snowball, snowball[1:]):
                assert later >= earlier
            # Run i is the k = 1 chain drawn from substream(7, i); axis 1 is the mode.
            one = monte_carlo_chains(ChainParams(k=1), 100, master_seed=7)
            for column in (one.columns["bias_ratio"], one.columns["neutral_odds"]):
                assert column[:, 0].tolist() == column[:, 1].tolist()
            total = sum(one.log_terms.values())
            assert total[:, 0].tolist() == total[:, 1].tolist()
            assert time.perf_counter() - started < 30.0

    def test_08_trier_identities(self):
        with criterion(8, "trier compounds per-stream tilts multiplicatively"):
            log_lrs = [math.log(v) for v in (2.0, 3.0, 5.0)]
            report = case_report(10, log_lrs, [0.0] * 3, math.log(1.0))
            assert abs(report["neutral_guilt_odds"] - 3.0) <= 1e-12
            rng = substream(2024, 8)
            for _ in range(1000):
                n = int(rng.integers(1, 7))
                lrs = rng.uniform(-2.5, 2.5, n).tolist()
                betas = rng.uniform(-1.5, 1.5, n).tolist()
                pool_n = int(rng.integers(1, 50))
                ratio = case_report(pool_n, lrs, betas, float(rng.uniform(-1.0, 1.0)))["systemic_bias_ratio"]
                total = sum(betas)
                assert abs(math.log(ratio) - total) <= 1e-10
                assert abs(ratio - math.exp(total)) <= 1e-10 * math.exp(total)

    def test_09_odds_property_suite(self):
        with criterion(9, "log-odds round trip and per-term attribution, 10,000 cases each"):
            rng = substream(2024, 9)
            for p in rng.uniform(1e-6, 1.0 - 1e-6, 10_000):
                assert abs(probability(log_odds(float(p))) - p) <= 1e-12

            # Per-term attribution: over all 10,000 reports of a default
            # study, the live log terms sum to log(bias_ratio).
            study = monte_carlo_chains(ChainParams(), 1000, master_seed=2024)
            assert study.columns["bias_ratio"].size == 10_000
            total = sum(study.log_terms.values())
            assert np.abs(total - np.log(study.columns["bias_ratio"])).max() <= 1e-10

    def test_10_relevance_oracle(self):
        with criterion(10, "relevance verdicts match a full-enumeration oracle"):
            assert builtin_joint_names() == (
                "criminal_history_irrelevant",
                "tool_shape_no_guilt_link",
                "tool_shape_relevant",
            )
            expected_relevant = {
                "criminal_history_irrelevant": False,
                "tool_shape_no_guilt_link": True,
                "tool_shape_relevant": True,
            }
            for name in builtin_joint_names():
                joint, roles = load_builtin_joint(name)
                verdict = classify_relevance(
                    joint,
                    1e-9,
                    evidence=roles["evidence"],
                    info=roles["info"][0],
                    hypothesis=roles["hypothesis"][0],
                )
                worst = self._oracle_discrepancy(
                    joint, roles["evidence"], roles["info"][0], roles["hypothesis"][0]
                )
                assert verdict.task_relevant == (worst > 1e-9)
                assert verdict.task_relevant == expected_relevant[name]
                assert abs(verdict.max_discrepancy - worst) <= 1e-12
                if name == "criminal_history_irrelevant":
                    assert verdict.max_discrepancy == 0.0

    @staticmethod
    def _oracle_discrepancy(joint, evidence, info, hypothesis) -> float:
        # Independent brute force: marginalise the raw pmf directly.
        e_idx = joint.index(hypothesis)
        i_idx = joint.index(info)
        z_idx = tuple(joint.index(v) for v in evidence)
        worst = 0.0
        for e in joint.domain(hypothesis):
            mass_e = sum(m for k, m in joint.pmf.items() if k[e_idx] == e)
            for i in joint.domain(info):
                mass_ie = sum(
                    m for k, m in joint.pmf.items() if k[e_idx] == e and k[i_idx] == i
                )
                if mass_e == 0 or mass_ie == 0:
                    raise AssertionError("fixtures must not have zero-mass events")
                for z in itertools.product(*(joint.domain(v) for v in evidence)):
                    def matches(k, z=z):
                        return all(k[j] == zv for j, zv in zip(z_idx, z))

                    p_ze = (
                        sum(m for k, m in joint.pmf.items() if k[e_idx] == e and matches(k))
                        / mass_e
                    )
                    p_zie = (
                        sum(
                            m
                            for k, m in joint.pmf.items()
                            if k[e_idx] == e and k[i_idx] == i and matches(k)
                        )
                        / mass_ie
                    )
                    worst = max(worst, abs(float(p_ze - p_zie)))
        return worst

    def test_11_preset_determinism(self, tmp_path):
        with criterion(11, "presets byte-identical across two runs"):
            overrides = {
                "mayfield": {},
                "race": {},
                "relevance": {},
                "imputation-table": {},
                "imputation-grid": {},
                "delta-impute": {"n_reps": "400"},
                "feedback": {"n_seeds": "40", "n_obs": "50"},
                "propagation": {"n_runs": "40"},
                "trier": {},
            }
            assert set(overrides) == set(PRESETS)
            for name, extra in overrides.items():
                first = tmp_path / name / "first"
                second = tmp_path / name / "second"
                run_preset(name, 7, extra, out_dir=first)
                run_preset(name, 7, extra, out_dir=second)
                names_first = sorted(p.name for p in first.iterdir())
                names_second = sorted(p.name for p in second.iterdir())
                assert names_first == names_second
                for file_name in names_first:
                    assert (first / file_name).read_bytes() == (
                        second / file_name
                    ).read_bytes(), f"{name}/{file_name} differs between two runs"
