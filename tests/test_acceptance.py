"""End-to-end acceptance gate, one printed pass/fail line per criterion.

Run `pytest tests/test_acceptance.py -s` to watch the lines print, or
`-rA` to see them in the summary.  Every check states its tolerance
inline; whole-suite runtime stays well under two minutes.
"""

import itertools
import math
import time
from contextlib import contextmanager

from forensic_bias import (
    BiasFactor,
    BiasLedger,
    CellAgreementModel,
    ChainMode,
    DEFAULT_PRIOR,
    EvidenceBundle,
    FeedbackRegime,
    ImputationSimParams,
    LatentVector,
    LikelihoodRatio,
    MinutiaVector,
    PRESETS,
    Provenance,
    SourceDecision,
    StreamBias,
    SuspectPool,
    apply_bias,
    average_bias,
    builtin_joint_names,
    classify_relevance,
    compose_lr,
    count_matches,
    delta_impute_exact,
    imputation_grid_fixture,
    impute_from_reference,
    load_builtin_joint,
    mayfield_average,
    monte_carlo_chains,
    neutral_guilt_odds,
    odds_to_probability,
    posterior_odds,
    probability_to_odds,
    race_example_delta,
    run_paired_feedback,
    run_preset,
    sample_delta_impute,
    substream,
    systemic_bias_ratio,
    uniform_prior_odds,
)


@contextmanager
def criterion(n: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n:02d} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {n:02d} {label}: PASS")


def _cell_text(print_) -> str:
    return "".join(c.value for c in print_.cells)


def _joint_prob(y: str, x: str, p_agree: float) -> float:
    # Hand-rolled mark likelihood for the oracle side: cells agree iid.
    out = 1.0
    for cy, cx in zip(y, x):
        out *= p_agree if cy == cx else 1.0 - p_agree
    return out


class TestAcceptance:
    def test_01_panel_average(self):
        with criterion(1, "five-examiner panel averages to 1.7"):
            assert mayfield_average().linear == 1.7
            factors = tuple(
                BiasFactor.from_linear(d, Provenance.CONTEXTUAL)
                for d in (2.0, 2.0, 2.0, 1.5, 1.0)
            )
            assert average_bias(factors).linear == 1.7

    def test_02_race_example(self):
        with criterion(2, "doubled-belief trait example"):
            present = race_example_delta(0.15, trait_present=True)
            assert present.linear == 2.0
            absent = race_example_delta(0.15, trait_present=False)
            assert abs(absent.linear - (2.0 - 1.0 / 0.85)) <= 1e-12
            # True LR of 1 plus the present-trait tilt doubles the prior.
            pool = SuspectPool(10)
            reported = apply_bias(LikelihoodRatio.unit(), present)
            posterior = posterior_odds(uniform_prior_odds(pool), reported)
            assert abs(posterior.linear - 2.0 / pool.n) <= 1e-12

    def test_03_six_cell_tables(self):
        with criterion(3, "six-cell worked example tables"):
            exemplar = MinutiaVector.from_text("...mmm")
            true_mark = MinutiaVector.from_text(".m.mm.")
            observed = LatentVector.from_text("??.?m.")
            full = count_matches(exemplar, true_mark)
            assert (full.n_correspondences, full.n_matches) == (4, 2)
            imputed = impute_from_reference(observed, exemplar)
            assert _cell_text(imputed) == "...mm."
            assert count_matches(exemplar, imputed).n_correspondences == 5

    def test_04_grid_fixture_flip(self):
        with criterion(4, "grid example flips the source decision"):
            fx = imputation_grid_fixture()
            assert fx.true_summary.n_matches == 5
            assert fx.observed_summary.n_matches == 3
            assert fx.imputed_summary.n_matches == 8
            assert fx.observed_decision is SourceDecision.INCONCLUSIVE
            assert fx.imputed_decision is SourceDecision.SUPPORT_SAME_SOURCE

    def test_05_imputation_dominance_and_mc(self):
        with criterion(5, "imputation dominance (exhaustive) and MC mean within 2%"):
            # Exhaustive sweep over every 6-cell exemplar, latent, and
            # completion: the imputed print maximises the same-source
            # likelihood, minimises the different-source likelihood, and
            # the bias factor never deflates.
            models = (CellAgreementModel(), CellAgreementModel(0.7, 0.2))
            for x_cells in itertools.product(".m", repeat=6):
                x_text = "".join(x_cells)
                x = MinutiaVector.from_text(x_text)
                for latent_cells in itertools.product(".m?", repeat=6):
                    latent_text = "".join(latent_cells)
                    latent = LatentVector.from_text(latent_text)
                    star_text = _cell_text(impute_from_reference(latent, x))
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
                        delta = delta_impute_exact(latent, x, model)
                        assert delta.log_value >= -1e-12
                        closed = (model.p_same / model.p_diff) ** len(missing)
                        assert abs(delta.linear - closed) <= 1e-9 * closed

            # Monte Carlo mean vs the exhaustively enumerated expectation
            # over per-cell masks at share 0.25 on a 6-cell grid.
            share, model = 0.25, CellAgreementModel()
            ratio = model.p_same / model.p_diff
            oracle = 0.0
            for mask in itertools.product((False, True), repeat=6):
                weight = math.prod(share if m else 1.0 - share for m in mask)
                oracle += weight * ratio ** sum(mask)
            params = ImputationSimParams(rows=2, cols=3, model=model)
            draws = sample_delta_impute(params, share, 10_000, rng=substream(0, 0))
            mean = float(draws.mean())
            assert abs(mean - oracle) <= 0.02 * oracle

    def test_06_feedback_gaps(self):
        with criterion(6, "biased feedback converges worse and slower (<10s)"):
            started = time.perf_counter()
            biased = FeedbackRegime.biased(0.06, 2.0)
            short = run_paired_feedback(1000, 0.5, 100, DEFAULT_PRIOR, biased, master_seed=0)
            assert short.mean_biased_gap > short.mean_truthful_gap
            long = run_paired_feedback(1000, 0.5, 1000, DEFAULT_PRIOR, biased, master_seed=0)
            assert long.mean_biased_gap < short.mean_biased_gap
            assert time.perf_counter() - started < 10.0

    def test_07_cascade_vs_snowball(self):
        with criterion(7, "snowball dominates cascade; k=1 coincides bit-exactly (<30s)"):
            started = time.perf_counter()
            study = monte_carlo_chains(1000, master_seed=42)
            cascade = study.mean_curve(ChainMode.CASCADE)
            snowball = study.mean_curve(ChainMode.SNOWBALL)
            for i, (c, s) in enumerate(zip(cascade, snowball)):
                assert s >= c - 1e-12
                if i >= 1:  # strict from the second analyst on
                    assert s > c
            for earlier, later in zip(snowball, snowball[1:]):
                assert later >= earlier
            # Run i is the k = 1 chain drawn from substream(7, i); axis 1 is the mode.
            one = monte_carlo_chains(100, master_seed=7, k=1)
            for column in (one.columns["reported_odds"], one.columns["neutral_odds"]):
                assert column[:, 0].tolist() == column[:, 1].tolist()
            total = sum(one.log_terms.values())
            assert total[:, 0].tolist() == total[:, 1].tolist()
            assert time.perf_counter() - started < 30.0

    def test_08_trier_identities(self):
        with criterion(8, "trier compounds per-stream tilts multiplicatively"):
            bundle = EvidenceBundle(
                pool=SuspectPool(10),
                stream_lrs=tuple(LikelihoodRatio.from_linear(v) for v in (2.0, 3.0, 5.0)),
                context_lr=LikelihoodRatio.from_linear(1.0),
            )
            assert abs(neutral_guilt_odds(bundle).linear - 3.0) <= 1e-12
            rng = substream(2024, 8)
            for _ in range(1000):
                n = int(rng.integers(1, 7))
                lrs = tuple(LikelihoodRatio(float(v)) for v in rng.uniform(-2.5, 2.5, n))
                betas = tuple(
                    BiasFactor(float(v), Provenance.COMPOSITE)
                    for v in rng.uniform(-1.5, 1.5, n)
                )
                random_bundle = EvidenceBundle(
                    pool=SuspectPool(int(rng.integers(1, 50))),
                    stream_lrs=lrs,
                    context_lr=LikelihoodRatio(float(rng.uniform(-1.0, 1.0))),
                )
                ratio = systemic_bias_ratio(random_bundle, StreamBias(betas))
                total = sum(b.log_value for b in betas)
                assert abs(ratio.log_value - total) <= 1e-10
                assert abs(ratio.linear - math.exp(total)) <= 1e-10 * math.exp(total)

    def test_09_odds_property_suite(self):
        with criterion(9, "odds algebra properties, 10,000 cases each"):
            rng = substream(2024, 9)

            logs = rng.uniform(-3.0, 3.0, (10_000, 3))
            for a, b, c in logs:
                lr_a, lr_b, lr_c = (LikelihoodRatio(float(v)) for v in (a, b, c))
                left = compose_lr([compose_lr([lr_a, lr_b]), lr_c])
                right = compose_lr([lr_a, compose_lr([lr_b, lr_c])])
                assert abs(left.log_value - right.log_value) <= 1e-12

            for row in rng.uniform(-3.0, 3.0, (10_000, 4)):
                parts = [LikelihoodRatio(float(v)) for v in row]
                forward = compose_lr(parts)
                perm = [parts[i] for i in rng.permutation(4)]
                assert abs(compose_lr(perm).log_value - forward.log_value) <= 1e-12

            for p in rng.uniform(1e-6, 1.0 - 1e-6, 10_000):
                back = odds_to_probability(probability_to_odds(float(p)))
                assert abs(back.value - p) <= 1e-12

            for row in rng.uniform(-1.5, 1.5, (10_000, 4)):
                neutral = LikelihoodRatio(float(row[0]))
                ledger = BiasLedger()
                reported = neutral
                for j, v in enumerate(row[1:]):
                    factor = BiasFactor(float(v), Provenance.COMPOSITE)
                    ledger = ledger.add(f"f{j}", factor)
                    reported = apply_bias(reported, factor)
                gap = reported.log_value - neutral.log_value
                assert abs(gap - ledger.total_log) <= 1e-10

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
        with criterion(11, "presets byte-identical across thread counts"):
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
                first = tmp_path / name / "t1"
                second = tmp_path / name / "t3"
                run_preset(name, 7, extra, out_dir=first, threads=1)
                run_preset(name, 7, extra, out_dir=second, threads=3)
                names_first = sorted(p.name for p in first.iterdir())
                names_second = sorted(p.name for p in second.iterdir())
                assert names_first == names_second
                for file_name in names_first:
                    assert (first / file_name).read_bytes() == (
                        second / file_name
                    ).read_bytes(), f"{name}/{file_name} differs across thread counts"
