"""Named experiments behind the command-line harness.

Each preset pairs a typed parameter schema with a runner, a pure function
(params, seed) -> {file name: content} that touches no file.  A ".csv"
artifact's content is a {header: column} mapping, a ".json" one's a
JSON-ready object, and any other's its text.  run_preset is the only
writer: it resolves parameters (defaults plus validated overrides),
creates the output directory, runs the preset, writes each artifact by
its extension, and writes the manifest last, recording the preset name,
seed, fully resolved parameters, and a sha256 checksum per artifact.
A rerun removes the old manifest before its first write, so a run
that fails midway leaves no manifest.  Every preset runs in one thread;
the thread count that run_preset accepts is only validated, kept for
callers that pass it, and never reaches a runner or the manifest.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .config import ConfigError, ParamSpec, PresetSchema
from .contextual import MAYFIELD_DELTAS, average_bias, mayfield_average, race_example_delta
from .contextual import BiasFactor, Provenance
from .feedback import (
    BetaPrior,
    FeedbackRegime,
    exact_final_mean_and_gap,
    run_paired_feedback,
    simulate_feedback,
)
from .fingerprints import (
    CellAgreementModel,
    ImputationSimParams,
    MinutiaVector,
    count_matches,
    decide_source,
    delta_impute_exact,
    exact_delta_quantiles,
    exact_mean_delta,
    exact_relative_standard_error,
    imputation_grid_fixture,
    impute_from_reference,
    LatentVector,
    sample_delta_impute,
)
from .odds import LOG_FLOAT_MAX, LikelihoodRatio, OddsRatio, SuspectPool, posterior_odds, uniform_prior_odds
from .outputs import MANIFEST_NAME, RunManifest, sha256_file, write_csv, write_json, write_manifest
from .propagation import ChainMode, monte_carlo_chains
from .relevance import builtin_joint_names, classify_relevance, load_builtin_joint
from .seeding import substream, validate_seed
from .trier import EvidenceBundle, StreamBias, case_report

__all__ = ["Preset", "PRESETS", "get_preset", "run_preset", "ArtifactWriteError", "TOOL_VERSION"]

try:
    TOOL_VERSION = metadata.version("forensic-bias")
except metadata.PackageNotFoundError:  # running from a source tree
    TOOL_VERSION = "0+unknown"


Runner = Callable[[dict, int], dict[str, object]]


class ArtifactWriteError(Exception):
    """An artifact or the manifest could not be written; the message names
    its path and the OS error, and the output directory holds no manifest."""


@dataclass(frozen=True)
class Preset:
    schema: PresetSchema
    run: Runner


def _check_open(lo: float, hi: float) -> Callable[[object], str | None]:
    def check(value: object) -> str | None:
        if not lo < value < hi:
            return f"must lie strictly inside ({lo}, {hi})"
        return None

    return check


def _check_closed(lo: float, hi: float) -> Callable[[object], str | None]:
    def check(value: object) -> str | None:
        if not lo <= value <= hi:
            return f"must lie in [{lo}, {hi}]"
        return None

    return check


def _check_at_least(lo: float) -> Callable[[object], str | None]:
    def check(value: object) -> str | None:
        if value < lo:
            return f"must be >= {lo}"
        return None

    return check


def _check_positive(value: object) -> str | None:
    if not value > 0:
        return "must be > 0"
    return None


def _check_choice(*choices: str) -> Callable[[object], str | None]:
    def check(value: object) -> str | None:
        if value not in choices:
            return f"must be one of {sorted(choices)!r}"
        return None

    return check


def _check_share_or_random(value: object) -> str | None:
    if value == "random":
        return None
    try:
        share = float(value)
    except ValueError:
        return "must be 'random' or a number in [0, 1]"
    if not 0.0 <= share <= 1.0:
        return "must be 'random' or a number in [0, 1]"
    return None


def _detail_columns(key: str, detail: Mapping[str, Mapping[str, object]]) -> dict[str, list]:
    """CSV columns of a {name: {field: value}} report: `key` names, then each field."""
    first = next(iter(detail.values()))
    return {key: list(detail)} | {f: [row[f] for row in detail.values()] for f in first}


# ---------------------------------------------------------------- mayfield

_MAYFIELD_SCHEMA = PresetSchema(
    name="mayfield",
    summary="Average the five-examiner panel's bias factors (arithmetic mean 1.7).",
)


def _run_mayfield(params: dict, seed: int) -> dict[str, object]:
    factors = tuple(
        BiasFactor.from_linear(d, Provenance.CONTEXTUAL) for d in MAYFIELD_DELTAS
    )
    return {
        "panel.csv": {"examiner": range(1, len(MAYFIELD_DELTAS) + 1), "delta": MAYFIELD_DELTAS},
        "report.json": {
            "panel_deltas": list(MAYFIELD_DELTAS),
            "average_delta": mayfield_average().linear,
            "geometric_average_delta": average_bias(factors, geometric=True).linear,
        },
    }


# -------------------------------------------------------------------- race

_RACE_SCHEMA = PresetSchema(
    name="race",
    summary="Doubled-belief trait bias: overweight by 2 when present, underweight when absent.",
    params=(
        ParamSpec("trait_prob", float, 0.15, "base rate of the irrelevant trait", _check_open(0.0, 0.5)),
        ParamSpec("pool_n", int, 10, "suspect pool size for the worked posterior", _check_at_least(1)),
        ParamSpec("lr_true", float, 1.0, "neutral likelihood ratio of the trait evidence", _check_positive),
    ),
)


def _run_race(params: dict, seed: int) -> dict[str, object]:
    p = params["trait_prob"]
    pool = SuspectPool(params["pool_n"])
    lr_true = LikelihoodRatio.from_linear(params["lr_true"])
    prior = uniform_prior_odds(pool)
    delta_present = race_example_delta(p, trait_present=True)
    delta_absent = race_example_delta(p, trait_present=False)
    neutral = posterior_odds(prior, lr_true)
    biased_present = OddsRatio(neutral.log_value + delta_present.log_value)
    biased_absent = OddsRatio(neutral.log_value + delta_absent.log_value)
    biased_log = max(biased_present.log_value, biased_absent.log_value)
    if biased_log > LOG_FLOAT_MAX:
        named = ", ".join(f"{k}={params[k]!r}" for k in ("trait_prob", "pool_n", "lr_true"))
        raise ConfigError(
            f"the biased posterior odds: e**{biased_log:.1f} exceeds float range at {named}; "
            "use a smaller lr_true or a larger pool_n"
        )
    return {
        "report.json": {
            "trait_prob": p,
            "delta_present": delta_present.linear,
            "delta_absent": delta_absent.linear,
            "pool_n": pool.n,
            "prior_odds": prior.linear,
            "neutral_posterior_odds": neutral.linear,
            "biased_posterior_odds_present": biased_present.linear,
            "biased_posterior_odds_absent": biased_absent.linear,
        },
    }


# --------------------------------------------------------------- relevance

_RELEVANCE_SCHEMA = PresetSchema(
    name="relevance",
    summary="Classify the built-in joint fixtures as task-relevant or task-irrelevant.",
    params=(
        ParamSpec("tolerance", float, 1e-9, "conditional-independence tolerance", _check_at_least(0.0)),
    ),
)


def _run_relevance(params: dict, seed: int) -> dict[str, object]:
    detail = {}
    for name in builtin_joint_names():
        joint, roles = load_builtin_joint(name)
        verdict = classify_relevance(
            joint,
            params["tolerance"],
            evidence=roles["evidence"],
            info=roles["info"][0],
            hypothesis=roles["hypothesis"][0],
        )
        detail[name] = {
            "verdict": verdict.verdict.value,
            "max_discrepancy": verdict.max_discrepancy,
        }
    return {
        "verdicts.csv": _detail_columns("fixture", detail),
        "report.json": {"tolerance": params["tolerance"], "fixtures": detail},
    }


# --------------------------------------------------------- imputation-table

_TABLE_SCHEMA = PresetSchema(
    name="imputation-table",
    summary="Six-cell worked example: counts before and after imputing missing cells.",
)

_TABLE_X = MinutiaVector.from_text("...mmm")
_TABLE_Y = MinutiaVector.from_text(".m.mm.")
_TABLE_LATENT = LatentVector.from_text("??.?m.")


def _run_imputation_table(params: dict, seed: int) -> dict[str, object]:
    imputed = impute_from_reference(_TABLE_LATENT, _TABLE_X)
    assert isinstance(imputed, MinutiaVector)
    detail = {}
    for label, print_ in (("true_mark", _TABLE_Y), ("observed", _TABLE_LATENT), ("imputed", imputed)):
        summary = count_matches(_TABLE_X, print_)
        detail[label] = {
            "cells": "".join(c.value for c in print_.cells),
            "n_correspondences": summary.n_correspondences,
            "n_matches": summary.n_matches,
            "n_missing": summary.n_missing,
            "decision": decide_source(summary).value,
        }
    tables = _detail_columns("print", detail)
    detail["exemplar"] = {"cells": "".join(c.value for c in _TABLE_X.cells)}
    detail["delta_impute"] = delta_impute_exact(_TABLE_LATENT, _TABLE_X).linear
    return {"tables.csv": tables, "report.json": detail}


# ---------------------------------------------------------- imputation-grid

_GRID_SCHEMA = PresetSchema(
    name="imputation-grid",
    summary="Committed 10x5 grid example where imputation flips the source decision.",
)


def _run_imputation_grid(params: dict, seed: int) -> dict[str, object]:
    fixture = imputation_grid_fixture()
    return {
        "exemplar_x.txt": fixture.exemplar.to_text() + "\n",
        "true_y.txt": fixture.true_mark.to_text() + "\n",
        "observed_y.txt": fixture.observed.to_text() + "\n",
        "imputed_y.txt": fixture.imputed.to_text() + "\n",
        "report.json": {
            "true_matches": fixture.true_summary.n_matches,
            "observed_matches": fixture.observed_summary.n_matches,
            "imputed_matches": fixture.imputed_summary.n_matches,
            "n_missing": fixture.observed_summary.n_missing,
            "observed_decision": fixture.observed_decision.value,
            "imputed_decision": fixture.imputed_decision.value,
            "decision_flipped": fixture.observed_decision is not fixture.imputed_decision,
        },
    }


# ------------------------------------------------------------- delta-impute

_DELTA_SCHEMA = PresetSchema(
    name="delta-impute",
    summary="Monte Carlo distribution of the imputation bias factor.",
    params=(
        ParamSpec("rows", int, 10, "grid rows", _check_at_least(1)),
        ParamSpec("cols", int, 5, "grid columns", _check_at_least(1)),
        ParamSpec("p_same", float, 0.5, "per-cell agreement rate, same source", _check_open(0.0, 1.0)),
        ParamSpec("p_diff", float, 0.25, "per-cell agreement rate, different source", _check_open(0.0, 1.0)),
        ParamSpec("missing_share", float, 0.25, "share of cells smudged", _check_closed(0.0, 1.0)),
        ParamSpec("n_reps", int, 10_000, "Monte Carlo replicates", _check_at_least(1)),
        ParamSpec("mask_mode", str, "per_cell", "masking: exact count or per-cell coin", _check_choice("exact", "per_cell")),
    ),
)


def _agreement_model(p_same: float, p_diff: float) -> CellAgreementModel:
    try:
        return CellAgreementModel(p_same, p_diff)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _run_delta_impute(params: dict, seed: int) -> dict[str, object]:
    model = _agreement_model(params["p_same"], params["p_diff"])
    sim = ImputationSimParams(rows=params["rows"], cols=params["cols"], model=model)
    try:
        exact_mean = exact_mean_delta(sim, params["missing_share"], params["mask_mode"])
        exact_q025, exact_median, exact_q975 = exact_delta_quantiles(
            sim, params["missing_share"], params["mask_mode"]
        )
        draws = sample_delta_impute(
            sim,
            params["missing_share"],
            params["n_reps"],
            rng=substream(seed, 0),
            mask_mode=params["mask_mode"],
        )
    except OverflowError as exc:
        named = ", ".join(f"{k}={params[k]!r}" for k in ("rows", "cols", "missing_share", "p_same", "p_diff"))
        raise ConfigError(f"{exc} at {named}; use a smaller grid, missing_share or p_same/p_diff") from exc
    q025, median, q975 = np.percentile(draws, [2.5, 50.0, 97.5])
    # Scaled by the largest draw so neither the sum nor the squares overflow.
    top = float(draws.max())
    scaled = draws / top
    n_reps = params["n_reps"]
    se = top * float(scaled.std(ddof=1)) / math.sqrt(n_reps) if n_reps > 1 else None
    return {
        "estimate.json": {
            "mean_delta": top * float(scaled.mean()),
            "exact_mean_delta": exact_mean,
            "mc_standard_error": se,
            "exact_relative_standard_error": exact_relative_standard_error(
                sim, params["missing_share"], params["mask_mode"], n_reps
            ),
            "q025": float(q025),
            "median": float(median),
            "q975": float(q975),
            "exact_q025": exact_q025,
            "exact_median": exact_median,
            "exact_q975": exact_q975,
            "n_reps": n_reps,
            "missing_share": params["missing_share"],
            "mask_mode": params["mask_mode"],
            "p_same": model.p_same,
            "p_diff": model.p_diff,
        },
    }


# ----------------------------------------------------------------- feedback

_FEEDBACK_SCHEMA = PresetSchema(
    name="feedback",
    summary="Conviction feedback loop: truthful vs biased belief convergence.",
    params=(
        ParamSpec("alpha_true", float, 0.5, "true trait rate among sources", _check_open(0.0, 1.0)),
        ParamSpec("n_obs", int, 100, "adjudicated cases per trajectory", _check_at_least(1)),
        ParamSpec("n_seeds", int, 1000, "paired replicates", _check_at_least(1)),
        ParamSpec("wrongful_rate", float, 0.06, "share of wrongful convictions when biased", _check_closed(0.0, 1.0)),
        ParamSpec("trait_skew", float, 2.0, "trait rate multiplier on wrongful cases", _check_positive),
        ParamSpec("prior_a", float, 12.0, "Beta prior a", _check_positive),
        ParamSpec("prior_b", float, 8.0, "Beta prior b", _check_positive),
    ),
)


def _run_feedback(params: dict, seed: int) -> dict[str, object]:
    prior = BetaPrior(params["prior_a"], params["prior_b"])
    biased_regime = FeedbackRegime.biased(params["wrongful_rate"], params["trait_skew"])
    truthful_regime = FeedbackRegime.truthful()

    # Illustrative pair: replicate 0 under common random numbers.
    n_obs = params["n_obs"]
    truthful, biased = (
        simulate_feedback(regime, params["alpha_true"], n_obs, prior, rng=substream(seed, 0))
        for regime in (truthful_regime, biased_regime)
    )
    trajectory = {
        "step": np.broadcast_to(np.arange(1, n_obs + 1), (2, n_obs)),
        "posterior_mean": truthful.posterior_means + biased.posterior_means,
        "regime": np.broadcast_to(np.array(["truthful", "biased"])[:, None], (2, n_obs)),
        "seed": np.broadcast_to(0, 2 * n_obs),
    }

    with warnings.catch_warnings():
        # The illustrative biased trajectory has already warned if the
        # wrongful-case trait rate is clamped; the replicates and the exact
        # means share its parameters, so one warning per run says it all.
        warnings.filterwarnings("ignore", message=r"trait_skew \* alpha_true", category=RuntimeWarning)
        result = run_paired_feedback(
            params["n_seeds"],
            params["alpha_true"],
            n_obs,
            prior,
            biased_regime,
            master_seed=seed,
        )
        exact_truthful = exact_final_mean_and_gap(truthful_regime, params["alpha_true"], n_obs, prior)
        exact_biased = exact_final_mean_and_gap(biased_regime, params["alpha_true"], n_obs, prior)
    return {
        "trajectory.csv": trajectory,
        "gaps.csv": {
            "seed": range(len(result.truthful_means)),
            "truthful_final_mean": result.truthful_means,
            "biased_final_mean": result.biased_means,
            "truthful_gap": result.truthful_gaps,
            "biased_gap": result.biased_gaps,
        },
        "aggregate.json": {
            "alpha_true": result.alpha_true,
            "n_obs": result.n_obs,
            "n_seeds": params["n_seeds"],
            "prior_mean": prior.mean,
            "mean_final_truthful": float(np.mean(result.truthful_means)),
            "mean_final_biased": float(np.mean(result.biased_means)),
            "mean_gap_truthful": result.mean_truthful_gap,
            "mean_gap_biased": result.mean_biased_gap,
            "exact_mean_final_truthful": exact_truthful[0],
            "exact_mean_final_biased": exact_biased[0],
            "exact_mean_gap_truthful": exact_truthful[1],
            "exact_mean_gap_biased": exact_biased[1],
        },
    }


# -------------------------------------------------------------- propagation

_PROPAGATION_SCHEMA = PresetSchema(
    name="propagation",
    summary="Cascade vs snowball bias along a chain of analysts, replicated.",
    params=(
        ParamSpec("n_runs", int, 1000, "paired replicates", _check_at_least(1)),
        ParamSpec("k", int, 5, "analysts per chain", _check_at_least(1)),
        ParamSpec("pool_n", int, 10, "suspect pool size", _check_at_least(1)),
        ParamSpec("trait_prob", float, 0.15, "case trait probability", _check_open(0.0, 0.5)),
        ParamSpec("p_match_same", float, 0.5, "match rate under same source", _check_open(0.0, 1.0)),
        ParamSpec("p_match_diff", float, 0.25, "match rate under different source", _check_open(0.0, 1.0)),
        ParamSpec("missing_share", str, "random", "'random' (uniform on [0, 0.5)) or a fixed share", _check_share_or_random),
        ParamSpec("same_source", bool, True, "ground truth of the case"),
        ParamSpec("peer_history", str, "contribution", "history handed to tilde terms", _check_choice("contribution", "posterior")),
    ),
)


def _run_propagation(params: dict, seed: int) -> dict[str, object]:
    model = _agreement_model(params["p_match_same"], params["p_match_diff"])
    share = None if params["missing_share"] == "random" else float(params["missing_share"])
    try:
        study = monte_carlo_chains(
            params["n_runs"],
            master_seed=seed,
            k=params["k"],
            pool=SuspectPool(params["pool_n"]),
            trait_prob=params["trait_prob"],
            model=model,
            same_source=params["same_source"],
            missing_share=share,
            peer_history=params["peer_history"],
        )
    except OverflowError as exc:
        named = ", ".join(f"{k}={params[k]!r}" for k in ("p_match_same", "p_match_diff", "k"))
        raise ConfigError(f"{exc} at {named}; use a larger p_match_diff or a smaller k") from exc
    return {
        "results.csv": study.columns,
        "summary.csv": study.summary,
        "report.json": {
            "n_runs": study.n_runs,
            "k": study.k,
            "mean_bias_ratio": {
                mode.value: list(study.mean_curve(mode))
                for mode in (ChainMode.CASCADE, ChainMode.SNOWBALL)
            },
        },
    }


# -------------------------------------------------------------------- trier

_TRIER_SCHEMA = PresetSchema(
    name="trier",
    summary="Compound expert streams into guilt odds; systemic tilt is the product of the betas.",
    params=(
        ParamSpec("pool_n", int, 10, "suspect pool size", _check_at_least(1)),
        ParamSpec("stream_lrs", str, "2,3,5", "comma-separated neutral stream LRs"),
        ParamSpec("betas", str, "1.5,1.0,2.0", "comma-separated per-stream bias factors"),
        ParamSpec("context_lr", float, 1.0, "likelihood ratio of context heard directly", _check_positive),
    ),
)


def _parse_positive_list(name: str, text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"parameter {name}: expected comma-separated numbers, got {text!r}") from exc
    if not values:
        raise ConfigError(f"parameter {name}: needs at least one value, got {text!r}")
    if not all(0 < v < math.inf for v in values):
        raise ConfigError(f"parameter {name}: all values must be finite and > 0, got {text!r}")
    return values


def _run_trier(params: dict, seed: int) -> dict[str, object]:
    lrs = _parse_positive_list("stream_lrs", params["stream_lrs"])
    betas = _parse_positive_list("betas", params["betas"])
    if len(lrs) != len(betas):
        raise ConfigError(
            f"stream_lrs has {len(lrs)} values but betas has {len(betas)}; they must match"
        )
    bundle = EvidenceBundle(
        pool=SuspectPool(params["pool_n"]),
        stream_lrs=tuple(LikelihoodRatio.from_linear(v) for v in lrs),
        context_lr=LikelihoodRatio.from_linear(params["context_lr"]),
    )
    bias = StreamBias(
        tuple(BiasFactor.from_linear(v, Provenance.COMPOSITE) for v in betas)
    )
    try:
        report = case_report(bundle, bias)
    except OverflowError as exc:
        named = ", ".join(f"{k}={params[k]!r}" for k in ("pool_n", "stream_lrs", "betas", "context_lr"))
        raise ConfigError(f"{exc} at {named}; use smaller stream_lrs, betas or context_lr") from exc
    return {"case_report.json": report}


# ------------------------------------------------------------- orchestrator

PRESETS: dict[str, Preset] = {
    "mayfield": Preset(_MAYFIELD_SCHEMA, _run_mayfield),
    "race": Preset(_RACE_SCHEMA, _run_race),
    "relevance": Preset(_RELEVANCE_SCHEMA, _run_relevance),
    "imputation-table": Preset(_TABLE_SCHEMA, _run_imputation_table),
    "imputation-grid": Preset(_GRID_SCHEMA, _run_imputation_grid),
    "delta-impute": Preset(_DELTA_SCHEMA, _run_delta_impute),
    "feedback": Preset(_FEEDBACK_SCHEMA, _run_feedback),
    "propagation": Preset(_PROPAGATION_SCHEMA, _run_propagation),
    "trier": Preset(_TRIER_SCHEMA, _run_trier),
}


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)!r}"
        ) from None


def run_preset(
    name: str,
    seed: int,
    overrides: Mapping[str, object] | None = None,
    *,
    out_dir: Path,
    threads: int = 1,
) -> RunManifest:
    """Resolve, run, write the artifacts, checksum them, and write the manifest last.

    Returns the manifest.  An out_dir that cannot be created is a
    ConfigError.  A runner that fails leaves out_dir as it was; a write
    that fails raises ArtifactWriteError and leaves no manifest.
    """
    preset = get_preset(name)
    validate_seed(seed)
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads!r}")
    params = preset.schema.resolve(dict(overrides or {}))
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out_dir}: cannot create the output directory: {exc}") from exc
    artifacts = preset.run(params, seed)
    (out_dir / MANIFEST_NAME).unlink(missing_ok=True)
    digests = {}
    try:
        for artifact, content in artifacts.items():
            path = out_dir / artifact
            if path.suffix == ".csv":
                write_csv(path, content)
            elif path.suffix == ".json":
                write_json(path, content)
            else:
                path.write_text(content, encoding="utf-8")
            digests[artifact] = sha256_file(path)
        manifest = RunManifest(
            preset=name, seed=seed, parameters=params, artifacts=digests, tool_version=TOOL_VERSION
        )
        path = out_dir / MANIFEST_NAME
        write_manifest(out_dir, manifest)
    except OSError as exc:
        raise ArtifactWriteError(
            f"cannot write {path}: {exc.strerror or exc}; {out_dir} now holds no manifest"
        ) from exc
    return manifest
