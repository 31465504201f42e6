"""Named experiments behind the command-line harness.

Each preset pairs a typed parameter schema with a runner, a pure function
(params, record, seed) -> {file name: content} that touches no file.  A
schema only types its parameters; every preset that takes one has a
build step, the one place its values are checked: it makes the runner's
record with the library's own functions and records, which refuse each
bad field, and checks the params against each other.
resolve_and_build resolves the parameters (defaults plus typed
overrides) and builds the record, for `bias run` and `bias validate`
alike.  A ".csv" artifact's content is a {header: column} mapping, a
".json" one's a JSON-ready object, and any other's its text.
run_preset is the only writer: it resolves and builds, runs the preset,
creates the output directory, writes each artifact by its
extension, and writes the manifest last, recording the preset name,
seed, fully resolved parameters, and a sha256 checksum per artifact.
A rerun removes the old manifest before its first write, so a run
that fails midway leaves no manifest; an old manifest it cannot remove
is a ConfigError, and the previous run stays as it was.  Every preset
runs in one thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Mapping

from . import __version__ as TOOL_VERSION
from ._lazy import np
from .config import ConfigError, ParamSpec, PresetSchema, format_params
from .contextual import MAYFIELD_DELTAS, average_bias, mayfield_average, race_example_delta
from .feedback import (
    BetaPrior,
    FeedbackParams,
    FeedbackRegime,
    exact_final_mean_and_gap,
    run_paired_feedback,
    simulate_feedback,
)
from .fingerprints import (
    CellAgreementModel,
    ImputationSimParams,
    bias_factor_percentiles,
    bias_factors,
    count_matches,
    decide_source,
    exact_delta_quantiles,
    exact_mean_delta,
    exact_relative_standard_error,
    grid_text,
    impute_from_reference,
    parse_grid,
    sample_delta_impute,
)
from .odds import LOG_FLOAT_MAX, _check_count, log_prior_odds
from .outputs import MANIFEST_NAME, RunManifest, write_csv, write_json, write_manifest, write_text
from .propagation import ChainMode, ChainParams, monte_carlo_chains
from .relevance import _tolerance_ratio, builtin_joint_names, classify_relevance, load_builtin_joint
from .seeding import substream, validate_seed
from .trier import case_report

__all__ = ["Preset", "PRESETS", "get_preset", "resolve_and_build", "run_preset", "ArtifactWriteError", "TOOL_VERSION"]


class ArtifactWriteError(Exception):
    """An artifact or the manifest could not be written; the message names
    its path and the OS error, and the output directory holds no manifest."""


@dataclass(frozen=True)
class Preset:
    """A schema, a runner, the build step that checks the parameters and
    makes the runner's record (None for a preset without parameters), and
    the hint that ends a config error for a runner's OverflowError (None:
    that error is a runtime failure)."""

    schema: PresetSchema
    run: Callable[[dict, object, int], dict[str, object]]
    build: Callable[[dict], object] | None = None
    overflow_hint: str | None = None


def _check_positive(name: str, value: float) -> None:
    """ValueError naming the field unless value > 0."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def _check_array_sizes(*arrays: tuple) -> None:
    """ValueError for parameters that make a runner's float64 or int64
    array exceed the 2**63 - 1 bytes numpy allows in one array;
    unchecked, numpy refuses the shape only at run time.  Each array is
    (label, the parameters that size it, its shape)."""
    for label, names, shape in arrays:
        size = 8 * math.prod(shape)
        if size > 2**63 - 1:
            raise ValueError(
                f"parameter{'s' * (len(names) > 1)} {' and '.join(names)}: the {label} array takes "
                f"{size} bytes, more than the 2**63 - 1 bytes numpy allows in one array"
            )


def _detail_columns(key: str, detail: Mapping[str, Mapping[str, object]]) -> dict[str, list]:
    """CSV columns of a {name: {field: value}} report: `key` names, then each field."""
    first = next(iter(detail.values()))
    return {key: list(detail)} | {f: [row[f] for row in detail.values()] for f in first}


# ---------------------------------------------------------------- mayfield

_MAYFIELD_SCHEMA = PresetSchema(
    name="mayfield",
    summary="Average the five-examiner panel's bias factors (arithmetic mean 1.7).",
)


def _run_mayfield(params: dict, record: None, seed: int) -> dict[str, object]:
    return {
        "panel.csv": {"examiner": range(1, len(MAYFIELD_DELTAS) + 1), "delta": MAYFIELD_DELTAS},
        "report.json": {
            "panel_deltas": list(MAYFIELD_DELTAS),
            "average_delta": mayfield_average(),
            "geometric_average_delta": average_bias(MAYFIELD_DELTAS, geometric=True),
        },
    }


# -------------------------------------------------------------------- race

_RACE_SCHEMA = PresetSchema(
    name="race",
    summary="Doubled-belief trait bias: overweight by 2 when present, underweight when absent.",
    params=(
        ParamSpec("trait_prob", float, 0.15, "base rate of the irrelevant trait"),
        ParamSpec("pool_n", int, 10, "suspect pool size for the worked posterior"),
        ParamSpec("lr_true", float, 1.0, "neutral likelihood ratio of the trait evidence"),
    ),
)


def _build_race(params: dict) -> tuple[float, float, float, float]:
    """The log prior odds, the present and absent trait tilts and the neutral log posterior odds."""
    prior = log_prior_odds(params["pool_n"])
    delta_present = race_example_delta(params["trait_prob"], trait_present=True)
    delta_absent = race_example_delta(params["trait_prob"], trait_present=False)
    _check_positive("lr_true", params["lr_true"])
    return prior, delta_present, delta_absent, prior + math.log(params["lr_true"])


def _run_race(params: dict, logs: tuple[float, float, float, float], seed: int) -> dict[str, object]:
    prior, delta_present, delta_absent, neutral = logs
    biased_present = neutral + delta_present
    biased_absent = neutral + delta_absent
    biased_log = max(biased_present, biased_absent)
    if biased_log > LOG_FLOAT_MAX:
        raise OverflowError(f"the biased posterior odds: e**{biased_log:.1f} exceeds float range")
    return {
        "report.json": {
            "trait_prob": params["trait_prob"],
            "delta_present": math.exp(delta_present),
            "delta_absent": math.exp(delta_absent),
            "pool_n": params["pool_n"],
            "prior_odds": math.exp(prior),
            "neutral_posterior_odds": math.exp(neutral),
            "biased_posterior_odds_present": math.exp(biased_present),
            "biased_posterior_odds_absent": math.exp(biased_absent),
        },
    }


# --------------------------------------------------------------- relevance

_RELEVANCE_SCHEMA = PresetSchema(
    name="relevance",
    summary="Classify the built-in joint fixtures as task-relevant or task-irrelevant.",
    params=(
        ParamSpec("tolerance", float, 1e-9, "conditional-independence tolerance"),
    ),
)


def _build_relevance(params: dict) -> None:
    _tolerance_ratio(params["tolerance"])


def _run_relevance(params: dict, record: None, seed: int) -> dict[str, object]:
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

_TABLE_X = "...mmm"
_TABLE_Y = ".m.mm."
_TABLE_LATENT = "??.?m."


def _run_imputation_table(params: dict, record: None, seed: int) -> dict[str, object]:
    imputed = impute_from_reference(_TABLE_LATENT, _TABLE_X)
    detail = {}
    for label, print_ in (("true_mark", _TABLE_Y), ("observed", _TABLE_LATENT), ("imputed", imputed)):
        correspondences, matches, missing = count_matches(_TABLE_X, print_)
        detail[label] = {
            "cells": print_,
            "n_correspondences": correspondences,
            "n_matches": matches,
            "n_missing": missing,
            "decision": decide_source(matches).value,
        }
    tables = _detail_columns("print", detail)
    detail["exemplar"] = {"cells": _TABLE_X}
    # Each imputed cell multiplies the likelihood ratio by r = p_same/p_diff.
    model = CellAgreementModel()
    detail["delta_impute"] = (model.p_same / model.p_diff) ** _TABLE_LATENT.count("?")
    return {"tables.csv": tables, "report.json": detail}


# ---------------------------------------------------------- imputation-grid

_GRID_SCHEMA = PresetSchema(
    name="imputation-grid",
    summary="Committed 10x5 grid example where imputation flips the source decision.",
)


def _run_imputation_grid(params: dict, record: None, seed: int) -> dict[str, object]:
    # The committed example: the true mark shares 5 minutiae with the
    # exemplar; smudging drops the observed count to 3 (Inconclusive) and
    # imputation raises it to 8 (SupportSameSource).
    fixtures = resources.files("forensic_bias").joinpath("fixtures/grids")
    grids = {
        name: parse_grid(fixtures.joinpath(name).read_text(encoding="utf-8"))
        for name in ("exemplar_x.txt", "true_y.txt", "observed_y.txt")
    }
    exemplar = grids["exemplar_x.txt"][0]
    observed, width = grids["observed_y.txt"]
    grids["imputed_y.txt"] = (impute_from_reference(observed, exemplar), width)
    true_matches, observed_matches, imputed_matches = (
        count_matches(exemplar, grids[name][0])[1] for name in ("true_y.txt", "observed_y.txt", "imputed_y.txt")
    )
    observed_decision = decide_source(observed_matches)
    imputed_decision = decide_source(imputed_matches)
    return {
        **{name: grid_text(cells, width) for name, (cells, width) in grids.items()},
        "report.json": {
            "true_matches": true_matches,
            "observed_matches": observed_matches,
            "imputed_matches": imputed_matches,
            "n_missing": observed.count("?"),
            "observed_decision": observed_decision.value,
            "imputed_decision": imputed_decision.value,
            "decision_flipped": observed_decision is not imputed_decision,
        },
    }


# ------------------------------------------------------------- delta-impute

_DELTA_SCHEMA = PresetSchema(
    name="delta-impute",
    summary="Monte Carlo distribution of the imputation bias factor.",
    params=(
        ParamSpec("rows", int, ImputationSimParams.rows, "grid rows"),
        ParamSpec("cols", int, ImputationSimParams.cols, "grid columns"),
        ParamSpec("p_same", float, ImputationSimParams.model.p_same, "per-cell agreement rate, same source"),
        ParamSpec("p_diff", float, ImputationSimParams.model.p_diff, "per-cell agreement rate, different source"),
        ParamSpec("missing_share", float, ImputationSimParams.missing_share, "share of cells smudged"),
        ParamSpec("n_reps", int, 10_000, "Monte Carlo replicates"),
        ParamSpec("mask_mode", str, ImputationSimParams.mask_mode, "masking: exact count or per-cell coin"),
    ),
)


def _build_delta_impute(params: dict) -> ImputationSimParams:
    model = CellAgreementModel(params["p_same"], params["p_diff"])
    sim = ImputationSimParams(params["rows"], params["cols"], model, params["missing_share"], params["mask_mode"])
    _check_count("n_reps", params["n_reps"])
    _check_array_sizes(("(n_reps,) draws", ("n_reps",), (params["n_reps"],)))
    return sim


def _run_delta_impute(params: dict, sim: ImputationSimParams, seed: int) -> dict[str, object]:
    exact_mean = exact_mean_delta(sim)
    exact_q025, exact_median, exact_q975 = exact_delta_quantiles(sim)
    counts = sample_delta_impute(sim, params["n_reps"], rng=substream(seed, 0))
    draws = bias_factors(sim, counts)
    # numpy's default linear quantiles (Hyndman & Fan type 7) over the draws,
    # read off the histogram of the counts.
    q025, median, q975 = bias_factor_percentiles(sim, counts, [2.5, 50.0, 97.5])
    # Scaled by the largest draw so neither the sum nor the squares overflow;
    # in place, since the counts are still held.
    top = float(draws.max())
    scaled = np.divide(draws, top, out=draws)
    n_reps = params["n_reps"]
    se = top * float(scaled.std(ddof=1)) / math.sqrt(n_reps) if n_reps > 1 else None
    return {
        "estimate.json": {
            "mean_delta": top * float(scaled.mean()),
            "exact_mean_delta": exact_mean,
            "mc_standard_error": se,
            "exact_relative_standard_error": exact_relative_standard_error(sim, n_reps),
            "q025": float(q025),
            "median": float(median),
            "q975": float(q975),
            "exact_q025": exact_q025,
            "exact_median": exact_median,
            "exact_q975": exact_q975,
            "n_reps": n_reps,
            "missing_share": params["missing_share"],
            "mask_mode": params["mask_mode"],
            "p_same": sim.model.p_same,
            "p_diff": sim.model.p_diff,
        },
    }


# ----------------------------------------------------------------- feedback

_FEEDBACK_SCHEMA = PresetSchema(
    name="feedback",
    summary="Conviction feedback loop: truthful vs biased belief convergence.",
    params=(
        ParamSpec("alpha_true", float, FeedbackParams.alpha_true, "true trait rate among sources"),
        ParamSpec("n_obs", int, FeedbackParams.n_obs, "adjudicated cases per trajectory"),
        ParamSpec("n_seeds", int, 1000, "paired replicates"),
        ParamSpec("wrongful_rate", float, FeedbackParams.biased.wrongful_rate, "share of wrongful convictions when biased"),
        ParamSpec("trait_skew", float, FeedbackParams.biased.trait_skew, "trait rate multiplier on wrongful cases"),
        ParamSpec("prior_a", float, FeedbackParams.prior.a, "Beta prior a"),
        ParamSpec("prior_b", float, FeedbackParams.prior.b, "Beta prior b"),
    ),
)


def _build_feedback(params: dict) -> FeedbackParams:
    prior = BetaPrior(params["prior_a"], params["prior_b"])
    biased = FeedbackRegime(params["wrongful_rate"], params["trait_skew"])
    experiment = FeedbackParams(params["alpha_true"], params["n_obs"], prior, biased)
    _check_count("n_seeds", params["n_seeds"])
    _check_array_sizes(
        ("(2, n_obs) trajectory uniforms", ("n_obs",), (2, params["n_obs"])),
        ("(n_seeds, 4) counts", ("n_seeds",), (params["n_seeds"], 4)),
    )
    return experiment


def _run_feedback(params: dict, experiment: FeedbackParams, seed: int) -> dict[str, object]:
    alpha_true, n_obs = experiment.alpha_true, experiment.n_obs

    # Illustrative pair under common random numbers, on its own substream.
    trajectory = {
        "step": np.broadcast_to(np.arange(1, n_obs + 1), (2, n_obs)),
        "posterior_mean": simulate_feedback(experiment, rng=substream(seed, 0)),
        "regime": np.broadcast_to(np.array(["truthful", "biased"])[:, None], (2, n_obs)),
        "seed": np.broadcast_to(0, 2 * n_obs),
    }
    means = run_paired_feedback(experiment, params["n_seeds"], master_seed=seed)
    exact_truthful, exact_biased = exact_final_mean_and_gap(experiment)
    gaps = np.abs(means - alpha_true)
    return {
        "trajectory.csv": trajectory,
        "gaps.csv": {"seed": range(params["n_seeds"]), "truthful_final_mean": means[0], "biased_final_mean": means[1]},
        "aggregate.json": {
            "alpha_true": alpha_true,
            "n_obs": n_obs,
            "n_seeds": params["n_seeds"],
            "prior_mean": experiment.prior.mean,
            "mean_final_truthful": float(np.mean(means[0])),
            "mean_final_biased": float(np.mean(means[1])),
            "mean_gap_truthful": float(np.mean(gaps[0])),
            "mean_gap_biased": float(np.mean(gaps[1])),
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
        ParamSpec("n_runs", int, 1000, "paired replicates"),
        ParamSpec("k", int, ChainParams.k, "analysts per chain"),
        ParamSpec("pool_n", int, ChainParams.pool_n, "suspect pool size"),
        ParamSpec("trait_prob", float, ChainParams.trait_prob, "case trait probability"),
        ParamSpec("p_match_same", float, ChainParams.model.p_same, "match rate under same source"),
        ParamSpec("p_match_diff", float, ChainParams.model.p_diff, "match rate under different source"),
        ParamSpec("missing_share", str, "random", "'random' (uniform on [0, 0.5)) or a fixed share"),
        ParamSpec("same_source", bool, ChainParams.same_source, "ground truth of the case"),
        ParamSpec("peer_history", str, ChainParams.peer_history, "history handed to tilde terms"),
    ),
)


def _build_propagation(params: dict) -> ChainParams:
    model = CellAgreementModel(params["p_match_same"], params["p_match_diff"])
    share = params["missing_share"]
    try:
        share = None if share == "random" else float(share)
    except ValueError:
        raise ValueError(f"missing_share must be 'random' or a number, got {share!r}") from None
    chain_fields = ("k", "pool_n", "trait_prob", "same_source", "peer_history")
    chain = ChainParams(**{name: params[name] for name in chain_fields}, model=model, missing_share=share)
    _check_count("n_runs", params["n_runs"])
    _check_array_sizes(("(n_runs, 1 + 2k) uniforms", ("n_runs", "k"), (params["n_runs"], 1 + 2 * params["k"])))
    return chain


def _run_propagation(params: dict, chain: ChainParams, seed: int) -> dict[str, object]:
    study = monte_carlo_chains(chain, params["n_runs"], master_seed=seed)
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

def _positive_list(params: Mapping[str, object], name: str) -> list[float]:
    """The values of the comma-separated list params[name]; ValueError
    naming it unless there is at least one and each is a finite number > 0."""
    try:
        values = [float(tok) for tok in params[name].split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values or not all(0 < v < math.inf for v in values):
        raise ValueError(f"parameter {name}: expected comma-separated numbers, each finite and > 0, got {params[name]!r}")
    return values


_TRIER_SCHEMA = PresetSchema(
    name="trier",
    summary="Compound expert streams into guilt odds; systemic tilt is the product of the betas.",
    params=(
        ParamSpec("pool_n", int, 10, "suspect pool size"),
        ParamSpec("stream_lrs", str, "2,3,5", "comma-separated neutral stream LRs"),
        ParamSpec("betas", str, "1.5,1.0,2.0", "comma-separated per-stream bias factors"),
        ParamSpec("context_lr", float, 1.0, "likelihood ratio of context heard directly"),
    ),
)


def _build_trier(params: dict) -> tuple[list[float], list[float]]:
    """The stream LRs and the betas, parsed once; their lengths must match."""
    _check_count("pool_n", params["pool_n"])
    _check_positive("context_lr", params["context_lr"])
    lrs, betas = _positive_list(params, "stream_lrs"), _positive_list(params, "betas")
    if len(lrs) != len(betas):
        raise ValueError(f"stream_lrs has {len(lrs)} values but betas has {len(betas)}; they must match")
    return lrs, betas


def _run_trier(params: dict, streams: tuple[list[float], list[float]], seed: int) -> dict[str, object]:
    lrs, betas = streams
    report = case_report(
        params["pool_n"],
        [math.log(v) for v in lrs],
        [math.log(v) for v in betas],
        math.log(params["context_lr"]),
    )
    return {"case_report.json": report}


# ------------------------------------------------------------- orchestrator

PRESETS: dict[str, Preset] = {
    "mayfield": Preset(_MAYFIELD_SCHEMA, _run_mayfield),
    "race": Preset(_RACE_SCHEMA, _run_race, _build_race, "use a smaller lr_true or a larger pool_n"),
    "relevance": Preset(_RELEVANCE_SCHEMA, _run_relevance, _build_relevance),
    "imputation-table": Preset(_TABLE_SCHEMA, _run_imputation_table),
    "imputation-grid": Preset(_GRID_SCHEMA, _run_imputation_grid),
    "delta-impute": Preset(_DELTA_SCHEMA, _run_delta_impute, _build_delta_impute, "use a smaller grid, missing_share or p_same/p_diff"),
    "feedback": Preset(_FEEDBACK_SCHEMA, _run_feedback, _build_feedback),
    "propagation": Preset(_PROPAGATION_SCHEMA, _run_propagation, _build_propagation, "use a larger p_match_diff or a smaller k"),
    "trier": Preset(_TRIER_SCHEMA, _run_trier, _build_trier, "use smaller stream_lrs, betas or context_lr"),
}


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)!r}"
        ) from None


def resolve_and_build(preset: Preset, overrides: Mapping[str, object]) -> tuple[dict[str, object], object]:
    """The preset's resolved parameters and the record its build step makes
    of them, None without one.  A record's ValueError or OverflowError is a
    ConfigError naming every resolved parameter."""
    params = preset.schema.resolve(overrides)
    if preset.build is None:
        return params, None
    try:
        return params, preset.build(params)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{exc} (at {format_params(params)})") from exc


def run_preset(
    name: str,
    seed: int,
    overrides: Mapping[str, object] | None = None,
    *,
    out_dir: Path,
) -> RunManifest:
    """Resolve and build, run, write the artifacts, checksum them, and write the manifest last.

    Returns the manifest.  An out_dir that cannot be created, or whose
    old manifest cannot be removed, is a ConfigError, as is a runner's
    OverflowError when the preset has an overflow_hint.  The runner runs
    before out_dir is created, so one that fails leaves out_dir as it
    was, or not there; a write that fails raises ArtifactWriteError and
    leaves no manifest.
    """
    preset = get_preset(name)
    validate_seed(seed)
    params, record = resolve_and_build(preset, overrides or {})
    try:
        artifacts = preset.run(params, record, seed)
    except OverflowError as exc:  # a result past float range
        if preset.overflow_hint is None:
            raise
        raise ConfigError(f"{exc} at {format_params(params)}; {preset.overflow_hint}") from exc
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out_dir}: cannot create the output directory: {exc}") from exc
    try:
        (out_dir / MANIFEST_NAME).unlink(missing_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"--out {out_dir}: cannot remove the previous manifest: {exc.strerror or exc}; "
            "the previous run is left as it was"
        ) from exc
    digests = {}
    try:
        for artifact, content in artifacts.items():
            path = out_dir / artifact
            if path.suffix == ".csv":
                digests[artifact] = write_csv(path, content)
            elif path.suffix == ".json":
                digests[artifact] = write_json(path, content)
            else:
                digests[artifact] = write_text(path, content)
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
