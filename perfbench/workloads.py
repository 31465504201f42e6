"""The benchmark's workloads and the checks that decide whether a run failed.

A workload is a fixed list of `bias run` invocations (a round).  Every
parameter that sets the amount of work is pinned with --set at today's
default, so a later change of a default does not change the workload.
The seed comes from the benchmark's --seed; the program receives only
command-line arguments.

The checks hold for any correct implementation: they compare against
closed forms, exact identities and the built-in fixtures, never against
pinned bytes, so an intended one-time change in bytes is not a failure.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Workload:
    name: str
    runs: tuple[tuple[str, tuple[str, ...]], ...]  # (preset, --set pairs) per run of a round
    unit: str
    units_per_run: float
    # Per-run totals that per-layer ratios divide by, e.g. replicates.
    denominators: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "impute-mc",
            (("delta-impute", ("rows=10", "cols=5", "n_reps=10000", "mask_mode=per_cell")),),
            "replicate",
            10_000,
            {"replicates": 10_000},
        ),
        Workload(
            "chain-study",
            (("propagation", ("n_runs=1000", "k=5")),),
            "analyst report",
            2 * 5 * 1000,
            {"reports": 2 * 5 * 1000},
        ),
        Workload(
            "feedback-replay",
            (("feedback", ("n_seeds=1000", "n_obs=100")),),
            "trajectory",
            2 * 1000,
            {"trajectories": 2 * 1000},
        ),
        Workload(
            "harness-sweep",
            tuple(
                (preset, ())
                for preset in ("mayfield", "race", "relevance", "imputation-table", "imputation-grid", "trier")
            ),
            "preset run",
            1,
        ),
    )
}


def argv_for(preset: str, sets: tuple[str, ...], seed: int, out: Path) -> list[str]:
    argv = ["run", "--preset", preset, "--seed", str(seed), "--threads", "1", "--out", str(out)]
    for pair in sets:
        argv += ["--set", pair]
    return argv


# ------------------------------------------------------------------ helpers


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _json(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text(encoding="utf-8"))


def _csv_rows(out: Path, name: str) -> list[list[str]]:
    with open(out / name, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def digests(out: Path) -> dict[str, str]:
    """sha256 of every file the run left, for byte-identity across runs."""
    return {p.name: _sha256(p) for p in sorted(out.iterdir())}


def check_manifest(out: Path, preset: str, seed: int) -> dict:
    manifest = _json(out, "manifest.json")
    _require(manifest["preset"] == preset and manifest["seed"] == seed, "manifest names another run")
    for name, digest in manifest["artifacts"].items():
        _require(_sha256(out / name) == digest, f"checksum of {name} does not match the manifest")
    return manifest["parameters"]


# ----------------------------------------------------------- preset checks

# The Monte Carlo mean of r**M, M ~ Binomial(n, s), is heavy-tailed above:
# one replicate with M >= 29 lifts the mean of 10,000 by more than 4
# standard errors, which happens at about 0.7% of seeds (e.g. seed 36).
# Below, 4 standard errors never trip for a correct program; above, the
# limit is set where a correct program trips at about 1 seed in 80,000.
# The quantile bands catch what that wide upper limit lets through: each
# reported quantile must lie between exact quantiles of M at levels 0.01
# or 0.05 away, which is at least 6 standard errors of an empirical CDF
# over 10,000 replicates.
_SE_BELOW = 4.0
_SE_ABOVE = 64.0
_QUANTILE_BANDS = {"q025": (0.015, 0.035), "median": (0.45, 0.55), "q975": (0.965, 0.985)}


def _binomial_quantile(n: int, s: float, level: float) -> int:
    """Smallest m with P(M <= m) >= level for M ~ Binomial(n, s)."""
    cdf = 0.0
    for m in range(n + 1):
        cdf += math.comb(n, m) * s**m * (1.0 - s) ** (n - m)
        if cdf >= level:
            return m
    return n


def _check_delta_impute(out: Path, params: dict) -> None:
    est = _json(out, "estimate.json")
    _require(est["q025"] >= 1.0, f"q025 = {est['q025']!r} < 1")
    _require(params["mask_mode"] == "per_cell", "closed form below assumes per_cell masking")
    n = params["rows"] * params["cols"]
    s, r, reps = params["missing_share"], params["p_same"] / params["p_diff"], params["n_reps"]
    mean = (1.0 - s + s * r) ** n
    se = math.sqrt(((1.0 - s + s * r * r) ** n - mean * mean) / reps)
    deviation = (est["mean_delta"] - mean) / se
    _require(
        -_SE_BELOW <= deviation <= _SE_ABOVE,
        f"mean_delta {est['mean_delta']!r} is {deviation:.2f} standard errors from {mean!r}",
    )
    for key, (lo, hi) in _QUANTILE_BANDS.items():
        m = math.log(est[key]) / math.log(r)
        band = (_binomial_quantile(n, s, lo), _binomial_quantile(n, s, hi))
        _require(band[0] - 1e-9 <= m <= band[1] + 1e-9, f"{key} = r**{m:.6f}, outside r**{band}")


def _check_propagation(out: Path, params: dict) -> None:
    k, n_runs = params["k"], params["n_runs"]
    rows = _csv_rows(out, "results.csv")
    _require(len(rows) == 2 * k * n_runs, f"results.csv has {len(rows)} rows, expected {2 * k * n_runs}")
    first = {row[0]: row[2] for row in _csv_rows(out, "summary.csv") if row[1] == "1"}
    _require(first["cascade"] == first["snowball"], "analyst 1 cascade and snowball means differ")
    curves = _json(out, "report.json")["mean_bias_ratio"]
    _require(
        all(s >= c for s, c in zip(curves["snowball"], curves["cascade"], strict=True)),
        "snowball mean bias falls below cascade",
    )


def _check_feedback(out: Path, params: dict) -> None:
    rows = _csv_rows(out, "gaps.csv")
    _require(len(rows) == params["n_seeds"], f"gaps.csv has {len(rows)} rows")
    agg = _json(out, "aggregate.json")
    _require(agg["mean_gap_biased"] > agg["mean_gap_truthful"], "biased gap is not above truthful gap")


def _check_mayfield(out: Path, params: dict) -> None:
    _require(_json(out, "report.json")["average_delta"] == 1.7, "mayfield average is not exactly 1.7")


def _check_trier(out: Path, params: dict) -> None:
    expected = math.prod(float(b) for b in params["betas"].split(","))
    ratio = _json(out, "case_report.json")["systemic_bias_ratio"]
    _require(math.isclose(ratio, expected, rel_tol=1e-12, abs_tol=0.0), f"systemic ratio {ratio!r} != {expected!r}")


_RELEVANCE_VERDICTS = {
    "criminal_history_irrelevant": "TaskIrrelevant",
    "tool_shape_no_guilt_link": "TaskRelevant",
    "tool_shape_relevant": "TaskRelevant",
}


def _check_relevance(out: Path, params: dict) -> None:
    verdicts = {row[0]: row[1] for row in _csv_rows(out, "verdicts.csv")}
    _require(verdicts == _RELEVANCE_VERDICTS, f"relevance verdicts {verdicts!r}")


def _check_imputation_grid(out: Path, params: dict) -> None:
    _require(_json(out, "report.json")["decision_flipped"] is True, "grid decision did not flip")


PRESET_CHECKS = {
    "delta-impute": _check_delta_impute,
    "propagation": _check_propagation,
    "feedback": _check_feedback,
    "mayfield": _check_mayfield,
    "trier": _check_trier,
    "relevance": _check_relevance,
    "imputation-grid": _check_imputation_grid,
}


def check_run(out: Path, preset: str, seed: int) -> dict[str, str]:
    """Raise CheckFailed if the run's outputs are wrong; return their digests."""
    params = check_manifest(out, preset, seed)
    check = PRESET_CHECKS.get(preset)
    if check is not None:
        check(out, params)
    return digests(out)
