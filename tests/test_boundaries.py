"""Every input exits 0 or 2, and an exit-0 run writes no inf or nan.

The sweep is driven by the preset schemas: one ParamSpec at a time is
set to each boundary value, with every other parameter at its default,
at seeds 0 and 2**64 - 1.  A run must exit 0 (success) or 2 (config
error).  After an exit 0, no artifact may hold an inf or a nan, and
`bias verify` must pass on the run directory.  Sizes too large for numpy
to hold their largest array must exit 2 naming the size parameter.
`bias validate`, given the same overrides as a config file, must exit as
the run does, except that a result past float range is found only by
running: validate may accept what run refuses for that reason alone.
What run refuses before it computes, validate refuses with its message.
"""

import math
import re
import warnings

import pytest

from forensic_bias.cli import main
from forensic_bias.presets import PRESETS

BOUNDARY = (
    "0",
    "5e-324",
    "1e-300",
    *(repr(v) for x in (0.5, 1.0) for v in (math.nextafter(x, 0.0), x, math.nextafter(x, 2.0))),
    "1e308",
    "-1",
    str(2**63),
)
SEEDS = ("0", str(2**64 - 1))

# Size parameters run at these small values, and are swept only over the
# boundary values no larger than SIZE_CAP.  The cap bounds the sweep's
# time and memory, which grow with these parameters; it is not there to
# hide a defect.
SMALL = {"n_reps": "50", "n_runs": "10", "n_seeds": "4", "k": "3", "rows": "4", "cols": "3", "n_obs": "8"}
SIZE_CAP = 16

NON_FINITE = re.compile(r"(?<![a-z_])(inf|infinity|nan)(?![a-z_])", re.IGNORECASE)


def _cases():
    for name, preset in sorted(PRESETS.items()):
        if not preset.schema.params:
            yield pytest.param(name, [{}], None, id=name)
        for spec in preset.schema.params:
            values = BOUNDARY
            if spec.name in SMALL:
                values = tuple(v for v in BOUNDARY if float(v) <= SIZE_CAP)
            yield pytest.param(name, [{spec.name: v} for v in values], None, id=f"{name}-{spec.name}")
    # p_same/p_diff = inf at a zero share: r**0 taken as 0 * log r is nan.
    for mode in ("per_cell", "exact"):
        pair = {"p_diff": "5e-324", "missing_share": "0", "mask_mode": mode}
        yield pytest.param("delta-impute", [pair], None, id=f"delta-impute-infinite-ratio-{mode}")
    # Each of these sizes makes an array of more than 2**63 - 1 bytes, which
    # numpy refuses before allocating; the preset's build step refuses it first.
    for name, key, power in (
        ("propagation", "n_runs", 62),
        ("propagation", "n_runs", 63),
        ("propagation", "k", 61),
        ("propagation", "k", 62),
        ("feedback", "n_seeds", 62),
        ("feedback", "n_obs", 62),
        ("delta-impute", "n_reps", 62),
    ):
        yield pytest.param(name, [{key: str(2**power)}], key, id=f"{name}-{key}-2**{power}")


@pytest.mark.parametrize("preset, settings, too_big", _cases())
def test_every_boundary_value_exits_0_or_2(preset, settings, too_big, tmp_path, capsys):
    names = {p.name for p in PRESETS[preset].schema.params}
    small = {k: v for k, v in SMALL.items() if k in names}
    for seed in SEEDS:
        for i, setting in enumerate(settings):
            out = tmp_path / f"{seed}-{i}"
            argv = ["run", "--preset", preset, "--seed", seed, "--out", str(out)]
            for key, value in {**small, **setting}.items():
                argv += ["--set", f"{key}={value}"]
            config = tmp_path / "overrides.txt"
            config.write_text("".join(f"{key}={value}\n" for key, value in {**small, **setting}.items()))
            with warnings.catch_warnings():
                # feedback warns, by design, when it clamps the wrongful-case trait rate.
                warnings.filterwarnings("ignore", message=r"trait_skew \* alpha_true", category=RuntimeWarning)
                code = main(argv)
                err = capsys.readouterr().err
                validated = main(["validate", "--preset", preset, str(config)])
            where = f"{preset} {setting} seed={seed}"
            assert code in (0, 2), f"{where}: exit {code}: {err}"
            if code == 0 or "float range" not in err:
                assert validated == code, f"{where}: validate exit {validated}, run exit {code}: {err}"
            if too_big is not None:
                named = f"{too_big}={setting[too_big]}"
                assert code == 2 and "error: parameter" in err and named in err, f"{where}: exit {code}: {err}"
            if code == 0:
                for path in sorted(out.iterdir()):
                    found = NON_FINITE.search(path.read_text(encoding="utf-8"))
                    assert found is None, f"{where}: {path.name} holds {found.group()!r}"
                assert main(["verify", str(out)]) == 0, where
            capsys.readouterr()


TRAIT_PROB_RANGE = "trait_prob must lie strictly inside (0, 0.5) so the doubled rate stays valid"

# Configs that run refuses before it computes anything: the record that
# both commands build refuses each.
REFUSED_WHEN_BUILT = [
    # 10**10 cells at share 1/2 need the pmf at 4,000,081 counts.
    pytest.param(
        "delta-impute",
        {"rows": "100000", "cols": "100000", "missing_share": "0.5", "p_same": "0.5000000001", "p_diff": "0.5"},
        "need the pmf at 4000081 counts",
        id="wide-pmf-window",
    ),
    *(
        pytest.param(
            "delta-impute",
            {"p_diff": "5e-324", "missing_share": "0", "mask_mode": mode},
            "p_same/p_diff = inf exceeds float range",
            id=f"infinite-ratio-{mode}",
        )
        for mode in ("per_cell", "exact")
    ),
    pytest.param("propagation", {"p_match_diff": "5e-324"}, "p_same/p_diff = inf exceeds float range", id="infinite-match-ratio"),
    pytest.param("delta-impute", {"rows": str(2**62), "cols": "4"}, "int64 limit 2**63 - 1", id="int64-grid"),
    # One field each: the library call or record that the build step
    # makes, or the build step itself, refuses it with its own message.
    *(
        pytest.param(preset, {key: value}, message, id=f"{preset}-{key}={value}")
        for preset, key, value, message in (
            ("delta-impute", "p_same", "1.5", "need 0 < p_diff < p_same < 1, got p_same=1.5 p_diff=0.25"),
            ("delta-impute", "missing_share", "2", "missing_share must lie in [0, 1], got 2.0"),
            ("delta-impute", "mask_mode", "often", "mask_mode must be 'exact' or 'per_cell', got 'often'"),
            ("delta-impute", "n_reps", "0", "n_reps must be an int >= 1, got 0"),
            ("feedback", "alpha_true", "1", "alpha_true must lie strictly inside (0, 1), got 1.0"),
            ("feedback", "wrongful_rate", "-1", "wrongful_rate must lie in [0, 1], got -1.0"),
            ("feedback", "trait_skew", "0", "trait_skew must be positive and finite, got 0.0"),
            ("feedback", "prior_a", "0", "Beta parameters must be positive and finite, got a=0.0 b=8.0"),
            ("feedback", "n_seeds", "0", "n_seeds must be an int >= 1, got 0"),
            ("propagation", "trait_prob", "0", f"{TRAIT_PROB_RANGE}, got 0.0"),
            ("propagation", "trait_prob", "0.5", f"{TRAIT_PROB_RANGE}, got 0.5"),
            ("propagation", "k", "0", "k must be an int >= 1, got 0"),
            ("propagation", "pool_n", "0", "pool_n must be an int >= 1, got 0"),
            ("propagation", "p_match_same", "1", "need 0 < p_diff < p_same < 1, got p_same=1.0 p_diff=0.25"),
            ("propagation", "peer_history", "x", "peer_history must be 'contribution' or 'posterior', got 'x'"),
            ("propagation", "n_runs", "0", "n_runs must be an int >= 1, got 0"),
            ("propagation", "missing_share", "abc", "missing_share must be 'random' or a number, got 'abc'"),
            ("propagation", "missing_share", "2", "missing_share must lie in [0, 1], got 2.0"),
            ("race", "trait_prob", "0", f"{TRAIT_PROB_RANGE}, got 0.0"),
            ("race", "trait_prob", "0.5", f"{TRAIT_PROB_RANGE}, got 0.5"),
            ("race", "pool_n", "0", "pool_n must be an int >= 1, got 0"),
            ("race", "lr_true", "0", "lr_true must be > 0, got 0.0"),
            ("relevance", "tolerance", "-1", "tolerance must be nonnegative, got -1.0"),
            ("trier", "pool_n", "0", "pool_n must be an int >= 1, got 0"),
            ("trier", "context_lr", "0", "context_lr must be > 0, got 0.0"),
            ("trier", "stream_lrs", "abc", "parameter stream_lrs: expected comma-separated numbers, each finite and > 0, got 'abc'"),
            ("trier", "betas", "1,2", "stream_lrs has 3 values but betas has 2; they must match"),
        )
    ),
]


@pytest.mark.parametrize("preset, settings, message", REFUSED_WHEN_BUILT)
def test_validate_refuses_what_run_refuses_before_computing(preset, settings, message, tmp_path, capsys):
    config = tmp_path / "overrides.txt"
    config.write_text("".join(f"{key}={value}\n" for key, value in settings.items()))
    out = tmp_path / "out"
    assert main(["validate", "--preset", preset, str(config)]) == 2
    validated = capsys.readouterr().err
    assert main(["run", "--preset", preset, "--seed", "7", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == validated
    assert message in validated
    for key in settings:
        assert f"{key}=" in validated
    assert not out.exists()
