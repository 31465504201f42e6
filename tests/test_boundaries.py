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
    # numpy refuses before allocating; the schema refuses it first.
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
