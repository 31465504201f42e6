"""Every input exits 0 or 2, and an exit-0 run writes no inf or nan.

The sweep is driven by the preset schemas: one ParamSpec at a time is
set to each boundary value, with every other parameter at its default,
at seeds 0 and 2**64 - 1.  A run must exit 0 (success) or 2 (config
error).  After an exit 0, no artifact may hold an inf or a nan, and
`bias verify` must pass on the run directory.
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
            yield pytest.param(name, [{}], id=name)
        for spec in preset.schema.params:
            values = BOUNDARY
            if spec.name in SMALL:
                values = tuple(v for v in BOUNDARY if float(v) <= SIZE_CAP)
            yield pytest.param(name, [{spec.name: v} for v in values], id=f"{name}-{spec.name}")
    # p_same/p_diff = inf at a zero share: r**0 taken as 0 * log r is nan.
    for mode in ("per_cell", "exact"):
        pair = {"p_diff": "5e-324", "missing_share": "0", "mask_mode": mode}
        yield pytest.param("delta-impute", [pair], id=f"delta-impute-infinite-ratio-{mode}")


@pytest.mark.parametrize("preset, settings", _cases())
def test_every_boundary_value_exits_0_or_2(preset, settings, tmp_path, capsys):
    names = {p.name for p in PRESETS[preset].schema.params}
    small = {k: v for k, v in SMALL.items() if k in names}
    for seed in SEEDS:
        for i, setting in enumerate(settings):
            out = tmp_path / f"{seed}-{i}"
            argv = ["run", "--preset", preset, "--seed", seed, "--out", str(out)]
            for key, value in {**small, **setting}.items():
                argv += ["--set", f"{key}={value}"]
            with warnings.catch_warnings():
                # feedback warns, by design, when it clamps the wrongful-case trait rate.
                warnings.filterwarnings("ignore", message=r"trait_skew \* alpha_true", category=RuntimeWarning)
                code = main(argv)
            where = f"{preset} {setting} seed={seed}"
            assert code in (0, 2), f"{where}: exit {code}: {capsys.readouterr().err}"
            if code == 0:
                for path in sorted(out.iterdir()):
                    found = NON_FINITE.search(path.read_text(encoding="utf-8"))
                    assert found is None, f"{where}: {path.name} holds {found.group()!r}"
                assert main(["verify", str(out)]) == 0, where
            capsys.readouterr()
