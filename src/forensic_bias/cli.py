"""Command-line harness: `bias run`, `bias list-presets`, `bias validate`,
`bias verify`.

Exit codes: 0 success, 2 for usage and configuration errors (unknown
preset or key, type or range violation, bad seed), 1 for a numeric
failure at runtime, reported with the module it came from, 1 when an
artifact cannot be written, reported in one line with its path, and 1
when memory runs out, reported in one line with the preset's size
parameters and what --out holds.  `verify`
exits 0 when every artifact matches the manifest, 1 when one does not
or a file is missing or unlisted, and 2 when the manifest is absent or
unreadable.  A warning prints as one line, "warning: <message>".
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from pathlib import Path

from .config import ConfigError, format_params, parse_config_text, parse_set_args
from .outputs import MANIFEST_NAME, read_manifest, verify_artifacts
from .presets import PRESETS, ArtifactWriteError, get_preset, resolve_and_build, run_preset
from .seeding import validate_seed

__all__ = ["build_parser", "main"]


def _seed_arg(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    try:
        return validate_seed(seed)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bias",
        description="Seedable simulations of contextual bias in forensic evidence evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a preset and write its artifacts plus a manifest")
    run.add_argument("--preset", required=True, help="preset name (see list-presets)")
    run.add_argument("--seed", required=True, type=_seed_arg, help="master seed (unsigned 64-bit)")
    run.add_argument(
        "--set",
        dest="set_args",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one parameter (repeatable)",
    )
    run.add_argument("--config", type=Path, help="KEY=VALUE file of overrides")
    run.add_argument("--out", required=True, type=Path, help="output directory")
    run.add_argument("--threads", type=_positive_int, default=1, help="accepted for compatibility; has no effect")

    sub.add_parser("list-presets", help="list presets and their parameters")

    validate = sub.add_parser("validate", help="check a config file against a preset schema")
    validate.add_argument("config", type=Path, help="KEY=VALUE file to check")
    validate.add_argument("--preset", help="preset to validate against (overrides the file's 'preset' key)")

    verify = sub.add_parser("verify", help="check a run directory's files against its manifest")
    verify.add_argument("dir", type=Path, help="output directory of a run")

    return parser


def _load_overrides(config_path: Path | None, set_args: list[str]) -> dict[str, str]:
    overrides: dict[str, str] = {}
    if config_path is not None:
        try:
            text = config_path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
        overrides.update(parse_config_text(text))
    overrides.update(parse_set_args(set_args))  # command line wins
    return overrides


def _runtime_error_module(exc: BaseException) -> str:
    # Deepest package frame in the traceback; falls back to the error type's home.
    module = type(exc).__module__
    tb = exc.__traceback__
    while tb is not None:
        name = tb.tb_frame.f_globals.get("__name__", "")
        if name.startswith("forensic_bias"):
            module = name
        tb = tb.tb_next
    return module


# Parameters that set how much memory a run takes, named when it runs out.
_SIZE_PARAMETERS = ("n_runs", "k", "n_seeds", "n_obs", "rows", "cols", "n_reps")


def _out_of_memory_message(args: argparse.Namespace, overrides: dict[str, str]) -> str:
    params = get_preset(args.preset).schema.resolve(overrides)
    sizes = format_params(params, [name for name in _SIZE_PARAMETERS if name in params])
    # A runner fails before --out is created and its old manifest removed, a writer after.
    if not args.out.exists():
        state = "was not created"
    else:
        state = "is left as it was" if (args.out / MANIFEST_NAME).exists() else "holds no manifest"
    return f"error: out of memory running preset {args.preset!r}{' at ' + sizes if sizes else ''}; {args.out} {state}"


def _cmd_run(args: argparse.Namespace) -> int:
    overrides = _load_overrides(args.config, args.set_args)
    overrides.pop("preset", None)  # allowed in files for `validate`; run takes --preset
    try:
        manifest = run_preset(args.preset, args.seed, overrides, out_dir=args.out)
    except ConfigError:
        raise
    except (ValueError, ArithmeticError) as exc:
        print(f"error in {_runtime_error_module(exc)}: {exc}", file=sys.stderr)
        return 1
    except ArtifactWriteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(_out_of_memory_message(args, overrides), file=sys.stderr)
        return 1
    for name in sorted(manifest.artifacts):
        print(f"wrote {args.out / name}")
    print(f"wrote {args.out / MANIFEST_NAME}")
    return 0


def _cmd_list_presets() -> int:
    for name in sorted(PRESETS):
        preset = PRESETS[name]
        print(f"{name}: {preset.schema.summary}")
        for param in preset.schema.params:
            print(f"  {param.name} ({param.type.__name__}, default {param.default!r}): {param.help}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    raw = _load_overrides(args.config, [])
    preset_name = args.preset or raw.pop("preset", None)
    if args.preset:
        raw.pop("preset", None)
    if preset_name is None:
        raise ConfigError("no preset named: pass --preset or put 'preset=NAME' in the file")
    params, _ = resolve_and_build(get_preset(preset_name), raw)
    print(f"OK: preset {preset_name}")
    for key in sorted(params):
        print(f"  {key} = {params[key]!r}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        manifest = read_manifest(args.dir)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {args.dir / MANIFEST_NAME}: {exc}") from exc
    status = verify_artifacts(args.dir, manifest)
    for name, state in status.items():
        print(f"{state} {args.dir / name}")
    return 0 if all(state == "ok" for state in status.values()) else 1


# Built once per process: every call parses into a fresh namespace.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    # A warning prints its message alone: no program path, no source line.
    format_warning, warnings.formatwarning = warnings.formatwarning, lambda message, *_: f"warning: {message}\n"
    try:
        args = _parser().parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "list-presets":
            return _cmd_list_presets()
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "verify":
            return _cmd_verify(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = format_warning
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
