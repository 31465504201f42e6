"""Command-line harness: `bias run`, `bias list-presets`, `bias validate`,
`bias verify`.

`parse_args` reads the command line by one table, `_COMMANDS`, which
also gives the usage line and the `-h`/`--help` text.  An option is
`--flag value` or `--flag=value`, always spelled in full; the token
after an option is its value even when it starts with `-`; a repeated
option keeps its last value, and `--set` keeps every value, in order.
A usage error (no or an unknown command, an unknown option or one
without a value, a missing required option, the wrong number of
positionals, a value its option refuses) prints a usage line and
"bias <command>: error: <message>" on stderr and raises SystemExit(2)
before anything is written; `-h` prints the help and raises
SystemExit(0).

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

import sys
import warnings
from collections.abc import Callable
from pathlib import Path
from types import SimpleNamespace

from .config import ConfigError, format_params, parse_config_text, parse_set_args
from .outputs import MANIFEST_NAME, read_manifest, verify_artifacts
from .presets import PRESETS, ArtifactWriteError, get_preset, resolve_and_build, run_preset
from .seeding import validate_seed

__all__ = ["main", "parse_args"]


def _seed_arg(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise ValueError(f"seed must be an integer, got {text!r}") from None
    return validate_seed(seed)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"expected a positive integer, got {text!r}") from None
    if value < 1:
        raise ValueError(f"expected a positive integer, got {text!r}")
    return value


# Each command maps to (help, options, positionals).  An option maps its
# flag to (dest, converter, required, repeatable, metavar, help); an
# absent option reads None, or [] when repeatable.  A positional is
# (dest, converter, help), all of them required.  A converter refuses a
# value by raising ValueError.
_COMMANDS = {
    "run": (
        "run a preset and write its artifacts plus a manifest",
        {
            "--preset": ("preset", str, True, False, "NAME", "preset name (see list-presets)"),
            "--seed": ("seed", _seed_arg, True, False, "SEED", "master seed (unsigned 64-bit)"),
            "--set": ("set_args", str, False, True, "KEY=VALUE", "override one parameter (repeatable)"),
            "--config": ("config", Path, False, False, "FILE", "KEY=VALUE file of overrides"),
            "--out": ("out", Path, True, False, "DIR", "output directory"),
            "--threads": ("threads", _positive_int, False, False, "N", "accepted for compatibility; has no effect"),
        },
        (),
    ),
    "list-presets": ("list presets and their parameters", {}, ()),
    "validate": (
        "check a config file against a preset schema",
        {
            "--preset": (
                "preset", str, False, False, "NAME", "preset to validate against (overrides the file's 'preset' key)"
            ),
        },
        (("config", Path, "KEY=VALUE file to check"),),
    ),
    "verify": (
        "check a run directory's files against its manifest",
        {},
        (("dir", Path, "output directory of a run"),),
    ),
}

_HELP_FLAGS = ("-h", "--help")


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: bias {{{','.join(_COMMANDS)}}} [-h] ..."
    _, options, positionals = _COMMANDS[command]
    words = ["usage: bias", command, "[-h]"]
    for flag, (_, _, required, repeatable, metavar, _) in options.items():
        word = f"{flag} {metavar}"
        words.append(word if required else f"[{word}]..." if repeatable else f"[{word}]")
    words += [dest for dest, _, _ in positionals]
    return " ".join(words)


def _help(command: str | None) -> str:
    if command is None:
        summary = "Seedable simulations of contextual bias in forensic evidence evaluation."
        heading, rows = "commands", [(name, entry[0]) for name, entry in _COMMANDS.items()]
        footer = ["", "`bias <command> -h` lists a command's options."]
    else:
        summary, options, positionals = _COMMANDS[command]
        heading, rows = "arguments", [("-h, --help", "show this help and exit")]
        rows += [(dest, text) for dest, _, text in positionals]
        rows += [(f"{flag} {metavar}", text) for flag, (_, _, _, _, metavar, text) in options.items()]
        footer = []
    width = max(len(name) for name, _ in rows) + 2
    lines = [_usage(command), "", summary, "", f"{heading}:"]
    lines += [f"  {name.ljust(width)}{text}" for name, text in rows]
    return "\n".join(lines + footer)


def _usage_error(command: str | None, message: str) -> SystemExit:
    prog = "bias" if command is None else f"bias {command}"
    print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
    return SystemExit(2)


def _convert(command: str, name: str, converter: Callable[[str], object], text: str) -> object:
    try:
        return converter(text)
    except ValueError as exc:
        raise _usage_error(command, f"argument {name}: {exc}") from None


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read argv, the command line after the program name, by _COMMANDS.

    Returns the command and one attribute per option and positional.
    A usage error prints a usage line and an error line on stderr and
    raises SystemExit(2); -h or --help prints the help on stdout and
    raises SystemExit(0).
    """
    if not argv:
        raise _usage_error(None, "no command given")
    command, *rest = argv
    if command in _HELP_FLAGS:
        print(_help(None))
        raise SystemExit(0)
    if command not in _COMMANDS:
        raise _usage_error(None, f"unknown command {command!r} (choose from {', '.join(_COMMANDS)})")
    _, options, positionals = _COMMANDS[command]
    values = {dest: [] if repeatable else None for dest, _, _, repeatable, _, _ in options.values()}
    given: list[str] = []
    tokens = iter(rest)
    for token in tokens:
        if token in _HELP_FLAGS:
            print(_help(command))
            raise SystemExit(0)
        if not token.startswith("-"):
            given.append(token)
            continue
        flag, equals, value = token.partition("=")
        if flag not in options:
            raise _usage_error(command, f"unknown option {flag}")
        if not equals:
            value = next(tokens, None)
            if value is None:
                raise _usage_error(command, f"argument {flag}: expected one value")
        dest, converter, _, repeatable, _, _ = options[flag]
        value = _convert(command, flag, converter, value)
        if repeatable:
            values[dest].append(value)
        else:
            values[dest] = value
    missing = [flag for flag, (dest, _, required, *_) in options.items() if required and values[dest] is None]
    missing += [dest for dest, _, _ in positionals[len(given) :]]
    if missing:
        raise _usage_error(command, f"the following arguments are required: {', '.join(missing)}")
    if len(given) > len(positionals):
        raise _usage_error(command, f"unrecognized arguments: {' '.join(given[len(positionals) :])}")
    for (dest, converter, _), token in zip(positionals, given):
        values[dest] = _convert(command, dest, converter, token)
    return SimpleNamespace(command=command, **values)


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


def _out_of_memory_message(args: SimpleNamespace, overrides: dict[str, str]) -> str:
    params = get_preset(args.preset).schema.resolve(overrides)
    sizes = format_params(params, [name for name in _SIZE_PARAMETERS if name in params])
    # A runner fails before --out is created and its old manifest removed, a writer after.
    if not args.out.exists():
        state = "was not created"
    else:
        state = "is left as it was" if (args.out / MANIFEST_NAME).exists() else "holds no manifest"
    return f"error: out of memory running preset {args.preset!r}{' at ' + sizes if sizes else ''}; {args.out} {state}"


def _cmd_run(args: SimpleNamespace) -> int:
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


def _cmd_validate(args: SimpleNamespace) -> int:
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


def _cmd_verify(args: SimpleNamespace) -> int:
    try:
        manifest = read_manifest(args.dir)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {args.dir / MANIFEST_NAME}: {exc}") from exc
    status = verify_artifacts(args.dir, manifest)
    for name, state in status.items():
        print(f"{state} {args.dir / name}")
    return 0 if all(state == "ok" for state in status.values()) else 1


def main(argv: list[str] | None = None) -> int:
    # A warning prints its message alone: no program path, no source line.
    format_warning, warnings.formatwarning = warnings.formatwarning, lambda message, *_: f"warning: {message}\n"
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
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
