"""Typed experiment parameters with per-preset schemas.

A preset declares its parameters as ParamSpecs (name, type, default,
range check).  User overrides arrive as KEY=VALUE strings, either from
--set arguments or from a config file; resolution rejects unknown keys,
type mismatches, non-finite floats, out-of-range values and values that
are bad together (a schema's own check), with messages that name the
offending parameters, and echoes every default into the resolved map so
the manifest records the full effective configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

__all__ = [
    "ConfigError",
    "ParamSpec",
    "PresetSchema",
    "format_params",
    "parse_config_text",
    "parse_set_args",
]


class ConfigError(ValueError):
    """A parameter or config line the schema refuses."""


_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}


def _coerce(spec: "ParamSpec", raw: object) -> object:
    if isinstance(raw, str):
        text = raw.strip()
        try:
            if spec.type is bool:
                lowered = text.lower()
                if lowered in _TRUE:
                    return True
                if lowered in _FALSE:
                    return False
                raise ValueError(f"not a boolean: {text!r}")
            value = spec.type(text)
        except ValueError as exc:
            raise ConfigError(
                f"parameter {spec.name}: expected {spec.type.__name__}, got {raw!r}"
            ) from exc
    elif spec.type is float and isinstance(raw, int) and not isinstance(raw, bool):
        value = float(raw)
    elif not isinstance(raw, spec.type) or (spec.type is not bool and isinstance(raw, bool)):
        raise ConfigError(
            f"parameter {spec.name}: expected {spec.type.__name__}, got {raw!r}"
        )
    else:
        value = raw
    if spec.type is float and not math.isfinite(value):
        raise ConfigError(f"parameter {spec.name}: must be finite, got {raw!r}")
    return value


@dataclass(frozen=True)
class ParamSpec:
    """One parameter: its type, default, and an optional range check.

    `check` returns an error message for a bad value and None otherwise,
    so messages can state the violated bound precisely.
    """

    name: str
    type: type
    default: object
    help: str = ""
    check: Callable[[object], str | None] | None = None

    def resolve(self, raw: object) -> object:
        value = _coerce(self, raw)
        if self.check is not None:
            problem = self.check(value)
            if problem is not None:
                raise ConfigError(f"parameter {self.name}: {problem} (got {value!r})")
        return value


@dataclass(frozen=True)
class PresetSchema:
    """A preset's parameters; `check`, like ParamSpec's, returns an error
    message for a resolved map whose values are bad together, else None."""

    name: str
    summary: str
    params: tuple[ParamSpec, ...] = field(default=())
    check: Callable[[Mapping[str, object]], str | None] | None = None

    def __post_init__(self) -> None:
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names in schema {self.name!r}: {names!r}")

    def resolve(self, overrides: Mapping[str, object]) -> dict[str, object]:
        """Defaults plus validated overrides; every parameter is present."""
        known = {p.name for p in self.params}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise ConfigError(
                f"unknown parameter(s) {unknown!r} for preset {self.name!r}; "
                f"valid: {sorted(known)!r}"
            )
        resolved: dict[str, object] = {}
        for p in self.params:
            resolved[p.name] = p.resolve(overrides[p.name]) if p.name in overrides else p.default
        problem = self.check(resolved) if self.check is not None else None
        if problem is not None:
            raise ConfigError(problem)
        return resolved


def format_params(params: Mapping[str, object], names: Iterable[str] | None = None) -> str:
    """The named parameters, by default every one, as "name=value, ..." text."""
    return ", ".join(f"{name}={params[name]!r}" for name in (params if names is None else names))


def parse_config_text(text: str) -> dict[str, str]:
    """Parse KEY=VALUE lines; '#' starts a comment, blank lines are skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected KEY=VALUE, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"config line {lineno}: empty key in {raw!r}")
        if key in out:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def parse_set_args(pairs: Sequence[str]) -> dict[str, str]:
    """Parse repeated --set KEY=VALUE arguments; later keys override earlier."""
    out: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
        out[key] = value.strip()
    return out
