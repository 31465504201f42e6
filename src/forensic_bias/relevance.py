"""Task relevance of case information, decided by conditional independence.

A piece of case information I is task-irrelevant for an evidence
comparison when conditioning on it changes nothing about the joint
behaviour of the evidence given the source hypothesis E:

    P(evidence | E) = P(evidence | I, E)   for every cell and outcome.

This module represents small discrete joints exactly, classifies a named
information variable as TaskRelevant or TaskIrrelevant by complete
enumeration, and builds joints from fixture text that gives
conditional-probability factors in topological order.

Joint fixture file format (one directive per line, '#' starts a comment):

    roles hypothesis=E info=I evidence=XY      # evidence may be "X,Y"
    variable E same diff
    variable I curved flat
    variable XY 00 01 10 11
    factor I
    | 0.3 0.7
    factor E | I
    curved | 0.6 0.4
    flat   | 0.5 0.5
    factor XY | I E
    curved same | 0.1 0.1 0.1 0.7
    ...

Each role is given once, on one roles line or spread over several, and
names at least one variable that no other role names; a factor names
each parent once.  Each factor row lists the parent
assignment left of the bar and the probabilities over the child's
domain (in declared order) right of it.
Decimals (0.25, .5, 5.) are read straight to exact integer ratios, any
other token by Fraction's grammar (21/188, 1e-1), so a fixture designed
to be task-irrelevant yields a discrepancy of exactly zero.

Arithmetic is exact and runs on Python ints.  Every mass and factor
entry is read once as an integer ratio (a FiniteJoint's float mass at
its exact binary value).  Each factor's rows are scaled by the lcm of
their denominators, and their DAG product is a set of integer weights
over one common denominator.  Conditionals and the tolerance are
compared on those weights by cross-multiplying; the largest gap becomes
a float by one correctly rounded int division.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from importlib import resources
from typing import Sequence

__all__ = [
    "JointSchemaError",
    "ZeroMassEventError",
    "FiniteJoint",
    "Verdict",
    "RelevanceVerdict",
    "classify_relevance",
    "parse_joint_fixture",
    "load_builtin_joint",
    "builtin_joint_names",
]

_SUM_TOLERANCE = 1e-9
_TOLERANCE_RATIO = _SUM_TOLERANCE.as_integer_ratio()


class JointSchemaError(ValueError):
    """A joint or factor table is malformed (names, domains, keys, rows)."""


class ZeroMassEventError(ValueError):
    """A conditioning event has zero probability, so the check is undefined."""


def _check_domain(name: str, domain: Sequence[str]) -> tuple[str, ...]:
    domain = tuple(domain)
    if not domain:
        raise JointSchemaError(f"variable {name!r} has an empty domain")
    if len(set(domain)) != len(domain):
        raise JointSchemaError(f"variable {name!r} has duplicate domain values: {domain!r}")
    return domain


def _ratio(value: object, where: str) -> tuple[int, int]:
    """value as an exact (numerator, denominator) pair; a float at its exact binary value."""
    if not isinstance(value, Fraction):
        try:
            value = Fraction(value)
        except (TypeError, ValueError, OverflowError):
            raise JointSchemaError(f"{where}: {value!r} is not a finite number") from None
    return value.numerator, value.denominator


def _off_one(total: int, denominator: int) -> bool:
    """Whether total/denominator differs from 1 by more than _SUM_TOLERANCE, exactly."""
    num, den = _TOLERANCE_RATIO
    return abs(total - denominator) * den > num * denominator


class _Masses(Mapping):
    """Exact masses held as integer weights over one common denominator.

    Reading a mass builds Fraction(weight, denominator); the classifier
    reads the weights themselves.
    """

    __slots__ = ("weights", "denominator")

    def __init__(self, weights: dict[tuple[str, ...], int], denominator: int) -> None:
        self.weights = weights
        self.denominator = denominator

    @classmethod
    def read(cls, masses: Mapping) -> "_Masses":
        """Weights of a {assignment: mass} mapping, each mass read exactly once."""
        ratios = {}
        for key, mass in masses.items():
            key = tuple(key)
            num, den = _ratio(mass, f"mass at {key!r}")
            if num < 0:
                raise JointSchemaError(f"negative mass {mass!r} at {key!r}")
            ratios[key] = num, den
        denominator = math.lcm(*(den for _, den in ratios.values()))
        return cls({key: num * (denominator // den) for key, (num, den) in ratios.items()}, denominator)

    def __getitem__(self, key: tuple[str, ...]) -> Fraction:
        return Fraction(self.weights[key], self.denominator)

    def __iter__(self):
        return iter(self.weights)

    def __len__(self) -> int:
        return len(self.weights)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


@dataclass(frozen=True)
class FiniteJoint:
    """An exact joint distribution over finitely many named variables.

    `variables` fixes the order of assignment tuples; `pmf` maps full
    assignments to masses.  Assignments not listed carry zero mass.
    Masses may be given as floats, ints or Fractions.  Each is read once
    at its exact value (a float at its exact binary value) into integer
    weights over one common denominator, and `pmf` is then a read-only
    mapping of those exact masses, each one a Fraction, so arithmetic
    stays exact all the way to the verdict.  The masses must sum to 1
    within 1e-9, compared exactly.
    """

    variables: tuple[tuple[str, tuple[str, ...]], ...]
    pmf: Mapping[tuple[str, ...], object] = field(hash=False)

    def __post_init__(self) -> None:
        variables = tuple((name, _check_domain(name, dom)) for name, dom in self.variables)
        if not variables:
            raise JointSchemaError("a joint needs at least one variable")
        names = [name for name, _ in variables]
        if len(set(names)) != len(names):
            raise JointSchemaError(f"duplicate variable names: {names!r}")
        pmf = self.pmf if isinstance(self.pmf, _Masses) else _Masses.read(self.pmf)
        for key in pmf.weights:
            if len(key) != len(variables):
                raise JointSchemaError(f"assignment {key!r} has {len(key)} values for {len(variables)} variables")
            for value, (name, dom) in zip(key, variables):
                if value not in dom:
                    raise JointSchemaError(f"assignment {key!r}: {value!r} is not in the domain of {name!r}")
        if _off_one(sum(pmf.weights.values()), pmf.denominator):
            raise JointSchemaError(f"joint mass sums to {sum(self.pmf.values())!r}, not 1")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "pmf", pmf)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.variables)

    def domain(self, name: str) -> tuple[str, ...]:
        for var, dom in self.variables:
            if var == name:
                return dom
        raise JointSchemaError(f"no variable named {name!r} in joint over {self.names!r}")

    def index(self, name: str) -> int:
        for i, (var, _) in enumerate(self.variables):
            if var == name:
                return i
        raise JointSchemaError(f"no variable named {name!r} in joint over {self.names!r}")

    def outcomes(self):
        """All assignments in domain order, including zero-mass ones."""
        return itertools.product(*(dom for _, dom in self.variables))

    def mass(self, assignment: tuple[str, ...]):
        return self.pmf.get(tuple(assignment), 0)


class Verdict(Enum):
    TASK_RELEVANT = "TaskRelevant"
    TASK_IRRELEVANT = "TaskIrrelevant"


@dataclass(frozen=True)
class RelevanceVerdict:
    verdict: Verdict
    max_discrepancy: float

    @property
    def task_relevant(self) -> bool:
        return self.verdict is Verdict.TASK_RELEVANT


def _tolerance_ratio(tolerance: float) -> tuple[int, int]:
    """The tolerance as an exact (numerator, denominator); ValueError
    unless it is nonnegative.  An infinite tolerance reads as 1/0, above
    every gap.  Fraction reads a rational without as_integer_ratio, such
    as a numpy integer."""
    if not tolerance >= 0:
        raise ValueError(f"tolerance must be nonnegative, got {tolerance!r}")
    if tolerance == math.inf:
        return 1, 0
    if hasattr(tolerance, "as_integer_ratio"):
        return tolerance.as_integer_ratio()
    return Fraction(tolerance).as_integer_ratio()


def classify_relevance(
    joint: FiniteJoint,
    tolerance: float = 1e-9,
    *,
    evidence: Sequence[str] = ("X", "Y"),
    info: str = "I",
    hypothesis: str = "E",
) -> RelevanceVerdict:
    """Classify `info` by comparing P(evidence|E) with P(evidence|I,E).

    Enumerates every hypothesis outcome, every info outcome, and every
    joint evidence cell; the verdict is TaskIrrelevant exactly when the
    largest absolute difference between the two conditionals is within
    `tolerance`.  Raises ZeroMassEventError if any conditioning event
    (a hypothesis outcome, or a hypothesis-info pair) has zero mass.
    """
    tol_num, tol_den = _tolerance_ratio(tolerance)
    evidence = tuple(evidence)
    if not evidence:
        raise JointSchemaError("evidence must name at least one variable")
    roles = (*evidence, info, hypothesis)
    if len(set(roles)) != len(roles):
        raise JointSchemaError(f"evidence/info/hypothesis roles overlap: {roles!r}")
    ev_idx = tuple(joint.index(name) for name in evidence)
    i_idx = joint.index(info)
    e_idx = joint.index(hypothesis)

    # One sweep over the support accumulates every marginal we need, as
    # integer weights: the common denominator cancels in each conditional.
    mass_e: dict[str, int] = {}
    mass_ie: dict[tuple[str, str], int] = {}
    mass_ze: dict[tuple[tuple[str, ...], str], int] = {}
    mass_zie: dict[tuple[tuple[str, ...], str, str], int] = {}
    for key, weight in joint.pmf.weights.items():
        z = tuple(key[i] for i in ev_idx)
        i_val, e_val = key[i_idx], key[e_idx]
        mass_e[e_val] = mass_e.get(e_val, 0) + weight
        mass_ie[i_val, e_val] = mass_ie.get((i_val, e_val), 0) + weight
        mass_ze[z, e_val] = mass_ze.get((z, e_val), 0) + weight
        mass_zie[z, i_val, e_val] = mass_zie.get((z, i_val, e_val), 0) + weight

    # |w_ze/w_e - w_zie/w_ie| = |w_ze*w_ie - w_zie*w_e| / (w_e*w_ie); the
    # largest gap is kept as (numerator, denominator) and compared across
    # conditioning events by cross-multiplication.
    cells = tuple(itertools.product(*(joint.domain(name) for name in evidence)))
    worst_num, worst_den = 0, 1
    for e_val in joint.domain(hypothesis):
        w_e = mass_e.get(e_val, 0)
        if w_e == 0:
            raise ZeroMassEventError(f"conditioning event {hypothesis}={e_val} has zero mass")
        for i_val in joint.domain(info):
            w_ie = mass_ie.get((i_val, e_val), 0)
            if w_ie == 0:
                raise ZeroMassEventError(
                    f"conditioning event {info}={i_val}, {hypothesis}={e_val} has zero mass"
                )
            num = max(
                abs(mass_ze.get((z, e_val), 0) * w_ie - mass_zie.get((z, i_val, e_val), 0) * w_e)
                for z in cells
            )
            den = w_e * w_ie
            if num * worst_den > worst_num * den:
                worst_num, worst_den = num, den
    within = worst_num * tol_den <= tol_num * worst_den
    verdict = Verdict.TASK_IRRELEVANT if within else Verdict.TASK_RELEVANT
    # int / int is correctly rounded: the float nearest the exact gap.
    return RelevanceVerdict(verdict, worst_num / worst_den)


def _joint_from_rows(factors) -> FiniteJoint:
    """The joint of factors whose entries are already exact ratios.

    Each factor is (variable, domain, parents, rows): rows maps a parent
    key to its entries as (numerator, denominator) pairs.
    """
    declared: dict[str, tuple[int, tuple[str, ...]]] = {}  # variable: (position, domain)
    tables = []  # per factor: (domain, parent positions, {parent key: integer row})
    denominator = 1
    for variable, domain, parents, ratios in factors:
        if variable in declared:
            raise JointSchemaError(f"variable {variable!r} has a second factor")
        if len(set(parents)) != len(parents):
            raise JointSchemaError(f"factor for {variable!r} names a parent twice: {parents!r}")
        expected_rows = 1
        for parent in parents:
            if parent not in declared:
                raise JointSchemaError(f"factor for {variable!r} names parent {parent!r}, which has no earlier factor")
            expected_rows *= len(declared[parent][1])
        if len(ratios) != expected_rows:
            raise JointSchemaError(f"factor for {variable!r} has {len(ratios)} rows, expected {expected_rows}")
        # Scale the factor's rows to integers over the lcm of their denominators.
        scale = math.lcm(*{den for row in ratios.values() for _, den in row})
        rows = {}
        for key, row in ratios.items():
            if len(key) != len(parents):
                raise JointSchemaError(f"factor for {variable!r}: row key {key!r} does not match parents {parents!r}")
            for value, parent in zip(key, parents):
                if value not in declared[parent][1]:
                    raise JointSchemaError(f"factor for {variable!r}: {value!r} not in domain of parent {parent!r}")
            if len(row) != len(domain):
                raise JointSchemaError(
                    f"factor for {variable!r}: row {key!r} has {len(row)} entries for a domain of size {len(domain)}"
                )
            rows[key] = scaled = [num * (scale // den) for num, den in row]
            if min(scaled) < 0:
                raise JointSchemaError(f"factor for {variable!r}: negative entry in row {key!r}")
            if _off_one(sum(scaled), scale):
                total = Fraction(sum(scaled), scale)
                raise JointSchemaError(f"factor for {variable!r}: row {key!r} sums to {total!r}, not 1")
        tables.append((domain, tuple(declared[p][0] for p in parents), rows))
        denominator *= scale
        declared[variable] = len(declared), domain

    # Extend each prefix assignment of positive weight by one variable per
    # factor, in topological order: the support comes out in
    # itertools.product order with its zero-weight assignments left out.
    weights: dict[tuple[str, ...], int] = {(): 1}
    for domain, parents, rows in tables:
        weights = {
            prefix + (value,): weight * entry
            for prefix, weight in weights.items()
            for value, entry in zip(domain, rows[tuple(map(prefix.__getitem__, parents))])
            if entry
        }
    variables = tuple((variable, domain) for variable, (_, domain) in declared.items())
    return FiniteJoint(variables, _Masses(weights, denominator))


def _parse_number(token: str) -> tuple[int, int]:
    """token as an exact (numerator, denominator) pair.

    Unsigned decimals d.ddd (also .5 and 5.) are read straight to ints;
    any other token goes through Fraction's grammar.
    """
    try:
        whole, _, fraction = token.partition(".")
        digits = whole + fraction
        if digits.isdecimal():
            return int(digits), 10 ** len(fraction)
        value = Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise JointSchemaError(f"cannot parse probability {token!r}") from exc
    return value.numerator, value.denominator


def parse_joint_fixture(text: str) -> tuple[FiniteJoint, dict[str, tuple[str, ...]]]:
    """Parse the fixture format described in the module docstring.

    Returns the joint and a role map with keys "hypothesis", "info",
    "evidence" (each a tuple of variable names).
    """
    roles: dict[str, tuple[str, ...]] = {}
    domains: dict[str, tuple[str, ...]] = {}
    factors = []  # as _joint_from_rows reads them
    rows: dict | None = None  # the current factor block's {parent key: ratio row}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]
        tokens = line.split()
        if not tokens:
            continue
        head = tokens[0]
        if head == "roles":
            for spec in tokens[1:]:
                if "=" not in spec:
                    raise JointSchemaError(f"line {lineno}: bad role {spec!r}")
                role, names = spec.split("=", 1)
                if role not in ("hypothesis", "info", "evidence"):
                    raise JointSchemaError(f"line {lineno}: unknown role {role!r}")
                if role in roles:
                    raise JointSchemaError(f"line {lineno}: role {role!r} given twice")
                roles[role] = tuple(n for n in names.split(",") if n)
                named = [n for given in roles.values() for n in given]
                if not roles[role] or len(set(named)) < len(named):
                    raise JointSchemaError(f"line {lineno}: role {role!r} names no variable, or one named before: {names!r}")
        elif head == "variable":
            if len(tokens) < 3:
                raise JointSchemaError(f"line {lineno}: variable needs a name and a domain")
            name = tokens[1]
            if name in domains:
                raise JointSchemaError(f"line {lineno}: variable {name!r} declared twice")
            domains[name] = _check_domain(name, tokens[2:])
        elif head == "factor":
            rest = [t for t in tokens[1:] if t != "|"]
            if not rest:
                raise JointSchemaError(f"line {lineno}: factor needs a variable name")
            child, parents = rest[0], tuple(rest[1:])
            if child not in domains:
                raise JointSchemaError(f"line {lineno}: factor for undeclared variable {child!r}")
            rows = {}
            factors.append((child, domains[child], parents, rows))
        elif "|" in line:
            if rows is None:
                raise JointSchemaError(f"line {lineno}: probability row outside a factor block")
            left, _, right = line.partition("|")
            key = tuple(left.split())
            if key in rows:
                raise JointSchemaError(f"line {lineno}: duplicate row for parents {key!r}")
            rows[key] = [_parse_number(t) for t in right.split()]
        else:
            raise JointSchemaError(f"line {lineno}: cannot parse {raw!r}")

    if {f[0] for f in factors} != domains.keys():
        missing = sorted(domains.keys() - {f[0] for f in factors})
        raise JointSchemaError(f"variables without a factor: {missing!r}")
    for role in ("hypothesis", "info", "evidence"):
        if role not in roles:
            raise JointSchemaError(f"fixture does not declare a {role} role")
        for name in roles[role]:
            if name not in domains:
                raise JointSchemaError(f"role {role} names undeclared variable {name!r}")
    if len(roles["hypothesis"]) != 1 or len(roles["info"]) != 1:
        raise JointSchemaError("hypothesis and info roles must each name exactly one variable")
    return _joint_from_rows(factors), roles


def _joint_dir():
    return resources.files("forensic_bias").joinpath("fixtures/joints")


def builtin_joint_names() -> tuple[str, ...]:
    return tuple(
        sorted(
            path.name.removesuffix(".txt")
            for path in _joint_dir().iterdir()
            if path.name.endswith(".txt")
        )
    )


def load_builtin_joint(name: str) -> tuple[FiniteJoint, dict[str, tuple[str, ...]]]:
    path = _joint_dir().joinpath(f"{name}.txt")
    try:
        text = path.read_bytes().decode("utf-8")  # splitlines needs no newline translation
    except FileNotFoundError:
        raise KeyError(f"no built-in joint fixture named {name!r}; have {builtin_joint_names()!r}")
    return parse_joint_fixture(text)
