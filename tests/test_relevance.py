"""Task-relevance classification on exact finite joints."""

import itertools
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from forensic_bias.relevance import (
    FiniteJoint,
    JointSchemaError,
    Verdict,
    ZeroMassEventError,
    _parse_number,
    builtin_joint_names,
    classify_relevance,
    load_builtin_joint,
    parse_joint_fixture,
)


def oracle_max_discrepancy(joint, evidence, info, hypothesis):
    """Brute-force re-derivation: marginalise by summing over all outcomes."""
    names = joint.names

    def prob(fixed):
        total = 0
        for outcome in joint.outcomes():
            if all(outcome[names.index(k)] == v for k, v in fixed.items()):
                total += joint.mass(outcome)
        return total

    worst = 0
    for e in joint.domain(hypothesis):
        p_e = prob({hypothesis: e})
        for i in joint.domain(info):
            p_ie = prob({info: i, hypothesis: e})
            for cell in itertools.product(*(joint.domain(v) for v in evidence)):
                fixed = dict(zip(evidence, cell))
                lhs = prob({**fixed, hypothesis: e}) / p_e
                rhs = prob({**fixed, info: i, hypothesis: e}) / p_ie
                worst = max(worst, abs(lhs - rhs))
    return worst


def _fixture_text(factors, roles="hypothesis=E info=I evidence=X"):
    """Fixture text of (variable, domain, parents, table) factors in topological order.

    table maps each parent key to its row.  Every entry is written as its
    exact numerator/denominator, which _parse_number reads by Fraction, so
    a float entry keeps its exact binary value.
    """
    lines = [f"roles {roles}"]
    lines += [" ".join(("variable", variable, *domain)) for variable, domain, _, _ in factors]
    for variable, _, parents, table in factors:
        lines.append(" ".join(("factor", variable, "|", *parents)))
        for key, row in table.items():
            lines.append(" ".join((*key, "|", *("%d/%d" % Fraction(p).as_integer_ratio() for p in row))))
    return "\n".join(lines) + "\n"


def _joint(factors, roles="hypothesis=E info=I evidence=X"):
    return parse_joint_fixture(_fixture_text(factors, roles))[0]


def _classify_builtin(name, tolerance=1e-9):
    joint, roles = load_builtin_joint(name)
    return (
        classify_relevance(
            joint,
            tolerance,
            evidence=roles["evidence"],
            info=roles["info"][0],
            hypothesis=roles["hypothesis"][0],
        ),
        joint,
        roles,
    )


class TestBuiltinFixtures:
    def test_names_present(self):
        assert builtin_joint_names() == (
            "criminal_history_irrelevant",
            "tool_shape_no_guilt_link",
            "tool_shape_relevant",
        )

    def test_tool_shape_relevant(self):
        verdict, joint, roles = _classify_builtin("tool_shape_relevant")
        assert verdict.verdict is Verdict.TASK_RELEVANT
        assert verdict.task_relevant
        assert verdict.max_discrepancy == float(Fraction(21, 188))

    def test_tool_shape_without_guilt_link_still_relevant(self):
        verdict, _, _ = _classify_builtin("tool_shape_no_guilt_link")
        assert verdict.verdict is Verdict.TASK_RELEVANT
        assert verdict.max_discrepancy == float(Fraction(21, 200))

    def test_criminal_history_irrelevant_despite_predicting_guilt(self):
        verdict, joint, roles = _classify_builtin("criminal_history_irrelevant")
        assert verdict.verdict is Verdict.TASK_IRRELEVANT
        assert verdict.max_discrepancy == 0.0
        # The record is genuinely informative about the hypothesis...
        names = joint.names
        p_e_given_record = sum(
            joint.mass(o) for o in joint.outcomes()
            if o[names.index("I")] == "record" and o[names.index("E")] == "same"
        ) / sum(joint.mass(o) for o in joint.outcomes() if o[names.index("I")] == "record")
        assert p_e_given_record > 0.5
        # ...which is exactly why irrelevance-for-the-comparison is the point.

    def test_fixtures_match_independent_oracle(self):
        for name in builtin_joint_names():
            verdict, joint, roles = _classify_builtin(name)
            expected = oracle_max_discrepancy(
                joint, roles["evidence"], roles["info"][0], roles["hypothesis"][0]
            )
            assert verdict.max_discrepancy == float(expected)

    def test_unknown_fixture(self):
        with pytest.raises(KeyError):
            load_builtin_joint("nope")


class TestClassifier:
    def _independent_joint(self):
        # I is pure noise attached to an (X, Y, E) comparison model.
        return _joint(
            [
                ("E", ("same", "diff"), (), {(): (Fraction(1, 2), Fraction(1, 2))}),
                ("I", ("a", "b"), (), {(): (Fraction(1, 4), Fraction(3, 4))}),
                (
                    "X",
                    ("0", "1"),
                    ("E",),
                    {("same",): (Fraction(1, 3), Fraction(2, 3)), ("diff",): (Fraction(1, 2), Fraction(1, 2))},
                ),
                (
                    "Y",
                    ("0", "1"),
                    ("X", "E"),
                    {
                        ("0", "same"): (Fraction(9, 10), Fraction(1, 10)),
                        ("1", "same"): (Fraction(1, 10), Fraction(9, 10)),
                        ("0", "diff"): (Fraction(1, 2), Fraction(1, 2)),
                        ("1", "diff"): (Fraction(1, 2), Fraction(1, 2)),
                    },
                ),
            ],
            roles="hypothesis=E info=I evidence=X,Y",
        )

    def test_independent_info_is_exactly_irrelevant(self):
        verdict = classify_relevance(self._independent_joint())
        assert verdict.verdict is Verdict.TASK_IRRELEVANT
        assert verdict.max_discrepancy == 0.0

    def test_multi_variable_evidence_roles(self):
        # Same joint, classifying with explicit ("X", "Y") evidence.
        verdict = classify_relevance(
            self._independent_joint(), evidence=("X", "Y"), info="I", hypothesis="E"
        )
        assert verdict.max_discrepancy == 0.0

    def test_tolerance_splits_the_verdict(self):
        joint, roles = load_builtin_joint("tool_shape_relevant")
        gap = float(Fraction(21, 188))
        relevant = classify_relevance(joint, gap * 0.99, evidence=("XY",))
        irrelevant = classify_relevance(joint, gap * 1.01, evidence=("XY",))
        assert relevant.verdict is Verdict.TASK_RELEVANT
        assert irrelevant.verdict is Verdict.TASK_IRRELEVANT

    def test_negative_tolerance_rejected(self):
        joint = self._independent_joint()
        with pytest.raises(ValueError):
            classify_relevance(joint, -1e-9)
        with pytest.raises(ValueError):
            classify_relevance(joint, math.nan)

    def test_gap_exactly_at_tolerance_is_irrelevant(self):
        # I splits X = 0 as 1/2 and 0 against 1/4 overall: the gap is exactly 1/4.
        joint = FiniteJoint(
            (("E", ("s",)), ("I", ("a", "b")), ("X", ("0", "1"))),
            {("s", "a", "0"): 0.25, ("s", "a", "1"): 0.25, ("s", "b", "1"): 0.5},
        )
        at = classify_relevance(joint, 0.25, evidence=("X",))
        assert at.verdict is Verdict.TASK_IRRELEVANT and at.max_discrepancy == 0.25
        above = classify_relevance(joint, math.nextafter(0.25, 0.0), evidence=("X",))
        assert above.verdict is Verdict.TASK_RELEVANT
        assert classify_relevance(joint, math.inf, evidence=("X",)).verdict is Verdict.TASK_IRRELEVANT
        # A gap that is not a float: the tolerance is compared at its exact value.
        joint, roles = load_builtin_joint("tool_shape_relevant")
        gap = Fraction(21, 188)
        assert classify_relevance(joint, gap, evidence=roles["evidence"]).verdict is Verdict.TASK_IRRELEVANT
        below = gap - Fraction(1, 10**40)
        assert classify_relevance(joint, below, evidence=roles["evidence"]).verdict is Verdict.TASK_RELEVANT

    @pytest.mark.parametrize(
        "zero, quarter, one",
        [
            (0, Fraction(1, 4), 1),
            (np.int64(0), np.float32(0.25), np.int64(1)),
            (np.int32(0), np.float64(0.25), np.uint8(1)),
            (Decimal(0), Decimal("0.25"), Decimal(1)),
        ],
    )
    def test_tolerance_of_any_real_type(self, zero, quarter, one):
        # The gap is exactly 1/4, as in test_gap_exactly_at_tolerance_is_irrelevant.
        joint = FiniteJoint(
            (("E", ("s",)), ("I", ("a", "b")), ("X", ("0", "1"))),
            {("s", "a", "0"): 0.25, ("s", "a", "1"): 0.25, ("s", "b", "1"): 0.5},
        )
        verdicts = [classify_relevance(joint, t, evidence=("X",)).verdict for t in (zero, quarter, one)]
        assert verdicts == [Verdict.TASK_RELEVANT, Verdict.TASK_IRRELEVANT, Verdict.TASK_IRRELEVANT]
        independent = classify_relevance(self._independent_joint(), zero, evidence=("X", "Y"), info="I", hypothesis="E")
        assert independent.verdict is Verdict.TASK_IRRELEVANT

    def test_zero_mass_hypothesis_event_named(self):
        joint = FiniteJoint(
            (("E", ("same", "diff")), ("I", ("a", "b")), ("XY", ("0", "1"))),
            {
                ("same", "a", "0"): 0.25,
                ("same", "b", "0"): 0.25,
                ("same", "a", "1"): 0.25,
                ("same", "b", "1"): 0.25,
            },
        )
        with pytest.raises(ZeroMassEventError, match="E=diff"):
            classify_relevance(joint, evidence=("XY",))

    def test_zero_mass_info_pair_named(self):
        joint = FiniteJoint(
            (("E", ("same", "diff")), ("I", ("a", "b")), ("XY", ("0", "1"))),
            {
                ("same", "a", "0"): 0.25,
                ("same", "a", "1"): 0.25,
                ("diff", "a", "0"): 0.2,
                ("diff", "b", "1"): 0.3,
            },
        )
        with pytest.raises(ZeroMassEventError, match="I=b, E=same"):
            classify_relevance(joint, evidence=("XY",))

    def test_missing_role_variable_rejected(self):
        joint = self._independent_joint()
        with pytest.raises(JointSchemaError):
            classify_relevance(joint, evidence=("X", "Y"), info="Q", hypothesis="E")

    def test_overlapping_roles_rejected(self):
        joint = self._independent_joint()
        with pytest.raises(JointSchemaError):
            classify_relevance(joint, evidence=("X", "E"), info="I", hypothesis="E")

    def test_random_noise_info_always_irrelevant(self):
        # Attach I with no edge into (E, XY): classifier must call it
        # irrelevant for any random parameterisation.
        rng = np.random.default_rng(37)
        for _ in range(100):
            p_e = rng.uniform(0.1, 0.9)
            p_i = rng.uniform(0.1, 0.9)
            xy_same = rng.dirichlet(np.ones(4))
            xy_diff = rng.dirichlet(np.ones(4))
            joint = _joint(
                [
                    ("E", ("same", "diff"), (), {(): (p_e, 1 - p_e)}),
                    ("I", ("y", "n"), ("E",), {("same",): (p_i, 1 - p_i), ("diff",): (p_i, 1 - p_i)}),
                    (
                        "XY",
                        ("00", "01", "10", "11"),
                        ("E",),
                        {("same",): tuple(xy_same), ("diff",): tuple(xy_diff)},
                    ),
                ],
                roles="hypothesis=E info=I evidence=XY",
            )
            verdict = classify_relevance(joint, evidence=("XY",))
            assert verdict.verdict is Verdict.TASK_IRRELEVANT
            assert verdict.max_discrepancy <= 1e-9

    def test_info_edge_detected_as_relevant(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            # XY tables that genuinely differ across I given E=same.
            base = rng.dirichlet(np.ones(4))
            shifted = base.copy()
            shifted[0], shifted[3] = shifted[3], shifted[0]
            if abs(float(base[0] - base[3])) < 0.05:
                continue
            joint = _joint(
                [
                    ("E", ("same", "diff"), (), {(): (0.5, 0.5)}),
                    ("I", ("y", "n"), (), {(): (0.5, 0.5)}),
                    (
                        "XY",
                        ("00", "01", "10", "11"),
                        ("I", "E"),
                        {
                            ("y", "same"): tuple(base),
                            ("n", "same"): tuple(shifted),
                            ("y", "diff"): (0.25, 0.25, 0.25, 0.25),
                            ("n", "diff"): (0.25, 0.25, 0.25, 0.25),
                        },
                    ),
                ],
                roles="hypothesis=E info=I evidence=XY",
            )
            verdict = classify_relevance(joint, evidence=("XY",))
            assert verdict.verdict is Verdict.TASK_RELEVANT

    def test_relabelling_outcomes_preserves_discrepancy(self):
        joint, roles = load_builtin_joint("tool_shape_relevant")
        renamed = FiniteJoint(
            tuple((name, tuple(f"v_{v}" for v in dom)) for name, dom in joint.variables),
            {tuple(f"v_{v}" for v in key): mass for key, mass in joint.pmf.items()},
        )
        a = classify_relevance(joint, evidence=("XY",))
        b = classify_relevance(renamed, evidence=("XY",))
        assert a.max_discrepancy == b.max_discrepancy
        assert a.verdict is b.verdict


class TestJointConstruction:
    def test_masses_must_sum_to_one(self):
        with pytest.raises(JointSchemaError):
            FiniteJoint((("A", ("0", "1")),), {("0",): 0.7, ("1",): 0.2})

    def test_negative_mass_rejected(self):
        with pytest.raises(JointSchemaError):
            FiniteJoint((("A", ("0", "1")),), {("0",): 1.5, ("1",): -0.5})

    def test_bad_assignment_rejected(self):
        with pytest.raises(JointSchemaError):
            FiniteJoint((("A", ("0", "1")),), {("2",): 1.0})
        with pytest.raises(JointSchemaError):
            FiniteJoint((("A", ("0", "1")),), {("0", "1"): 1.0})

    def test_masses_of_another_joint_are_checked_again(self):
        joint = FiniteJoint((("A", ("0", "1")),), {("0",): 0.5, ("1",): 0.5})
        assert dict(FiniteJoint(joint.variables, joint.pmf).pmf) == dict(joint.pmf)
        with pytest.raises(JointSchemaError, match=r"'1' is not in the domain of 'B'"):
            FiniteJoint((("B", ("0", "2")),), joint.pmf)
        with pytest.raises(JointSchemaError, match="has 1 values for 2 variables"):
            FiniteJoint((("A", ("0", "1")), ("B", ("0",))), joint.pmf)

    def test_duplicate_names_rejected(self):
        with pytest.raises(JointSchemaError):
            FiniteJoint((("A", ("0",)), ("A", ("1",))), {("0", "1"): 1.0})

    def test_sparse_pmf_allowed(self):
        joint = FiniteJoint((("A", ("0", "1")),), {("0",): 1.0})
        assert joint.mass(("1",)) == 0

    def test_dag_product_of_independents(self):
        joint = _joint(
            [
                ("A", ("0", "1"), (), {(): (0.3, 0.7)}),
                ("B", ("0", "1"), (), {(): (0.6, 0.4)}),
                ("C", ("0",), (), {(): (1,)}),
            ],
            roles="hypothesis=A info=B evidence=C",
        )
        assert joint.mass(("0", "1", "0")) == Fraction(0.3) * Fraction(0.4)
        assert abs(sum(joint.pmf.values()) - 1) < 1e-12


class TestFixtureParsing:
    def test_round_trip_matches_loader(self):
        from importlib import resources

        path = resources.files("forensic_bias").joinpath(
            "fixtures/joints/tool_shape_relevant.txt"
        )
        joint, roles = parse_joint_fixture(path.read_text(encoding="utf-8"))
        verdict = classify_relevance(
            joint, evidence=roles["evidence"], info=roles["info"][0], hypothesis=roles["hypothesis"][0]
        )
        assert verdict.max_discrepancy == float(Fraction(21, 188))

    def test_roles_parsed(self):
        _, roles = load_builtin_joint("criminal_history_irrelevant")
        assert roles == {"hypothesis": ("E",), "info": ("I",), "evidence": ("XY",)}

    def test_malformed_lines_rejected(self):
        with pytest.raises(JointSchemaError, match="line 1"):
            parse_joint_fixture("what is this")

    def test_missing_roles_rejected(self):
        text = "variable A 0 1\nfactor A\n| 0.5 0.5\n"
        with pytest.raises(JointSchemaError, match="role"):
            parse_joint_fixture(text)

    @pytest.mark.parametrize(
        "roles, lineno",
        [
            ("roles hypothesis=E info=I evidence=X\nroles hypothesis=I\n", 2),
            ("roles hypothesis=E info=I evidence=X hypothesis=I\n", 1),
            ("roles hypothesis=E\nroles info=I evidence=X\nroles hypothesis=E\n", 3),
        ],
        ids=["second-line", "same-line", "same-value"],
    )
    def test_role_given_twice_rejected(self, roles, lineno):
        body = "variable E s d\nvariable I a b\nvariable X 0 1\nfactor E\n| 1/2 1/2\nfactor I\n| 1/2 1/2\nfactor X\n| 1/2 1/2\n"
        with pytest.raises(JointSchemaError, match=f"^line {lineno}: role 'hypothesis' given twice$"):
            parse_joint_fixture(roles + body)
        # Roles spread over several lines, each given once, are accepted.
        _, parsed = parse_joint_fixture("roles hypothesis=E\nroles info=I evidence=X\n" + body)
        assert parsed == {"hypothesis": ("E",), "info": ("I",), "evidence": ("X",)}

    @pytest.mark.parametrize(
        "roles, lineno, message",
        [
            ("roles hypothesis=E info=E evidence=X\n", 1, "role 'info' names no variable, or one named before: 'E'"),
            ("roles hypothesis=E info=I evidence=X,X\n", 1, "role 'evidence' names no variable, or one named before: 'X,X'"),
            ("roles hypothesis=E info=I\nroles evidence=X,E\n", 2, "role 'evidence' names no variable, or one named before: 'X,E'"),
            ("roles hypothesis=E info=I evidence=\n", 1, "role 'evidence' names no variable, or one named before: ''"),
        ],
        ids=["hypothesis-is-info", "evidence-twice", "evidence-is-hypothesis", "empty-evidence"],
    )
    def test_overlapping_or_empty_roles_rejected(self, roles, lineno, message):
        # Refused at the roles line, before classify_relevance sees them.
        body = "variable E s d\nvariable I a b\nvariable X 0 1\nfactor E\n| 1/2 1/2\nfactor I\n| 1/2 1/2\nfactor X\n| 1/2 1/2\n"
        with pytest.raises(JointSchemaError, match=f"^line {lineno}: {re.escape(message)}$"):
            parse_joint_fixture(roles + body)

    def test_factor_for_undeclared_variable_rejected(self):
        text = "roles hypothesis=A info=B evidence=C\nfactor B\n| 1.0\n"
        with pytest.raises(JointSchemaError, match="undeclared"):
            parse_joint_fixture(text)

    def test_exact_fraction_parsing(self):
        text = (
            "roles hypothesis=E info=I evidence=X\n"
            "variable E s d\nvariable I a b\nvariable X 0 1\n"
            "factor E\n| 1/3 2/3\n"
            "factor I\n| 0.5 0.5\n"
            "factor X | E\ns | 0.25 0.75\nd | 0.25 0.75\n"
        )
        joint, _ = parse_joint_fixture(text)
        assert joint.mass(("s", "a", "0")) == Fraction(1, 3) * Fraction(1, 2) * Fraction(1, 4)

    @pytest.mark.parametrize(
        "factors, message",
        [
            ("factor A\n| 1/2 1/2\nfactor A\n| 1/2 1/2\nfactor B\n| 1 0\n", "variable 'A' has a second factor"),
            (
                "factor A | B\n0 | 1 0\n1 | 0 1\nfactor B\n| 1/2 1/2\n",
                "factor for 'A' names parent 'B', which has no earlier factor",
            ),
            ("factor A\n| 1/2 1/2\nfactor B | A\n0 | 1/2 1/2\n", "factor for 'B' has 1 rows, expected 2"),
            (
                "factor A\n| 1/2 1/2\nfactor B | A\n0 0 | 1/2 1/2\n1 | 1/2 1/2\n",
                "factor for 'B': row key ('0', '0') does not match parents ('A',)",
            ),
            (
                "factor A\n| 1/2 1/2\nfactor B | A\n0 | 1/2 1/2\n2 | 1/2 1/2\n",
                "factor for 'B': '2' not in domain of parent 'A'",
            ),
            ("factor A\n| 1\nfactor B\n| 1/2 1/2\n", "factor for 'A': row () has 1 entries for a domain of size 2"),
            ("factor A\n| -1/4 5/4\nfactor B\n| 1/2 1/2\n", "factor for 'A': negative entry in row ()"),
            ("factor A\n| 0.5 0.6\nfactor B\n| 1/2 1/2\n", "factor for 'A': row () sums to Fraction(11, 10), not 1"),
            (
                "factor A\n| 1/2 1/2\nfactor B | A A\n0 0 | 1/2 1/2\n0 1 | 1 0\n1 0 | 1 0\n1 1 | 1/2 1/2\n",
                "factor for 'B' names a parent twice: ('A', 'A')",
            ),
        ],
        ids=[
            "second-factor",
            "undeclared-parent",
            "missing-row",
            "key-arity",
            "parent-value",
            "row-length",
            "negative-entry",
            "row-sum",
            "repeated-parent",
        ],
    )
    def test_malformed_factor_rejected(self, factors, message):
        text = "roles hypothesis=A info=B evidence=C\nvariable A 0 1\nvariable B 0 1\nvariable C 0\nfactor C\n| 1\n" + factors
        with pytest.raises(JointSchemaError, match=f"^{re.escape(message)}$"):
            parse_joint_fixture(text)


class TestNumberReader:
    """_parse_number against Fraction(token), the grammar it stands in for."""

    @staticmethod
    def _assert_reads_like_fraction(token):
        try:
            want = Fraction(token)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(JointSchemaError, match="cannot parse probability"):
                _parse_number(token)
            return
        num, den = _parse_number(token)
        assert type(num) is int and type(den) is int and den > 0
        assert Fraction(num, den) == want, token

    def test_random_decimals(self):
        rng = np.random.default_rng(20)
        for n_fraction in range(31):
            for _ in range(20):
                whole = "".join(map(str, rng.integers(0, 10, int(rng.integers(0, 4)))))
                fraction = "".join(map(str, rng.integers(0, 10, n_fraction)))
                for token in (f"{whole}.{fraction}", whole + fraction):
                    if token not in ("", "."):
                        self._assert_reads_like_fraction(token)

    def test_random_ratios_and_integers(self):
        rng = np.random.default_rng(21)
        for num, den in rng.integers(0, 10**6, (200, 2)).tolist():
            self._assert_reads_like_fraction(f"{num}/{den}")
            self._assert_reads_like_fraction(str(num))

    @pytest.mark.parametrize(
        "token",
        [".5", "5.", "0.25", "007.50", "21/188", "4/8", "0/7", "1e-3", "2.5E2", "1e400", "+0.5", "-0.25",
         "+1/2", "-3/4", "+7", "-0", "١٢.٥", "1_0"],
    )
    def test_other_grammar(self, token):
        self._assert_reads_like_fraction(token)

    @pytest.mark.parametrize(
        "token",
        ["", ".", "1/0", "0/0", "1.2.3", "1//2", "1/", "/2", "1.5/2", "a", "1e", "nan", "inf", "\u00b2", "0x1"],
    )
    def test_malformed_tokens_rejected(self, token):
        with pytest.raises(JointSchemaError, match=f"cannot parse probability {re.escape(repr(token))}"):
            _parse_number(token)

    def test_malformed_token_in_a_fixture(self):
        text = "roles hypothesis=A info=B evidence=C\nvariable A 0 1\nfactor A\n| 1/0 1\n"
        with pytest.raises(JointSchemaError, match=r"cannot parse probability '1/0'"):
            parse_joint_fixture(text)

    @pytest.mark.parametrize("name", ["criminal_history_irrelevant", "tool_shape_no_guilt_link", "tool_shape_relevant"])
    def test_builtin_fixtures_match_fraction_reference(self, name):
        from importlib import resources

        text = resources.files("forensic_bias").joinpath(f"fixtures/joints/{name}.txt").read_text(encoding="utf-8")
        joint, roles = parse_joint_fixture(text)
        factors = _fraction_factors(text)
        expected = reference_joint(factors)
        assert list(joint.pmf) == list(expected)
        assert dict(joint.pmf) == expected
        gap = reference_discrepancy(joint.variables, expected, roles["evidence"], "I", "E")
        assert classify_relevance(joint, evidence=roles["evidence"]).max_discrepancy == float(gap)


def _fraction_factors(text):
    """A fixture's (variable, domain, parents, table) factors, every entry read by Fraction(token)."""
    domains, blocks = {}, []
    for raw in text.splitlines():
        line = raw.partition("#")[0]
        head, *rest = line.split() or [""]
        if head == "variable":
            domains[rest[0]] = tuple(rest[1:])
        elif head == "factor":
            names = [t for t in rest if t != "|"]
            blocks.append((names[0], tuple(names[1:]), {}))
        elif "|" in line and head != "roles":
            left, _, right = line.partition("|")
            blocks[-1][2][tuple(left.split())] = tuple(Fraction(t) for t in right.split())
    return [(variable, domains[variable], parents, table) for variable, parents, table in blocks]


# ------------------------------------------------------------------ oracle
# The Fraction arithmetic the integer-weight code replaced, kept as the
# reference: every factor entry read as an exact Fraction, the DAG product
# and the classifier's marginals and conditionals computed on Fractions.


def reference_joint(factors):
    """{assignment: Fraction mass} of the DAG product, zero masses left out.

    factors are (variable, domain, parents, table) tuples in topological order.
    """
    order = {variable: i for i, (variable, _, _, _) in enumerate(factors)}
    pmf = {}
    for assignment in itertools.product(*(domain for _, domain, _, _ in factors)):
        mass = Fraction(1)
        for variable, domain, parents, table in factors:
            parent_key = tuple(assignment[order[p]] for p in parents)
            mass = mass * Fraction(table[parent_key][domain.index(assignment[order[variable]])])
            if mass == 0:
                break
        if mass != 0:
            pmf[assignment] = mass
    return pmf


def reference_discrepancy(variables, pmf, evidence, info, hypothesis):
    """The largest |P(z|e) - P(z|i,e)| as a Fraction; ZeroMassEventError as the classifier raises it."""
    names = [name for name, _ in variables]
    domains = dict(variables)
    ev_idx = tuple(names.index(name) for name in evidence)
    i_idx, e_idx = names.index(info), names.index(hypothesis)
    mass_e, mass_ie, mass_ze, mass_zie = {}, {}, {}, {}
    for key, mass in pmf.items():
        z = tuple(key[i] for i in ev_idx)
        i_val, e_val = key[i_idx], key[e_idx]
        mass_e[e_val] = mass_e.get(e_val, 0) + mass
        mass_ie[i_val, e_val] = mass_ie.get((i_val, e_val), 0) + mass
        mass_ze[z, e_val] = mass_ze.get((z, e_val), 0) + mass
        mass_zie[z, i_val, e_val] = mass_zie.get((z, i_val, e_val), 0) + mass
    worst = Fraction(0)
    for e_val in domains[hypothesis]:
        p_e = mass_e.get(e_val, 0)
        if p_e == 0:
            raise ZeroMassEventError(f"conditioning event {hypothesis}={e_val} has zero mass")
        for i_val in domains[info]:
            p_ie = mass_ie.get((i_val, e_val), 0)
            if p_ie == 0:
                raise ZeroMassEventError(
                    f"conditioning event {info}={i_val}, {hypothesis}={e_val} has zero mass"
                )
            for z in itertools.product(*(domains[name] for name in evidence)):
                gap = abs(mass_ze.get((z, e_val), 0) / p_e - mass_zie.get((z, i_val, e_val), 0) / p_ie)
                worst = max(worst, gap)
    return worst


def _rational_row(rng, size):
    """A row of Fractions over one denominator up to 60 that sums to exactly 1, zeros included."""
    den = int(rng.integers(1, 61))
    cuts = np.sort(rng.integers(0, den + 1, size - 1))
    parts = np.diff(np.concatenate(([0], cuts, [den])))
    return tuple(Fraction(int(p), den) for p in parts)


def _float_row(rng, size):
    """A row of floats summing to 1 within rounding, sometimes with zeros."""
    row = rng.dirichlet(np.ones(size))
    row[rng.random(size) < 0.2] = 0.0
    if row.sum() == 0.0:
        row[0] = 1.0
    return tuple((row / row.sum()).tolist())


def _random_dag(rng, make_row):
    """Factors over E, I and 1-3 evidence variables in a random topological order."""
    n_evidence = int(rng.integers(1, 4))
    names = ["E", "I", *(f"Z{j}" for j in range(n_evidence))]
    rng.shuffle(names)
    factors, domains = [], {}
    for pos, name in enumerate(names):
        domain = tuple(f"{name.lower()}{v}" for v in range(int(rng.integers(1, 4))))
        earlier = names[:pos]
        n_parents = int(rng.integers(0, min(2, len(earlier)) + 1))
        parents = tuple(rng.choice(earlier, n_parents, replace=False).tolist()) if n_parents else ()
        keys = itertools.product(*(domains[p] for p in parents))
        table = {key: make_row(rng, len(domain)) for key in keys}
        factors.append((name, domain, parents, table))
        domains[name] = domain
    return factors, tuple(sorted(n for n in names if n.startswith("Z")))


def _assert_matches_reference(factors, evidence):
    joint = _joint(factors, roles=f"hypothesis=E info=I evidence={','.join(evidence)}")
    expected_pmf = reference_joint(factors)
    assert list(joint.pmf) == list(expected_pmf)
    assert dict(joint.pmf) == expected_pmf
    try:
        expected = reference_discrepancy(joint.variables, expected_pmf, evidence, "I", "E")
    except ZeroMassEventError as exc:
        with pytest.raises(ZeroMassEventError) as got:
            classify_relevance(joint, evidence=evidence)
        assert str(got.value) == str(exc)
        return None
    nearest = float(expected)
    # The verdict at the float nearest the exact discrepancy and at its two
    # neighbours places the exact value on the float grid.
    for tolerance in (0.0, math.nextafter(nearest, 0.0), nearest, math.nextafter(nearest, 1.0), 1e-9):
        verdict = classify_relevance(joint, tolerance, evidence=evidence)
        assert verdict.max_discrepancy == nearest
        want = Verdict.TASK_IRRELEVANT if expected <= tolerance else Verdict.TASK_RELEVANT
        assert verdict.verdict is want, (tolerance, expected)
    return expected


class TestReferenceOracle:
    """Integer weights against the Fraction reference on random DAGs."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_rational_dags(self, seed):
        rng = np.random.default_rng([2024, seed])
        outcomes = {"zero": 0, "positive": 0, "zero-mass": 0}
        for _ in range(40):
            factors, evidence = _random_dag(rng, _rational_row)
            expected = _assert_matches_reference(factors, evidence)
            outcomes["zero-mass" if expected is None else "zero" if expected == 0 else "positive"] += 1
        # Each seed's DAGs reach every branch of the classifier.
        assert outcomes["positive"] > 0 and outcomes["zero-mass"] > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_random_float_dags(self, seed):
        rng = np.random.default_rng([2025, seed])
        for _ in range(30):
            factors, evidence = _random_dag(rng, _float_row)
            _assert_matches_reference(factors, evidence)

    def test_irrelevant_by_construction_is_exactly_zero(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            p_i = _rational_row(rng, 3)
            factors = [
                ("E", ("s", "d"), (), {(): (Fraction(2, 7), Fraction(5, 7))}),
                ("I", ("a", "b", "c"), ("E",), {("s",): p_i, ("d",): _rational_row(rng, 3)}),
                ("X", ("0", "1"), ("E",), {("s",): _rational_row(rng, 2), ("d",): _rational_row(rng, 2)}),
            ]
            try:
                verdict = classify_relevance(_joint(factors), 0.0, evidence=("X",))
            except ZeroMassEventError:
                continue
            assert verdict.max_discrepancy == 0.0
            assert verdict.verdict is Verdict.TASK_IRRELEVANT

    def test_sum_tolerance_is_exact(self):
        # A row may miss 1 by exactly the binary value of 1e-9, and not by more.
        edge = Fraction(1e-9)

        def factor_a(second):
            # B and C, of one value each, only give the roles their variables.
            return [("A", ("0", "1"), (), {(): (Fraction(1, 2), second)})] + [(v, ("0",), (), {(): (1,)}) for v in "BC"]

        roles = "hypothesis=A info=B evidence=C"
        assert _joint(factor_a(Fraction(1, 2) + edge), roles).mass(("1", "0", "0")) == Fraction(1, 2) + edge
        with pytest.raises(JointSchemaError, match=r"row \(\) sums to Fraction\("):
            _joint(factor_a(Fraction(1, 2) + edge + Fraction(1, 10**30)), roles)
        with pytest.raises(JointSchemaError, match=r"row \(\) sums to Fraction\("):
            _joint(factor_a(Fraction(1, 2) - edge - Fraction(1, 10**30)), roles)
        FiniteJoint((("A", ("0", "1")),), {("0",): Fraction(1, 2), ("1",): Fraction(1, 2) - edge})
        with pytest.raises(JointSchemaError, match="joint mass sums to"):
            FiniteJoint((("A", ("0", "1")),), {("0",): Fraction(1, 2), ("1",): Fraction(1, 2) - 2 * edge})

    def test_joint_mass_sum_message_keeps_the_float_sum(self):
        with pytest.raises(JointSchemaError, match=r"joint mass sums to 0\.8999999999999999, not 1"):
            FiniteJoint((("A", ("0", "1")),), {("0",): 0.7, ("1",): 0.2})

    def test_float_masses_read_at_their_exact_values(self):
        joint = FiniteJoint((("A", ("0", "1")),), {("0",): 0.1, ("1",): 0.9})
        assert joint.mass(("0",)) == Fraction(0.1)
        assert joint.mass(("1",)) == Fraction(0.9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, None])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(JointSchemaError, match="not a finite number"):
            FiniteJoint((("A", ("0", "1")),), {("0",): 1.0, ("1",): bad})
