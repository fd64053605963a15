"""Tests for hkrees' record types: value semantics, reprs, immutability and
argument checks, and that importing the CLI loads neither `dataclasses` nor
`argparse`."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import hkrees
from hkrees.checks import CheckResult
from hkrees.closed_forms import (
    CiReesValues,
    SegreParams,
    VeroneseParams,
    ci_rees_values,
)
from hkrees.engine import MonomialOrderSpec, PresentedQuotient, PureDifferenceBinomial
from hkrees.errors import ParameterError
from hkrees.estimator import ColengthSample, HKEstimate, estimate
from hkrees.lattice import MonomialIdeal2D, Semigroup2D
from hkrees.presets import Preset


def _cube(q):
    return q**3


def _binomial(k=2):
    return PureDifferenceBinomial((1, 1, 0), (0, 0, k))


def _binomial4():
    return PureDifferenceBinomial((1, 1, 0, 0), (0, 0, 1, 1))


# Each record type: two builds of one value, a build of another value, and
# its fields in order.
RECORDS = {
    "SegreParams": (
        lambda: SegreParams(2, 3), lambda: SegreParams(3, 2), ("c", "d")),
    "VeroneseParams": (
        lambda: VeroneseParams(c=2, d=3), lambda: VeroneseParams(2, 4), ("c", "d")),
    "CiReesValues": (
        lambda: ci_rees_values(2, 3), lambda: ci_rees_values(2, 2),
        ("e_rees", "ehk_rees", "e_extrees", "ehk_extrees")),
    "MonomialOrderSpec": (
        lambda: MonomialOrderSpec("grevlex", (1, 0, 2)),
        lambda: MonomialOrderSpec("grevlex"), ("kind", "permutation")),
    "PureDifferenceBinomial": (
        _binomial, lambda: _binomial(3), ("plus", "minus")),
    "PresentedQuotient": (
        lambda: PresentedQuotient(("x", "y", "z"), (_binomial(),), ((0, 0, 3),), 2),
        lambda: PresentedQuotient(("x", "y", "z"), (_binomial(),)),
        ("variables", "binomials", "monomials", "dimension")),
    "MonomialIdeal2D": (
        lambda: MonomialIdeal2D(((0, 2), (1, 0))),
        lambda: MonomialIdeal2D.from_gens([(0, 3), (1, 0)]), ("gens",)),
    "Semigroup2D": (
        lambda: Semigroup2D(((0, 2), (1, 1), (2, 0))),
        lambda: Semigroup2D(((0, 1), (1, 0))), ("generators",)),
    "ColengthSample": (
        lambda: ColengthSample(4, 10), lambda: ColengthSample(count=10, q=5),
        ("q", "count")),
    "HKEstimate": (
        lambda: estimate([ColengthSample(2, 8), ColengthSample(4, 64)], 3),
        lambda: estimate([ColengthSample(2, 8), ColengthSample(4, 65)], 3),
        ("samples", "dimension", "leading", "bracket")),
    "CheckResult": (
        lambda: CheckResult("t/1", "pass", "1", "1", "cite"),
        lambda: CheckResult("t/1", "fail", "1", "2", "cite"),
        ("check_id", "status", "lhs", "rhs", "citation")),
    "Preset": (
        lambda: Preset("cube", 3, _cube, Fraction(1), 2),
        lambda: Preset("cube", 3, _cube),
        ("description", "dimension", "counter", "target", "q_scale")),
}


@pytest.mark.parametrize("build, other, fields", RECORDS.values(), ids=RECORDS)
def test_records_are_immutable_values(build, other, fields):
    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other()
    name = type(a).__name__
    assert repr(a) == f"{name}(" + ", ".join(
        f"{f}={getattr(a, f)!r}" for f in fields) + ")"
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, getattr(b, f))
    assert a == b


def test_every_record_type_is_covered():
    assert {type(build()) for build, _, _ in RECORDS.values()} == {
        SegreParams, VeroneseParams, CiReesValues, MonomialOrderSpec,
        PureDifferenceBinomial, PresentedQuotient, MonomialIdeal2D,
        Semigroup2D, ColengthSample, HKEstimate, CheckResult, Preset,
    }


def test_record_defaults():
    assert MonomialOrderSpec() == MonomialOrderSpec("lex", None)
    assert PresentedQuotient(("x",)) == PresentedQuotient(("x",), (), (), 1)
    p = Preset("cube", 3, _cube)
    assert (p.target, p.q_scale) == (None, 1)
    assert p.sample(2) == ColengthSample(2, 8)
    assert p._replace(q_scale=2).sample(2) == ColengthSample(4, 8)


@pytest.mark.parametrize("build, message", [
    (lambda: SegreParams(0, 2), "got SegreParams(c=0, d=2)"),
    (lambda: SegreParams(2, 0), "got SegreParams(c=2, d=0)"),
    (lambda: VeroneseParams(0, 1), "got VeroneseParams(c=0, d=1)"),
    (lambda: VeroneseParams(c=1, d=0), "got VeroneseParams(c=1, d=0)"),
    (lambda: MonomialOrderSpec("deglex"), "unknown order kind 'deglex'"),
    (lambda: MonomialOrderSpec("lex", (0, 0, 1)), "not a permutation: (0, 0, 1)"),
    (lambda: PureDifferenceBinomial((1, 0), (1, 0)), "equal terms is zero"),
    (lambda: PureDifferenceBinomial((1, 0), (1, 0, 0)), "mismatched variable counts"),
    (lambda: PresentedQuotient(()), "need at least one variable"),
    (lambda: PresentedQuotient(("x",), dimension=0), "dimension must be >= 1"),
    (lambda: PresentedQuotient(("x", "y", "z"), (_binomial4(),)),
     "relation term (1, 1, 0, 0) has 4 exponents for 3 variables"),
    (lambda: PresentedQuotient(("x", "y", "z"), (PureDifferenceBinomial((1, 0), (0, 1)),)),
     "relation term (1, 0) has 2 exponents for 3 variables"),
    (lambda: PresentedQuotient(("x", "y", "z"), (), ((0, 0, 0, 2),)),
     "relation term (0, 0, 0, 2) has 4 exponents for 3 variables"),
    (lambda: Semigroup2D(((0, 1),)), "need at least two generators"),
    (lambda: Semigroup2D(((1, 1), (2, 0))), "a_i must satisfy"),
    (lambda: Semigroup2D(((0, 1), (1, 1))), "b_i must satisfy"),
    (lambda: ColengthSample(0, 1), "q must be >= 1, got 0"),
    (lambda: ColengthSample(1, -1), "count must be >= 0, got -1"),
])
def test_validating_records_reject_bad_arguments(build, message):
    with pytest.raises(ParameterError) as info:
        build()
    assert message in str(info.value)


@pytest.mark.parametrize("good, bad", [
    (SegreParams(2, 3), {"c": 0}),
    (VeroneseParams(2, 3), {"d": 0}),
    (_binomial(), {"minus": (1, 1, 0)}),
    (PresentedQuotient(("x",)), {"dimension": 0}),
    (PresentedQuotient(("x", "y", "z"), (_binomial(),)), {"binomials": (_binomial4(),)}),
    (PresentedQuotient(("x", "y", "z"), (_binomial(),)), {"variables": ("x", "y")}),
    (Semigroup2D(((0, 1), (1, 0))), {"generators": ((0, 1),)}),
    (ColengthSample(2, 3), {"q": 0}),
], ids=["SegreParams", "VeroneseParams", "PureDifferenceBinomial",
        "PresentedQuotient", "PresentedQuotient-relation-length",
        "PresentedQuotient-variable-count", "Semigroup2D", "ColengthSample"])
def test_make_and_replace_check_like_the_constructor(good, bad):
    fields = {**good._asdict(), **bad}
    with pytest.raises(ParameterError) as expected:
        type(good)(**fields)
    for build in (lambda: good._replace(**bad),
                  lambda: type(good)._make(fields.values())):
        with pytest.raises(ParameterError) as info:
            build()
        assert str(info.value) == str(expected.value)


def _loaded_by_importing_the_cli(modules):
    src = os.path.dirname(os.path.dirname(hkrees.__file__))
    code = f"import hkrees.cli, sys; print(sorted({set(modules)!r} & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src), check=True)
    return run.stdout


def test_importing_the_cli_loads_no_dataclasses():
    assert _loaded_by_importing_the_cli({"dataclasses", "inspect"}) == "[]\n"


def test_importing_the_cli_loads_no_argparse():
    """The CLI parses argv from its own tables; argparse also loads gettext."""
    assert _loaded_by_importing_the_cli({"argparse", "gettext"}) == "[]\n"
