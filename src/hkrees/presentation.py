"""Presented quotient rings and their text format.

A `PresentedQuotient` is a polynomial ring modulo pure-difference binomials
and monomials, with its declared Krull dimension; `parse_presentation`
reads the line-oriented format of `oracle --preset presentation --file`.
The Buchberger engine in `engine` computes with these.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import ParameterError
from .exact import parse_int

Monomial = tuple[int, ...]


@dataclass(frozen=True)
class MonomialOrderSpec:
    """A lex or graded-reverse-lex order; permutation[0] is the largest variable."""

    kind: str = "lex"
    permutation: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("lex", "grevlex"):
            raise ParameterError(f"unknown order kind {self.kind!r}")
        if self.permutation is not None:
            if sorted(self.permutation) != list(range(len(self.permutation))):
                raise ParameterError(f"not a permutation: {self.permutation}")

    def key(self, m: Monomial):
        if self.permutation is not None:
            m = tuple(map(m.__getitem__, self.permutation))
        if self.kind == "lex":
            return m
        return (sum(m), tuple(map(operator.neg, reversed(m))))


@dataclass(frozen=True)
class PureDifferenceBinomial:
    plus: Monomial
    minus: Monomial

    def __post_init__(self):
        if self.plus == self.minus:
            raise ParameterError("binomial with equal terms is zero")
        if len(self.plus) != len(self.minus):
            raise ParameterError("mismatched variable counts")


@dataclass(frozen=True)
class PresentedQuotient:
    """A graded quotient ring: variables, pure-difference binomial relations,
    monomial relations, and its declared Krull dimension."""

    variables: tuple[str, ...]
    binomials: tuple[PureDifferenceBinomial, ...] = ()
    monomials: tuple[Monomial, ...] = ()
    dimension: int = 1

    def __post_init__(self):
        if len(self.variables) < 1:
            raise ParameterError("need at least one variable")
        if self.dimension < 1:
            raise ParameterError("dimension must be >= 1")


def parse_monomial(text: str, variables: list[str]) -> Monomial:
    """Parse `x^2*y` style monomial text against a variable list."""
    text = text.strip()
    expo = [0] * len(variables)
    for factor in text.replace(" ", "").split("*"):
        if not factor:
            raise ParameterError(f"empty factor in monomial {text!r}")
        name, caret, power = factor.partition("^")
        try:
            e = parse_int(power) if caret else 1
        except ValueError:
            raise ParameterError(f"bad exponent {power!r} in {text!r}") from None
        if name not in variables:
            raise ParameterError(f"unknown variable {name!r} in {text!r}")
        if e < 0:
            raise ParameterError(f"negative exponent in {text!r}")
        expo[variables.index(name)] += e
    return tuple(expo)


def parse_presentation(text: str) -> tuple[PresentedQuotient, MonomialOrderSpec | None]:
    """Parse the line-oriented presentation format:

        vars: x y z w t
        bin: x^2*y - z^3
        mono: x^4
        dim: 3
        order: lex x>y>z>w>t

    Lines may come in any order; `vars:`, `dim:` and `order:` may each
    appear once, and every integer follows `exact.parse_int`.  A file with
    several faults reports the first in this order: an unknown tag; a
    repeated `vars:`, `dim:` or `order:` line, in that order; an empty
    `vars:` line or a repeated variable; a bad `bin:` line, then a bad
    `mono:` line, each in file order; a missing or bad `dim:` line; a bad
    `order:` line; and last a `dim:` below 1.
    """
    lines = {tag: [] for tag in ("vars", "bin", "mono", "dim", "order")}
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            tag, _, rest = (part.strip() for part in line.partition(":"))
            if tag not in lines:
                raise ParameterError(f"unknown line tag {tag!r}")
            lines[tag].append(rest)
    for tag in ("vars", "dim", "order"):
        if len(lines[tag]) > 1:
            raise ParameterError(f"repeated {tag}: line")
    variables = " ".join(lines["vars"]).split()
    if not variables:
        raise ParameterError("presentation has no vars: line")
    for i, name in enumerate(variables):
        if name in variables[:i]:
            raise ParameterError(f"repeated variable {name!r} in vars: line")
    binomials = []
    for rest in lines["bin"]:
        parts = rest.split("-")
        if len(parts) != 2:
            raise ParameterError(
                f"binomial must be a pure difference of two monomials: {rest!r}"
            )
        binomials.append(PureDifferenceBinomial(
            *(parse_monomial(part, variables) for part in parts)))
    monomials = [parse_monomial(rest, variables) for rest in lines["mono"]]
    if not lines["dim"]:
        raise ParameterError("presentation has no dim: line")
    try:
        dimension = parse_int(lines["dim"][0])
    except ValueError:
        raise ParameterError(f"bad dim: value {lines['dim'][0]!r}") from None
    order = None
    for rest in lines["order"]:
        kind, _, chain = rest.partition(" ")
        perm = None
        if chain.strip():
            names = [v.strip() for v in chain.split(">")]
            if sorted(names) != sorted(variables):
                raise ParameterError(f"order chain {chain!r} does not match vars")
            perm = tuple(variables.index(v) for v in names)
        order = MonomialOrderSpec(kind, perm)
    return PresentedQuotient(tuple(variables), tuple(binomials),
                             tuple(monomials), dimension), order
