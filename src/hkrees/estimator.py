"""Extrapolation of finite-q colength sequences to multiplicity estimates.

The colength of a bracket power grows like C*q^d + O(q^(d-1)).  Fitting
l = A*q^d + B*q^(d-1) through consecutive sample pairs gives a sequence of
A-estimates that converges much faster than the plain normalized values
l/q^d; the spread of the last few A-estimates serves as an error bracket.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple

from .errors import ParameterError
from .exact import format_fraction, format_ratio


class ColengthSample(namedtuple("ColengthSample", "q count")):
    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # namedtuple's own skips __new__

    def __new__(cls, q: int, count: int):
        if q < 1:
            raise ParameterError(f"q must be >= 1, got {q}")
        if count < 0:
            raise ParameterError(f"count must be >= 0, got {count}")
        return super().__new__(cls, q, count)


class HKEstimate(NamedTuple):
    samples: tuple[ColengthSample, ...]
    dimension: int
    leading: Fraction
    bracket: tuple[Fraction, Fraction]

    def contains(self, value: Fraction) -> bool:
        return self.bracket[0] <= value <= self.bracket[1]

    def to_dict(self) -> dict:
        """Serializable record with exact fraction strings; the float field
        is a labeled convenience only."""
        return {
            "samples": [[s.q, s.count] for s in self.samples],
            "dimension": self.dimension,
            "normalized": [format_ratio(s.count, s.q**self.dimension)
                           for s in self.samples],
            "leading": format_fraction(self.leading),
            "bracket": [format_fraction(b) for b in self.bracket],
            "leading_approx": float(self.leading),
        }


def normalized_sequence(samples, dimension: int) -> list[Fraction]:
    """count / q^dimension for each sample, as exact fractions."""
    if dimension < 1:
        raise ParameterError(f"dimension must be >= 1, got {dimension}")
    return [Fraction(s.count, s.q**dimension) for s in samples]


def estimate(samples, dimension: int) -> HKEstimate:
    """Two-point fits l = A*q^d + B*q^(d-1) on consecutive sample pairs.

    The point estimate is the A from the last pair; the bracket spans the
    last three A-estimates (or all of them, if fewer), so only those fits
    are made.  On synthetic data of exactly that shape any single pair
    already recovers A.
    """
    samples = sorted(samples, key=lambda s: s.q)
    if len(samples) < 2:
        raise ParameterError("need at least 2 samples to fit")
    if dimension < 1:
        raise ParameterError(f"dimension must be >= 1, got {dimension}")
    if any(s1.q == s2.q for s1, s2 in zip(samples, samples[1:])):
        raise ParameterError("sample q values must be distinct")
    # Eliminating B from l_i = A q_i^d + B q_i^(d-1) with p_i = q_i^(d-1)
    # gives A = (l_2 p_1 - l_1 p_2) / (p_1 p_2 (q_2 - q_1)).
    last = samples[-4:]
    p = [s.q ** (dimension - 1) for s in last]
    tail = [Fraction(s2.count * p1 - s1.count * p2, p1 * p2 * (s2.q - s1.q))
            for s1, s2, p1, p2 in zip(last, last[1:], p, p[1:])]
    return HKEstimate(
        samples=tuple(samples),
        dimension=dimension,
        leading=tail[-1],
        bracket=(min(tail), max(tail)),
    )
