"""Exact integer/rational helpers and combinatorial number functions.

All multiplicity values produced by this package are `fractions.Fraction`
instances (auto-normalized: positive denominator, gcd(num, den) = 1).
No floating point is used anywhere in the computational core.

Stirling numbers come from one cached row per n, built by the recurrence;
the alternating-sum route that checks them is in tests/reference_routes.py.
`parse_int` is the one rule for integers read from input.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

from .errors import ParameterError


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); 0 when k < 0, k > n, or n < 0.

    Negative inputs yield 0 rather than an error: alternating sums over
    shifted indices (e.g. counting monomials with bounded exponents)
    routinely produce out-of-range arguments whose terms are absent.
    """
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def factorial(n: int) -> int:
    if n < 0:
        raise ParameterError(f"factorial of negative {n}")
    return math.factorial(n)


@functools.cache
def _stirling2_row(n: int) -> tuple[int, ...]:
    """S(n, 0..n), by the recurrence S(m, k) = k*S(m-1, k) + S(m-1, k-1)."""
    row = (1,)
    for m in range(1, n + 1):
        row = (0, *(k * row[k] + row[k - 1] for k in range(1, m)), 1)
    return row


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k)."""
    if n < 0 or k < 0:
        raise ParameterError(f"stirling2 requires n, k >= 0, got ({n}, {k})")
    return _stirling2_row(n)[k] if k <= n else 0


def parse_int(text: str) -> int:
    """The integer written as ASCII digits with an optional leading minus.

    Every integer read from a file or the command line goes through this
    rule; `int` alone would also take underscores, spaces, a plus sign and
    non-ASCII digits, so `1_0` or a full-width digit would pass silently.
    """
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ParameterError(f"bad integer {text!r}")
    return int(text)


def format_fraction(x: Fraction | int) -> str:
    """Serialize as "p/q", or plain "p" for integers, which is how `str`
    spells an int or a Fraction.  Anything else, a bool included (as 0 or
    1), goes through Fraction first."""
    if type(x) is int:
        return str(x)
    return str(x if isinstance(x, Fraction) else Fraction(x))
