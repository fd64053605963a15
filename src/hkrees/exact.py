"""Exact integer/rational helpers and combinatorial number functions.

All multiplicity values produced by this package are `fractions.Fraction`
instances (auto-normalized: positive denominator, gcd(num, den) = 1).
No floating point is used anywhere in the computational core.
"""

from __future__ import annotations

import math
import threading
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


# Triangular memo table for Stirling numbers, grown on demand.  Row n holds
# S(n, 0..n).  Guarded by a lock so concurrent first-use is safe; reads of
# already-built rows are lock-free (rows are append-only and immutable).
_stirling_rows: list[list[int]] = [[1]]
_stirling_lock = threading.Lock()


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k), by the recurrence
    S(n, k) = k*S(n-1, k) + S(n-1, k-1)."""
    if n < 0 or k < 0:
        raise ParameterError(f"stirling2 requires n, k >= 0, got ({n}, {k})")
    if k > n:
        return 0
    if n >= len(_stirling_rows):
        with _stirling_lock:
            while n >= len(_stirling_rows):
                prev = _stirling_rows[-1]
                m = len(_stirling_rows)
                row = [0] * (m + 1)
                for j in range(1, m):
                    row[j] = j * prev[j] + prev[j - 1]
                row[m] = 1
                _stirling_rows.append(row)
    return _stirling_rows[n][k]


def stirling2_by_sum(n: int, k: int) -> int:
    """S(n, k) via the alternating sum (1/k!) sum_i (-1)^(k-i) C(k,i) i^n.

    Independent of the recurrence path; the two must agree everywhere.
    """
    if n < 0 or k < 0:
        raise ParameterError(f"stirling2 requires n, k >= 0, got ({n}, {k})")
    if k == 0:
        return 1 if n == 0 else 0
    total = sum((-1) ** (k - i) * binomial(k, i) * i**n for i in range(k + 1))
    num, rem = divmod(total, factorial(k))
    assert rem == 0, "alternating Stirling sum not divisible by k!"
    return num


def format_fraction(x: Fraction | int) -> str:
    """Serialize as "p/q", or plain "p" for integers."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
