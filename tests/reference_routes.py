"""Reference routes that only the tests use.  Each reaches a value the
package computes another way, so the two routes check each other:

- `stirling2_by_sum`: S(n, k) by the alternating sum, against the
  recurrence behind `hkrees.exact.stirling2`;
- `alpha_q`: bounded monomial counts by inclusion-exclusion, against
  enumeration and the lattice counters;
- `fc_density`: the piecewise-polynomial density whose moments are the
  limits `hkrees.closed_forms.veronese_I_limits` evaluates as finite sums.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hkrees.closed_forms import VeroneseParams, alpha
from hkrees.errors import ParameterError
from hkrees.exact import binomial, factorial


def stirling2_by_sum(n: int, k: int) -> int:
    """S(n, k) via the alternating sum (1/k!) sum_i (-1)^(k-i) C(k,i) i^n."""
    if n < 0 or k < 0:
        raise ParameterError(f"stirling2 requires n, k >= 0, got ({n}, {k})")
    if k == 0:
        return 1 if n == 0 else 0
    total = sum((-1) ** (k - i) * binomial(k, i) * i**n for i in range(k + 1))
    num, rem = divmod(total, factorial(k))
    assert rem == 0, "alternating Stirling sum not divisible by k!"
    return num


def alpha_q(d: int, n: int, q: int) -> int:
    """Number of degree-n monomials in d variables with every exponent < q,
    by inclusion-exclusion over which exponents reach q."""
    if d < 1 or q < 1:
        raise ParameterError(f"alpha_q requires d, q >= 1, got d={d}, q={q}")
    return sum((-1) ** i * binomial(d, i) * alpha(d, n - i * q) for i in range(d + 1))


def fc_density(p: VeroneseParams, t: Fraction) -> Fraction:
    """The piecewise-polynomial density whose moments are the I_k limits;
    vanishes for t >= c + d - 1."""
    c, d = p.c, p.d
    if d < 2:
        raise ParameterError(f"density requires d >= 2, got d={d}")
    t = Fraction(t)
    if t < 0:
        raise ParameterError(f"density defined for t >= 0, got {t}")
    ft = math.floor(t)
    total = Fraction(0)
    for l in range(min(c - 1, ft) + 1):
        inner = Fraction(0)
        for i in range(min(d, ft - l) + 1):
            inner += (-1) ** i * binomial(d, i) * (t - l - i) ** (d - 1)
        total += alpha(d, l) * inner
    return total / (c * factorial(d - 1))
