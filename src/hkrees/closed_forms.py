"""Exact closed-form evaluators for Hilbert-Kunz and ordinary multiplicities
of the supported ring families: binomial hypersurfaces, Segre products,
Veronese subrings and their Rees algebras, and Rees algebras of
two-variable complete-intersection monomial ideals.

Routes that only check these values (alpha_q by inclusion-exclusion, the
density whose moments are the I_k limits) are in tests/reference_routes.py.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple

from .errors import ParameterError
from .exact import binomial, factorial, stirling2


class SegreParams(namedtuple("SegreParams", "c d")):
    """Segre product of polynomial rings with c and d variables."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # namedtuple's own skips __new__

    def __new__(cls, c: int, d: int):
        self = super().__new__(cls, c, d)
        if c < 1 or d < 1:
            raise ParameterError(f"Segre factors need >= 1 variable, got {self}")
        return self


class VeroneseParams(namedtuple("VeroneseParams", "c d")):
    """Degree-c Veronese subring of a polynomial ring in d variables."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # namedtuple's own skips __new__

    def __new__(cls, c: int, d: int):
        self = super().__new__(cls, c, d)
        if c < 1 or d < 1:
            raise ParameterError(f"Veronese params must be >= 1, got {self}")
        return self


def alpha(d: int, n: int) -> int:
    """Number of degree-n monomials in d variables: C(n+d-1, d-1); 0 for n < 0."""
    if d < 1:
        raise ParameterError(f"alpha requires d >= 1, got d={d}")
    if n < 0:
        return 0
    return binomial(n + d - 1, d - 1)


def _elementary_symmetric(values: list[int]) -> list[int]:
    """[e_0, e_1, ..., e_len] of the elementary symmetric polynomials."""
    es = [1] + [0] * len(values)
    for v in values:
        for j in range(len(values), 0, -1):
            es[j] += v * es[j - 1]
    return es


def conca_ehk(ds: list[int], es: list[int]) -> Fraction:
    """e_HK of the binomial hypersurface cut out by
    x_1^{d_1}...x_s^{d_s} - y_1^{e_1}...y_t^{e_t}."""
    if not ds or not es or min(ds) < 1 or min(es) < 1:
        raise ParameterError("exponent lists must be nonempty with entries >= 1")
    u = max(max(ds), max(es))
    sj = _elementary_symmetric(ds)
    tl = _elementary_symmetric(es)
    total = Fraction(0)
    for j in range(1, len(ds) + 1):
        for l in range(1, len(es) + 1):
            total += Fraction(
                (-1) ** (j + l) * sj[j] * tl[l] * j * l,
                (j + l - 1) * u ** (j + l - 1),
            )
    return total


def an_extrees_ehk(n: int) -> Fraction:
    """e_HK of k[x,y,z,w]/(xy - z^n w^(n-2)), the extended Rees algebra of
    the maximal ideal of the n-th binomial hypersurface, n >= 2."""
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    return 2 - Fraction(2 * (n + 1), 3 * n * n)


def segre_ehk(p: SegreParams) -> Fraction:
    """e_HK of the Segre product of polynomial rings in c and d variables,
    assembled from the mixed colength limits: the two one-sided bounded
    sums minus the two-sided one."""
    c, d = min(p.c, p.d), max(p.c, p.d)  # the product is symmetric
    return lemma38_limit(d, c) + lemma38_limit(c, d) - lemma39_limit(c, d)


def c_of_d(d: int) -> Fraction:
    """The dimension constant d*(1/2 + 1/(d+1)!); equals e_HK of the Rees
    algebra of the maximal ideal over a d-variable polynomial ring."""
    if d < 1:
        raise ParameterError(f"c_of_d requires d >= 1, got {d}")
    return d * (Fraction(1, 2) + Fraction(1, factorial(d + 1)))


def _poly_shift_power(shift: int, exp: int) -> list[int]:
    """Coefficients of (u + shift)^exp as a list indexed by power of u."""
    return [binomial(exp, a) * shift ** (exp - a) for a in range(exp + 1)]


def bcp_segre_ehk(p: SegreParams) -> Fraction:
    """e_HK of the Segre product via the published integral formula,
    evaluated exactly by integrating polynomials in integers.

    The printed formula, read with i and k ranging independently over
    [0, j) for each j in (0, c], reproduces the Segre product with one
    MORE variable in each factor, so the parameters are shifted down by
    one here.  With that shift it equals segre_ehk at every
    1 <= c <= d <= 12.

    In it, C(c+d, c) times

        (c+1)^(c+d+1) / (c+d+1)!  -  sum over j, i < j, k < j of
        (-1)^(i+k) C(d+1, j-i) C(c+1, j-k) J(i, k) / (c+d)!,

    the integral J(i, k) of (u+i)^d (u+k)^c over [0, 1] does not depend
    on j.  It is sum_m p_m / (m+1) over the coefficients p_m of a
    polynomial of degree c+d with integer coefficients, so
    N = (c+d+1)! is a common denominator and N J(i, k) is an integer.
    Swapping the sums, each (i, k) with i, k < c meets the j with
    max(i, k) < j <= c, and its weight is
    W(i, k) = sum of C(d+1, j-i) C(c+1, j-k) over those j.  Since
    C(c+d, c) = (c+d)! / (c! d!), the value is

        ((c+1)^(c+d+1) (c+d)!  -  sum (-1)^(i+k) W(i, k) N J(i, k))
        / (c! d! N),

    a sum of integers with one division at the end.
    """
    c, d = max(p.c, p.d) - 1, min(p.c, p.d) - 1
    n = factorial(c + d + 1)
    scale = [n // (m + 1) for m in range(c + d + 1)]
    poly_k = [_poly_shift_power(k, c) for k in range(c)]
    total = 0
    for i in range(c):
        poly_i = _poly_shift_power(i, d)
        for k in range(c):
            weight = sum(
                binomial(d + 1, j - i) * binomial(c + 1, j - k)
                for j in range(max(i, k) + 1, c + 1)
            )
            scaled = sum(
                ca * cb * scale[a + b]
                for a, ca in enumerate(poly_i)
                for b, cb in enumerate(poly_k[k])
            )
            total += (-1) ** (i + k) * weight * scaled
    return Fraction(
        (c + 1) ** (c + d + 1) * factorial(c + d) - total,
        factorial(c) * factorial(d) * n,
    )


def lemma38_limit(c: int, d: int) -> Fraction:
    """Limit of the mixed colength sums sum_n alpha_{c,n,q} alpha_{d,n} / q^{c+d-1}:
    c! S(c+d-1, c) / (c+d-1)!."""
    if c < 1 or d < 1:
        raise ParameterError(f"lemma38_limit requires c, d >= 1, got ({c}, {d})")
    m = c + d - 1
    return Fraction(factorial(c) * stirling2(m, c), factorial(m))


def lemma39_limit(c: int, d: int) -> Fraction:
    """Limit of sum_n alpha_{c,n,q} alpha_{d,n,q} / q^{c+d-1} for c <= d."""
    if c < 1 or d < c:
        raise ParameterError(f"lemma39_limit requires 1 <= c <= d, got ({c}, {d})")
    m = c + d - 1
    corr = 0
    for i in range(2, c + 1):
        for j in range(1, i):
            corr += binomial(c, i) * binomial(d, j) * (-1) ** (c - i + j) * (i - j) ** m
    return lemma38_limit(c, d) + Fraction(corr, factorial(m))


def veronese_rees_ehk(p: VeroneseParams) -> Fraction:
    """e_HK of the Rees algebra of the maximal ideal over the degree-c
    Veronese of a d-variable polynomial ring, valid for c >= d >= 2."""
    c, d = p.c, p.d
    if d < 2 or c < d:
        raise ParameterError(
            f"closed form needs c >= d >= 2, got (c, d) = ({c}, {d}); "
            "use veronese_rees_ehk_general (CLI: veronese-rees-general) instead"
        )
    prod = math.prod(c + i for i in range(1, d))
    return Fraction(2 ** (d + 1) * c ** (d - 1), factorial(d + 1)) - Fraction(
        (2 * c - d * (d - 1)) * prod, c * factorial(d + 1)
    )


def _I_numerator(c: int, d: int, a: int, k: int) -> int:
    """The integer numerator of I_k(a), the double sum in veronese_I_limits.

    When x = a-l >= d the inner sum runs over all i <= d, so it is a d-th
    backward difference: of x^d, which is d!, for k = 0; and, writing
    ad+l+i = a(d+1) - (x-i), of a(d+1) x^d - x^(d+1), which is
    a(d+1) d! - (d+1)! (x - d/2) = (d+1)! (2l + d)/2, for k = 1.  That
    holds for every l <= m = min(c-1, a-d).  Since
    l C(l+d-1, d-1) = d C(l+d-1, d), the hockey stick gives

        sum_{l<=m} alpha(d, l)   = sum_{l<=m} C(l+d-1, d-1) = C(m+d, d),
        sum_{l<=m} l alpha(d, l) = d sum_{l<=m} C(l+d-1, d)  = d C(m+d, d+1),

    so those l contribute d! C(m+d, d) for k = 0 and
    (d+1)!/2 (2d C(m+d, d+1) + d C(m+d, d)) for k = 1.  For m < 0 both
    binomials vanish (m >= -d since a >= 0).  The at most d values
    m < l <= min(c-1, a) are summed term by term, so the cost is O(d^2)
    arithmetic operations at any c.
    """
    m = min(c - 1, a - d)
    if k == 0:
        total = factorial(d) * binomial(m + d, d)
    else:
        total = factorial(d + 1) // 2 * d * (
            2 * binomial(m + d, d + 1) + binomial(m + d, d))
    for l in range(max(m + 1, 0), min(c - 1, a) + 1):
        x = a - l
        total += alpha(d, l) * sum(
            (-1) ** i * binomial(d, i) * (x - i) ** d
            * (a * d + l + i if k else 1)
            for i in range(x + 1)
        )
    return total


def veronese_I_limits(p: VeroneseParams, a: int, k: int) -> Fraction:
    """The moment limits I_k(a) of the normalized graded dimension counts of
    the Veronese ring modulo bracket powers, k in {0, 1}:

        sum over l <= min(c-1, a) of alpha(d, l) times the inner sum over
        i <= min(d, a-l) of (-1)^i C(d, i) (a-l-i)^d, times (ad+l+i) if k = 1,

    over c d! (k = 0) or c^2 (d+1)! (k = 1).  The numerator is an integer,
    evaluated in closed form by _I_numerator.
    """
    c, d = p.c, p.d
    if d < 2:
        raise ParameterError(f"I_k(a) requires d >= 2, got d={d}")
    if k not in (0, 1):
        raise ParameterError(f"only k in {{0, 1}} supported, got k={k}")
    if a < 0:
        raise ParameterError(f"a must be >= 0, got {a}")
    den = c * factorial(d) if k == 0 else c * c * factorial(d + 1)
    return Fraction(_I_numerator(c, d, a, k), den)


def veronese_rees_ehk_general(p: VeroneseParams) -> Fraction:
    """e_HK of the Veronese Rees algebra without the c >= d restriction,
    assembled as e(A)*2^(d+1)/(d+1)! + I_1(inf) - 2*I_0(2c) + I_1(2c).

    I_1(inf) is I_1(a) at any a >= c + d, past which the summand support
    is exhausted.  With e(A) = c^(d-1) and S_k(a) the integer numerator of
    I_k(a), over c d! for k = 0 and c^2 (d+1)! for k = 1, all four terms
    share the denominator c^2 (d+1)!:

        ((2c)^(d+1) + S_1(a_inf) - 2(d+1) c S_0(2c) + S_1(2c)) / (c^2 (d+1)!),

    one Fraction, whose cost, like that of each S_k, does not grow with c.
    """
    c, d = p.c, p.d
    if d < 2:
        raise ParameterError(f"general formula requires d >= 2, got d={d}")
    a_inf = max(2 * c, c + d)
    return Fraction(
        (2 * c) ** (d + 1)
        + _I_numerator(c, d, a_inf, 1)
        - 2 * (d + 1) * c * _I_numerator(c, d, 2 * c, 0)
        + _I_numerator(c, d, 2 * c, 1),
        c * c * factorial(d + 1),
    )


class CiReesValues(NamedTuple):
    """Multiplicities of the (extended) Rees algebra of (x^m, y^n) in k[x, y]."""

    e_rees: Fraction
    ehk_rees: Fraction
    e_extrees: Fraction
    ehk_extrees: Fraction


def ci_rees_values(m: int, n: int) -> CiReesValues:
    """Exact multiplicity record for I = (x^m, y^n); symmetric in (m, n)."""
    if m < 1 or n < 1:
        raise ParameterError(f"exponents must be >= 1, got ({m}, {n})")
    if m < n:
        m, n = n, m
    return CiReesValues(
        e_rees=Fraction(n + 1),
        ehk_rees=n + 1 - Fraction(n, m) + Fraction(n, 3 * m * m),
        e_extrees=Fraction(n + 2 if n >= 2 else 2),
        ehk_extrees=n + 2 - Fraction(n, m) - Fraction(1, n),
    )
