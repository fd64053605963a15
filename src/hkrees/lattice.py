"""Direct lattice-point colength counters.

Each counter returns the exact colength of a bracket power as an integer,
computed from explicit graded-piece descriptions: staircase areas for
Rees algebras of 2D monomial ideals, alpha tables for Segre products and
Veronese Rees algebras, and membership columns on a proven box for 2D
affine semigroup rings and their extended Rees algebras.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionError, ParameterError, RankError

# ---------------------------------------------------------------------------
# Monomial counts in d variables


def _alpha_tables(d: int, top: int, q: int) -> tuple[list[int], list[int]]:
    """[alpha(d, m)] and [alpha_q(d, m, q)] for 0 <= m <= top.

    alpha(d, m) = C(m+d-1, d-1) follows the exact ratio recurrence
    alpha(d, m+1) = alpha(d, m) (m+d) / (m+1); alpha_q(d, ., q) are the
    coefficients of that series times (1 - t^q)^d.
    """
    al = [1]
    for m in range(top):
        al.append(al[-1] * (m + d) // (m + 1))
    aq = al[:]
    for _ in range(d):
        for m in range(top, q - 1, -1):
            aq[m] -= aq[m - q]
    return al, aq


# ---------------------------------------------------------------------------
# Segre products


def segre_colength(c: int, d: int, q: int) -> int:
    """Colength of the q-th bracket power of the maximal ideal of the Segre
    product of polynomial rings in c and d variables."""
    if c < 1 or d < 1 or q < 1:
        raise ParameterError(f"need c, d, q >= 1, got ({c}, {d}, {q})")
    top = max(c, d) * (q - 1)
    ac, acq = _alpha_tables(c, top, q)
    ad, adq = _alpha_tables(d, top, q)
    return sum(
        x * yq + xq * y - xq * yq for x, xq, y, yq in zip(ac, acq, ad, adq)
    )


# ---------------------------------------------------------------------------
# Veronese Rees algebras


def _beta(al: list[int], aq: list[int], c: int, q: int, n: int) -> int:
    """beta_{n,cq} from al[l] = alpha(d, l) for l < c and
    aq[m] = alpha_cq(d, m), which is 0 past the end of the table."""
    total = 0
    for l in range(c):
        m = c * (n - l * q)
        if 0 <= m < len(aq):
            total += al[l] * aq[m]
    return total


def veronese_beta(d: int, c: int, n: int, cq: int) -> int:
    """Graded dimension of the degree-c Veronese of d variables modulo the
    bracket power generated by the cq-th powers of the degree-c monomials."""
    if c < 1 or d < 1 or cq < c:
        raise ParameterError(f"need c, d >= 1 and cq >= c, got ({c}, {d}, {cq})")
    q, rem = divmod(cq, c)
    if rem:
        raise ParameterError(f"cq={cq} not divisible by c={c}")
    al, aq = _alpha_tables(d, d * (cq - 1), cq)
    return _beta(al, aq, c, q, n)


def veronese_rees_colength(c: int, d: int, q: int) -> int:
    """Colength of the cq-th bracket power of the maximal ideal of the Rees
    algebra of the maximal ideal over the degree-c Veronese subring.

    Normalizing by (cq)^(d+1) recovers the closed-form limit.
    """
    if c < 1 or d < 1 or q < 1:
        raise ParameterError(f"need c, d, q >= 1, got ({c}, {d}, {q})")
    cq = c * q
    al, aq = _alpha_tables(d, max(d * (cq - 1), c * (2 * cq - 2)), cq)
    a2q = _alpha_tables(2, 2 * cq - 2, cq)[1]
    # beta_n needs c(n - (c-1)q) <= d(cq - 1), so it vanishes for n >= (c+d-1)q
    betas = [_beta(al, aq, c, q, n) for n in range((c + d - 1) * q)]
    total = sum((n + 1) * b for n, b in enumerate(betas))
    for n in range(2 * cq - 1):
        beta_ncq = betas[n] if n < len(betas) else 0
        total += a2q[n] * (al[c * n] - beta_ncq)
    return total


# ---------------------------------------------------------------------------
# Monomial ideals in k[x, y] and their Rees algebras


@dataclass(frozen=True)
class MonomialIdeal2D:
    """A monomial ideal in two variables, stored as its minimal staircase:
    generators sorted with x-exponents strictly increasing and y-exponents
    strictly decreasing."""

    gens: tuple[tuple[int, int], ...]

    @staticmethod
    def from_gens(gens) -> "MonomialIdeal2D":
        pts = sorted(set(map(tuple, gens)))
        minimal: list[tuple[int, int]] = []
        best_b = math.inf
        for a, b in pts:  # ascending a: keep only strict drops in b
            if b < best_b:
                minimal.append((a, b))
                best_b = b
        return MonomialIdeal2D(tuple(minimal))

    def is_mprimary(self) -> bool:
        return (
            len(self.gens) > 0
            and self.gens[0][0] == 0
            and self.gens[-1][1] == 0
        )

    def contains(self, a: int, b: int) -> bool:
        return self.threshold(b) <= a

    def threshold(self, b: int) -> int:
        """Least x-exponent t such that (t, b) lies in the ideal (inf if none)."""
        best = math.inf
        for ga, gb in self.gens:
            if gb <= b:
                return ga  # gens sorted by ascending ga, descending gb
        return best

    def multiply(self, other: "MonomialIdeal2D") -> "MonomialIdeal2D":
        return MonomialIdeal2D.from_gens(
            (a1 + a2, b1 + b2) for a1, b1 in self.gens for a2, b2 in other.gens
        )

    def bracket(self, q: int) -> "MonomialIdeal2D":
        return MonomialIdeal2D.from_gens((q * a, q * b) for a, b in self.gens)

    def plus(self, other: "MonomialIdeal2D") -> "MonomialIdeal2D":
        return MonomialIdeal2D.from_gens(self.gens + other.gens)

    def max_y(self) -> int:
        return max(b for _, b in self.gens)


_UNIT = MonomialIdeal2D(((0, 0),))


def _staircase_area(ideal: MonomialIdeal2D, rows: int) -> int:
    """Sum of the finite thresholds over rows b < rows, where rows exceeds
    every generator's y-exponent: generator j owns rows [b_j, b_{j-1})."""
    total = 0
    for a, b in ideal.gens:
        total += a * (rows - b)
        rows = b
    return total


def quotient_length(num: MonomialIdeal2D, den: MonomialIdeal2D) -> int:
    """Number of lattice points in num but not in den (den must sit inside num
    with finite-dimensional quotient)."""
    ng = num.gens
    j = 0
    for a, b in den.gens:  # y-exponents descend, so num's pointer only advances
        while j < len(ng) and ng[j][1] > b:
            j += 1
        if j == len(ng) or ng[j][0] > a:
            raise DimensionError(
                f"staircase quotient needs den inside num; ({a}, {b}) is not in num"
            )
    rows = max(num.max_y(), den.max_y()) + 1
    if num.threshold(rows) != den.threshold(rows) or ng[-1][1] != den.gens[-1][1]:
        raise DimensionError("quotient of staircases is infinite-dimensional")
    return _staircase_area(den, rows) - _staircase_area(num, rows)


def rees_monomial_colength(ideal: MonomialIdeal2D, q: int, mode: str) -> int:
    """Colength of the q-th bracket power of (m, It) (mode "maximal-ideal")
    or (I, It) (mode "ideal-power") on the Rees algebra of a 2D m-primary
    monomial ideal, summed over graded pieces until they vanish."""
    if mode not in ("maximal-ideal", "ideal-power"):
        raise ParameterError(f"unknown mode {mode!r}")
    if q < 1:
        raise ParameterError(f"q must be >= 1, got {q}")
    if not ideal.is_mprimary():
        raise DimensionError(
            "ideal must contain pure powers of both variables (m-primary)"
        )
    m = MonomialIdeal2D(((0, 1), (1, 0)))
    small = m if mode == "maximal-ideal" else ideal
    small_q = small.bracket(q)
    ideal_q = ideal.bracket(q)

    powers = [_UNIT]

    def ipow(n: int) -> MonomialIdeal2D:
        while len(powers) <= n:
            powers.append(powers[-1].multiply(ideal))
        return powers[n]

    total = 0
    for n in range(q):
        total += quotient_length(ipow(n), small_q.multiply(ipow(n)))
    zeros = 0
    n = q
    while zeros < 2:
        if mode == "maximal-ideal":
            den = small_q.multiply(ipow(n)).plus(ideal_q.multiply(ipow(n - q)))
        else:
            den = ideal_q.multiply(ipow(n - q))
        piece = quotient_length(ipow(n), den)
        total += piece
        zeros = zeros + 1 if piece == 0 else 0
        n += 1
    return total


# ---------------------------------------------------------------------------
# 2D affine semigroup rings


@dataclass(frozen=True)
class Semigroup2D:
    """Subsemigroup of Z^2 generated by (a_i, b_i), normalized so that
    a_0 = 0 < a_1 < ... < a_s = a and b_s = 0 < b_{s-1} < ... < b_0 = b."""

    generators: tuple[tuple[int, int], ...]

    def __post_init__(self):
        g = self.generators
        if len(g) < 2:
            raise ParameterError("need at least two generators")
        a_vals = [p[0] for p in g]
        b_vals = [p[1] for p in g]
        if a_vals != sorted(a_vals) or a_vals[0] != 0:
            raise ParameterError(f"a_i must satisfy 0 = a_0 < ... < a_s: {g}")
        if any(x == y for x, y in zip(a_vals, a_vals[1:])):
            raise ParameterError(f"a_i must be strictly increasing: {g}")
        if b_vals != sorted(b_vals, reverse=True) or b_vals[-1] != 0:
            raise ParameterError(f"b_i must satisfy b_s = 0 < ... < b_0: {g}")
        if any(x == y for x, y in zip(b_vals, b_vals[1:])):
            raise ParameterError(f"b_i must be strictly decreasing: {g}")
        if self.index() == 0:
            raise RankError(f"generators do not span a rank-2 lattice: {g}")

    @property
    def a(self) -> int:
        return self.generators[-1][0]

    @property
    def b(self) -> int:
        return self.generators[0][1]

    def index(self) -> int:
        """|Z^2 / ZS|: gcd of the 2x2 minors of the generator matrix."""
        g = self.generators
        minors = [
            abs(g[i][0] * g[j][1] - g[j][0] * g[i][1])
            for i in range(len(g))
            for j in range(i + 1, len(g))
        ]
        return math.gcd(*minors) if minors else 0


def equality_criterion(s: Semigroup2D) -> bool:
    """True iff a_i/a + b_i/b = 1 for every generator (the homogeneity
    condition under which the base and extended-Rees multiplicities agree)."""
    a, b = s.a, s.b
    return all(
        Fraction(ai, a) + Fraction(bi, b) == 1 for ai, bi in s.generators
    )


def _box(s: Semigroup2D, q: int) -> tuple[int, int]:
    """Corner of a box [0, W] x [0, H] that holds every point the q-th
    counters count.  A point outside every q*g_i + S has all n_i <= q-1 in
    each representation sum n_i g_i, so it lies in
    [0, (q-1) sum a_i] x [0, (q-1) sum b_i]."""
    return (
        (q - 1) * sum(a for a, _ in s.generators),
        (q - 1) * sum(b for _, b in s.generators),
    )


class _SemigroupGrid:
    """Order function of a semigroup on a width x height grid."""

    def __init__(self, s: Semigroup2D, width: int, height: int):
        gens = s.generators
        ordv = [[-1] * height for _ in range(width)]
        ordv[0][0] = 0
        for x in range(width):
            col = ordv[x]
            for y in range(height):
                best = col[y]
                for ga, gb in gens:
                    px, py = x - ga, y - gb
                    if px >= 0 and py >= 0:
                        prev = ordv[px][py]
                        if prev >= 0 and prev >= best:
                            best = prev + 1
                col[y] = best
        self.ord = ordv


def semigroup_ehk_colength(s: Semigroup2D, q: int) -> int:
    """Number of semigroup elements outside every translate q*g_i + S:
    the colength of the q-th bracket power of the maximal ideal.

    Column x of the box is an int whose bit y says (x, y) is in S."""
    if q < 1:
        raise ParameterError(f"q must be >= 1, got {q}")
    width, height = _box(s, q)
    mask = (1 << (height + 1)) - 1
    b0 = s.b  # g_0 = (0, b); every other generator has a_i > 0
    cols: list[int] = []
    total = 0
    for x in range(width + 1):
        col = int(x == 0)
        for ga, gb in s.generators[1:]:
            if ga <= x:
                col |= cols[x - ga] << gb
        shift = b0
        while shift <= height:  # close under + (0, b) by doubling shifts
            col |= col << shift
            shift <<= 1
        col &= mask
        cols.append(col)
        covered = 0
        for ga, gb in s.generators:
            if q * ga <= x:
                covered |= cols[x - q * ga] << (q * gb)
        total += (col & ~covered).bit_count()
    return total


def semigroup_extrees_colength(s: Semigroup2D, q: int) -> int:
    """Colength of the q-th bracket power of the homogeneous maximal ideal of
    the extended Rees algebra of the maximal ideal of k[S].

    The graded pieces are piecewise in the degree n; each n-range contributes
    per-point counts expressed through the order function ord(s) and
    phi(s) = max_i ord(s - q g_i), aggregated in one pass over the box of
    `_box`.  Points contributing to n < 0 have ord <= q-2, so they lie in
    it.  Points contributing to n >= q have phi < ord - q; in a
    representation of total ord every n_i <= q-1 (else s - q g_i has
    ord >= ord(s) - q), so they lie in it too.
    """
    if q < 1:
        raise ParameterError(f"q must be >= 1, got {q}")
    width, height = _box(s, q)
    ordv = _SemigroupGrid(s, width + 1, height + 1).ord
    qgens = [(q * ga, q * gb) for ga, gb in s.generators]
    total = 0
    for x, col in enumerate(ordv):
        for y, o in enumerate(col):
            if o < 0:
                continue
            phi = -1
            for qa, qb in qgens:
                px, py = x - qa, y - qb
                if px >= 0 and py >= 0 and ordv[px][py] > phi:
                    phi = ordv[px][py]
            # degrees -q < n < 0: point counts against l(A/m^{n+q})
            if o <= q - 2:
                total += q - 1 - o
            # degrees 0 <= n <= q-1: point survives iff outside m^{[q]}
            if phi < 0:
                total += min(q - 1, o) - max(0, o - q + 1) + 1
            # degrees n >= q: n ranges over [max(q, phi+q+1, o-q+1), o]
            lo = max(q, phi + q + 1, o - q + 1)
            if o >= lo:
                total += o - lo + 1
    return total


# ---------------------------------------------------------------------------
# Named semigroups and input formats


def semigroup_veronese(c: int) -> Semigroup2D:
    """Degree-c Veronese of k[s, t]: generators (i, c - i)."""
    if c < 1:
        raise ParameterError(f"c must be >= 1, got {c}")
    return Semigroup2D(tuple((i, c - i) for i in range(c + 1)))


def semigroup_binomial_an(n: int) -> Semigroup2D:
    """Semigroup of k[s^n, st, t^n] = k[x,y,z]/(xy - z^n); requires n >= 2."""
    if n < 2:
        raise ParameterError(f"binomial A-type semigroup needs n >= 2, got {n}")
    return Semigroup2D(((0, n), (1, 1), (n, 0)))


def semigroup_double_point(n: int) -> Semigroup2D:
    """Rational double point of type A_n: k[s^{n+1}, st, t^{n+1}]."""
    if n < 1:
        raise ParameterError(f"A_n needs n >= 1, got {n}")
    return semigroup_binomial_an(n + 1)


def parse_semigroup(text: str) -> Semigroup2D:
    """Parse `sg: (3,0) (1,1) (0,3)` (generator order is normalized and
    repeated generators are dropped)."""
    line = text.strip()
    if line.startswith("sg:"):
        line = line[3:]
    pairs = []
    for chunk in line.replace("(", " ").replace(")", " ").split():
        xs = chunk.split(",")
        if len(xs) != 2:
            raise ParameterError(f"bad generator {chunk!r}")
        pairs.append((int(xs[0]), int(xs[1])))
    return Semigroup2D(tuple(sorted(set(pairs))))

