"""Direct lattice-point colength counters.

Each counter returns the exact colength of a bracket power as an integer,
computed from explicit graded-piece descriptions: staircase areas for
Rees algebras of 2D monomial ideals, a point-by-point count for the Rees
algebra of (x^m, y^n), alpha tables for Segre products and Veronese Rees
algebras, and one packed membership bitset on a proven box for 2D affine
semigroup rings and their extended Rees algebras.

The Segre and Veronese Rees colengths are polynomials in q from q = 1 on,
so those two counters sum their alpha tables only at the first few q and
evaluate the polynomial there, and the (x^m, y^n) count is summed in
closed form; the cost of these three does not grow with q.  For a normal
semigroup both semigroup colengths are polynomials in q on each residue
class of q mod a proven period, so `toric.normal_in_q` runs their box
only at the first few q of the class; a non-normal semigroup runs the box
at q.  These four counters take an optional node table (see `toric`).
The semigroup record `Semigroup2D` lives in `toric`.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from . import toric
from .errors import DimensionError, ParameterError
from .exact import binomial, parse_int
from .toric import Semigroup2D

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


def _segre_sum(c: int, d: int, q: int) -> int:
    """The Segre colength as a sum over the alpha tables."""
    top = max(c, d) * (q - 1)
    ac, acq = _alpha_tables(c, top, q)
    ad, adq = _alpha_tables(d, top, q)
    return sum(
        x * yq + xq * y - xq * yq for x, xq, y, yq in zip(ac, acq, ad, adq)
    )


def segre_colength(c: int, d: int, q: int, table: dict | None = None) -> int:
    """Colength of the q-th bracket power of the maximal ideal of the Segre
    product of polynomial rings in c and d variables.

    The colength is the sum over m of alpha(c, m) alpha_q(d, m, q) +
    alpha_q(c, m, q) alpha(d, m) - alpha_q(c, m, q) alpha_q(d, m, q), a
    polynomial in q of degree c + d - 1 for every q >= 1;
    `toric.polynomial_in_q` evaluates it from its values at q = 1..c+d.
    Proof: the summand vanishes for m > max(c, d)(q - 1), so the sum runs
    over the blocks jq <= m < (j+1)q with j < max(c, d), a number of
    blocks that does not depend on q.  On block j, alpha_q(d, m, q) = sum
    over i <= j of (-1)^i C(d, i) C(m - iq + d - 1, d - 1), since the
    terms with i > j have m - iq < 0; so with m = jq + r the summand is a
    polynomial in (r, q), and Faulhaber's formula makes its sum over
    0 <= r < q a polynomial in q.  Its degree is at most c + d - 1, the
    dimension of the ring, because the colength is O(q^(c+d-1)).
    """
    if c < 1 or d < 1 or q < 1:
        raise ParameterError(f"need c, d, q >= 1, got ({c}, {d}, {q})")
    return toric.polynomial_in_q(
        lambda k: _segre_sum(c, d, k), c + d - 1, q, table=table
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


def _veronese_rees_sum(c: int, d: int, q: int) -> int:
    """The Veronese Rees colength as a sum over the alpha tables."""
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


def veronese_rees_colength(c: int, d: int, q: int,
                           table: dict | None = None) -> int:
    """Colength of the cq-th bracket power of the maximal ideal of the Rees
    algebra of the maximal ideal over the degree-c Veronese subring.

    Normalizing by (cq)^(d+1) recovers the closed-form limit.

    The colength is sum over n of (n + 1) beta_n plus the sum over
    n < 2cq - 1 of alpha_cq(2, n) (alpha(d, cn) - beta_n), with
    beta_n = sum over l < c of alpha(d, l) alpha_cq(d, c(n - lq)).  It is a
    polynomial in q of degree d + 1 for every q >= 1, which
    `toric.polynomial_in_q` evaluates from its values at q = 1..d+2.  Proof:
    beta_n vanishes for n >= (c+d-1)q and alpha_cq(2, 2cq - 1) = 0, so both
    sums run over the blocks jq <= n < (j+1)q with j < max(c+d-1, 2c), a
    number of blocks that does not depend on q.  On block j, with
    n = jq + r, the argument c(n - lq) = c(j-l)q + cr sits in the single
    block of width cq starting at (j-l)cq, where alpha_cq(d, .) is the
    polynomial sum over i <= j - l of (-1)^i C(d, i) C(. - icq + d - 1,
    d - 1); alpha_cq(2, n) likewise sits in the block of width cq starting
    at floor(j/c) cq, and alpha(d, cn) is a polynomial in n.  So each
    summand is a polynomial in (r, q), and Faulhaber's formula makes its
    sum over 0 <= r < q a polynomial in q.  Its degree is at most d + 1,
    the dimension of the ring, because the colength is O(q^(d+1)).
    """
    if c < 1 or d < 1 or q < 1:
        raise ParameterError(f"need c, d, q >= 1, got ({c}, {d}, {q})")
    return toric.polynomial_in_q(
        lambda k: _veronese_rees_sum(c, d, k), d + 1, q, table=table
    )


# ---------------------------------------------------------------------------
# Monomial ideals in k[x, y] and their Rees algebras


class MonomialIdeal2D(NamedTuple):
    """A monomial ideal in two variables, stored as its minimal staircase:
    generators sorted with x-exponents strictly increasing and y-exponents
    strictly decreasing."""

    gens: tuple[tuple[int, int], ...]

    @staticmethod
    def from_gens(gens) -> "MonomialIdeal2D":
        return _envelope([sorted(map(tuple, gens))])

    def is_mprimary(self) -> bool:
        return (
            len(self.gens) > 0
            and self.gens[0][0] == 0
            and self.gens[-1][1] == 0
        )

    def threshold(self, b: int) -> int:
        """Least x-exponent t such that (t, b) lies in the ideal (inf if none)."""
        for ga, gb in self.gens:
            if gb <= b:
                return ga  # gens sorted by ascending ga, descending gb
        return math.inf

    def multiply(self, other: "MonomialIdeal2D") -> "MonomialIdeal2D":
        return _envelope(
            [(a + x, b + y) for x, y in self.gens] for a, b in other.gens
        )

    def bracket(self, q: int) -> "MonomialIdeal2D":
        return MonomialIdeal2D(tuple((q * a, q * b) for a, b in self.gens))

    def plus(self, other: "MonomialIdeal2D") -> "MonomialIdeal2D":
        return _envelope([self.gens, other.gens])

    def max_y(self) -> int:
        return self.gens[0][1]  # y-exponents descend along the staircase


def _envelope(runs) -> MonomialIdeal2D:
    """Minimal staircase of the sum of ideals generated by `runs`, lists of
    points each sorted by ascending x: merge the runs (timsort merges
    presorted runs) and keep the lower envelope, the points whose y drops
    below that of every point before them."""
    minimal: list[tuple[int, int]] = []
    best_b = math.inf
    for a, b in sorted(itertools.chain.from_iterable(runs)):
        if b < best_b:
            minimal.append((a, b))
            best_b = b
    return MonomialIdeal2D(tuple(minimal))


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
    ng, last = num.gens, len(num.gens)
    j = 0
    for a, b in den.gens:  # y-exponents descend, so num's pointer only advances
        while j < last and ng[j][1] > b:
            j += 1
        if j == last or ng[j][0] > a:
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
    monomial ideal, summed over graded pieces until they vanish.

    With J = m (maximal-ideal) or J = I (ideal-power), degree n is
    I^n / den(n) with den(n) = J^[q] I^n, plus I^[q] I^{n-q} once n >= q.
    So den(0) = J^[q], den(n+1) = den(n) I, and den(q) also gains I^[q].
    That sum needs no mode branch: in ideal-power mode it is just I^[q],
    because I^[q] contains I^[q] I^q.  A piece with n < q never vanishes
    (J^[q] I^n lies in m I^n, which is smaller than I^n), and for n >= q the
    first piece that vanishes is the last one counted: I^n = den(n) gives
    I^{n+1} = I^n I = den(n) I = den(n+1), and so on for every later n.
    """
    if mode not in ("maximal-ideal", "ideal-power"):
        raise ParameterError(f"unknown mode {mode!r}")
    if q < 1:
        raise ParameterError(f"q must be >= 1, got {q}")
    if not ideal.is_mprimary():
        raise DimensionError(
            "ideal must contain pure powers of both variables (m-primary)"
        )
    m = MonomialIdeal2D(((0, 1), (1, 0)))
    den = (m if mode == "maximal-ideal" else ideal).bracket(q)  # den(0)
    power = _UNIT  # I^n
    total = n = 0
    while piece := quotient_length(power, den):
        total += piece
        power = power.multiply(ideal)
        den = den.multiply(ideal)
        n += 1
        if n == q:
            den = den.plus(ideal.bracket(q))
    return total


def _floor_sum(t: int, n: int) -> int:
    """Sum of floor(b/n) over 0 <= b < t."""
    u, v = divmod(t, n)
    return n * u * (u - 1) // 2 + u * v


def _delta_counts(q: int, m: int) -> list[tuple[int, int]]:
    """(value, count) pairs of Delta(a) = floor(a/m) - floor((a-q)/m) over
    q <= a < qm.  With q = sm + r, Delta(a) is s + 1 when a mod m < r and s
    otherwise; r(q - s - 1) of the a have a mod m < r."""
    s, r = divmod(q, m)
    plus = r * (q - s - 1)
    return [(s, q * (m - 1) - plus), (s + 1, plus)]


def _strip(q: int, m: int, n: int) -> int:
    """Sum of max(0, q - 1 - floor((a-q)/m) - floor(b/n)) over a >= qm and
    0 <= b < q.

    Let u = floor((a-q)/m) and w = floor(b/n).  The a >= qm give
    u >= q - ceil(q/m): m values of a each, except d = (-q) mod m fewer at
    the first u.  The b < q give w < v = floor(q/n), n values each, and
    rho = q mod n values at w = v.  With i = u - (q - ceil(q/m)) and
    k = ceil(q/m) - 1 the term is max(0, k - i - w), so the sum is the full
    m n weight over w < v, plus m rho at w = v, less d n and d rho at i = 0.
    Each weight, the sum of max(0, j - i_1 - ... - i_(e-1)) over
    i_1, ..., i_(e-1) >= 0, is `exact.binomial(j + e - 1, e)`, which is 0
    for j <= 0.
    """
    k = -(-q // m) - 1
    d = -q % m
    v, rho = divmod(q, n)
    return (
        m * n * (binomial(k + 2, 3) - binomial(k - v + 2, 3))
        + m * rho * binomial(k - v + 1, 2)
        - d * n * (binomial(k + 1, 2) - binomial(k - v + 1, 2))
        - d * rho * binomial(k - v, 1)
    )


def ci_rees_colength(m: int, n: int, q: int) -> int:
    """Colength of the q-th bracket power of the maximal homogeneous ideal
    M = (x, y, x^m t, y^n t) of the Rees algebra of I = (x^m, y^n): the
    value of `rees_monomial_colength` in mode "maximal-ideal", counted
    point by point and summed in closed form, so its cost does not grow
    with q.

    Proof.  p = (a, b) lies in I^k iff nu(p) = floor(a/m) + floor(b/n) >= k,
    so the monomials of degree k in t are the p with nu(p) >= k.  Let
    Delta_m(a) = floor(a/m) - floor((a-q)/m) for a >= q and infinity for
    a < q, and Delta_n(b) likewise.  Then p lies in x^q I^k iff
    k <= nu(p) - Delta_m(a), in y^q I^k iff k <= nu(p) - Delta_n(b), and in
    I^[q] I^(k-q) iff q <= k <= nu(p) and (a >= qm or b >= qn).  So p counts
    the degrees nu - Delta < k <= nu, Delta = min(Delta_m, Delta_n), that is
    min(Delta, nu + 1) of them, less those with k >= q when a >= qm or
    b >= qn.  As Delta_m(a) <= floor(a/m) for a >= q:

    - a < qm, b < qn: nu + 1 counts only when a, b < q, where the count is
      nu + 1.  For a < q <= b it is Delta_n(b), for b < q <= a it is
      Delta_m(a), and for a, b >= q it is min(Delta_m, Delta_n), where
      Delta_m takes only the values counted by `_delta_counts`.
    - a >= qm: then nu >= q and the count is max(0, q - 1 - nu + Delta).  If
      b >= q it is 0, since Delta_n(b) <= floor(b/n) <= nu - q; if b < q it
      is max(0, q - 1 - floor((a-q)/m) - floor(b/n)), which `_strip` sums.
    - b >= qn and a < qm: the same with the axes swapped.

    With F(t, n) the sum of floor(b/n) over b < t (`_floor_sum`), the
    a, b < q give q^2 + q (F(q, m) + F(q, n)), and the sum of Delta_n(b)
    over q <= b < qn telescopes into F(qn, n) - F(q, n) - F(qn - q, n).

    In q.  On each residue class of q mod L = lcm(m, n), floor(q/m) and
    floor(q/n) are affine in q and q mod m, q mod n are fixed, so every
    term is a polynomial of degree at most 3 in q, but for two clamps.
    `binomial`'s 0 below 0 never switches on a class: in `_strip(q, m, n)`,
    k - v = ceil(q/m) - 1 - floor(q/n) is <= 0 when m >= n, so its terms
    in k - v are all 0, and >= 0 when m < n, so none of them is clamped.
    The min of the product sum is the other.  Say m > n (the colength is
    symmetric in m and n) and s_e = floor(q/e), so s_m <= s_n: of its four
    pairs only min(s_m + 1, s_n) can switch, and it is s_m + 1 unless
    s_m = s_n = t.  That needs tm <= q < (t + 1) n, so t (m - n) <= n - 1
    and q < (t + 1) n <= n (m - 1)/(m - n) <= (n/g)(m - 1) < L, with
    g = gcd(m, n) dividing m - n.  So from q = L on the colength is a cubic
    on each class: a leading coefficient must be read from nodes
    r + L, r + 2L, ..., not from a class's first member r < L.  Below L the
    cubic can miss: at (m, n) = (4, 3) and q = 2 it gives 20, but the
    colength is 16.  At m = n the min is s_m for every q, so the cubic
    holds from q = 1.
    """
    if m < 1 or n < 1 or q < 1:
        raise ParameterError(f"need m, n, q >= 1, got ({m}, {n}, {q})")
    total = q * q + q * (_floor_sum(q, m) + _floor_sum(q, n))
    for e in (m, n):
        total += q * (_floor_sum(q * e, e) - _floor_sum(q, e)
                      - _floor_sum(q * e - q, e))
    total += sum(
        nx * ny * min(x, y)
        for x, nx in _delta_counts(q, m)
        for y, ny in _delta_counts(q, n)
    )
    return total + _strip(q, m, n) + _strip(q, n, m)


# ---------------------------------------------------------------------------
# 2D affine semigroup rings


def equality_criterion(s: Semigroup2D) -> bool:
    """True iff a_i/a + b_i/b = 1 for every generator (the homogeneity
    condition under which the base and extended-Rees multiplicities agree),
    tested as a_i b + b_i a = a b."""
    a, b = s.a, s.b
    return all(ai * b + bi * a == a * b for ai, bi in s.generators)


def _box(s: Semigroup2D, q: int) -> tuple[int, int]:
    """Corner of a box [0, W] x [0, H] that holds every point the q-th
    counters count.  A point outside every q*g_i + S has all n_i <= q-1 in
    each representation sum n_i g_i, so it lies in
    [0, (q-1) sum a_i] x [0, (q-1) sum b_i]."""
    return (
        (q - 1) * sum(a for a, _ in s.generators),
        (q - 1) * sum(b for _, b in s.generators),
    )


class _PackedBox:
    """Subsets of the box [0, W] x [0, H] of `_box` as one int whose bit
    x*stride + y is the point (x, y).  Each column takes whole bytes with
    at least b free rows above H, so a translate by one generator never
    reaches the next column before `step` masks it back to the box.

    `members` is S in the box, the ord layer L_0.  It starts as the origin
    and is closed under each generator g in turn by the translates by g,
    2g, 4g, ...: after those by 2^j g for j < k it holds every multiple
    m g with m < 2^k, and the translates go on while the multiple still
    fits in the box (while the origin's translate is not empty), so every
    multiple that fits is reached.  Closing in turn gives all of S in the
    box, because every partial sum of a representation sum n_i g_i lies
    below the point, so inside the box.  `phi` is Phi_0, the union of the
    translates S + q g_i in the box; they need only S in the box, since
    p - q g_i lies below p.
    """

    def __init__(self, s: Semigroup2D, q: int):
        self.width, self.height = _box(s, q)
        nbytes = (self.height + s.b + 8) // 8  # ceil((H + 1 + b) / 8)
        self.stride = 8 * nbytes
        # a repunit with bit 0 of each column set: unit * (2^(top+1) - 1)
        # fills the rows 0..top of every column
        column = (1).to_bytes(nbytes, "little")
        self.unit = int.from_bytes(column * (self.width + 1), "little")
        self.shifts = [ga * self.stride + gb for ga, gb in s.generators]
        self.box = self._rows(self.height)
        members = 1
        for ga, gb in s.generators:
            k = 1
            while shifted := self.translate(members, k * ga, k * gb):
                members |= shifted
                k <<= 1
        self.members = members
        self.phi = 0
        for ga, gb in s.generators:
            self.phi |= self.translate(members, q * ga, q * gb)

    def _rows(self, top: int) -> int:
        """The rows 0..top of every column of the box."""
        return (self.unit << top + 1) - self.unit

    def translate(self, bits: int, a: int, b: int) -> int:
        """bits + (a, b), cut to the box.  When H + b reaches the stride,
        the rows above H - b are cleared first: their translates leave the
        box anyway, and would otherwise wrap into the next column."""
        if a > self.width or b > self.height:
            return 0
        if self.height + b >= self.stride:
            bits &= self._rows(self.height - b)
        return (bits << (a * self.stride + b)) & self.box

    def step(self, layer: int) -> int:
        """Union of the translates layer + g_i, cut to the box: the ord
        layer L_{k+1} = {p : ord(p) >= k+1} from L_k, since the box is
        closed under p -> p - g_i."""
        out = 0
        for shift in self.shifts:
            out |= layer << shift
        return out & self.box


def _ehk_box(s: Semigroup2D, q: int) -> int:
    """`semigroup_ehk_colength` counted on the packed box."""
    grid = _PackedBox(s, q)
    return (grid.members & ~grid.phi).bit_count()


def semigroup_ehk_colength(s: Semigroup2D, q: int,
                           table: dict | None = None) -> int:
    """Number of semigroup elements outside every translate q*g_i + S:
    the colength of the q-th bracket power of the maximal ideal."""
    return toric.normal_in_q(_ehk_box, s, 2, q, table)


def semigroup_extrees_colength(s: Semigroup2D, q: int,
                               table: dict | None = None) -> int:
    """Colength of the q-th bracket power M^[q] of the homogeneous maximal
    ideal of the extended Rees algebra R' = sum over n of m^n t^n of k[S],
    counted by `_extrees_box`."""
    return toric.normal_in_q(_extrees_box, s, 3, q, table)


def _extrees_box(s: Semigroup2D, q: int) -> int:
    """`semigroup_extrees_colength` counted on the packed box.

    The monomials of R' are (p, n) with p in S and n <= ord(p), and M^[q]
    is generated by (q g_i, 0), (q g_i, q) and (0, -q).  So (p, n) lies
    outside M^[q] iff ord(p) - q < n and phi(p) + q < n, where
    phi(p) = max_i ord(p - q g_i) (-inf when no p - q g_i is in S).  As
    phi(p) + q <= ord(p), each p in S counts q - max(0, phi(p) + 2q - ord(p))
    degrees.  A point outside the box of `_box` counts none: a sum of
    ord(p) generators equal to p uses some g_i at least q times, so
    phi(p) >= ord(p) - q.

    With the ord layers L_k = {p : ord(p) >= k} and Phi_j = {p : phi(p) >= j}
    = union of L_j + q g_i, which also satisfies Phi_{j+1} = Phi_j + {g_i},
    the subtracted sum is the count of pairs (p, n) with n >= 0, p in
    Phi_{max(0, n - q)} and p not in L_{n+q}.
    """
    grid = _PackedBox(s, q)
    total = q * grid.members.bit_count()
    layer, phi = grid.members, grid.phi
    for _ in range(q):
        layer = grid.step(layer)
    n = 0
    while phi:  # layer is L_{n+q}, phi is Phi_{max(0, n-q)}
        total -= ((phi | layer) ^ layer).bit_count()
        layer = grid.step(layer)
        n += 1
        if n > q:
            phi = grid.step(phi)
    return total


# ---------------------------------------------------------------------------
# Named semigroups and input formats


def semigroup_veronese(c: int) -> Semigroup2D:
    """Degree-c Veronese of k[s, t]: generators (i, c - i)."""
    if c < 1:
        raise ParameterError(f"c must be >= 1, got {c}")
    return Semigroup2D(tuple((i, c - i) for i in range(c + 1)))


def semigroup_binomial_an(n: int) -> Semigroup2D:
    """Semigroup of k[s^n, st, t^n] = k[x,y,z]/(xy - z^n), the rational
    double point of type A_(n-1); requires n >= 2."""
    if n < 2:
        raise ParameterError(f"binomial A-type semigroup needs n >= 2, got {n}")
    return Semigroup2D(((0, n), (1, 1), (n, 0)))


def parse_semigroup(text: str) -> Semigroup2D:
    """Parse `sg: (3,0) (1,1) (0,3)` (generator order is normalized and
    repeated generators are dropped)."""
    line = text.strip()
    if line.startswith("sg:"):
        line = line[3:]
    pairs = []
    for chunk in line.replace("(", " ").replace(")", " ").split():
        try:
            a, b = map(parse_int, chunk.split(","))
        except ValueError:
            raise ParameterError(f"bad generator {chunk!r}") from None
        pairs.append((a, b))
    return Semigroup2D(tuple(sorted(set(pairs))))

