"""Ehrhart quasi-polynomials of toric colengths.

`polynomial_in_q` evaluates a colength that is a polynomial in q on each
residue class of q mod a period from its values at a few nodes, and
`leading_coefficient` reads that polynomial's leading coefficient, the
limit of colength / q^dim, from the same forward differences.  For a
normal 2D affine semigroup S, `is_normal`, `lattice_basis` and `period`
give that period for the colengths of k[S] and of its extended Rees
algebra R'(m).  They take a normalized `lattice.Semigroup2D`: generators
g_i = (a_i, b_i) with 0 = a_0 < ... < a_s = a and b_0 = b > ... > b_s = 0,
so S spans the quadrant C = {x >= 0, y >= 0}.

Why the colengths are quasi-polynomials in q.  Let S be normal, that is
S = C cap ZS.

- k[S]: p in S lies outside every q g_i + S iff for every i, x < q a_i or
  y < q b_i, since p - q g_i lies in ZS already.  So the colength is the
  number of points of ZS in qQ, where Q is the part of C outside every
  g_i + C, which lies in [0, a) x [0, b).
- R'(m) = sum over n of m^n t^n: k[S] is a cyclic quotient singularity,
  so it is rational, and in a 2D rational singularity every product of
  integrally closed ideals is integrally closed (Lipman, Publ. Math. IHES
  36 (1969)).  So m^n is integrally closed, and its monomials are the p of
  S in nN, with N = conv(g_i) + C the Newton polygon, cut out of C by
  l_j(p) = alpha_j x + beta_j y >= c_j over the edges j of the lower hull
  of the g_i.  So R' is the normal semigroup of the points (p, n) of
  ZS x Z in the cone x, y >= 0, l_j(p) - c_j n >= 0.  The monomial (p, n)
  lies outside M^[q] = ((q g_i, 0), (q g_i, q), (0, -q)) iff (p, n) is
  in R' while (p, n + q) and every (p - q g_i, n - q) are not, so the
  colength is the number of points of ZS x Z in qQ for a region Q that
  these inequalities cut out with q = 1.  Q is bounded: with
  o(x) = min_j l_j(x) / c_j, a real x with o(x) = lambda >= s + 1 is
  lambda sum mu_i g_i + w with w in C and some mu_i >= 1/(s+1), so
  o(x - g_i) >= lambda - 1 and x - g_i lies in C, which puts every
  (x, nu) with lambda - 1 < nu <= lambda outside Q.  So Q lies in
  o(x) < s + 1, which is bounded because alpha_j, beta_j > 0.

In the coordinates of a basis of ZS (times Z), each region Q is a finite
disjoint union of relatively open cells of an arrangement of hyperplanes
N u = c whose normals N are the primitive normals of x >= 0, y >= 0 and,
for R'(m), of l_j(p) - c_j n >= 0, and whose right-hand sides c are
integers: they are values of those functionals at lattice points.  A
vertex of a cell solves dim of these equations with independent normals,
so by Cramer's rule its denominators divide the determinant of those
normals, hence the lcm P of `period`.  By Ehrhart's theorem the number of
lattice points of t times a closed rational polytope is a quasi-polynomial
in t whose period divides the lcm of the denominators of its vertices, and
by Ehrhart-Macdonald reciprocity so is that of the relatively open cell,
for every t >= 1.  So each colength is, for every q >= 1, a polynomial of
degree at most dim on each residue class of q mod P: dim 2 for k[S] and 3
for R'(m).  This is the lattice-point method of Watanabe (Proc. Inst. Nat.
Sci. Nihon Univ. 35 (2000)) and Eto (Tokyo J. Math. 25 (2002)).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def _forward_differences(f, degree: int, period: int, start: int) -> list:
    """Delta^j f(start) for j = 0..degree, along start, start + period, ..."""
    row = [f(start + j * period) for j in range(degree + 1)]
    out = []
    for _ in range(degree + 1):
        out.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return out


def polynomial_in_q(table_sum, degree: int, q: int, period: int = 1,
                    table: dict | None = None) -> int:
    """table_sum(q) for a table_sum that agrees with a polynomial of the
    given degree on each residue class of q mod period, at every q >= 1.

    With q - 1 = k period + r and 0 <= r < period, the nodes of q's class
    are r + 1 + j period for j = 0..degree, and for k <= degree q is one of
    them: this is table_sum(q) itself.  Past them, Newton's
    forward-difference formula along the class gives sum over j of
    C(k, j) Delta^j f(r + 1), in integers.

    `table` maps node q to table_sum(q): each node is read from it before
    it is computed, and stored once computed.  A preset passes one table
    to every call of its counter, so a ladder of q sums each node once;
    a table holds one counter's values for one ring, so node values are
    shared within one preset and never across presets.
    """
    if table is None:
        table = {}

    def node(n: int) -> int:
        if n not in table:
            table[n] = table_sum(n)
        return table[n]

    k, r = divmod(q - 1, period)
    if k <= degree:
        return node(q)
    diffs = _forward_differences(node, degree, period, r + 1)
    return sum(math.comb(k, j) * d for j, d in enumerate(diffs))


def leading_coefficient(table_sum, degree: int, period: int = 1,
                        start: int = 1) -> Fraction:
    """The coefficient of q^degree in the polynomial that table_sum agrees
    with on start, start + period, ...: Delta^degree f(start) /
    (degree! period^degree), the differences taken along that class.  For
    a colength it is the limit of colength / q^degree, so it is exact only
    from a start where the colength already follows its class polynomial.
    """
    top = _forward_differences(table_sum, degree, period, start)[-1]
    return Fraction(top, math.factorial(degree) * period**degree)


def lattice_basis(s) -> tuple[tuple[int, int], tuple[int, int]]:
    """A basis (d, 0), (t, e) of ZS with 0 <= t < d, by Euclid's algorithm
    on the y-coordinates: each generator is folded into (t, e) by
    unimodular steps until its y-coordinate is 0, and what is left of it
    lies on the x-axis, which d spans.  So |Z^2 / ZS| = d e."""
    d, t, e = 0, 0, 0
    for x, y in s.generators:
        while y:
            k = e // y
            t, e, x, y = x, y, t - k * x, e - k * y
        d = math.gcd(d, x)
    return (d, 0), (t % d, e)


def is_normal(s) -> bool:
    """Whether S = C cap ZS.  As (a, 0) and (0, b) lie in S, every point
    of C cap ZS is one of S plus a point of ZS in R = [0, a) x [0, b), so
    S is normal iff it holds all of those.  R is a fundamental domain of
    aZ x bZ, a sublattice of ZS, so it holds ab / |Z^2 / ZS| points of ZS,
    and S in R is found column by column: a point of S other than the
    origin is some p - g_i in S plus g_i, and p - g_i lies in R when p
    does.  Neither (0, b) nor (a, 0) fits in R."""
    a, b = s.a, s.b
    cols = [1]  # bit y of cols[x] is (x, y) in S
    for x in range(1, a):
        col = 0
        for ga, gb in s.generators[1:-1]:
            if ga <= x:
                col |= cols[x - ga] << gb
        cols.append(col & (1 << b) - 1)
    return sum(col.bit_count() for col in cols) == a * b // s.index()


def _lower_hull(s) -> list[tuple[int, int, int]]:
    """(alpha, beta, c) for each edge of the lower hull of the generators,
    from (0, b) to (a, 0): alpha x + beta y >= c on every generator, with
    equality at both ends of the edge, and alpha, beta > 0."""
    hull: list[tuple[int, int]] = []
    for x, y in s.generators:
        # drop the last vertex unless (x, y) lies strictly left of the line
        # through the last two, that is unless the hull turns left there
        while len(hull) > 1:
            (x0, y0), (x1, y1) = hull[-2:]
            if (x1 - x0) * (y - y0) > (y1 - y0) * (x - x0):
                break
            hull.pop()
        hull.append((x, y))
    return [(y1 - y2, x2 - x1, (y1 - y2) * x1 + (x2 - x1) * y1)
            for (x1, y1), (x2, y2) in zip(hull, hull[1:])]


def _det(rows) -> int:
    """Determinant of a 2x2 or 3x3 matrix given by its rows."""
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def period(s, dim: int) -> int:
    """P, the lcm of |det| over the independent sets of dim primitive facet
    normals in the coordinates of `lattice_basis`: those of x >= 0 and
    y >= 0 for k[S] (dim 2), and with them (alpha_j, beta_j, -c_j) for each
    lower-hull edge for R'(m) (dim 3).  The functional (alpha, beta) reads
    (alpha d, alpha t + beta e) in those coordinates."""
    (d, _), (t, e) = lattice_basis(s)
    rows = [(1, 0, 0), (0, 1, 0)]
    if dim == 3:
        rows += [(alpha, beta, -c) for alpha, beta, c in _lower_hull(s)]
    normals = []
    for alpha, beta, gamma in rows:
        v = (alpha * d, alpha * t + beta * e, gamma)[:dim]
        g = math.gcd(*v)
        normals.append(tuple(x // g for x in v))
    dets = (abs(_det(m)) for m in itertools.combinations(normals, dim))
    return math.lcm(*(x for x in dets if x))
