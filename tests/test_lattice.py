"""Tests for the lattice-point colength counters."""

import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkrees import closed_forms as cf
from hkrees import presets
from hkrees.engine import (
    MonomialOrderSpec,
    PresentedQuotient,
    PureDifferenceBinomial,
    frobenius_colength,
    parse_presentation,
)
from hkrees import lattice, toric
from hkrees.errors import DimensionError, ParameterError
from hkrees.estimator import normalized_sequence
from hkrees.lattice import (
    MonomialIdeal2D,
    Semigroup2D,
    ci_rees_colength,
    equality_criterion,
    parse_semigroup,
    quotient_length,
    rees_monomial_colength,
    segre_colength,
    semigroup_binomial_an,
    semigroup_ehk_colength,
    semigroup_extrees_colength,
    semigroup_veronese,
    veronese_beta,
    veronese_rees_colength,
)

from reference_routes import (
    equality_criterion_by_fractions,
    lemma38_limit,
    segre_colength_by_alpha_q,
    veronese_I_limits,
    veronese_beta_by_alpha,
    veronese_rees_colength_by_alpha_q,
)

LEX = MonomialOrderSpec("lex")


# ---------------------------------------------------------------------------
# Segre


def test_segre_colength_one_variable():
    for q in (1, 2, 5, 9):
        assert segre_colength(1, 1, q) == q


def test_segre_colength_converges():
    values = [Fraction(segre_colength(2, 2, q), q**3) for q in (4, 8, 16, 32, 64)]
    target = Fraction(4, 3)
    assert all(abs(v - target) < abs(u - target) for u, v in zip(values, values[1:]))
    # the colength is a cubic in q from q = 1 on (`segre_colength`)
    assert toric.leading_coefficient(lambda q: segre_colength(2, 2, q), 3) == target


def test_segre_matches_engine():
    p = PresentedQuotient(
        ("a", "b", "c", "d"),
        (PureDifferenceBinomial((1, 1, 0, 0), (0, 0, 1, 1)),),
        (),
        3,
    )
    for q in (2, 4, 8):
        assert segre_colength(2, 2, q) == frobenius_colength(p, q, LEX)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 12))
def test_segre_colength_matches_direct_alpha_sum(c, d, q):
    assert segre_colength(c, d, q) == segre_colength_by_alpha_q(c, d, q)


# ---------------------------------------------------------------------------
# Veronese Rees


def test_veronese_beta_stable_range():
    for c in (2, 3):
        for d in (2, 3):
            for q in (3, 4):
                for n in range(q):
                    assert veronese_beta(d, c, n, c * q) == cf.alpha(d, c * n)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4))
def test_veronese_rees_matches_direct_alpha_sum(c, d, q):
    cq = c * q
    # generous range: beta vanishes from n = (c+d-1)q on
    top = max(c + d + 1, 2 * c) * q
    betas = [veronese_beta_by_alpha(d, c, n, q) for n in range(top)]
    assert not any(betas[(c + d - 1) * q:])
    assert [veronese_beta(d, c, n, cq) for n in range(len(betas))] == betas
    assert veronese_rees_colength(c, d, q) == veronese_rees_colength_by_alpha_q(c, d, q)


def veronese_rees_limit(c, d):
    """lim colength / (cq)^(d+1): the colength is a polynomial in q of
    degree d + 1 from q = 1 on (`veronese_rees_colength`), so its leading
    coefficient over c^(d+1)."""
    lead = toric.leading_coefficient(lambda q: veronese_rees_colength(c, d, q), d + 1)
    return lead / c ** (d + 1)


def test_veronese_rees_converges_to_closed_form():
    target = Fraction(13, 6)
    values = [
        Fraction(veronese_rees_colength(2, 2, q), (2 * q) ** 3)
        for q in (4, 8, 16, 32)
    ]
    assert all(abs(v - target) < abs(u - target) for u, v in zip(values, values[1:]))
    assert veronese_rees_limit(2, 2) == target


def test_veronese_rees_c1_is_polynomial_base():
    for d in (2, 3):
        assert veronese_rees_limit(1, d) == cf.c_of_d(d)


def test_veronese_rees_general_case_converges():
    target = cf.veronese_rees_ehk_general(cf.VeroneseParams(2, 3))
    assert veronese_rees_limit(2, 3) == target


# ---------------------------------------------------------------------------
# Polynomial evaluation of the Segre and Veronese Rees counters


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 200))
def test_segre_polynomial_matches_table_sum(c, d, q):
    assert segre_colength(c, d, q) == lattice._segre_sum(c, d, q)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 120))
def test_veronese_rees_polynomial_matches_table_sum(c, d, q):
    assert veronese_rees_colength(c, d, q) == lattice._veronese_rees_sum(c, d, q)


@pytest.mark.parametrize("counter, table_sum, c, d, degree", [
    (segre_colength, "_segre_sum", 3, 4, 3 + 4 - 1),
    (veronese_rees_colength, "_veronese_rees_sum", 3, 3, 3 + 1),
])
def test_large_q_sums_tables_only_at_the_nodes(
    monkeypatch, counter, table_sum, c, d, degree
):
    nodes = []
    real = getattr(lattice, table_sum)
    monkeypatch.setattr(
        lattice, table_sum, lambda *args: nodes.append(args[2]) or real(*args)
    )
    assert counter(c, d, 10**6) > 0
    assert nodes == list(range(1, degree + 2))


def test_segre_leading_difference_is_closed_form():
    for c in range(1, 7):
        for d in range(1, 7):
            got = toric.leading_coefficient(
                lambda q: segre_colength(c, d, q), c + d - 1)
            assert got == cf.segre_ehk(cf.SegreParams(c, d)), (c, d)


def test_veronese_rees_leading_difference_is_closed_form():
    for c in range(1, 7):
        for d in range(1, 6):
            got = toric.leading_coefficient(
                lambda q: veronese_rees_colength(c, d, q), d + 1) / c ** (d + 1)
            want = (1 if d == 1
                    else cf.veronese_rees_ehk_general(cf.VeroneseParams(c, d)))
            assert got == want, (c, d)


# ---------------------------------------------------------------------------
# 2D monomial ideals


def test_staircase_minimalization():
    ideal = MonomialIdeal2D.from_gens([(0, 3), (1, 1), (2, 2), (3, 0), (1, 4)])
    assert ideal.gens == ((0, 3), (1, 1), (3, 0))
    assert ideal.is_mprimary()
    assert not MonomialIdeal2D.from_gens([(1, 2)]).is_mprimary()


def test_staircase_containment():
    """(a, b) lies in the ideal iff threshold(b) <= a."""
    ideal = MonomialIdeal2D.from_gens([(0, 3), (2, 0)])
    assert [ideal.threshold(b) for b in range(5)] == [2, 2, 2, 0, 0]
    assert MonomialIdeal2D.from_gens([(1, 2)]).threshold(1) == math.inf


def test_quotient_length_hand_cases():
    unit = MonomialIdeal2D(((0, 0),))
    box = MonomialIdeal2D.from_gens([(2, 0), (0, 3)])
    assert quotient_length(unit, box) == 6
    m = MonomialIdeal2D.from_gens([(1, 0), (0, 1)])
    assert quotient_length(m, m.multiply(m)) == 2
    with pytest.raises(DimensionError):
        quotient_length(unit, MonomialIdeal2D(((1, 2),)))


def test_quotient_length_rejects_den_outside_num():
    m = MonomialIdeal2D.from_gens([(1, 0), (0, 1)])
    with pytest.raises(DimensionError):
        quotient_length(m.multiply(m), m)  # a row scan reads -2
    ideal = MonomialIdeal2D.from_gens([(0, 2), (3, 1)])
    with pytest.raises(DimensionError):
        # a row scan reads -inf: row 0 is empty in num but not in den
        quotient_length(ideal, ideal.plus(MonomialIdeal2D(((4, 0),))))


def staircases(mprimary):
    pts = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                   min_size=1, max_size=4)
    if mprimary:
        pts = st.tuples(pts, st.integers(0, 6), st.integers(0, 6)).map(
            lambda t: t[0] + [(0, t[1]), (t[2], 0)]
        )
    return pts.map(MonomialIdeal2D.from_gens)


@settings(max_examples=150, deadline=None)
@given(staircases(False), staircases(True), staircases(True))
def test_quotient_length_matches_row_scan(num, j, k):
    den = num.multiply(j).plus(num.multiply(k).multiply(k))
    rows = max(num.max_y(), den.max_y()) + 1
    scan = sum(
        den.threshold(b) - num.threshold(b)
        for b in range(rows)
        if den.threshold(b) != math.inf
    )
    assert quotient_length(num, den) == scan


def rees_maximal_limit(m, n):
    """lim colength / q^3 of the Rees algebra of (x^m, y^n): the colength
    is a cubic in q on L, 2L, ... with L = lcm(m, n) (`ci_rees_colength`)."""
    ideal = MonomialIdeal2D.from_gens([(m, 0), (0, n)])
    period = math.lcm(m, n)
    return toric.leading_coefficient(
        lambda q: rees_monomial_colength(ideal, q, "maximal-ideal"), 3, period, period)


def test_rees_maximal_mode_regular_base():
    assert rees_maximal_limit(1, 1) == Fraction(4, 3)


def test_rees_maximal_mode_ci_ideals():
    for m, n in [(2, 2), (3, 2)]:
        assert rees_maximal_limit(m, n) == cf.ci_rees_values(m, n).ehk_rees, (m, n)


def test_rees_ideal_power_mode():
    ideal = MonomialIdeal2D.from_gens([(2, 0), (0, 1)])
    target = Fraction(8, 3)  # e(I) * 4/3
    v = Fraction(rees_monomial_colength(ideal, 32, "ideal-power"), 32**3)
    assert abs(v - target) < target * Fraction(3, 100)


def test_rees_rejects_bad_input():
    with pytest.raises(DimensionError):
        rees_monomial_colength(MonomialIdeal2D(((1, 1),)), 4, "maximal-ideal")
    ideal = MonomialIdeal2D.from_gens([(1, 0), (0, 1)])
    with pytest.raises(ParameterError):
        rees_monomial_colength(ideal, 4, "bogus")
    with pytest.raises(ParameterError):
        rees_monomial_colength(ideal, 0, "maximal-ideal")


def reference_rees_colength(gens, q, mode):
    """The earlier Rees counter: every product ideal is re-minimalized from
    all pairwise sums, pieces are row scans, and the sum stops after two
    zero pieces in a row."""

    def minimal(pts):
        out, best_b = [], math.inf
        for a, b in sorted(set(pts)):
            if b < best_b:
                out.append((a, b))
                best_b = b
        return out

    def times(i, j):
        return minimal((a1 + a2, b1 + b2) for a1, b1 in i for a2, b2 in j)

    def threshold(i, b):
        return min((ga for ga, gb in i if gb <= b), default=math.inf)

    def length(num, den):
        rows = max(b for _, b in num + den) + 1
        return sum(threshold(den, b) - threshold(num, b) for b in range(rows))

    ideal = minimal(gens)
    small = [(0, 1), (1, 0)] if mode == "maximal-ideal" else ideal
    small_q = [(q * a, q * b) for a, b in small]
    ideal_q = [(q * a, q * b) for a, b in ideal]
    powers = [[(0, 0)]]
    total, zeros, n = 0, 0, 0
    while n < q or zeros < 2:
        while len(powers) <= n:
            powers.append(times(powers[-1], ideal))
        den = times(small_q, powers[n]) if mode == "maximal-ideal" or n < q else []
        if n >= q:
            den = minimal(den + times(ideal_q, powers[n - q]))
        piece = length(powers[n], den)
        total += piece
        zeros = zeros + 1 if n >= q and piece == 0 else 0
        n += 1
    return total


@settings(max_examples=80, deadline=None)
@given(staircases(True), st.integers(1, 12),
       st.sampled_from(("maximal-ideal", "ideal-power")))
def test_rees_colength_matches_reference(ideal, q, mode):
    assert rees_monomial_colength(ideal, q, mode) == reference_rees_colength(
        list(ideal.gens), q, mode
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 8))
def test_ci_rees_matches_engine(m, n, q):
    """The ci-rees counter of the Rees algebra of (x^m, y^n) equals the
    engine's count on its presentation k[x, y, u, v] / (x^m v - y^n u)."""
    p, _ = parse_presentation(f"vars: x y u v\nbin: x^{m}*v - y^{n}*u\ndim: 3\n")
    assert presets.ci_rees(m, n).counter(q) == frobenius_colength(p, q)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 40))
def test_ci_rees_colength_matches_staircase_counter(m, n, q):
    ideal = MonomialIdeal2D.from_gens([(m, 0), (0, n)])
    assert ci_rees_colength(m, n, q) == rees_monomial_colength(
        ideal, q, "maximal-ideal"
    )


def test_ci_rees_colength_pinned_values():
    assert ci_rees_colength(2, 3, 96) == 2129856
    assert ci_rees_colength(1, 2, 64) == 415040


@pytest.mark.parametrize("m, n, q", [(0, 1, 2), (1, 0, 2), (1, 1, 0), (-1, 2, 3)])
def test_ci_rees_colength_rejects_parameters_below_one(m, n, q):
    with pytest.raises(ParameterError):
        ci_rees_colength(m, n, q)


def test_ci_rees_preset_multiplies_no_staircases(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the ci-rees counter built a staircase product")

    monkeypatch.setattr(lattice, "rees_monomial_colength", forbidden)
    monkeypatch.setattr(MonomialIdeal2D, "multiply", forbidden)
    assert presets.ci_rees(2, 3).counter(96) == 2129856


def _cubic_at(xs, ys, x):
    """Value at x of the cubic through the four points (xs, ys), exactly."""
    total = Fraction(0)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        term = Fraction(yi)
        for j, xj in enumerate(xs):
            if j != i:
                term *= Fraction(x - xj, xi - xj)
        total += term
    return total


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("n", range(1, 6))
def test_ci_rees_leading_term_is_closed_form(m, n):
    """On each residue class r mod L = lcm(m, n) the colength agrees with
    the cubic through q = r+L, ..., r+4L at three held-out q, the last near
    10^4, and the cubic's leading coefficient is e_HK of the Rees algebra.
    The nodes start at r + L, not at r: `ci_rees_colength` proves the
    colength a cubic on each class from q = L on, and below L it can miss
    it (see the next test)."""
    period = math.lcm(m, n)
    target = cf.ci_rees_values(m, n).ehk_rees
    for r in range(period):
        xs = [r + k * period for k in range(1, 5)]
        ys = [ci_rees_colength(m, n, x) for x in xs]
        for x in (r + 5 * period, r + 6 * period, r + period * (10**4 // period)):
            assert _cubic_at(xs, ys, x) == ci_rees_colength(m, n, x), (m, n, r, x)
        got = toric.leading_coefficient(dict(zip(xs, ys)).__getitem__, 3,
                                        period, xs[0])
        assert got == target, (m, n, r)


def test_ci_rees_class_cubic_starts_at_the_period():
    """At (m, n) = (4, 3), L = 12, the cubic of the class 2 mod 12 through
    q = 14, 26, 38, 50 gives 20 at q = 2, where floor(q/m) = floor(q/n),
    but the colength there is 16, as the staircase counter agrees.  So the
    nodes 2, 14, 26, 38 give a wrong leading coefficient, and a
    certificate must not start at a class's first member below L."""
    xs = [14, 26, 38, 50]
    ys = [ci_rees_colength(4, 3, x) for x in xs]
    assert _cubic_at(xs, ys, 2) == 20
    ideal = MonomialIdeal2D.from_gens([(4, 0), (0, 3)])
    assert ci_rees_colength(4, 3, 2) == 16 == rees_monomial_colength(
        ideal, 2, "maximal-ideal")
    colength = functools.partial(ci_rees_colength, 4, 3)
    assert toric.leading_coefficient(colength, 3, 12, 2) == Fraction(8587, 2592)
    assert cf.ci_rees_values(4, 3).ehk_rees == Fraction(53, 16)
    assert toric.leading_coefficient(colength, 3, 12, 14) == Fraction(53, 16)


# ---------------------------------------------------------------------------
# Semigroups


def test_semigroup_normalization_enforced():
    with pytest.raises(ParameterError):
        Semigroup2D(((1, 1), (2, 0)))  # a_0 != 0
    with pytest.raises(ParameterError):
        Semigroup2D(((0, 2), (1, 1), (1, 0)))  # repeated a_i
    with pytest.raises(ParameterError):
        Semigroup2D(((0, 0), (1, 1)))  # last b_i must be the only zero
    with pytest.raises(ParameterError):
        Semigroup2D(((0, 0), (0, 0)))


def test_semigroup_index():
    assert semigroup_veronese(2).index() == 2
    assert semigroup_veronese(3).index() == 3
    assert semigroup_binomial_an(3).index() == 3
    assert Semigroup2D(((0, 1), (1, 0))).index() == 1


def brute_force_order(s, x, y, depth):
    """Largest n with (x, y) a sum of n generators plus a semigroup
    element, by exhaustive combination search; -1 when (x, y) is not in
    the semigroup.  Valid when x + y is small relative to depth."""
    gens = s.generators
    best = -1
    for counts in itertools.product(range(depth + 1), repeat=len(gens)):
        sx = sum(k * g[0] for k, g in zip(counts, gens))
        sy = sum(k * g[1] for k, g in zip(counts, gens))
        if sx == x and sy == y:
            best = max(best, sum(counts))
    return best


def test_semigroup_order_function_against_brute_force():
    """Point (x, y) is in the k-th packed ord layer iff ord(x, y) >= k."""
    from hkrees.lattice import _PackedBox

    for s, q in ((semigroup_veronese(2), 5), (semigroup_binomial_an(3), 4)):
        grid = _PackedBox(s, q)  # both boxes are [0,12]^2
        ordv = {}
        layer, k = grid.members, 0
        while layer:
            for x in range(13):
                for y in range(13):
                    if layer >> (x * grid.stride + y) & 1:
                        ordv[x, y] = k
            layer, k = grid.step(layer), k + 1
        for x in range(13):
            for y in range(13):
                assert ordv.get((x, y), -1) == brute_force_order(s, x, y, 12), (
                    s,
                    x,
                    y,
                )


@st.composite
def semigroups(draw, top=4):
    """Normalized rank-2 semigroups: 0 = a_0 < ... < a_s and
    b_0 > ... > b_s = 0, with 2 to 4 generators and coordinates <= top."""
    s = draw(st.integers(1, 3))
    a = sorted(draw(st.sets(st.integers(1, top), min_size=s, max_size=s)))
    b = sorted(draw(st.sets(st.integers(1, top), min_size=s, max_size=s)))
    return Semigroup2D(tuple(zip([0] + a, b[::-1] + [0])))


def unpack(bits, stride):
    """The points (x, y) of a packed box int."""
    return {divmod(i, stride) for i, c in enumerate(bin(bits)[:1:-1]) if c == "1"}


@settings(max_examples=60, deadline=None)
@given(semigroups(top=7), st.integers(1, 9))
def test_packed_box_matches_brute_force_sets(s, q):
    """members is the closure of the origin under the generators inside
    the rectangle of `_box`, and phi the union of its translates by the
    q g_i there; no bit lies outside that rectangle."""
    from hkrees.lattice import _PackedBox, _box

    width, height = _box(s, q)
    members, frontier = {(0, 0)}, [(0, 0)]
    while frontier:
        x, y = frontier.pop()
        for ga, gb in s.generators:
            p = (x + ga, y + gb)
            if p[0] <= width and p[1] <= height and p not in members:
                members.add(p)
                frontier.append(p)
    phi = {
        (x + q * ga, y + q * gb)
        for x, y in members
        for ga, gb in s.generators
        if x + q * ga <= width and y + q * gb <= height
    }
    grid = _PackedBox(s, q)
    assert unpack(grid.members, grid.stride) == members
    assert unpack(grid.phi, grid.stride) == phi


def brute_force_ehk(s, q):
    """Points of S outside every q*g_i + S, found by set closure on a box
    twice the proven one, so a point past that bound would show."""
    width = 2 * q * sum(a for a, _ in s.generators)
    height = 2 * q * sum(b for _, b in s.generators)
    members, frontier = {(0, 0)}, [(0, 0)]
    while frontier:
        x, y = frontier.pop()
        for ga, gb in s.generators:
            p = (x + ga, y + gb)
            if p[0] <= width and p[1] <= height and p not in members:
                members.add(p)
                frontier.append(p)
    return sum(
        all((x - q * ga, y - q * gb) not in members for ga, gb in s.generators)
        for x, y in members
    )


@settings(max_examples=60, deadline=None)
@given(semigroups(), st.integers(1, 8))
def test_semigroup_ehk_matches_brute_force(s, q):
    assert semigroup_ehk_colength(s, q) == brute_force_ehk(s, q)


def test_semigroup_ehk_regular():
    s = Semigroup2D(((0, 1), (1, 0)))
    for q in (2, 4, 8):
        assert semigroup_ehk_colength(s, q) == q * q


def test_semigroup_ehk_veronese_exact():
    s = semigroup_veronese(2)
    for q in (2, 4, 8, 16):
        assert Fraction(semigroup_ehk_colength(s, q), q * q) == Fraction(3, 2)


@pytest.mark.parametrize("gens, q, value", [
    (((0, 5), (2, 1), (3, 0)), 240, 633600),
    (((0, 5), (2, 1), (3, 0)), 500, 2749900),
    (((0, 2), (1, 1), (2, 0)), 500, 375000),
    (((0, 3), (1, 2), (2, 1), (3, 0)), 500, 500000),
    (((0, 3), (1, 2), (2, 1), (3, 0)), 240, 115200),
    (((0, 3), (1, 1), (3, 0)), 200, 66666),
    (((0, 4), (1, 1), (4, 0)), 120, 25200),
    (((0, 5), (1, 2), (3, 1), (5, 0)), 90, 17820),
])
def test_semigroup_ehk_pinned_large_q(gens, q, value):
    """Values recorded with earlier counters; the degree-3 Veronese rows are
    2 q^2.  At these q many translates first clear the rows above H - b
    with a row mask; the hypothesis test above stops at q = 8.  The box
    runs here directly too, because the counter evaluates a normal S from
    the box at small q only."""
    s = Semigroup2D(gens)
    assert semigroup_ehk_colength(s, q) == value
    assert lattice._ehk_box(s, q) == value


@pytest.mark.parametrize("gens, q, value", [
    (((0, 3), (1, 1), (3, 0)), 48, 188400),
    (((0, 3), (1, 1), (3, 0)), 96, 1507296),
    (((0, 3), (1, 1), (3, 0)), 200, 13629474),
    (((0, 2), (1, 1), (2, 0)), 48, 165888),
    (((0, 2), (1, 1), (2, 0)), 96, 1327104),
    (((0, 3), (1, 2), (2, 1), (3, 0)), 48, 221184),
    (((0, 3), (1, 2), (2, 1), (3, 0)), 96, 1769472),
    (((0, 4), (1, 1), (4, 0)), 120, 3095920),
    (((0, 5), (1, 2), (3, 1), (5, 0)), 90, 1627989),
])
def test_semigroup_extrees_pinned_large_q(gens, q, value):
    """Values recorded with the packed box alone, before normal S were
    evaluated from their quasi-polynomial; every S here is normal."""
    assert semigroup_extrees_colength(Semigroup2D(gens), q) == value


def normal_limit(counter, s, dim):
    """lim counter(s, q) / q^dim for normal S: the colength is a polynomial
    in q of degree dim on the class of q = 1 mod `toric.period(s, dim)`."""
    return toric.leading_coefficient(
        lambda q: counter(s, q), dim, toric.period(s, dim), 1)


def test_semigroup_ehk_binomial_an_converges():
    assert normal_limit(semigroup_ehk_colength, semigroup_binomial_an(3), 2) == Fraction(5, 3)


def test_semigroup_matches_engine():
    p = PresentedQuotient(
        ("x", "y", "z"),
        (PureDifferenceBinomial((1, 1, 0), (0, 0, 2)),),
        (),
        2,
    )
    s = semigroup_veronese(2)
    for q in (2, 4, 8):
        assert semigroup_ehk_colength(s, q) == frobenius_colength(p, q, LEX)


def test_semigroup_extrees_regular():
    assert normal_limit(semigroup_extrees_colength, Semigroup2D(((0, 1), (1, 0))), 3) == 1


def test_semigroup_extrees_veronese_exact():
    s = semigroup_veronese(2)
    for q in (4, 8, 16):
        assert Fraction(semigroup_extrees_colength(s, q), q**3) == Fraction(3, 2)


def test_semigroup_extrees_binomial_an_converges():
    s = semigroup_binomial_an(3)
    target = 2 - Fraction(2 * 4, 3 * 9)
    values = [
        Fraction(semigroup_extrees_colength(s, q), q**3) for q in (8, 16, 32)
    ]
    assert all(abs(v - target) < abs(u - target) for u, v in zip(values, values[1:]))
    assert normal_limit(semigroup_extrees_colength, s, 3) == target


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4), st.integers(1, 8))
def test_semigroup_extrees_matches_engine(n, q):
    """k[x,y,z,w]/(xy - z^n w^(n-2)) is the extended Rees algebra of the
    A_n semigroup ring: the engine and the lattice counter agree."""
    s = semigroup_binomial_an(n)
    assert semigroup_extrees_colength(s, q) == presets.an_extrees(n).counter(q)


def brute_force_extrees(s, q):
    """Colength of M^[q] in R' = A[mt, t^-1] = sum over n of m^n t^n,
    counted monomial by monomial over a box twice the proven one.

    A monomial is (p, n) with p in S and ord(p) >= n; M^[q] is generated by
    (q g_i, 0), (q g_i, q) and (0, -q), so (p, n) is in it iff
    ord(p) >= n + q or ord(p - q g_i) >= n - q for some i."""
    width = 2 * q * sum(a for a, _ in s.generators)
    height = 2 * q * sum(b for _, b in s.generators)
    ord_of = {(0, 0): 0}
    for x in range(width + 1):  # every p - g_i precedes p in this order
        for y in range(height + 1):
            prev = [ord_of[(x - ga, y - gb)] for ga, gb in s.generators
                    if (x - ga, y - gb) in ord_of]
            if prev:
                ord_of[(x, y)] = max(prev) + 1
    total = 0
    for (x, y), o in ord_of.items():
        shifted = [ord_of.get((x - q * ga, y - q * gb), -math.inf)
                   for ga, gb in s.generators]
        phi = max(shifted)
        total += sum(1 for n in range(-q + 1, o + 1)
                     if o < n + q and phi < n - q)
    return total


def test_semigroup_extrees_forced_value():
    """Both terms of a^4 c^3 - u^5 b^12, the relation of this extended Rees
    algebra, lie in M^[3], so the colength at q = 3 is 3^4."""
    s = Semigroup2D(((0, 3), (1, 1), (4, 0)))
    counts = [semigroup_extrees_colength(s, q) for q in range(1, 7)]
    assert counts == [1, 16, 81, 256, 575, 1080]


@settings(max_examples=40, deadline=None)
@given(semigroups(), st.integers(1, 5))
def test_semigroup_extrees_matches_brute_force(s, q):
    assert semigroup_extrees_colength(s, q) == brute_force_extrees(s, q)


def test_equality_criterion():
    for c in range(2, 6):
        assert equality_criterion(semigroup_veronese(c))
    for n in range(2, 6):
        assert not equality_criterion(semigroup_binomial_an(n + 1))
    assert equality_criterion(semigroup_binomial_an(2))
    assert equality_criterion(Semigroup2D(((0, 5), (3, 0))))


@st.composite
def segment_semigroups(draw):
    """Normalized semigroups whose generators all lie on the segment from
    (0, b) to (a, 0), with a, b up to 10^6: a = g u, b = g v and the inner
    generators (k u, b - k v) for some 0 < k < g.  A flag moves one inner
    generator one step off the segment, where that keeps the order."""
    g = draw(st.integers(1, 8))
    u, v = draw(st.integers(1, 125_000)), draw(st.integers(1, 125_000))
    ks = sorted(draw(st.sets(st.integers(1, g - 1), max_size=3))) if g > 1 else []
    gens = [(0, g * v)] + [(k * u, (g - k) * v) for k in ks] + [(g * u, 0)]
    if ks and u > 1 and draw(st.booleans()):
        x, y = gens[1]
        gens[1] = (x - 1, y)
    return Semigroup2D(tuple(gens))


@settings(max_examples=200, deadline=None)
@given(st.one_of(semigroups(top=10**6), segment_semigroups()))
def test_equality_criterion_matches_fraction_sums(s):
    """a_i b + b_i a = a b in integers is a_i/a + b_i/b = 1 in Fractions."""
    assert equality_criterion(s) == equality_criterion_by_fractions(s)


def test_named_semigroups():
    assert semigroup_binomial_an(3).generators == ((0, 3), (1, 1), (3, 0))
    assert semigroup_veronese(3).generators == ((0, 3), (1, 2), (2, 1), (3, 0))
    with pytest.raises(ParameterError):
        semigroup_binomial_an(1)


@pytest.mark.parametrize("n", range(2, 13))
def test_binomial_an_twin_is_normal_with_period_n(n):
    """The A_n engine presets read large q from this twin's period: S is
    normal, as ZS = {x = y mod n}, and k[S] has period n."""
    s = semigroup_binomial_an(n)
    assert toric.is_normal(s)
    assert toric.period(s, 2) == n


def test_parse_semigroup():
    s = parse_semigroup("sg: (3,0) (1,1) (0,3)")
    assert s.generators == ((0, 3), (1, 1), (3, 0))
    assert parse_semigroup("sg: (1,1) (3,0) (1,1) (0,3)") == s
    for text, chunk in (("sg: (1,2,3)", "1,2,3"), ("sg: (0, 2) (2,0)", "0,"),
                        ("sg: (0,x) (2,0)", "0,x")):
        with pytest.raises(ParameterError, match=f"bad generator '{chunk}'"):
            parse_semigroup(text)


# ---------------------------------------------------------------------------
# Normal semigroups: the counters from their Ehrhart quasi-polynomial


def cyclic_quotient(n, k):
    """The normal semigroup of the cyclic quotient singularity of type
    (n, k), gcd(n, k) = 1: the points of {x + k y = 0 mod n} in the
    quadrant.  Its generators, the indecomposable nonzero points, lie in
    [0, n]^2 with (n, 0) and (0, n)."""
    pts = {(x, y) for x in range(n + 1) for y in range(n + 1)
           if (x + k * y) % n == 0} - {(0, 0)}
    return Semigroup2D(tuple(sorted(
        p for p in pts
        if not any((p[0] - g[0], p[1] - g[1]) in pts for g in pts if g != p)
    )))


def cyclic_quotients(top):
    return [cyclic_quotient(n, k)
            for n in range(1, top + 1) for k in range(n) if math.gcd(n, k) == 1]


def mirror(s):
    return Semigroup2D(tuple(sorted((b, a) for a, b in s.generators)))


BOXES = {2: (semigroup_ehk_colength, "_ehk_box"),
         3: (semigroup_extrees_colength, "_extrees_box")}


# R'(m) over the cyclic quotients with n = 7..9 needs the box near
# q = 4P + 12 with P up to 63, which takes seconds to tens of seconds.
NORMAL_SOURCES = {
    2: st.one_of(st.sampled_from(cyclic_quotients(9)),
                 semigroups().filter(toric.is_normal)),
    3: st.one_of(st.sampled_from(cyclic_quotients(6)),
                 semigroups().filter(toric.is_normal)),
}


@st.composite
def routed(draw, dim):
    """A normal S and a q past the last node of its residue class,
    q = r + kP with k > dim and q <= 4P + 12."""
    s = draw(NORMAL_SOURCES[dim])
    period = toric.period(s, dim)
    r = draw(st.integers(1, min(period, 12)))
    k = draw(st.integers(dim + 1, (4 * period + 12 - r) // period))
    return s, r + k * period


@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_normal_semigroup_route_matches_the_box(dim, data):
    s, q = data.draw(routed(dim))
    counter, box = BOXES[dim]
    assert counter(s, q) == getattr(lattice, box)(s, q)


@pytest.mark.parametrize("gens, dim, qs", [
    (((0, 5), (2, 1), (3, 0)), 2, range(4, 17)),
    (((0, 3), (1, 1), (4, 0)), 2, range(4, 17)),
    # P = 30: the first q past the nodes is 121; the other S has P = 60
    (((0, 5), (2, 1), (3, 0)), 3, [121]),
])
def test_non_normal_semigroups_need_the_box(gens, dim, qs):
    """On a non-normal S the node values do not determine the count, so
    interpolating through them is wrong; the counters run the box."""
    s = Semigroup2D(gens)
    assert not toric.is_normal(s)
    counter, name = BOXES[dim]
    box = getattr(lattice, name)
    period = toric.period(s, dim)
    wrong = 0
    for q in qs:
        assert q > (q - 1) % period + 1 + dim * period
        value = box(s, q)
        assert counter(s, q) == value
        wrong += toric.polynomial_in_q(lambda k: box(s, k), dim, q, period) != value
    assert wrong


@pytest.mark.parametrize("gens, dim, period", [
    (((0, 2), (1, 1), (2, 0)), 2, 2),
    (((0, 2), (1, 1), (2, 0)), 3, 2),
    (((0, 3), (1, 1), (3, 0)), 2, 3),
    (((0, 3), (1, 1), (3, 0)), 3, 3),
    (((0, 3), (1, 2), (2, 1), (3, 0)), 2, 3),
    (((0, 3), (1, 2), (2, 1), (3, 0)), 3, 3),
])
def test_period_pinned(gens, dim, period):
    assert toric.period(Semigroup2D(gens), dim) == period


def test_leading_coefficient_on_hand_written_inputs():
    """Delta^D f(start) / (D! P^D) along one residue class: f(q) =
    3q^2 + (q mod 2) q has leading coefficient 3 on both classes mod 2, and
    a cubic with period 1 has its own from any start."""
    def f(q):
        return 3 * q * q + q % 2 * q

    assert toric.leading_coefficient(f, 2, 2, 1) == 3
    assert toric.leading_coefficient(f, 2, 2, 2) == 3
    assert toric.leading_coefficient(lambda q: 5 * q**3 - 7 * q + 2, 3) == 5
    got = toric.leading_coefficient(lambda q: q * (q + 1) * (q + 2) // 6, 3,
                                    start=4)
    assert got == Fraction(1, 6)


@pytest.mark.parametrize("gens", [
    ((0, 3), (1, 1), (3, 0)), ((0, 3), (1, 2), (2, 1), (3, 0)),
])
@pytest.mark.parametrize("dim", [2, 3])
def test_large_q_runs_the_box_only_at_the_nodes(monkeypatch, gens, dim):
    s = Semigroup2D(gens)
    counter, name = BOXES[dim]
    nodes = []
    real = getattr(lattice, name)
    monkeypatch.setattr(lattice, name, lambda s, q: nodes.append(q) or real(s, q))
    q = 10**6
    period = toric.period(s, dim)
    assert counter(s, q) > 0
    r = (q - 1) % period + 1
    assert nodes == [r + j * period for j in range(dim + 1)]


# ---------------------------------------------------------------------------
# One node table per preset


NOT_NORMAL = Semigroup2D(((0, 5), (2, 1), (3, 0)))


@st.composite
def ladders(draw, period, degree):
    """A shuffled ladder of q <= 4P + 12: a node of one residue class r, a
    q of that class past its nodes, and up to three more q, of that class
    or of any."""
    r = draw(st.integers(1, min(period, 12)))
    last = (4 * period + 12 - r) // period
    ladder = [r + draw(st.integers(0, degree)) * period,
              r + draw(st.integers(degree + 1, last)) * period]
    same = st.integers(0, last).map(lambda k: r + k * period)
    ladder += draw(st.lists(st.one_of(same, st.integers(1, 4 * period + 12)),
                            max_size=3))
    return draw(st.permutations(ladder))


def shared_and_fresh(family, params, ladder):
    """The counts of one preset asked the whole ladder in turn, and of a
    fresh preset for each q."""
    build = getattr(presets, family)
    shared = build(*params)
    return ([shared.counter(q) for q in ladder],
            [build(*params).counter(q) for q in ladder])


@pytest.mark.parametrize("family", ["segre", "veronese_rees"])
@settings(max_examples=30, deadline=None)
@given(c=st.integers(1, 3), d=st.integers(1, 3), data=st.data())
def test_alpha_table_preset_answers_any_ladder_order(family, c, d, data):
    degree = c + d - 1 if family == "segre" else d + 1
    ladder = data.draw(ladders(1, degree))
    shared, fresh = shared_and_fresh(family, (c, d), ladder)
    assert shared == fresh


@pytest.mark.parametrize("family, dim", [("semigroup", 2),
                                         ("semigroup_extrees", 3)])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_semigroup_preset_answers_any_ladder_order(family, dim, data):
    s = data.draw(NORMAL_SOURCES[dim])
    ladder = data.draw(ladders(toric.period(s, dim), dim))
    shared, fresh = shared_and_fresh(family, (s,), ladder)
    assert shared == fresh


@pytest.mark.parametrize("family, dim", [("semigroup", 2),
                                         ("semigroup_extrees", 3)])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_non_normal_preset_answers_any_ladder_order(family, dim, data):
    """P = 1 for k[S] and 30 for R'(m), so R'(m) runs the box at q >= 121."""
    ladder = data.draw(ladders(toric.period(NOT_NORMAL, dim), dim))
    shared, fresh = shared_and_fresh(family, (NOT_NORMAL,), ladder)
    assert shared == fresh


@pytest.mark.parametrize("family, params, inner, qs, nodes", [
    ("segre", (3, 4), "_segre_sum", (128, 256, 512, 768, 1024), range(1, 8)),
    ("veronese_rees", (3, 3), "_veronese_rees_sum", (64, 128, 256, 384, 512),
     range(1, 6)),
    ("semigroup", (semigroup_binomial_an(3),), "_ehk_box", (12, 24, 48),
     (3, 6, 9)),
    ("semigroup_extrees", (semigroup_binomial_an(3),), "_extrees_box",
     (12, 24, 48), (3, 6, 9, 12)),
])
def test_one_preset_evaluates_each_node_once(
    monkeypatch, family, params, inner, qs, nodes
):
    """A ladder of one preset shares its nodes: each is evaluated once, and
    a second preset of the same ring evaluates them all again."""
    calls = []
    real = getattr(lattice, inner)
    monkeypatch.setattr(
        lattice, inner, lambda *args: calls.append(args[-1]) or real(*args)
    )
    for _ in range(2):
        preset = getattr(presets, family)(*params)
        for q in qs:
            assert preset.counter(q) > 0
        assert sorted(calls) == list(nodes)
        calls.clear()


@pytest.mark.parametrize("family", ["semigroup", "semigroup_extrees"])
@pytest.mark.parametrize("s", [semigroup_binomial_an(3), NOT_NORMAL])
def test_one_preset_tests_normality_once(monkeypatch, family, s):
    calls = []
    for name in ("is_normal", "period"):
        real = getattr(toric, name)
        monkeypatch.setattr(toric, name, lambda *args, name=name, real=real:
                            calls.append(name) or real(*args))
    normal = toric.is_normal(s)
    calls.clear()
    for _ in range(2):
        preset = getattr(presets, family)(s)
        for q in (4, 12, 24, 48):
            assert preset.counter(q) > 0
        assert calls == ["is_normal"] + ["period"] * normal
        calls.clear()


def brute_force_normal(s):
    """Whether every point of ZS in [0, 3a] x [0, 3b] lies in S.  ZS is a
    union of cosets of aZ x bZ, so a point lies in ZS iff its residue
    mod (a, b) lies in the subgroup that the generators' residues span."""
    a, b = s.a, s.b
    span, frontier = {(0, 0)}, [(0, 0)]
    while frontier:
        x, y = frontier.pop()
        for ga, gb in s.generators:
            p = ((x + ga) % a, (y + gb) % b)
            if p not in span:
                span.add(p)
                frontier.append(p)
    members, frontier = {(0, 0)}, [(0, 0)]
    while frontier:
        x, y = frontier.pop()
        for ga, gb in s.generators:
            p = (x + ga, y + gb)
            if p[0] <= 3 * a and p[1] <= 3 * b and p not in members:
                members.add(p)
                frontier.append(p)
    return all((x, y) in members
               for x in range(3 * a + 1) for y in range(3 * b + 1)
               if (x % a, y % b) in span)


@settings(max_examples=150, deadline=None)
@given(semigroups(top=7))
def test_is_normal_matches_brute_force(s):
    assert toric.is_normal(s) == brute_force_normal(s)


@settings(max_examples=100, deadline=None)
@given(semigroups(top=9))
def test_lattice_basis_spans_zs(s):
    """Every generator is an integer combination of (d, 0) and (t, e), and
    d e is the gcd of the 2x2 minors of the generators, the index of ZS:
    so the two span ZS."""
    (d, zero), (t, e) = toric.lattice_basis(s)
    assert zero == 0 and 0 <= t < d and e > 0
    for x, y in s.generators:
        assert y % e == 0 and (x - y // e * t) % d == 0
    g = s.generators
    minors = [g[i][0] * g[j][1] - g[j][0] * g[i][1]
              for i in range(len(g)) for j in range(i + 1, len(g))]
    assert s.index() == d * e == math.gcd(*minors)


@pytest.mark.parametrize("s, n, ehk, extrees", [
    (semigroup_binomial_an(3), 3, Fraction(5, 3), Fraction(46, 27)),
    (semigroup_binomial_an(4), 4, Fraction(7, 4), Fraction(43, 24)),
] + [
    (semigroup_veronese(c), None, Fraction(c + 1, 2), Fraction(c + 1, 2))
    for c in range(2, 6)
])
def test_normal_semigroup_limits_are_exact(s, n, ehk, extrees):
    """The leading coefficient is the same in every residue class, and it
    is the closed form: (c + 1)/2 on Veronese-c, and on the double point
    k[s^n, st, t^n] the values of the hypersurface xy = z^n and of its
    extended Rees algebra."""
    if n is not None:
        assert (ehk, extrees) == (cf.conca_ehk([1, 1], [n]), cf.an_extrees_ehk(n))
    for dim, want in ((2, ehk), (3, extrees)):
        counter = functools.partial(BOXES[dim][0], s)
        period = toric.period(s, dim)
        got = {toric.leading_coefficient(counter, dim, period, r)
               for r in range(1, period + 1)}
        assert got == {want}, dim


def base_multiplicity(s):
    """e(A) = 2 area(C minus N) / |Z^2 : ZS|, with N the Newton polygon,
    bounded by the lower hull of the generators.  Twice the area under a
    chain of generators from (0, b) to (a, 0) is its sum of
    x_j y_i - x_i y_j over consecutive g_i, g_j; every chain lies on or
    above the lower hull, which is one of them, so the least sum is twice
    the area under the hull."""
    g = s.generators
    least = [0]  # least[j]: over the chains from g_0 to g_j
    for j, (xj, yj) in enumerate(g[1:], 1):
        least.append(min(least[i] + xj * yi - xi * yj
                         for i, (xi, yi) in enumerate(g[:j])))
    return Fraction(least[-1], s.index())


def test_equality_criterion_on_normal_cyclic_quotients():
    """Prop 5.7: e_HK(k[S]) = e_HK(R'(m)) iff the criterion holds, and
    Theorem 1's chain e_HK(k[S]) <= e_HK(R'(m)) <= e(A), tested exactly on
    the normal cyclic-quotient semigroups with n <= 8, one of each mirror
    pair (the criterion, both limits and e(A) are symmetric)."""
    seen = {}
    for s in cyclic_quotients(8):
        seen.setdefault(min(s.generators, mirror(s).generators), s)
    assert len(seen) == 19
    for s in seen.values():
        ehk, extrees = (
            toric.leading_coefficient(functools.partial(BOXES[dim][0], s), dim,
                                      toric.period(s, dim))
            for dim in (2, 3))
        assert (ehk == extrees) == equality_criterion(s), s
        assert ehk <= extrees <= base_multiplicity(s), s


@pytest.mark.parametrize("gens, e", [
    (((0, 1), (1, 0)), 1),
    (((0, 3), (1, 1), (3, 0)), 2),  # A2: 5/3 <= 46/27 <= 2
    (((0, 8), (1, 3), (3, 1), (8, 0)), 3),  # 19/8 <= 22/9 <= 3
] + [(semigroup_veronese(c).generators, c) for c in (2, 3, 4)])
def test_base_multiplicity_pinned(gens, e):
    assert base_multiplicity(Semigroup2D(gens)) == e


@pytest.mark.parametrize("call, message", [
    (lambda: segre_colength(0, 2, 2), "need c, d, q >= 1, got (0, 2, 2)"),
    (lambda: veronese_beta(2, 2, 0, 1), "need c, d >= 1 and cq >= c, got (2, 2, 1)"),
    (lambda: veronese_beta(2, 2, 0, 5), "cq=5 not divisible by c=2"),
    (lambda: veronese_rees_colength(2, 2, 0), "need c, d, q >= 1, got (2, 2, 0)"),
    (lambda: semigroup_veronese(0), "c must be >= 1, got 0"),
    (lambda: lemma38_limit(0, 2), "lemma38_limit requires c, d >= 1, got (0, 2)"),
    (lambda: veronese_I_limits(cf.VeroneseParams(2, 1), 0, 0),
     "I_k(a) requires d >= 2, got d=1"),
    (lambda: veronese_I_limits(cf.VeroneseParams(2, 2), -1, 0), "a must be >= 0, got -1"),
    (lambda: toric.normal_in_q(None, None, 2, 0), "q must be >= 1, got 0"),
    (lambda: normalized_sequence([], 0), "dimension must be >= 1, got 0"),
], ids=["segre-c", "beta-cq", "beta-divisible", "veronese-rees-q", "semigroup-veronese",
        "lemma38", "I-d", "I-a", "normal-in-q", "normalized-dimension"])
def test_out_of_range_parameters_raise_parameter_error(call, message):
    with pytest.raises(ParameterError) as err:
        call()
    assert str(err.value) == message
