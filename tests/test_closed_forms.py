"""Tests for the closed-form evaluators."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hkrees import closed_forms as cf
from hkrees.errors import ParameterError
from hkrees.exact import binomial, factorial

from reference_routes import alpha_q, fc_density

SP = cf.SegreParams
VP = cf.VeroneseParams


def count_monomials(d, n, bound=None):
    """Enumeration oracle: degree-n monomials in d variables, optionally
    with every exponent < bound."""
    top = bound - 1 if bound is not None else n
    if n < 0:
        return 0
    return sum(
        1
        for expo in itertools.product(range(min(top, n) + 1), repeat=d)
        if sum(expo) == n
    )


def test_alpha_against_enumeration():
    for d in range(1, 5):
        for n in range(-2, 9):
            assert cf.alpha(d, n) == count_monomials(d, n)
    assert cf.alpha(2, 5) == 6
    assert cf.alpha(3, 4) == 15
    for d in range(1, 7):
        assert cf.alpha(d, 0) == 1


def test_alpha_q_against_enumeration():
    for d in range(1, 5):
        for q in range(1, 5):
            for n in range(0, d * q + 2):
                assert alpha_q(d, n, q) == count_monomials(d, n, bound=q)


def test_alpha_q_small_degree_equals_alpha():
    for d in range(1, 6):
        for q in range(1, 6):
            for n in range(q):
                assert alpha_q(d, n, q) == cf.alpha(d, n)


def test_alpha_q_two_variable_case_split():
    for q in range(1, 9):
        for n in range(3 * q):
            if n < q:
                expected = n + 1
            elif n <= 2 * q - 2:
                expected = 2 * q - n - 1
            else:
                expected = 0
            assert alpha_q(2, n, q) == expected


def test_conca_hypersurface_family():
    for n in range(1, 13):
        assert cf.conca_ehk([1, 1], [n]) == 2 - Fraction(1, n)
    assert cf.conca_ehk([1], [1]) == 1


def test_conca_rees_family():
    for m in range(1, 9):
        for n in range(1, m + 1):
            expected = n + 1 - Fraction(n, m) + Fraction(n, 3 * m * m)
            assert cf.conca_ehk([m, 1], [n, 1]) == expected


def test_conca_extended_rees_family():
    for n in range(3, 11):
        expected = 2 - Fraction(2 * (n + 1), 3 * n * n)
        assert cf.conca_ehk([1, 1], [n, n - 2]) == expected


def test_conca_rejects_bad_input():
    with pytest.raises(ParameterError):
        cf.conca_ehk([], [1])
    with pytest.raises(ParameterError):
        cf.conca_ehk([1], [0])


SEGRE_GOLDEN = {
    (2, 2): Fraction(4, 3),
    (3, 3): Fraction(39, 20),
    (4, 4): Fraction(899, 315),
    (5, 5): Fraction(151205, 36288),
    (6, 6): Fraction(10114043, 1663200),
    (2, 3): Fraction(13, 8),
    (3, 4): Fraction(899, 360),  # printed as 889/360; see test_acceptance
}


def test_segre_golden_values():
    for (c, d), value in SEGRE_GOLDEN.items():
        assert cf.segre_ehk(SP(c, d)) == value


def test_segre_three_four_self_consistent():
    # The Stirling-sum value at (3, 4) agrees with the independent
    # integral-formula route; the exact polynomial fit of the finite-q
    # counter leads with the same number (asserted in acceptance 1,
    # tests/test_acceptance.py).
    assert cf.segre_ehk(SP(3, 4)) == Fraction(899, 360)
    assert cf.bcp_segre_ehk(SP(3, 4)) == Fraction(899, 360)


def test_segre_symmetry_and_degenerate():
    for c in range(1, 7):
        for d in range(1, 7):
            assert cf.segre_ehk(SP(c, d)) == cf.segre_ehk(SP(d, c))
    for d in range(1, 8):
        assert cf.segre_ehk(SP(1, d)) == 1


def test_c_of_d():
    assert cf.c_of_d(1) == 1
    assert cf.c_of_d(2) == Fraction(4, 3)
    assert cf.c_of_d(3) == Fraction(13, 8)
    for d in range(2, 13):
        assert cf.segre_ehk(SP(2, d)) == cf.c_of_d(d)


def test_bcp_formula_matches_stirling_formula():
    # the agreement bcp_segre_ehk's docstring states, over its whole range
    for c in range(1, 13):
        for d in range(c, 13):
            assert cf.bcp_segre_ehk(SP(c, d)) == cf.segre_ehk(SP(c, d))
    assert cf.bcp_segre_ehk(SP(1, 1)) == 1


def test_lemma38_limit():
    assert cf.lemma38_limit(2, 2) == 1
    for d in range(1, 6):
        assert cf.lemma38_limit(1, d) == Fraction(1, factorial(d))
    # finite-q partial sums of sum_n alpha_q(c,n,q) * alpha(d,n) / q^(c+d-1)
    for c in range(1, 4):
        for d in range(1, 4):
            q = 256
            partial = sum(
                alpha_q(c, n, q) * cf.alpha(d, n)
                for n in range(c * q)
            )
            ratio = Fraction(partial, q ** (c + d - 1))
            limit = cf.lemma38_limit(c, d)
            assert abs(ratio - limit) <= limit * Fraction(2, 100), (c, d)


def test_lemma39_limit_and_assembly():
    assert cf.lemma39_limit(1, 1) == 1
    with pytest.raises(ParameterError):
        cf.lemma39_limit(3, 2)
    for c in range(1, 7):
        for d in range(c, 7):
            assembled = (
                cf.lemma38_limit(d, c)
                + cf.lemma38_limit(c, d)
                - cf.lemma39_limit(c, d)
            )
            assert assembled == cf.segre_ehk(SP(c, d)), (c, d)
    assert (
        cf.lemma38_limit(3, 2)
        + cf.lemma38_limit(2, 3)
        - cf.lemma39_limit(2, 3)
        == Fraction(13, 8)
    )


def test_veronese_rees_closed_form():
    for c in range(2, 11):
        assert cf.veronese_rees_ehk(VP(c, 2)) == c + Fraction(1, 3 * c)
    assert cf.veronese_rees_ehk(VP(2, 2)) == Fraction(13, 6)
    assert cf.veronese_rees_ehk(VP(3, 3)) == 6
    with pytest.raises(ParameterError):
        cf.veronese_rees_ehk(VP(2, 3))
    with pytest.raises(ParameterError):
        cf.veronese_rees_ehk(VP(3, 1))


def test_veronese_rees_general_overlap():
    for d in range(2, 9):
        for c in range(d, 9):
            assert cf.veronese_rees_ehk_general(VP(c, d)) == cf.veronese_rees_ehk(
                VP(c, d)
            )
    for d in range(2, 7):
        assert cf.veronese_rees_ehk_general(VP(1, d)) == cf.c_of_d(d)
    with pytest.raises(ParameterError):
        cf.veronese_rees_ehk_general(VP(3, 1))


def test_veronese_I_limits_special_values():
    assert cf.veronese_I_limits(VP(2, 2), 4, 0) == Fraction(3, 2)
    for c in range(2, 6):
        for d in range(2, min(c, 5) + 1):
            p = VP(c, d)
            a = max(2 * c, c + d)
            assert cf.veronese_I_limits(p, a, 0) == Fraction(
                cf.alpha(d + 1, c - 1), c
            )
            expected_i1 = Fraction(
                (d + 2 * c) * cf.alpha(d + 1, c - 1)
                - 2 * cf.alpha(d + 2, c - 1),
                2 * c * c,
            )
            assert cf.veronese_I_limits(p, a, 1) == expected_i1
    assert cf.veronese_I_limits(VP(3, 3), 0, 0) == 0
    assert cf.veronese_I_limits(VP(3, 3), 0, 1) == 0
    with pytest.raises(ParameterError):
        cf.veronese_I_limits(VP(2, 2), 2, 2)


def defining_I_limits(p, a, k):
    """I_k(a) by its defining double sum, term by term in Fractions."""
    c, d = p.c, p.d
    total = Fraction(0)
    for l in range(min(c - 1, a) + 1):
        inner = Fraction(0)
        for i in range(min(d, a - l) + 1):
            term = (-1) ** i * binomial(d, i) * (a - l - i) ** d
            if k == 1:
                term *= a * d + l + i
            inner += term
        total += cf.alpha(d, l) * inner
    if k == 0:
        return total / (c * factorial(d))
    return total / (c * c * factorial(d + 1))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 60), st.integers(2, 6), st.data())
def test_veronese_I_limits_match_defining_sum(c, d, data):
    a = data.draw(st.integers(0, 2 * c + d))
    k = data.draw(st.sampled_from((0, 1)))
    p = VP(c, d)
    assert cf.veronese_I_limits(p, a, k) == defining_I_limits(p, a, k)


def test_veronese_I_limits_edge_cases():
    """Pinned values at the ends of the hockey-stick range
    m = min(c-1, a-d): m < 0 (a < d), c = 1, and a = c+d-1, the first a
    at which no l is summed term by term."""
    pinned = {
        (5, 4, 0): (0, 0),  # m = -4
        (5, 4, 2): (Fraction(2, 15), Fraction(16, 375)),  # m = -2
        (5, 4, 3): (Fraction(27, 40), Fraction(81, 250)),  # m = -1
        (1, 3, 2): (Fraction(5, 6), Fraction(9, 8)),  # c = 1, m = -1
        (1, 3, 3): (1, Fraction(3, 2)),  # c = 1, m = 0
        (1, 3, 7): (1, Fraction(3, 2)),  # c = 1, a past the support
        (4, 3, 5): (Fraction(55, 12), Fraction(265, 64)),  # one l = c-1 left
        (4, 3, 6): (5, Fraction(75, 16)),  # a = c+d-1
        (2, 5, 6): (3, 5),  # a = c+d-1
        (3, 6, 8): (Fraction(28, 3), Fraction(44, 3)),  # a = c+d-1
    }
    for (c, d, a), values in pinned.items():
        p = VP(c, d)
        for k, value in enumerate(values):
            assert cf.veronese_I_limits(p, a, k) == value, (c, d, a, k)
            assert defining_I_limits(p, a, k) == value, (c, d, a, k)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 80), st.integers(2, 6))
@example(1, 6)
@example(3, 5)
@example(5, 6)
def test_veronese_rees_general_matches_defining_assembly(c, d):
    """The one-Fraction numerator equals the assembly
    e(A) 2^(d+1)/(d+1)! + I_1(a_inf) - 2 I_0(2c) + I_1(2c) of defining sums,
    c < d included."""
    p = VP(c, d)
    assembled = (
        Fraction(c ** (d - 1) * 2 ** (d + 1), factorial(d + 1))
        + defining_I_limits(p, max(2 * c, c + d), 1)
        - 2 * defining_I_limits(p, 2 * c, 0)
        + defining_I_limits(p, 2 * c, 1)
    )
    assert cf.veronese_rees_ehk_general(p) == assembled


def test_veronese_rees_general_huge_c():
    """The general formula's cost does not grow with c: at c = 10^12 it
    still matches the c >= d closed form."""
    for c in (10**6, 10**12):
        for d in range(2, 7):
            assert cf.veronese_rees_ehk_general(VP(c, d)) == cf.veronese_rees_ehk(
                VP(c, d)
            ), (c, d)


def test_veronese_rees_general_large_c():
    """Values of the defining sums at c = 1000, where most l take the
    backward-difference closed form."""
    assert cf.veronese_rees_ehk_general(VP(1000, 3)) == Fraction(3500003503, 6000)
    assert cf.veronese_rees_ehk_general(VP(1000, 4)) == Fraction(
        3750006265009, 15000
    )


def integrate_density(p, a, k, steps_per_unit=1):
    """Exact piecewise integration oracle for (1/c^k) int_0^a t^k f_c(t) dt.

    The density is polynomial of degree d-1 on each unit interval, so
    t^k * f_c(t) has degree at most d; sampling d+2 points per interval
    and integrating the Lagrange interpolant is exact.
    """
    c, d = p.c, p.d
    total = Fraction(0)
    npts = d + 2
    for piece in range(a):
        xs = [piece + Fraction(j + 1, npts + 1) for j in range(npts)]
        ys = [Fraction(x) ** k * fc_density(p, x) for x in xs]
        # integrate the Lagrange interpolant over [piece, piece + 1]
        for i, (xi, yi) in enumerate(zip(xs, ys)):
            # antiderivative of the i-th basis polynomial via expansion
            coeffs = [Fraction(1)]
            denom = Fraction(1)
            for j, xj in enumerate(xs):
                if j == i:
                    continue
                denom *= xi - xj
                new = [Fraction(0)] * (len(coeffs) + 1)
                for deg, cv in enumerate(coeffs):
                    new[deg + 1] += cv
                    new[deg] -= cv * xj
                coeffs = new
            integral = sum(
                cv
                * (
                    Fraction(piece + 1) ** (deg + 1)
                    - Fraction(piece) ** (deg + 1)
                )
                / (deg + 1)
                for deg, cv in enumerate(coeffs)
            )
            total += yi * integral / denom
    return total / Fraction(c) ** k


def test_fc_density_vanishes_beyond_support():
    for c, d in [(2, 2), (3, 2), (3, 3)]:
        p = VP(c, d)
        for t in [c + d - 1, c + d, c + d + Fraction(1, 2)]:
            assert fc_density(p, Fraction(t)) == 0


def test_fc_density_moments_match_I_limits():
    for c, d in [(2, 2), (3, 2), (3, 3)]:
        p = VP(c, d)
        for a in range(c + d + 1):
            for k in (0, 1):
                assert integrate_density(p, a, k) == cf.veronese_I_limits(
                    p, a, k
                ), (c, d, a, k)


def test_fc_density_total_mass():
    for c, d in [(2, 2), (3, 2), (3, 3), (4, 2)]:
        p = VP(c, d)
        mass = integrate_density(p, c + d, 0)
        assert mass == Fraction(binomial(c + d - 1, d), c)


def test_ci_rees_values():
    v = cf.ci_rees_values(2, 2)
    assert v.e_rees == 3
    assert v.ehk_rees == Fraction(13, 6)
    assert v.e_extrees == 4
    assert v.ehk_extrees == Fraction(5, 2)
    assert cf.ci_rees_values(1, 1).ehk_extrees == 1
    assert cf.ci_rees_values(2, 3) == cf.ci_rees_values(3, 2)
    for m in range(1, 9):
        for n in range(1, m + 1):
            assert cf.ci_rees_values(m, n).ehk_rees == cf.conca_ehk(
                [m, 1], [n, 1]
            )
    with pytest.raises(ParameterError):
        cf.ci_rees_values(0, 1)


def test_param_validation():
    with pytest.raises(ParameterError):
        SP(0, 1)
    with pytest.raises(ParameterError):
        VP(1, 0)
    with pytest.raises(ParameterError):
        cf.alpha(0, 1)
    with pytest.raises(ParameterError):
        alpha_q(2, 1, 0)
