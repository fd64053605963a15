"""Tests for the Buchberger engine."""

import itertools
import operator
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkrees import engine, lattice, presets, toric
from hkrees.engine import (
    MonomialOrderSpec,
    PresentedQuotient,
    PureDifferenceBinomial,
    buchberger,
    count_standard_monomials,
    frobenius_colength,
    initial_ideal,
    krull_dimension,
    parse_monomial,
    parse_presentation,
    reduce,
)
from hkrees.errors import ClosureError, DimensionError, ParameterError
from reference_routes import (
    buchberger_by_scan,
    ci_extrees_colength_by_sum,
    count_standard_monomials_by_slabs,
    krull_dimension_by_subsets,
    reduce_by_scan,
)

LEX = MonomialOrderSpec("lex")
GREVLEX = MonomialOrderSpec("grevlex")


def xy_z(n):
    """k[x, y, z] / (xy - z^n), dimension 2."""
    return PresentedQuotient(
        ("x", "y", "z"),
        (PureDifferenceBinomial((1, 1, 0), (0, 0, n)),),
        (),
        2,
    )


def test_order_spec_validation():
    with pytest.raises(ParameterError):
        MonomialOrderSpec("deglex")
    with pytest.raises(ParameterError):
        MonomialOrderSpec("lex", (0, 0, 1))
    assert LEX.key((2, 0, 1)) == (2, 0, 1)


@pytest.mark.parametrize("permutation", [(1, 0), (0, 1, 2, 3)])
def test_engine_rejects_an_order_of_another_variable_count(permutation):
    """A permutation of two variables is no monomial order on three (its key
    drops z), and one of four indexes past the exponents."""
    p, order = xy_z(3), MonomialOrderSpec("lex", permutation)
    for run in (lambda: frobenius_colength(p, 2, order),
                lambda: buchberger(p, order), lambda: krull_dimension(p, order)):
        with pytest.raises(ParameterError, match=f"{len(permutation)} entries for 3 variables"):
            run()


def test_buchberger_rejects_an_extra_monomial_of_another_length():
    with pytest.raises(ParameterError, match=r"term \(1, 1\) has 2 exponents for 3 variables"):
        buchberger(xy_z(3), LEX, ((1, 1),))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 6))
def test_ci_extrees_engine_matches_the_point_sum(m, n, q):
    assert presets.ci_extrees(m, n).counter(q) == ci_extrees_colength_by_sum(m, n, q)


def test_grevlex_orders_by_degree_first():
    assert GREVLEX.key((0, 0, 3)) > GREVLEX.key((1, 1, 0))
    assert GREVLEX.key((1, 1, 0)) > GREVLEX.key((0, 0, 2))


def test_binomial_validation():
    with pytest.raises(ParameterError):
        PureDifferenceBinomial((1, 0), (1, 0))
    with pytest.raises(ParameterError):
        PureDifferenceBinomial((1, 0), (1, 0, 0))


def test_reduce_full_cancellation():
    # x^2 y - y^3 reduced by xy - y^2 rewrites to zero in two steps
    basis = [((1, 1), (0, 2))]
    assert reduce(((2, 1), (0, 3)), basis, LEX) is None


def test_reduce_repeated_rewriting_oracle():
    # reduce x^q by x^m - z t: the q-th power rewrites to z^a t^a x^r
    # with q = a m + r, matching manual repeated substitution
    m = 3
    basis = [((m, 0, 0), (0, 1, 1))]  # vars x, z, t
    for q in range(1, 20):
        a, r = divmod(q, m)
        result = reduce(((q, 0, 0), None), basis, LEX)
        assert result == ((r, a, a), None)


def test_reduce_by_monomial_deletes_term():
    basis = [((2, 0), None)]
    assert reduce(((3, 1), None), basis, LEX) is None
    assert reduce(((3, 0), (0, 1)), basis, LEX) == ((0, 1), None)


@pytest.mark.parametrize("element, basis, words", [
    (((-1, 0), None), [], "negative exponent"),
    (((2, 0), (-1, 3)), [], "negative exponent"),
    # a zero element is refused whether or not a basis element divides it
    (((1, 1), (1, 1)), [((1, 0), None)], "unnormalized zero element"),
    (((1, 1), (1, 1)), [((3, 0), None)], "unnormalized zero element"),
    # a negative exponent in a basis lead, in a tail, or in an element that
    # no rewriting step uses
    (((2, 0), None), [((1, -1), None)], "negative exponent"),
    (((2, 0), None), [((1, 0), (0, -1))], "negative exponent"),
    (((2, 0), None), [((0, 5), (-1, 0))], "negative exponent"),
], ids=["negative-lead", "negative-tail", "zero-reducible", "zero-irreducible",
        "basis-lead", "basis-tail", "basis-unused"])
def test_reduce_rejects_malformed_input(element, basis, words):
    with pytest.raises(ClosureError, match=f"^{words}"):
        reduce(element, basis, LEX)


@pytest.mark.parametrize("binomials, monomials", [
    ((PureDifferenceBinomial((1, 0), (0, -1)),), ()),
    ((), ((1, -1),)),
], ids=["binomial", "monomial"])
def test_buchberger_rejects_negative_exponents(binomials, monomials):
    p = PresentedQuotient(("x", "y"), binomials, monomials, 1)
    with pytest.raises(ClosureError, match="^negative exponent"):
        buchberger(p, LEX)


# z > y > x: rewriting along z - x^n grows the exponent of x far past
# every exponent of the input.
ZYX = MonomialOrderSpec("lex", (2, 1, 0))


# Three scales, so that the exponents outgrow any fixed width up to 64
# bits.
WIDE = [2**40, 2**64, 2**140]


@pytest.mark.parametrize("n", WIDE)
def test_reduce_widens_fields_for_large_exponents(n):
    # The input's exponents are at most n; rewriting z^1000 (or the tail
    # z^1000) needs exponents 1000 times larger.
    basis = [((0, 0, 1), (n, 0, 0))]
    assert reduce(((0, 0, 1000), None), basis, ZYX) == ((1000 * n, 0, 0), None)
    element = ((0, 1, 0), (0, 0, 1000))
    assert reduce(element, basis, ZYX) == ((0, 1, 0), (1000 * n, 0, 0))
    assert reduce(element, basis, ZYX) == reduce_by_scan(element, basis, ZYX)


@pytest.mark.parametrize("n", WIDE)
def test_buchberger_widens_fields_for_large_exponents(n):
    p = PresentedQuotient(
        ("x", "y", "z"), (PureDifferenceBinomial((0, 0, 1), (n, 0, 0)),), ((0, 0, 1000),), 1
    )
    assert buchberger(p, ZYX) == [((1000 * n, 0, 0), None), ((0, 0, 1), (n, 0, 0))]
    assert buchberger(p, ZYX) == buchberger_by_scan(p, ZYX)


@st.composite
def engine_inputs(draw):
    """A random presentation with 2-5 variables and 1-3 pure-difference
    binomials (all homogeneous, or not), optional monomials and Frobenius
    powers, and a lex or grevlex order with a random variable order."""
    nvars = draw(st.integers(2, 5))
    exponents = st.tuples(*[st.integers(0, 3)] * nvars)
    homogeneous = draw(st.booleans())
    binomials = []
    for _ in range(draw(st.integers(1, 3))):
        if homogeneous:
            degree = draw(st.integers(1, 3))
            same = [m for m in itertools.product(range(degree + 1), repeat=nvars)
                    if sum(m) == degree]
            plus = draw(st.sampled_from(same))
            minus = draw(st.sampled_from([m for m in same if m != plus]))
        else:
            plus = draw(exponents)
            minus = draw(exponents.filter(lambda m: m != plus))
        binomials.append(PureDifferenceBinomial(plus, minus))
    monomials = tuple(draw(st.lists(exponents, max_size=2)))
    q = draw(st.none() | st.integers(1, 6))
    powers = () if q is None else tuple(
        tuple(q if j == i else 0 for j in range(nvars)) for i in range(nvars))
    permutation = draw(st.none() | st.permutations(range(nvars)).map(tuple))
    order = MonomialOrderSpec(draw(st.sampled_from(["lex", "grevlex"])), permutation)
    p = PresentedQuotient(tuple("xyzwt"[:nvars]), tuple(binomials), monomials, 1)
    return p, order, powers


@settings(max_examples=150, deadline=None)
@given(engine_inputs(), st.data())
def test_packed_engine_matches_scan_reference(case, data):
    """The engine returns the scan-based engine's basis element for
    element, in order, with and without powers, and reduces against a
    plain list the same way."""
    p, order, powers = case
    assert buchberger(p, order, powers) == buchberger_by_scan(p, order, powers)
    assert buchberger(p, order) == buchberger_by_scan(p, order)
    nvars = len(p.variables)
    exponents = st.tuples(*[st.integers(0, 6)] * nvars)
    u, v = data.draw(exponents), data.draw(st.none() | exponents)
    if u != v:
        if v is not None and order.key(u) < order.key(v):
            u, v = v, u
        basis = [(b.plus, b.minus) if order.key(b.plus) > order.key(b.minus)
                 else (b.minus, b.plus) for b in p.binomials]
        basis += [(m, None) for m in p.monomials + powers]
        assert reduce((u, v), basis, order) == reduce_by_scan((u, v), basis, order)


# The engine rings of the benchmark's engine-ladder, each with the q of its
# ladder: bases of up to 98 elements, larger than the random inputs reach.
LADDERS = [
    (presets.ENGINE_RINGS["an-hypersurface"](2), (16, 24, 32, 48, 64, 96)),
    (presets.ENGINE_RINGS["an-hypersurface"](3), (8, 12, 16, 32, 64, 128)),
    (presets.ENGINE_RINGS["an-extrees"](3), (4, 6, 8, 16, 24, 48)),
    (presets.ENGINE_RINGS["ci-extrees"](2, 3), (3, 4, 6, 12, 16, 24)),
    ("vars: x y u v\nbin: x^2*v - y^3*u\ndim: 3\n", (3, 4, 6, 8, 12, 16)),
]


@pytest.mark.parametrize("text, qs", LADDERS, ids=[
    "an-hypersurface-2", "an-hypersurface-3", "an-extrees-3", "ci-extrees-2-3", "rees-x2-y3"])
@pytest.mark.parametrize("order", [LEX, GREVLEX], ids=["lex", "grevlex"])
def test_packed_engine_matches_scan_reference_on_ladders(text, qs, order):
    """The basis, and the count of its initial ideal, match the reference
    routes at every ring and q of the ladder; the colength, counted from
    the unreduced basis, matches the count of the reduced one."""
    p, _ = parse_presentation(text)
    nvars = len(p.variables)
    for q in qs:
        powers = tuple(tuple(q if j == i else 0 for j in range(nvars)) for i in range(nvars))
        reference = buchberger_by_scan(p, order, powers)
        assert buchberger(p, order, powers) == reference
        gens = initial_ideal(reference)
        assert count_standard_monomials(gens) == count_standard_monomials_by_slabs(gens)
        assert frobenius_colength(p, q, order) == count_standard_monomials_by_slabs(gens)


@settings(max_examples=150, deadline=None)
@given(engine_inputs().filter(lambda case: case[2]))
def test_colength_of_unreduced_basis_matches_reduced_route(case):
    """in(I + m^[q]) is generated by the leads of any Groebner basis, so
    counting the basis Buchberger's loop leaves gives the count of the
    reduced basis."""
    p, order, powers = case
    q = max(powers[0])
    reduced = buchberger(p, order, powers)
    assert frobenius_colength(p, q, order) == count_standard_monomials(initial_ideal(reduced))


def test_colength_skips_the_inter_reduction(monkeypatch):
    """The colength never reduces the basis: with `_autoreduce` raising,
    the polynomial ring in 600 variables still gives 2^600 at q = 2."""
    def refuse(basis, order):
        raise AssertionError("the colength route reduced the basis")

    monkeypatch.setattr(engine, "_autoreduce", refuse)
    names = " ".join(f"x{i}" for i in range(600))
    p, _ = parse_presentation(f"vars: {names}\ndim: 600\n")
    assert frobenius_colength(p, 2) == 2**600


def test_buchberger_coprime_leads_unchanged():
    # x^2 - zt and y^2 - wt have coprime leads; the input is already a
    # Groebner basis
    p = PresentedQuotient(
        ("x", "y", "z", "w", "t"),
        (
            PureDifferenceBinomial((2, 0, 0, 0, 0), (0, 0, 1, 0, 1)),
            PureDifferenceBinomial((0, 2, 0, 0, 0), (0, 0, 0, 1, 1)),
        ),
        (),
        3,
    )
    gb = buchberger(p, LEX)
    assert sorted(e[0] for e in gb) == [(0, 2, 0, 0, 0), (2, 0, 0, 0, 0)]


def test_buchberger_empty():
    p = PresentedQuotient(("x",), (), (), 1)
    assert buchberger(p, LEX) == []


def test_initial_ideal_minimalizes():
    # a reduced basis, as buchberger returns: its leads are the minimal
    # generators, and they come out sorted
    gb = [((2, 0), None), ((0, 3), (1, 0))]
    assert initial_ideal(gb) == [(0, 3), (2, 0)]
    assert initial_ideal([]) == []


def test_count_standard_monomials_boxes():
    assert count_standard_monomials([(3, 0), (0, 3)]) == 9
    assert count_standard_monomials([(2, 0), (0, 2), (1, 1)]) == 3
    with pytest.raises(DimensionError):
        count_standard_monomials([(1, 1)])
    with pytest.raises(DimensionError):
        count_standard_monomials([])


def test_unit_ideal_has_colength_zero():
    # a generator with every exponent 0 is the monomial 1: the zero ring
    assert count_standard_monomials([(0, 0)]) == 0
    assert count_standard_monomials([(1, 1, 0), (0, 0, 0)]) == 0
    p, _ = parse_presentation("vars: x y\nmono: x^0\ndim: 1\n")
    assert frobenius_colength(p, 2) == 0


def brute_force_standard_count(gens):
    bounds = [max(g[i] for g in gens) for i in range(len(gens[0]))]
    count = 0
    for point in itertools.product(*(range(b) for b in bounds)):
        if not any(all(g[i] <= point[i] for i in range(len(g))) for g in gens):
            count += 1
    return count


def test_count_standard_monomials_against_brute_force():
    q = 4
    gb = buchberger(xy_z(2), LEX, extra_monomials=((q, 0, 0), (0, q, 0), (0, 0, q)))
    gens = initial_ideal(gb)
    assert count_standard_monomials(gens) == brute_force_standard_count(gens)
    random_gens = [(3, 0, 1), (0, 4, 0), (2, 2, 2), (5, 0, 0), (0, 0, 3)]
    assert count_standard_monomials(random_gens) == brute_force_standard_count(
        random_gens
    )


@st.composite
def artinian_monomial_ideals(draw):
    """Generators of a random Artinian monomial ideal in 1-5 variables: a
    pure power of every variable, a few larger pure powers and mixed
    monomials, then multiples of drawn generators (which those divide)
    and exact repeats."""
    nvars = draw(st.integers(1, 5))
    gens = [
        tuple(draw(st.integers(1, 4)) if j == i else 0 for j in range(nvars))
        for i in range(nvars)
    ]
    for i in draw(st.lists(st.integers(0, nvars - 1), max_size=2)):
        gens.append(tuple(draw(st.integers(gens[i][i] + 1, 5)) if j == i else 0
                          for j in range(nvars)))
    mixed = st.tuples(*[st.integers(0, 4)] * nvars).filter(any)
    gens += draw(st.lists(mixed, max_size=6))
    for g in draw(st.lists(st.sampled_from(gens), max_size=3)):
        gens.append(tuple(e + draw(st.integers(0, 1)) for e in g))
    gens += draw(st.lists(st.sampled_from(gens), max_size=2))
    return draw(st.permutations(gens))


@settings(max_examples=80, deadline=None)
@given(artinian_monomial_ideals())
def test_count_standard_monomials_property(gens):
    assert count_standard_monomials(gens) == brute_force_standard_count(gens)


def test_count_insertion_that_removes_several_corners():
    # At x^0 the staircase of (y, z) has corners (0,6) (2,4) (3,3) (4,2)
    # (6,0), area 23.  x*y*z removes the three middle corners and cuts
    # the area to 11, which the slab 1 <= x < 5 takes four times.
    gens = [(5, 0, 0), (0, 6, 0), (0, 0, 6), (0, 2, 4), (0, 3, 3), (0, 4, 2), (1, 1, 1)]
    assert count_standard_monomials(gens) == 23 + 4 * 11 == brute_force_standard_count(gens)


def test_count_insertion_on_an_existing_corner_x():
    # At x^0 the corners are (0,6) (2,4) (4,2) (6,0), area 24.  x*y^2*z^3
    # lands on y = 2 and replaces the corner (2,4) there: area 22.
    gens = [(5, 0, 0), (0, 6, 0), (0, 0, 6), (0, 2, 4), (0, 4, 2), (1, 2, 3)]
    assert count_standard_monomials(gens) == 24 + 4 * 22 == brute_force_standard_count(gens)


@st.composite
def large_artinian_monomial_ideals(draw):
    """Generators of a random Artinian monomial ideal in 3-6 variables,
    up to 60 of them, with exponents up to 40: beyond brute force.  The
    mixed generators stay within the pure powers, so that most of them
    enter the staircases."""
    nvars = draw(st.integers(3, 6))
    powers = draw(st.lists(st.integers(1, 40), min_size=nvars, max_size=nvars))
    gens = [tuple(e if j == i else 0 for j in range(nvars)) for i, e in enumerate(powers)]
    # a drawn size: left to itself, st.lists rarely draws long lists
    size = draw(st.integers(0, 60 - nvars))
    mixed = st.tuples(*[st.integers(0, e) for e in powers]).filter(any)
    gens += draw(st.lists(mixed, min_size=size, max_size=size))
    return draw(st.permutations(gens))


@settings(max_examples=60, deadline=None)
@given(large_artinian_monomial_ideals())
def test_count_standard_monomials_matches_slab_reference(gens):
    assert count_standard_monomials(gens) == count_standard_monomials_by_slabs(gens)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4), st.integers(1, 40))
def test_an_hypersurface_engine_matches_semigroup_lattice(n, q):
    """k[x,y,z]/(xy - z^n) is the semigroup ring of A_n: the engine and the
    lattice counter agree at every q, not only at powers of two."""
    assert frobenius_colength(xy_z(n), q, LEX) == lattice.semigroup_ehk_colength(
        lattice.semigroup_binomial_an(n), q
    )


@pytest.mark.parametrize("order", [LEX, GREVLEX], ids=["lex", "grevlex"])
@pytest.mark.parametrize("family, n, top", [
    ("an-hypersurface", n, 60) for n in range(2, 6)
] + [("an-extrees", n, 40) for n in range(2, 5)])
def test_twin_preset_matches_engine_at_every_q(family, n, top, order):
    """The A_n presets read q from their twin's quasi-polynomial once the
    nodes of q's class sum to at most q, and count below that.  One preset
    runs q downwards, so the large q are read before any small q is
    counted, under the order its nodes are counted with."""
    preset = getattr(presets, family.replace("-", "_"))(n, order)
    p, _ = parse_presentation(presets.ENGINE_RINGS[family](n))
    for q in range(top, 0, -1):
        assert preset.counter(q) == frobenius_colength(p, q, order), q


@pytest.mark.parametrize("family, n, qs, evaluated", [
    ("an_hypersurface", 2, (16, 24, 32, 48, 64, 96), (2, 4, 6)),
    ("an_hypersurface", 3, (8, 12, 16, 32, 64, 128), (1, 2, 4, 5, 7, 8, 12)),
    ("an_extrees", 3, (7, 14), (7, 14)),
])
def test_twin_preset_evaluates_only_its_nodes(monkeypatch, family, n, qs,
                                             evaluated):
    """A q is counted when its class's nodes sum to more than q (8 and 12
    for n = 3; 7 and 14 for an-extrees n = 3, P = 3), and read from the
    nodes otherwise; each is counted once per preset, and a second preset
    counts them all again."""
    calls = []
    monkeypatch.setattr(engine, "frobenius_colength",
                        lambda p, q, order=None: calls.append(q)
                        or frobenius_colength(p, q, order))
    for _ in range(2):
        preset = getattr(presets, family)(n)
        for q in qs:
            assert preset.counter(q) > 0
        assert sorted(calls) == list(evaluated)
        calls.clear()


@pytest.mark.parametrize("family, n", [
    ("an_hypersurface", 2), ("an_hypersurface", 3), ("an_extrees", 3),
])
def test_twin_preset_computes_its_period_when_built(monkeypatch, family, n):
    """The period of the twin is computed once, when the preset is built,
    and no count along a ladder computes it again; a second preset
    computes its own."""
    calls = []
    real = toric.period
    monkeypatch.setattr(toric, "period",
                        lambda *args: calls.append(args) or real(*args))
    for built in (1, 2):
        preset = getattr(presets, family)(n)
        assert len(calls) == built
        for q in (4, 6, 8, 16, 24, 48):
            assert preset.counter(q) > 0
        assert len(calls) == built


def is_reduced(gb):
    leads = [lead for lead, _ in gb]
    for lead, tail in gb:
        for other in leads:
            if other != lead and all(a <= b for a, b in zip(other, lead)):
                return False
            if tail is not None and all(a <= b for a, b in zip(other, tail)):
                return False
    return True


def homogeneous_binomials(degree):
    monomials = [m for m in itertools.product(range(degree + 1), repeat=3)
                 if sum(m) == degree]
    pick = st.sampled_from(monomials)
    return st.tuples(pick, pick).filter(lambda b: b[0] != b[1])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 3).flatmap(homogeneous_binomials),
             min_size=1, max_size=3),
    st.integers(1, 5),
    st.sampled_from([LEX, GREVLEX]),
)
def test_buchberger_output_is_reduced_and_order_free(binomials, q, order):
    """For random homogeneous relations the result is a reduced basis, and
    the colength it gives does not depend on the monomial order."""
    p = PresentedQuotient(
        ("x", "y", "z"),
        tuple(PureDifferenceBinomial(a, b) for a, b in binomials),
        (),
        1,
    )
    powers = ((q, 0, 0), (0, q, 0), (0, 0, q))
    gb = buchberger(p, order, extra_monomials=powers)
    assert is_reduced(gb)
    assert gb == sorted(gb, key=lambda e: order.key(e[0]))
    assert frobenius_colength(p, q, LEX) == frobenius_colength(p, q, GREVLEX)


@pytest.mark.parametrize("text, gb", [
    # y^3 -> yz by y^2 - z, then to zero by y: the lead x is left a monomial
    ("vars: x y z\nbin: y^2 - z\nbin: x - y^3\nmono: y\ndim: 1\n",
     [((0, 0, 1), None), ((0, 1, 0), None), ((1, 0, 0), None)]),
    # y^3 -> yz by y^2 - z, then to z^4 by y - z^3
    ("vars: x y z\nbin: y^2 - z\nbin: x - y^3\nbin: y - z^3\ndim: 1\n",
     [((0, 0, 6), (0, 0, 1)), ((0, 1, 0), (0, 0, 3)), ((1, 0, 0), (0, 0, 4))]),
], ids=["tail-to-zero", "tail-to-z4"])
def test_tail_first_divided_by_a_dropped_element(monkeypatch, text, gb):
    """The first divisor of the kept tail y^3 in the basis that Buchberger
    built is y^2 - z, which the minimal-lead pass drops (y divides y^2).
    Reducing against the whole basis still gives the reduced basis."""
    p, _ = parse_presentation(text)
    built = []
    autoreduce = engine._autoreduce

    def keep_basis(basis, order):
        built.extend(basis)
        return autoreduce(basis, order)

    monkeypatch.setattr(engine, "_autoreduce", keep_basis)
    assert buchberger(p, LEX) == gb == buchberger_by_scan(p, LEX)
    assert is_reduced(gb)
    leads = {lead for lead, _ in gb}
    first = next(e for e in built if all(map(operator.le, e[0], (0, 3, 0))))
    assert ((1, 0, 0), (0, 3, 0)) in built
    assert first == ((0, 2, 0), (0, 0, 1)) and first[0] not in leads


def test_krull_dimension_of_relations():
    assert krull_dimension(xy_z(3)) == 2
    assert krull_dimension(PresentedQuotient(("x", "y"), (), (), 2)) == 2
    twisted_cubic, _ = parse_presentation(
        "vars: a b c d\nbin: a*c - b^2\nbin: a*d - b*c\nbin: b*d - c^2\ndim: 2"
    )
    assert krull_dimension(twisted_cubic) == 2
    assert krull_dimension(twisted_cubic, GREVLEX) == 2
    # (x, y) in k[x, y, z] leaves k[z]; the unit ideal leaves the zero ring
    assert krull_dimension(
        PresentedQuotient(("x", "y", "z"), (), ((1, 0, 0), (0, 1, 0)), 1)
    ) == 1
    assert krull_dimension(PresentedQuotient(("x",), (), ((0,),), 1)) == -1


def test_krull_dimension_of_many_variables():
    """x_0, ..., x_19 in 40 variables leave 20: the subset sweep would try
    every set of more than 20 of the 40 variables first, while the 20
    singleton supports force their variables, so the search never
    branches."""
    names = [f"x{i}" for i in range(40)]
    text = "vars: " + " ".join(names) + "\n" + "".join(
        f"mono: {name}\n" for name in names[:20]) + "dim: 20\n"
    p, _ = parse_presentation(text)
    start = time.perf_counter()
    assert krull_dimension(p) == krull_dimension(p, GREVLEX) == 20
    assert presets.presentation(p).dimension == 20
    assert time.perf_counter() - start < 1.0


@st.composite
def sparse_presentations(draw):
    """A random presentation with 1-10 variables and up to 3 binomials and
    3 monomials, each monomial on at most 3 variables with exponents 1-2.
    A binomial's term may be 1, so that some rings are zero."""
    nvars = draw(st.integers(1, 10))

    def sparse(min_size):
        return st.dictionaries(st.integers(0, nvars - 1), st.integers(1, 2),
                               min_size=min_size, max_size=3).map(
            lambda d: tuple(d.get(i, 0) for i in range(nvars)))

    pairs = st.tuples(sparse(1), sparse(0)).filter(lambda b: b[0] != b[1])
    binomials = tuple(PureDifferenceBinomial(*b)
                      for b in draw(st.lists(pairs, max_size=3)))
    monomials = tuple(draw(st.lists(sparse(1), max_size=3)))
    return PresentedQuotient(tuple(f"x{i}" for i in range(nvars)), binomials, monomials, 1)


@settings(max_examples=100, deadline=None)
@given(sparse_presentations(), st.sampled_from([LEX, GREVLEX]))
def test_krull_dimension_matches_subset_sweep(p, order):
    """The minimum hitting set over the unreduced leads gives the subset
    sweep's dimension over the reduced ones."""
    assert krull_dimension(p, order) == krull_dimension_by_subsets(p, order)


@pytest.mark.parametrize("family, params", [
    *(("an-hypersurface", (n,)) for n in range(1, 6)),
    *(("an-extrees", (n,)) for n in range(2, 6)),
    *(("ci-extrees", (m, n)) for m in range(1, 4) for n in range(1, 4)),
])
def test_builtin_engine_ring_declares_its_krull_dimension(family, params):
    # built-in presets skip the check that `presets.presentation` runs
    p, order = parse_presentation(presets.ENGINE_RINGS[family](*params))
    assert order is None
    assert p.dimension == krull_dimension(p) == krull_dimension(p, GREVLEX)
    assert getattr(presets, family.replace("-", "_"))(*params).dimension == p.dimension


def test_frobenius_regular_ring():
    for v in range(1, 4):
        p = PresentedQuotient(tuple("abcd"[:v]), (), (), v)
        for q in (1, 2, 3, 4, 8):
            assert frobenius_colength(p, q, LEX) == q**v


def test_frobenius_xy_z2_exact():
    for q in (2, 4, 8, 16):
        assert frobenius_colength(xy_z(2), q, LEX) == 3 * q * q // 2
    values = [
        Fraction(frobenius_colength(xy_z(2), q, LEX), q * q) for q in (2, 4, 8, 16)
    ]
    assert values == [Fraction(3, 2)] * 4


def rank_over_rationals(rows):
    """Row rank of a list of dicts monomial -> coefficient, by Gaussian
    elimination with exact fractions."""
    rows = [dict(r) for r in rows]
    pivots = {}
    rank = 0
    for row in rows:
        for key, lead in sorted(pivots.items()):
            if key in row and row[key]:
                factor = Fraction(row[key], lead[key])
                for k, v in lead.items():
                    row[k] = row.get(k, 0) - factor * v
        row = {k: v for k, v in row.items() if v}
        if row:
            key = sorted(row)[0]
            pivots[key] = row
            rank += 1
    return rank


def test_frobenius_against_linear_span_rank():
    """Independent oracle at q = 2: the colength of (xy - z^2, x^2, y^2,
    z^2) is dim of all monomials modulo the graded pieces of the ideal,
    computed by exact linear algebra.

    Every monomial of degree >= 4 has an exponent >= 2, so the ideal
    contains all high degrees and the quotient lives in degrees <= 3.
    The ideal is homogeneous and generated in degree 2, so its degree-e
    piece is spanned by products monomial * generator of total degree e.
    """
    generators = [
        {(1, 1, 0): 1, (0, 0, 2): -1},
        {(2, 0, 0): 1},
        {(0, 2, 0): 1},
        {(0, 0, 2): 1},
    ]
    dim = 0
    for degree in range(4):
        monos = [
            m
            for m in itertools.product(range(degree + 1), repeat=3)
            if sum(m) == degree
        ]
        rows = []
        for g in generators:
            gdeg = sum(next(iter(g)))
            for m in itertools.product(range(degree + 1), repeat=3):
                if sum(m) == degree - gdeg:
                    rows.append(
                        {
                            tuple(a + b for a, b in zip(m, t)): c
                            for t, c in g.items()
                        }
                    )
        dim += len(monos) - rank_over_rationals(rows)
    assert frobenius_colength(xy_z(2), 2, LEX) == dim


def test_order_independence_of_colength():
    presentations = [
        xy_z(2),
        xy_z(3),
        PresentedQuotient(
            ("a", "b", "c", "d"),
            (PureDifferenceBinomial((1, 1, 0, 0), (0, 0, 1, 1)),),
            (),
            3,
        ),
    ]
    orders = [
        LEX,
        GREVLEX,
        MonomialOrderSpec("lex", (2, 0, 1)),
        MonomialOrderSpec("grevlex", (1, 2, 0)),
    ]
    for p in presentations:
        counts = set()
        for order in orders:
            if order.permutation and len(order.permutation) != len(p.variables):
                continue
            counts.add(frobenius_colength(p, 4, order))
        assert len(counts) == 1, p


def test_colength_monotone_in_q():
    for p in (xy_z(2), xy_z(4)):
        prev = 0
        for q in (1, 2, 4, 8):
            current = frobenius_colength(p, q, LEX)
            assert current >= prev
            prev = current


def test_generator_order_irrelevant():
    a = PresentedQuotient(
        ("x", "y", "z", "w", "t"),
        (
            PureDifferenceBinomial((2, 0, 0, 0, 0), (0, 0, 1, 0, 1)),
            PureDifferenceBinomial((0, 2, 0, 0, 0), (0, 0, 0, 1, 1)),
        ),
        (),
        3,
    )
    b = PresentedQuotient(a.variables, tuple(reversed(a.binomials)), (), 3)
    assert buchberger(a, LEX, ((4,) * 1 + (0,) * 4,)) == buchberger(
        b, LEX, ((4,) * 1 + (0,) * 4,)
    )


def test_parse_monomial_and_presentation():
    assert parse_monomial("x^2*y", ["x", "y", "z"]) == (2, 1, 0)
    assert parse_monomial("z", ["x", "y", "z"]) == (0, 0, 1)
    with pytest.raises(ParameterError):
        parse_monomial("u^2", ["x", "y"])
    text = """
    # comment
    vars: x y z
    bin: x*y - z^2
    dim: 2
    order: lex x>y>z
    """
    p, order = parse_presentation(text)
    assert p.variables == ("x", "y", "z")
    assert p.binomials == (PureDifferenceBinomial((1, 1, 0), (0, 0, 2)),)
    assert p.dimension == 2
    assert order.kind == "lex"
    assert order.permutation == (0, 1, 2)
    with pytest.raises(ParameterError):
        parse_presentation("vars: x\nbin: x - x - x\ndim: 1")
    with pytest.raises(ParameterError):
        parse_presentation("bin: x - y")
    with pytest.raises(ParameterError):
        parse_presentation("vars: x y")
    with pytest.raises(ParameterError, match="repeated variable 'y'"):
        parse_presentation("vars: x y y\nbin: x - y\ndim: 1")


# Files with two faults report the first in the order of parse_presentation's
# docstring, wherever their lines stand in the file.
@pytest.mark.parametrize("text, err", [
    ("vars: x y\ndim: 1\ndim: 2\nfoo: x\n", "unknown line tag 'foo'"),
    ("vars: x y\nbin: x^ - y\nvars: x y\ndim: 1\n", "repeated vars: line"),
    ("order: lex\norder: grevlex\ndim: 1\ndim: 2\nvars: x\n",
     "repeated dim: line"),
    ("bin: x - z\nvars: x x\ndim: 1\n", "repeated variable 'x' in vars: line"),
    ("vars: x y\nmono: z\nbin: x - y - x\ndim: 1\n",
     "binomial must be a pure difference of two monomials: 'x - y - x'"),
    ("vars: x y\ndim: one\nmono: z\n", "unknown variable 'z' in 'z'"),
    ("vars: x y\norder: lex y>z\ndim: one\n", "bad dim: value 'one'"),
    ("vars: x y\norder: lex y>z\n", "presentation has no dim: line"),
    ("dim: 0\nvars: x\norder: deglex\n", "unknown order kind 'deglex'"),
], ids=["unknown-tag-then-repeated-dim", "repeated-vars-then-bad-bin",
        "repeated-dim-then-repeated-order", "repeated-variable-then-bad-bin",
        "bin-then-mono", "mono-then-dim", "dim-then-order",
        "missing-dim-then-order", "order-then-dim-below-1"])
def test_parse_presentation_fault_order(text, err):
    with pytest.raises(ParameterError) as exc:
        parse_presentation(text)
    assert str(exc.value) == err
