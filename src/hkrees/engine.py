"""Buchberger engine for ideals generated by monomials and pure-difference
binomials (two monomials with coefficients +1/-1).

This class of generating sets is closed under S-pairs and reduction: every
intermediate element is again a monomial or a pure difference, so no field
arithmetic is needed and every computed colength is independent of the
characteristic.  Frobenius colengths are obtained as standard-monomial
counts of the initial ideal.  The presented rings it takes, and their
text format, are in `presentation`.

"a divides b" is tested on the exponent tuples, one comparison per
variable.  Packing the exponents into guarded integer fields made that
test cheaper on bases of 35 elements or more, but the bases the
benchmark workloads build have at most about 20, where the two cost the
same; the tuple test needs no field widths.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from bisect import bisect_right
from operator import itemgetter, le

from .errors import ClosureError, DimensionError, ParameterError
# PureDifferenceBinomial and the parsers are imported for callers that
# reach them through this module.
from .presentation import (Monomial, MonomialOrderSpec, PresentedQuotient,  # noqa: F401
                           PureDifferenceBinomial, parse_monomial, parse_presentation)

# An element is (lead, tail): tail is None for a monomial, otherwise the
# smaller monomial of a pure difference lead - tail.
Element = tuple[Monomial, Monomial | None]

_LEX = MonomialOrderSpec("lex")


def _sub(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(operator.sub, a, b))


def _add(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(operator.add, a, b))


def _lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def _check_closure(e: Element) -> Element:
    lead, tail = e
    if min(lead, default=0) < 0 or (tail is not None and min(tail, default=0) < 0):
        raise ClosureError(f"negative exponent in {e}")
    if tail is not None and lead == tail:
        raise ClosureError(f"unnormalized zero element {e}")
    return e


def _make_element(u: Monomial, v: Monomial | None, order: MonomialOrderSpec) -> Element | None:
    """Sign-normalize; None means the element reduced to zero."""
    if v is None:
        return (u, None)
    if u == v:
        return None
    if order.key(u) < order.key(v):
        u, v = v, u
    return (u, v)


class _Basis(list):
    """A basis that `buchberger` built from checked generators, so `reduce`
    need not check it again."""

    __slots__ = ()


def reduce(element: Element, basis: list[Element], order: MonomialOrderSpec) -> Element | None:
    """Full normal form of a monomial or pure-difference element.

    Reduction by a binomial rewrites a term along the relation; reduction by
    a monomial deletes a term.  Either way the result stays in the
    monomial/pure-difference class (coefficients stay +-1), which is what
    keeps the whole engine characteristic-free.  Each step rewrites by the
    first basis element whose lead divides a term, testing the lead term
    before the tail.  The element, and a basis that `buchberger` did not
    build, are checked first, so every term reached stays non-negative.
    """
    if not isinstance(basis, _Basis):
        _check_closure(element)
        for e in basis:
            _check_closure(e)
    lead, tail = element
    while True:
        for bl, bt in basis:
            if all(map(le, bl, lead)):
                term, other = lead, tail
                break
            if tail is not None and all(map(le, bl, tail)):
                term, other = tail, lead
                break
        else:
            return (lead, tail)
        if bt is None:
            if other is None:
                return None
            lead, tail = other, None
        else:
            term = _add(_sub(term, bl), bt)
            if other is None:
                lead = term
            elif term == other:
                return None
            elif order.key(term) < order.key(other):
                lead, tail = other, term
            else:
                lead, tail = term, other


def _s_pair(f: Element, g: Element, lcm: Monomial,
            order: MonomialOrderSpec) -> Element | None:
    """S-polynomial of two elements whose leads have least common multiple
    `lcm`; None when it is zero."""
    (lf, tf), (lg, tg) = f, g
    if tf is None:
        return (_add(_sub(lcm, lg), tg), None)
    if tg is None:
        return (_add(_sub(lcm, lf), tf), None)
    return _make_element(_add(_sub(lcm, lf), tf), _add(_sub(lcm, lg), tg), order)


def buchberger(p: PresentedQuotient, order: MonomialOrderSpec,
               extra_monomials: tuple[Monomial, ...] = ()) -> list[Element]:
    """Reduced Groebner basis of the presentation ideal (plus any extra
    monomial generators, e.g. Frobenius powers)."""
    gens: list[Element] = []
    for b in p.binomials:
        e = _make_element(b.plus, b.minus, order)
        if e is not None:
            gens.append(e)
    gens += [(m, None) for m in tuple(p.monomials) + tuple(extra_monomials)]
    basis = _Basis(map(_check_closure, gens))

    # Pairs leave the heap by lcm degree; the insertion sequence number
    # breaks ties first-in first-out.  Two kinds of pair never enter: two
    # monomials (their S-pair is zero), so a monomial pairs only with the
    # binomials before it, and coprime leads (it reduces to zero).
    pairs: list[tuple[int, int, Monomial, int, int]] = []
    seq = itertools.count()
    binomials: list[int] = []

    def push_pairs(k: int):
        lead, tail = basis[k]
        for t in (binomials if tail is None else range(k)):
            other = basis[t][0]
            if not any(map(min, lead, other)):
                continue
            lcm = _lcm(lead, other)
            heapq.heappush(pairs, (sum(lcm), next(seq), lcm, k, t))
        if tail is not None:
            binomials.append(k)

    for k in range(len(basis)):
        push_pairs(k)
    while pairs:
        _, _, lcm, i, j = heapq.heappop(pairs)
        s = _s_pair(basis[i], basis[j], lcm, order)
        if s is None:
            continue
        r = reduce(s, basis, order)
        if r is None:
            continue
        basis.append(r)
        push_pairs(len(basis) - 1)

    return _autoreduce(basis, order)


def _autoreduce(basis: _Basis, order: MonomialOrderSpec) -> list[Element]:
    """The unique reduced basis, sorted by leading term: one pass keeps the
    elements whose lead no smaller lead divides, then replaces each tail by
    its normal form modulo the whole basis.  That normal form is unique,
    since the basis is a Groebner basis (Cox-Little-O'Shea, ch. 2 par. 6),
    so the dropped elements change nothing; and no lead equal to the
    element's own divides a term of the chain, since each lies strictly
    below it."""
    keep: list[Element] = []
    # a divisor of a monomial precedes it in every monomial order
    for e in sorted(basis, key=lambda e: order.key(e[0])):
        if not any(all(map(le, lead, e[0])) for lead, _ in keep):
            keep.append(e)
    # No lead divides another, so no element vanishes or changes lead.  A
    # tail whose normal form is zero (None) leaves its lead a monomial.
    return [(lead, tail and (reduce((tail, None), basis, order) or (None,))[0])
            for lead, tail in keep]


def initial_ideal(gb: list[Element]) -> list[Monomial]:
    """Minimal monomial generators of the initial ideal of a reduced
    Groebner basis (as `buchberger` returns), sorted: its leads, which
    reduction already made distinct and minimal."""
    return sorted(e[0] for e in gb)


def krull_dimension(p: PresentedQuotient,
                    order: MonomialOrderSpec | None = None) -> int:
    """Krull dimension of the presented ring, read off the initial ideal of
    its relations: the size of the largest set of variables that contains
    the support of no minimal leading term (-1 for the zero ring)."""
    order = order or _LEX
    gb = buchberger(p, order)
    supports = {
        frozenset(i for i, e in enumerate(m) if e)
        for m in initial_ideal(gb)
    }
    nvars = len(p.variables)
    for size in range(nvars, -1, -1):
        for chosen in itertools.combinations(range(nvars), size):
            if not any(s.issubset(chosen) for s in supports):
                return size
    return -1


def count_standard_monomials(gens: list[Monomial]) -> int:
    """Number of monomials outside the monomial ideal given by `gens`.

    Requires a pure power of every variable among the generators (so the
    count is finite), or the monomial 1, which gives 0.  Fewer than three
    variables are padded in front with variables whose first power is in
    the ideal, which leaves the count unchanged.  Splits on one variable
    at a time: the generators that can still divide a point change only at
    their own exponents in that variable, so each slab between consecutive
    exponents is counted once and multiplied by its width.

    The third-to-last variable is swept instead: its generators are
    inserted in the order of their exponent there, into one staircase of
    the last two exponents.  The staircase keeps its corners as two
    lists, x ascending and y strictly descending, and the number of
    points under it (its area).  It starts as the box of the last two
    pure powers, and its corners stay the minimal generators inserted so
    far, so each slab adds its width times the current area.  Inserting
    (a, b) takes one bisection, one step per corner it removes (each
    corner is inserted once) and one list splice.  So a sweep over n
    generators takes O(n log n) steps beside the splices' memory moves,
    where a fresh staircase per slab took O(n^2 log n).
    """
    if not gens:
        raise DimensionError("empty generating set has infinite colength")
    nvars = len(gens[0])
    bounds = [None] * nvars
    for g in gens:
        if g.count(0) == nvars - 1:  # a pure power
            e = max(g)
            i = g.index(e)
            if bounds[i] is None or e < bounds[i]:
                bounds[i] = e
    missing = [i for i, b in enumerate(bounds) if b is None]
    if missing:
        if any(not any(g) for g in gens):
            return 0  # the unit ideal: the zero ring has no monomials
        raise DimensionError(
            f"no pure-power generator for variable index(es) {missing}; "
            "quotient is not Artinian"
        )
    if nvars < 3:
        pad = 3 - nvars
        gens = [(0,) * pad + tuple(g) for g in gens]
        gens += [(0,) * i + (1,) + (0,) * (2 - i) for i in range(pad)]
        bounds = [1] * pad + bounds
        nvars = 3
    width, height = bounds[-2:]
    last_three = itemgetter(slice(nvars - 3, None))

    def count(idx: int, active: list[Monomial]) -> int:
        # `active` holds the generators that divide the chosen point in the
        # variables before idx.  The pure powers of the remaining variables
        # are always among them, so it is never empty.
        if idx == nvars - 3:
            xs, ys, area = [0, width], [height, 0], width * height
            total = lo = 0
            for c, a, b in sorted(map(last_three, active)):
                if c > lo:
                    total += (c - lo) * area
                    lo = c
                i = bisect_right(xs, a) - 1  # the height at a is ys[i]
                if ys[i] <= b:
                    continue  # a corner divides (a, b)
                # cut the area above b, from a to where the height drops to b
                j = i + 1
                area -= (xs[j] - a) * (ys[i] - b)
                while ys[j] > b:
                    area -= (xs[j + 1] - xs[j]) * (ys[j] - b)
                    j += 1
                # (a, b) replaces the corners it divides: i's when xs[i] == a,
                # those between, and j's when ys[j] == b
                if xs[i] < a:
                    i += 1
                if ys[j] == b:
                    j += 1
                xs[i:j] = (a,)
                ys[i:j] = (b,)
                if not area:
                    break  # the pure power of x_idx: every later slab is empty
            return total
        # Slabs run from one exponent of x_idx among the generators to the
        # next; the pure power of x_idx ends the last one.
        active = sorted(active, key=itemgetter(idx))
        total, k = 0, 0
        while True:
            lo = active[k][idx]
            while active[k][idx] == lo:
                if not any(active[k][idx + 1:]):
                    return total  # x_idx^lo already divides every extension
                k += 1
            total += (active[k][idx] - lo) * count(idx + 1, active[:k])

    return count(0, gens)


def frobenius_colength(p: PresentedQuotient, q: int,
                       order: MonomialOrderSpec | None = None) -> int:
    """Colength of the q-th bracket power of the maximal ideal of the
    presented quotient, via Groebner basis and standard-monomial count."""
    if q < 1:
        raise ParameterError(f"q must be >= 1, got {q}")
    if order is None:
        order = _LEX
    nvars = len(p.variables)
    powers = tuple((0,) * i + (q,) + (0,) * (nvars - 1 - i) for i in range(nvars))
    gb = buchberger(p, order, extra_monomials=powers)
    return count_standard_monomials(initial_ideal(gb))
