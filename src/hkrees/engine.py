"""Presented quotient rings and the Buchberger engine that computes with them.

A `PresentedQuotient` is a polynomial ring modulo monomials and
pure-difference binomials (two monomials with coefficients +1/-1), with its
declared Krull dimension; `parse_presentation` reads the line-oriented
format of `oracle --preset presentation --file`.  This class of generating
sets is closed under S-pairs and reduction: every intermediate element is
again a monomial or a pure difference, so no field arithmetic is needed and
every computed colength is independent of the characteristic.  Frobenius
colengths are obtained as standard-monomial counts of the initial ideal,
from the leads of the basis as Buchberger's loop leaves it: in(J) = <LT(G)>
for every Groebner basis G of J, so only `buchberger`'s own output pays
for the inter-reduction.

"a divides b" is tested on the exponent tuples, one comparison per
variable.  That suffices: the bases that the benchmark workloads build
have at most about 20 elements, where packing the exponents into
integers saves nothing.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from bisect import bisect_right
from collections import namedtuple
from operator import itemgetter, le

from .errors import ClosureError, DimensionError, ParameterError
from .exact import parse_int

Monomial = tuple[int, ...]


class MonomialOrderSpec:
    """A lex or graded-reverse-lex order; permutation[0] is the largest variable.

    An immutable `__slots__` class rather than a namedtuple: `key` runs on
    every term comparison, and Python reads a slot faster than a
    namedtuple field."""

    __slots__ = ("kind", "permutation")

    def __init__(self, kind: str = "lex", permutation: tuple[int, ...] | None = None):
        if kind not in ("lex", "grevlex"):
            raise ParameterError(f"unknown order kind {kind!r}")
        if permutation is not None:
            if sorted(permutation) != list(range(len(permutation))):
                raise ParameterError(f"not a permutation: {permutation}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "permutation", permutation)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: the order is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.permutation) == (other.kind, other.permutation)

    def __hash__(self):
        return hash((self.kind, self.permutation))

    def __repr__(self):
        return "MonomialOrderSpec(kind={!r}, permutation={!r})".format(
            self.kind, self.permutation)

    def key(self, m: Monomial):
        if self.permutation is not None:
            m = tuple(map(m.__getitem__, self.permutation))
        if self.kind == "lex":
            return m
        return (sum(m), tuple(map(operator.neg, reversed(m))))


class PureDifferenceBinomial(namedtuple("PureDifferenceBinomial", "plus minus")):
    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # namedtuple's own skips __new__

    def __new__(cls, plus: Monomial, minus: Monomial):
        if plus == minus:
            raise ParameterError("binomial with equal terms is zero")
        if len(plus) != len(minus):
            raise ParameterError("mismatched variable counts")
        return super().__new__(cls, plus, minus)


def _check_lengths(terms, n: int) -> None:
    for m in terms:
        if len(m) != n:
            raise ParameterError(f"relation term {m} has {len(m)} exponents for {n} variables")


class PresentedQuotient(namedtuple(
        "PresentedQuotient", "variables binomials monomials dimension")):
    """A graded quotient ring: variables, pure-difference binomial relations,
    monomial relations, and its declared Krull dimension.  Every relation
    term has one exponent per variable."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # namedtuple's own skips __new__

    def __new__(cls, variables: tuple[str, ...],
                binomials: tuple[PureDifferenceBinomial, ...] = (),
                monomials: tuple[Monomial, ...] = (), dimension: int = 1):
        if len(variables) < 1:
            raise ParameterError("need at least one variable")
        if dimension < 1:
            raise ParameterError("dimension must be >= 1")
        _check_lengths((*(b.plus for b in binomials), *monomials), len(variables))
        return super().__new__(cls, variables, binomials, monomials, dimension)


def parse_monomial(text: str, variables: list[str]) -> Monomial:
    """Parse `x^2*y` style monomial text against a variable list."""
    text = text.strip()
    expo = [0] * len(variables)
    for factor in text.replace(" ", "").split("*"):
        if not factor:
            raise ParameterError(f"empty factor in monomial {text!r}")
        name, caret, power = factor.partition("^")
        try:
            e = parse_int(power) if caret else 1
        except ValueError:
            raise ParameterError(f"bad exponent {power!r} in {text!r}") from None
        if name not in variables:
            raise ParameterError(f"unknown variable {name!r} in {text!r}")
        if e < 0:
            raise ParameterError(f"negative exponent in {text!r}")
        expo[variables.index(name)] += e
    return tuple(expo)


def parse_presentation(text: str) -> tuple[PresentedQuotient, MonomialOrderSpec | None]:
    """Parse the line-oriented presentation format:

        vars: x y z w t
        bin: x^2*y - z^3
        mono: x^4
        dim: 3
        order: lex x>y>z>w>t

    Lines may come in any order; `vars:`, `dim:` and `order:` may each
    appear once, and every integer follows `exact.parse_int`.  A file with
    several faults reports the first in this order: an unknown tag; a
    repeated `vars:`, `dim:` or `order:` line, in that order; an empty
    `vars:` line or a repeated variable; a bad `bin:` line, then a bad
    `mono:` line, each in file order; a missing or bad `dim:` line; a bad
    `order:` line; and last a `dim:` below 1.
    """
    lines = {tag: [] for tag in ("vars", "bin", "mono", "dim", "order")}
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            tag, _, rest = (part.strip() for part in line.partition(":"))
            if tag not in lines:
                raise ParameterError(f"unknown line tag {tag!r}")
            lines[tag].append(rest)
    for tag in ("vars", "dim", "order"):
        if len(lines[tag]) > 1:
            raise ParameterError(f"repeated {tag}: line")
    variables = " ".join(lines["vars"]).split()
    if not variables:
        raise ParameterError("presentation has no vars: line")
    for i, name in enumerate(variables):
        if name in variables[:i]:
            raise ParameterError(f"repeated variable {name!r} in vars: line")
    binomials = []
    for rest in lines["bin"]:
        parts = rest.split("-")
        if len(parts) != 2:
            raise ParameterError(
                f"binomial must be a pure difference of two monomials: {rest!r}"
            )
        binomials.append(PureDifferenceBinomial(
            *(parse_monomial(part, variables) for part in parts)))
    monomials = [parse_monomial(rest, variables) for rest in lines["mono"]]
    if not lines["dim"]:
        raise ParameterError("presentation has no dim: line")
    try:
        dimension = parse_int(lines["dim"][0])
    except ValueError:
        raise ParameterError(f"bad dim: value {lines['dim'][0]!r}") from None
    order = None
    for rest in lines["order"]:
        kind, _, chain = rest.partition(" ")
        perm = None
        if chain.strip():
            names = [v.strip() for v in chain.split(">")]
            if sorted(names) != sorted(variables):
                raise ParameterError(f"order chain {chain!r} does not match vars")
            perm = tuple(variables.index(v) for v in names)
        order = MonomialOrderSpec(kind, perm)
    return PresentedQuotient(tuple(variables), tuple(binomials),
                             tuple(monomials), dimension), order


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


def _make_element(u: Monomial, v: Monomial, order: MonomialOrderSpec) -> Element | None:
    """Sign-normalize; None means the element reduced to zero."""
    if u == v:
        return None
    if order.key(u) < order.key(v):
        u, v = v, u
    return (u, v)


class _Basis(list):
    """A basis that `_groebner_basis` built from checked generators, so
    `reduce` need not check it again."""

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


def _groebner_basis(p: PresentedQuotient, order: MonomialOrderSpec,
                    extra_monomials: tuple[Monomial, ...] = ()) -> _Basis:
    """A Groebner basis of the presentation ideal (plus any extra monomial
    generators, e.g. Frobenius powers) as Buchberger's loop leaves it: the
    generators, then each new element in the order found, with leads that
    need not be minimal and tails that need not be reduced."""
    perm, n = order.permutation, len(p.variables)
    if perm is not None and len(perm) != n:
        raise ParameterError(f"order permutation {perm} has {len(perm)} entries for {n} variables")
    _check_lengths(extra_monomials, n)
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
    return basis


def buchberger(p: PresentedQuotient, order: MonomialOrderSpec,
               extra_monomials: tuple[Monomial, ...] = ()) -> list[Element]:
    """Reduced Groebner basis of the presentation ideal (plus any extra
    monomial generators, e.g. Frobenius powers), sorted by leading term."""
    return _autoreduce(_groebner_basis(p, order, extra_monomials), order)


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
    """Generators of the initial ideal of a Groebner basis, sorted: its
    leads, since in(J) = <LT(G)> for every Groebner basis G of J.  For a
    reduced basis (as `buchberger` returns) they are distinct and are the
    minimal generators."""
    return sorted(e[0] for e in gb)


def krull_dimension(p: PresentedQuotient,
                    order: MonomialOrderSpec | None = None) -> int:
    """Krull dimension of the presented ring, read off the initial ideal of
    its relations: the size of the largest set of variables that contains
    the support of no leading term (-1 for the zero ring), that is, the
    number of variables minus the size of a smallest set of variables that
    meets every support.  Any Groebner basis serves: a lead that is not
    minimal has a support that contains a minimal lead's support.

    The variable of a one-variable support is in every such set.  Beyond
    those, k more variables are searched for with k = 0, 1, ... in turn,
    by branching on the variables of the first support, smallest first,
    that no chosen variable meets, so the search has depth at most k.
    """
    supports = sorted({frozenset(i for i, e in enumerate(lead) if e)
                       for lead, _ in _groebner_basis(p, order or _LEX)}, key=len)
    if supports and not supports[0]:
        return -1
    forced = frozenset().union(*(s for s in supports if len(s) == 1))

    def meets(chosen: frozenset[int], k: int) -> bool:
        missed = next((s for s in supports if not s & chosen), None)
        return missed is None or k > 0 and any(
            meets(chosen | {v}, k - 1) for v in missed)

    return len(p.variables) - len(forced) - next(
        k for k in itertools.count() if meets(forced, k))


def count_standard_monomials(gens: list[Monomial]) -> int:
    """Number of monomials outside the monomial ideal given by `gens`.

    Requires a pure power of every variable among the generators (so the
    count is finite), or the monomial 1, which gives 0.  Fewer than three
    variables are padded in front with variables whose first power is in
    the ideal, which leaves the count unchanged.

    One slab walk serves every variable x_i up to the third-to-last.  It
    sorts the generators that can still divide a point by their exponent
    of x_i.  That set changes only at those exponents, so each slab
    between consecutive exponents is counted once and multiplied by its
    width, and the pure power of x_i ends the walk.  Above the
    third-to-last variable a slab's count is the walk over x_(i+1).  At
    the third-to-last it is the area of a staircase of the last two
    exponents, into which each generator enters in turn.  The staircase
    keeps its corners as two lists, x ascending and y strictly
    descending, and its area.  It starts as the box of the last two pure
    powers, and its corners stay the minimal generators entered so far.
    Entering (a, b) takes one bisection, one step per corner it removes
    (each corner enters once) and one list splice.  So a walk over n
    generators takes O(n log n) steps beside the splices' memory moves.

    A level where only the pure power of x_i uses x_i (x_i is free there)
    is one slab: the walk multiplies by its width and goes on to x_(i+1)
    in the same frame.  A level of two or more slabs still recurses, one
    slab frame per coupled variable, so about 1,000 coupled variables
    still pass Python's recursion limit.
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

    def count(idx: int, active: list[Monomial]) -> int:
        # `active` holds the generators that divide the chosen point in the
        # variables before idx.  The pure powers of the remaining variables
        # are always among them, so it has at least three.
        scale = 1
        while True:
            active = sorted(active, key=itemgetter(idx))
            sweep = idx == nvars - 3
            if sweep or active[-2][idx]:
                break
            # one slab: the pure power of x_idx, sorted last, is the only
            # generator that uses x_idx
            scale *= active.pop()[idx]
            idx += 1
        xs, ys, area = [0, width], [height, 0], width * height
        total = lo = k = 0  # above the sweep, active[:k] precede g
        for g in active:
            c = g[idx]
            if c > lo:
                total += (c - lo) * (area if sweep else count(idx + 1, active[:k]))
                lo = c
            if not sweep:
                if not any(g[idx + 1:]):
                    break  # x_idx^c already divides every extension
                k += 1
                continue
            a, b = g[-2], g[-1]  # the sweep: g enters the staircase
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
        return scale * total

    return count(0, gens)


def frobenius_colength(p: PresentedQuotient, q: int,
                       order: MonomialOrderSpec | None = None) -> int:
    """Colength of the q-th bracket power of the maximal ideal of the
    presented quotient: the standard monomials of in(I + m^[q]).

    That ideal is generated by the leading terms of any Groebner basis of
    I + m^[q] (Cox-Little-O'Shea, ch. 2 par. 5), so the basis is counted
    as Buchberger's loop leaves it, without the inter-reduction that
    `buchberger` adds; `count_standard_monomials` takes a generating set
    that is not minimal."""
    if q < 1:
        raise ParameterError(f"q must be >= 1, got {q}")
    if order is None:
        order = _LEX
    nvars = len(p.variables)
    powers = tuple((0,) * i + (q,) + (0,) * (nvars - 1 - i) for i in range(nvars))
    gb = _groebner_basis(p, order, extra_monomials=powers)
    return count_standard_monomials(initial_ideal(gb))
