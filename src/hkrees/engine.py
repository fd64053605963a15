"""Buchberger engine for ideals generated by monomials and pure-difference
binomials (two monomials with coefficients +1/-1).

This class of generating sets is closed under S-pairs and reduction: every
intermediate element is again a monomial or a pure difference, so no field
arithmetic is needed and every computed colength is independent of the
characteristic.  Frobenius colengths are obtained as standard-monomial
counts of the initial ideal.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from operator import lshift
from dataclasses import dataclass

from .errors import ClosureError, DimensionError, ParameterError
from .exact import parse_int

Monomial = tuple[int, ...]
# An element is (lead, tail): tail is None for a monomial, otherwise the
# smaller monomial of a pure difference lead - tail.
Element = tuple[Monomial, Monomial | None]


@dataclass(frozen=True)
class MonomialOrderSpec:
    """A lex or graded-reverse-lex order; permutation[0] is the largest variable."""

    kind: str = "lex"
    permutation: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("lex", "grevlex"):
            raise ParameterError(f"unknown order kind {self.kind!r}")
        if self.permutation is not None:
            if sorted(self.permutation) != list(range(len(self.permutation))):
                raise ParameterError(f"not a permutation: {self.permutation}")

    def key(self, m: Monomial):
        if self.permutation is not None:
            m = tuple(map(m.__getitem__, self.permutation))
        if self.kind == "lex":
            return m
        return (sum(m), tuple(map(operator.neg, reversed(m))))


_LEX = MonomialOrderSpec("lex")


@dataclass(frozen=True)
class PureDifferenceBinomial:
    plus: Monomial
    minus: Monomial

    def __post_init__(self):
        if self.plus == self.minus:
            raise ParameterError("binomial with equal terms is zero")
        if len(self.plus) != len(self.minus):
            raise ParameterError("mismatched variable counts")


@dataclass(frozen=True)
class PresentedQuotient:
    """A graded quotient ring: variables, pure-difference binomial relations,
    monomial relations, and its declared Krull dimension."""

    variables: tuple[str, ...]
    binomials: tuple[PureDifferenceBinomial, ...] = ()
    monomials: tuple[Monomial, ...] = ()
    dimension: int = 1

    def __post_init__(self):
        if len(self.variables) < 1:
            raise ParameterError("need at least one variable")
        if self.dimension < 1:
            raise ParameterError("dimension must be >= 1")


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


class _PackedBasis(list):
    """A list of elements that also keeps their terms packed into ints:
    `leads[k]` and `tails[k]` are element k's lead and tail (0 for none).

    Variable i takes the bits [i*f, (i+1)*f) with f = width + 1, and the
    top bit of each field is a guard, clear while every exponent is below
    2^width.  For packed a and b with clear guards, a divides b iff
    (b - a) & guard == 0: a field with a_i <= b_i subtracts without a
    borrow, and the lowest field with a_i > b_i wraps and sets its guard.
    The width comes from the largest exponent present, plus one spare bit;
    a term that does not fit makes `widen` re-pack everything wider, so no
    field ever wraps into the next.
    """

    __slots__ = ("nvars", "limit", "shifts", "guard", "leads", "tails")

    def __init__(self, elements: list[Element], nvars: int):
        super().__init__(elements)
        self.nvars = nvars
        terms = filter(None, itertools.chain.from_iterable(self))  # tails may be None
        exponents = list(itertools.chain.from_iterable(terms))
        if min(exponents, default=0) < 0:
            for e in self:
                _check_closure(e)  # names the element
        self.widen(max(exponents, default=0))

    def widen(self, top: int):
        """Make every exponent up to `top` fit, and re-pack."""
        width = top.bit_length() + 1
        field = width + 1
        self.limit = 1 << width
        self.shifts = shifts = range(0, self.nvars * field, field)
        # one guard bit per field: a repunit in base 2^field, shifted up
        self.guard = ((1 << self.nvars * field) - 1) // ((1 << field) - 1) << width
        leads, tails = self.leads, self.tails = [], []
        for lead, tail in self:
            leads.append(sum(map(lshift, lead, shifts)))
            tails.append(0 if tail is None else sum(map(lshift, tail, shifts)))

    def append(self, e: Element):
        """Append `e`, which `reduce` against this basis returned, so its
        terms fit the fields."""
        super().append(e)
        lead, tail = e
        self.leads.append(sum(map(lshift, lead, self.shifts)))
        self.tails.append(0 if tail is None else sum(map(lshift, tail, self.shifts)))

    def select(self, indices: list[int]) -> _PackedBasis:
        """The elements at `indices`, in that order, with the same packing."""
        chosen = _PackedBasis.__new__(_PackedBasis)
        chosen.extend(map(self.__getitem__, indices))
        chosen.nvars, chosen.limit = self.nvars, self.limit
        chosen.shifts, chosen.guard = self.shifts, self.guard
        chosen.leads = list(map(self.leads.__getitem__, indices))
        chosen.tails = list(map(self.tails.__getitem__, indices))
        return chosen


def reduce(element: Element, basis: list[Element], order: MonomialOrderSpec) -> Element | None:
    """Full normal form of a monomial or pure-difference element.

    Reduction by a binomial rewrites a term along the relation; reduction by
    a monomial deletes a term.  Either way the result stays in the
    monomial/pure-difference class (coefficients stay +-1), which is what
    keeps the whole engine characteristic-free.  Each step rewrites by the
    first basis element whose lead divides a term, testing the lead term
    before the tail.
    """
    if not isinstance(basis, _PackedBasis):
        _check_closure(element)
        basis = _PackedBasis(basis, len(element[0]))
    lead, tail = element
    stale = True
    while True:
        if stale:
            top = max(lead) if tail is None else max(max(lead), max(tail))
            if top >= basis.limit:
                basis.widen(top)
            shifts, guard, leads, tails = basis.shifts, basis.guard, basis.leads, basis.tails
            packed_lead = sum(map(lshift, lead, shifts))
            packed_tail = 0 if tail is None else sum(map(lshift, tail, shifts))
            stale = False
        for i, b in enumerate(leads):
            if not (packed_lead - b) & guard:
                break
        else:
            i = len(leads)
        k = i
        if tail is not None:
            # only a lead before the lead term's first divisor can win
            for j in range(i):
                if not (packed_tail - leads[j]) & guard:
                    k = j
                    break
        if k < i:
            term, packed, other, packed_other = tail, packed_tail, lead, packed_lead
        elif i < len(leads):
            term, packed, other, packed_other = lead, packed_lead, tail, packed_tail
        else:
            return _check_closure((lead, tail))
        bl, bt = basis[k]
        if bt is None:
            if other is None:
                return None
            lead, packed_lead, tail, packed_tail = other, packed_other, None, 0
        else:
            # packed arithmetic cannot borrow (bl divides term) or carry (every
            # field stays below 2^(width+1)); a set guard means it needs widening
            term, packed = _add(_sub(term, bl), bt), packed - leads[k] + tails[k]
            if min(term) < 0:
                raise ClosureError(f"negative exponent in {term}")
            if other is None:
                lead, packed_lead = term, packed
            elif term == other:
                return None
            elif order.key(term) < order.key(other):
                lead, packed_lead, tail, packed_tail = other, packed_other, term, packed
            else:
                lead, packed_lead, tail, packed_tail = term, packed, other, packed_other
            stale = (packed_lead | packed_tail) & guard


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
    basis = _PackedBasis(gens, len(p.variables))  # checks the exponents

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


def _autoreduce(basis: _PackedBasis, order: MonomialOrderSpec) -> list[Element]:
    """The unique reduced basis, sorted by leading term: one pass keeps the
    elements whose lead no smaller lead divides, then reduces each tail
    against the others."""
    leads, guard = basis.leads, basis.guard
    keys = [order.key(lead) for lead, _ in basis]
    keep: list[int] = []
    kept: list[int] = []  # their packed leads
    for k in sorted(range(len(basis)), key=keys.__getitem__):
        # a divisor of a monomial precedes it in every monomial order
        lead = leads[k]
        for m in kept:
            if not (lead - m) & guard:
                break
        else:
            keep.append(k)
            kept.append(lead)
    # No lead divides another, so only binomial tails reduce, and a tail
    # never reduces to its own lead: no element vanishes or changes lead.
    return [basis[k] if basis[k][1] is None
            else reduce(basis[k], basis.select(keep[:i] + keep[i + 1:]), order)
            for i, k in enumerate(keep)]


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
    count is finite).  Splits on one variable at a time: the generators
    that can still divide a point change only at their own exponents in
    that variable, so each slab between consecutive exponents is counted
    once and multiplied by its width; the last two variables are a
    staircase area.
    """
    if not gens:
        raise DimensionError("empty generating set has infinite colength")
    nvars = len(gens[0])
    bounds = [None] * nvars
    for g in gens:
        support = [i for i, e in enumerate(g) if e > 0]
        if len(support) == 1:
            i = support[0]
            if bounds[i] is None or g[i] < bounds[i]:
                bounds[i] = g[i]
    missing = [i for i, b in enumerate(bounds) if b is None]
    if missing:
        raise DimensionError(
            f"no pure-power generator for variable index(es) {missing}; "
            "quotient is not Artinian"
        )

    def count(idx: int, active: list[Monomial]) -> int:
        # `active` holds the generators that divide the chosen point in the
        # variables before idx.  The pure powers of the remaining variables
        # are always among them, so it is never empty.
        if idx == nvars - 1:
            return min(g[idx] for g in active)
        if idx == nvars - 2:
            area, prev, height = 0, 0, bounds[idx + 1]
            for a, b in sorted((g[idx], g[idx + 1]) for g in active):
                area += (a - prev) * height
                prev = a
                if b < height:
                    height = b
                    if not height:
                        break
            return area
        # Slabs run from one exponent of x_idx among the generators to the
        # next; the pure power of x_idx ends the last one.
        active = sorted(active, key=lambda g: g[idx])
        total, k = 0, 0
        while True:
            lo = active[k][idx]
            while active[k][idx] == lo:
                if not any(active[k][idx + 1:]):
                    return total  # x_idx^lo already divides every extension
                k += 1
            total += (active[k][idx] - lo) * count(idx + 1, active[:k])

    return count(0, list(gens))


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


# ---------------------------------------------------------------------------
# Presentation text format


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

    `vars:`, `dim:` and `order:` may each appear once, in any line; every
    integer follows `exact.parse_int`.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            tag, _, rest = line.partition(":")
            lines.append((tag.strip(), rest.strip()))
    # the other lines name the variables, so vars: is read first
    declared = [rest for tag, rest in lines if tag == "vars"]
    if len(declared) > 1:
        raise ParameterError("repeated vars: line")
    variables = declared[0].split() if declared else []
    if not variables:
        raise ParameterError("presentation has no vars: line")
    for i, name in enumerate(variables):
        if name in variables[:i]:
            raise ParameterError(f"repeated variable {name!r} in vars: line")
    binomials: list[PureDifferenceBinomial] = []
    monomials: list[Monomial] = []
    dimension = None
    order = None
    once: set[str] = set()
    for tag, rest in lines:
        if tag in ("dim", "order"):
            if tag in once:
                raise ParameterError(f"repeated {tag}: line")
            once.add(tag)
        if tag == "vars":
            continue
        elif tag == "bin":
            parts = rest.split("-")
            if len(parts) != 2:
                raise ParameterError(
                    f"binomial must be a pure difference of two monomials: {rest!r}"
                )
            binomials.append(
                PureDifferenceBinomial(
                    parse_monomial(parts[0], variables),
                    parse_monomial(parts[1], variables),
                )
            )
        elif tag == "mono":
            monomials.append(parse_monomial(rest, variables))
        elif tag == "dim":
            try:
                dimension = parse_int(rest)
            except ValueError:
                raise ParameterError(f"bad dim: value {rest!r}") from None
        elif tag == "order":
            kind, _, chain = rest.partition(" ")
            perm = None
            if chain.strip():
                names = [v.strip() for v in chain.split(">")]
                if sorted(names) != sorted(variables):
                    raise ParameterError(f"order chain {chain!r} does not match vars")
                perm = tuple(variables.index(v) for v in names)
            order = MonomialOrderSpec(kind, perm)
        else:
            raise ParameterError(f"unknown line tag {tag!r}")
    if dimension is None:
        raise ParameterError("presentation has no dim: line")
    pq = PresentedQuotient(
        tuple(variables), tuple(binomials), tuple(monomials), dimension
    )
    return pq, order

