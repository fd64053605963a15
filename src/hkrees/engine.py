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
        perm = self.permutation or tuple(range(len(m)))
        if self.kind == "lex":
            return tuple(m[i] for i in perm)
        return (sum(m), tuple(-m[i] for i in reversed(perm)))


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


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(map(operator.le, a, b))


def _sub(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(operator.sub, a, b))


def _add(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(operator.add, a, b))


def _lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def _check_closure(e: Element) -> Element:
    lead, tail = e
    if any(x < 0 for x in lead) or (tail is not None and any(x < 0 for x in tail)):
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


def reduce(element: Element, basis: list[Element], order: MonomialOrderSpec) -> Element | None:
    """Full normal form of a monomial or pure-difference element.

    Reduction by a binomial rewrites a term along the relation; reduction by
    a monomial deletes a term.  Either way the result stays in the
    monomial/pure-difference class (coefficients stay +-1), which is what
    keeps the whole engine characteristic-free.
    """
    current: Element | None = element
    while current is not None:
        lead, tail = current
        for bl, bt in basis:
            if _divides(bl, lead):
                if bt is None:
                    current = (tail, None) if tail is not None else None
                else:
                    current = _make_element(_add(_sub(lead, bl), bt), tail, order)
                break
            if tail is not None and _divides(bl, tail):
                if bt is None:
                    current = (lead, None)
                else:
                    # replacement term is strictly below tail, so lead stays lead
                    current = _make_element(lead, _add(_sub(tail, bl), bt), order)
                break
        else:
            return _check_closure(current)
        if current is not None:
            _check_closure(current)
    return None


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
    basis: list[Element] = []
    for b in p.binomials:
        e = _make_element(b.plus, b.minus, order)
        if e is not None:
            basis.append(_check_closure(e))
    for m in tuple(p.monomials) + tuple(extra_monomials):
        basis.append(_check_closure((m, None)))

    # Pairs leave the heap by lcm degree; the insertion sequence number
    # breaks ties first-in first-out.  Two kinds of pair never enter: two
    # monomials (their S-pair is zero) and coprime leads (it reduces to
    # zero).
    pairs: list[tuple[int, int, Monomial, int, int]] = []
    seq = itertools.count()

    def push_pairs(k: int):
        lead, tail = basis[k]
        for t in range(k):
            other, other_tail = basis[t]
            if tail is None and other_tail is None:
                continue
            lcm = _lcm(lead, other)
            if lcm == _add(lead, other):
                continue
            heapq.heappush(pairs, (sum(lcm), next(seq), lcm, k, t))

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


def _autoreduce(basis: list[Element], order: MonomialOrderSpec) -> list[Element]:
    """The unique reduced basis, sorted by leading term: one pass keeps the
    elements whose lead no smaller lead divides, then reduces each tail
    against the others."""
    minimal: list[Element] = []
    for e in sorted(basis, key=lambda e: order.key(e[0])):
        # a divisor of a monomial precedes it in every monomial order
        if not any(_divides(m[0], e[0]) for m in minimal):
            minimal.append(e)
    # No lead divides another, so only binomial tails reduce, and a tail
    # never reduces to its own lead: no element vanishes or changes lead.
    return [e if e[1] is None else reduce(e, minimal[:i] + minimal[i + 1:], order)
            for i, e in enumerate(minimal)]


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
    order = order or MonomialOrderSpec("lex")
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
        order = MonomialOrderSpec("lex")
    nvars = len(p.variables)
    powers = tuple(
        tuple(q if j == i else 0 for j in range(nvars)) for i in range(nvars)
    )
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

    `vars:`, `dim:` and `order:` may each appear once; every integer
    follows `exact.parse_int`.
    """
    variables: list[str] = []
    binomials: list[PureDifferenceBinomial] = []
    monomials: list[Monomial] = []
    dimension = None
    order = None
    once: set[str] = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tag, _, rest = line.partition(":")
        tag, rest = tag.strip(), rest.strip()
        if tag in ("vars", "dim", "order"):
            if tag in once:
                raise ParameterError(f"repeated {tag}: line")
            once.add(tag)
        if tag == "vars":
            variables = rest.split()
            for i, name in enumerate(variables):
                if name in variables[:i]:
                    raise ParameterError(f"repeated variable {name!r} in vars: line")
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
    if not variables:
        raise ParameterError("presentation has no vars: line")
    if dimension is None:
        raise ParameterError("presentation has no dim: line")
    pq = PresentedQuotient(
        tuple(variables), tuple(binomials), tuple(monomials), dimension
    )
    return pq, order

