"""Reference routes that only the tests use.  Each reaches a value the
package computes another way, so the two routes check each other:

- `stirling2_by_sum`: S(n, k) by the alternating sum, against the
  recurrence behind `hkrees.exact.stirling2`;
- `alpha_q`: bounded monomial counts by inclusion-exclusion, against
  enumeration and the lattice counters;
- `segre_colength_by_alpha_q`, `veronese_beta_by_alpha` and
  `veronese_rees_colength_by_alpha_q`: the Segre and Veronese Rees
  colengths as alpha sums at q itself, with alpha_q by inclusion-exclusion,
  against `hkrees.lattice`, which sums its alpha tables only at the nodes
  q = 1..D+1 and reads every other q from them;
- `ci_extrees_colength_by_sum`: the extended Rees colength of (x^m, y^n)
  as a sum of min(q, Delta_m(a), Delta_n(b)) over the points (a, b),
  against the engine;
- `fc_density`: the piecewise-polynomial density whose moments are the
  limits `hkrees.closed_forms.veronese_I_limits` evaluates as finite sums;
- `buchberger_by_scan` and `reduce_by_scan`: the Buchberger engine with
  its own divisibility test and monomial order keys, re-normalizing the
  element after every step, against `hkrees.engine`, which rewrites one
  term in place;
- `count_standard_monomials_by_slabs`: standard monomials counted slab by
  slab, with a fresh staircase for every slab of the third-to-last
  variable, against the single staircase sweep of
  `hkrees.engine.count_standard_monomials`;
- `krull_dimension_by_subsets`: the Krull dimension by trying every set
  of variables from the largest down, on the minimal leads of the scan
  engine's reduced basis, against the minimum hitting set search of
  `hkrees.engine.krull_dimension` on the leads of an unreduced basis;
- `build_parser`: the argparse parser the CLI used before it parsed argv
  from its own command tables, against `hkrees.cli.parse_args`.
"""

from __future__ import annotations

import argparse
import functools
import heapq
import itertools
import math
import operator
from fractions import Fraction

from hkrees import checks, presets
from hkrees.cli import FORMULAS, cmd_cache, cmd_check, cmd_formula, cmd_oracle
from hkrees.closed_forms import VeroneseParams, alpha
from hkrees.engine import _add, _check_closure, _lcm, _sub
from hkrees.errors import DimensionError, ParameterError
from hkrees.exact import binomial, factorial, parse_int


def stirling2_by_sum(n: int, k: int) -> int:
    """S(n, k) via the alternating sum (1/k!) sum_i (-1)^(k-i) C(k,i) i^n."""
    if n < 0 or k < 0:
        raise ParameterError(f"stirling2 requires n, k >= 0, got ({n}, {k})")
    if k == 0:
        return 1 if n == 0 else 0
    total = sum((-1) ** (k - i) * binomial(k, i) * i**n for i in range(k + 1))
    num, rem = divmod(total, factorial(k))
    assert rem == 0, "alternating Stirling sum not divisible by k!"
    return num


def alpha_q(d: int, n: int, q: int) -> int:
    """Number of degree-n monomials in d variables with every exponent < q,
    by inclusion-exclusion over which exponents reach q."""
    if d < 1 or q < 1:
        raise ParameterError(f"alpha_q requires d, q >= 1, got d={d}, q={q}")
    return sum((-1) ** i * binomial(d, i) * alpha(d, n - i * q) for i in range(d + 1))


def segre_colength_by_alpha_q(c: int, d: int, q: int) -> int:
    """The Segre colength: sum over n of alpha(c, n) alpha_q(d, n, q) +
    alpha_q(c, n, q) alpha(d, n) - alpha_q(c, n, q) alpha_q(d, n, q)."""
    total = 0
    for n in range(max(c, d) * (q - 1) + 1):
        acq, adq = alpha_q(c, n, q), alpha_q(d, n, q)
        total += alpha(c, n) * adq + acq * alpha(d, n) - acq * adq
    return total


def veronese_beta_by_alpha(d: int, c: int, n: int, q: int) -> int:
    """beta_{n,cq} = sum over l < c of alpha(d, l) alpha_cq(d, c(n - lq)),
    with alpha_cq by inclusion-exclusion."""
    return sum(
        alpha(d, l) * (-1) ** i * binomial(d, i) * alpha(d, c * (n - l * q - i * q))
        for l in range(c)
        for i in range(d + 1)
    )


def veronese_rees_colength_by_alpha_q(c: int, d: int, q: int) -> int:
    """The Veronese Rees colength: sum over n of (n + 1) beta_n, plus the
    sum over n < 2cq - 1 of alpha_cq(2, n) (alpha(d, cn) - beta_n); beta_n
    vanishes from n = (c+d-1)q on."""
    cq = c * q
    betas = [veronese_beta_by_alpha(d, c, n, q) for n in range(max(c + d - 1, 2 * c) * q)]
    total = sum((n + 1) * b for n, b in enumerate(betas))
    for n in range(2 * cq - 1):
        total += alpha_q(2, n, cq) * (alpha(d, c * n) - betas[n])
    return total


def ci_extrees_colength_by_sum(m: int, n: int, q: int) -> int:
    """The colength of M^[q] on the extended Rees algebra of (x^m, y^n):
    the sum over a < mq, b < nq of min(q, Delta_m(a), Delta_n(b)), where
    Delta_m(a) = floor(a/m) - floor((a-q)/m) for a >= q and is infinite
    for a < q."""
    def delta(a: int, k: int) -> int:
        return q if a < q else a // k - (a - q) // k

    return sum(min(q, delta(a, m), delta(b, n))
               for a in range(m * q) for b in range(n * q))


def fc_density(p: VeroneseParams, t: Fraction) -> Fraction:
    """The piecewise-polynomial density whose moments are the I_k limits;
    vanishes for t >= c + d - 1."""
    c, d = p.c, p.d
    if d < 2:
        raise ParameterError(f"density requires d >= 2, got d={d}")
    t = Fraction(t)
    if t < 0:
        raise ParameterError(f"density defined for t >= 0, got {t}")
    ft = math.floor(t)
    total = Fraction(0)
    for l in range(min(c - 1, ft) + 1):
        inner = Fraction(0)
        for i in range(min(d, ft - l) + 1):
            inner += (-1) ** i * binomial(d, i) * (t - l - i) ** (d - 1)
        total += alpha(d, l) * inner
    return total / (c * factorial(d - 1))


def order_key(order, m):
    """Sort key of monomial m under a `MonomialOrderSpec`."""
    perm = order.permutation or tuple(range(len(m)))
    if order.kind == "lex":
        return tuple(m[i] for i in perm)
    return (sum(m), tuple(-m[i] for i in reversed(perm)))


def _divides(a, b):
    return all(map(operator.le, a, b))


def _make_element(u, v, order):
    if v is None:
        return (u, None)
    if u == v:
        return None
    if order_key(order, u) < order_key(order, v):
        u, v = v, u
    return (u, v)


def reduce_by_scan(element, basis, order):
    """Normal form of `element`: each step rewrites by the first basis
    element whose lead divides the lead term, or else the tail."""
    current = element
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
                    current = _make_element(lead, _add(_sub(tail, bl), bt), order)
                break
        else:
            return _check_closure(current)
        if current is not None:
            _check_closure(current)
    return None


def buchberger_by_scan(p, order, extra_monomials=()):
    """Reduced Groebner basis, sorted by lead: S-pairs by lcm degree, first
    in first out, skipping monomial pairs and coprime leads; then one
    minimal-lead pass and tail reduction."""
    basis = []
    for b in p.binomials:
        e = _make_element(b.plus, b.minus, order)
        if e is not None:
            basis.append(_check_closure(e))
    for m in tuple(p.monomials) + tuple(extra_monomials):
        basis.append(_check_closure((m, None)))
    pairs = []
    seq = itertools.count()

    def push_pairs(k):
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
        (li, ti), (lj, tj) = basis[i], basis[j]
        if ti is None:
            s = (_add(_sub(lcm, lj), tj), None)
        elif tj is None:
            s = (_add(_sub(lcm, li), ti), None)
        else:
            s = _make_element(_add(_sub(lcm, li), ti), _add(_sub(lcm, lj), tj), order)
        r = None if s is None else reduce_by_scan(s, basis, order)
        if r is not None:
            basis.append(r)
            push_pairs(len(basis) - 1)

    minimal = []
    for e in sorted(basis, key=lambda e: order_key(order, e[0])):
        if not any(_divides(m[0], e[0]) for m in minimal):
            minimal.append(e)
    return [e if e[1] is None else reduce_by_scan(e, minimal[:i] + minimal[i + 1:], order)
            for i, e in enumerate(minimal)]


def count_standard_monomials_by_slabs(gens):
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


def krull_dimension_by_subsets(p, order):
    """Krull dimension of the presented ring: the size of the largest set
    of variables that contains the support of no minimal leading term of
    the reduced basis (-1 for the zero ring)."""
    supports = {frozenset(i for i, e in enumerate(lead) if e)
                for lead, _ in buchberger_by_scan(p, order)}
    nvars = len(p.variables)
    for size in range(nvars, -1, -1):
        for chosen in itertools.combinations(range(nvars), size):
            if not any(s.issubset(chosen) for s in supports):
                return size
    return -1


# No argument has a mutable default, so one parser serves every call.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hkrees",
        description="Exact Hilbert-Kunz multiplicities of Rees-type families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")

    def add_params(p):
        for flag in ("c", "d", "m", "n"):
            p.add_argument(f"--{flag}", type=parse_int)

    f = sub.add_parser("formula", help="evaluate a closed form")
    f.add_argument("family", choices=list(FORMULAS))
    add_params(f)
    f.add_argument("--ds", help="comma list of first exponent block")
    f.add_argument("--es", help="comma list of second exponent block")
    add_common(f)
    f.set_defaults(func=cmd_formula)

    o = sub.add_parser("oracle", help="finite-q colengths and estimate")
    o.add_argument("--preset", required=True, choices=list(presets.FAMILIES))
    add_params(o)
    o.add_argument("--file", help="semigroup or presentation file")
    o.add_argument("--q", help="comma list of grid values (default 8,16,32)")
    o.add_argument("--grid", help="pow2 (default; --q taken literally) or "
                   "primepow:p (--q entries are exponents of p)")
    o.add_argument("--order", choices=["lex", "grevlex"])
    o.add_argument("--cache-dir", help="directory for the colength cache")
    add_common(o)
    o.set_defaults(func=cmd_oracle)

    k = sub.add_parser("check", help="run an invariant suite")
    k.add_argument("--suite", required=True, choices=list(checks.SUITES))
    add_common(k)
    k.set_defaults(func=cmd_check)

    c = sub.add_parser("cache", help="inspect or clear the colength cache")
    c.add_argument("action", choices=["inspect", "clear"])
    c.add_argument("--cache-dir", required=True)
    add_common(c)
    c.set_defaults(func=cmd_cache)

    return parser
