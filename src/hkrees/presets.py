"""Named ring-family presets bundling a colength counter, the Krull
dimension used for normalization, and the closed-form target when one is
known.  Every preset carries a canonical description string used for cache
keying, so identical computations hit the same cache entries regardless of
how they were requested.  The Segre, Veronese Rees and semigroup presets
create one node table for their counter (see `toric`) each time one is
built.

The A_n engine presets, `an_hypersurface` (n >= 2) and `an_extrees`, are
toric twins: each computes its twin's period when it is built, creates
a node table, and reads large q from the nodes (see `_engine_preset`).
`ci_extrees` and `presentation` have no twin and run the engine at
every q.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from . import closed_forms as cf
from . import engine, lattice, toric
from .errors import DimensionError, ParameterError
from .estimator import ColengthSample

# Each --preset family's CLI flags, in the order its builder (the function
# of the same name in snake case) takes them.  "file" is read into a
# semigroup or a presentation; "order", the engine's monomial order, may be
# left out.
FAMILIES = {
    "an-hypersurface": ("n", "order"),
    "an-extrees": ("n", "order"),
    "segre": ("c", "d"),
    "veronese-rees": ("c", "d"),
    "ci-rees": ("m", "n"),
    "ci-extrees": ("m", "n", "order"),
    "semigroup": ("file",),
    "semigroup-extrees": ("file",),
    "presentation": ("file", "order"),
}


class Preset(NamedTuple):
    description: str
    dimension: int
    counter: Callable[[int], int]
    target: Fraction | None = None
    q_scale: int = 1

    def sample(self, q: int) -> ColengthSample:
        """Colength sample at grid value q; the recorded q is scaled when
        the counter's natural bracket exponent is a multiple of q."""
        return ColengthSample(self.q_scale * q, self.counter(q))


# The built-in engine rings, written in the presentation format that
# `oracle --file` reads.  Each preset takes its dimension from the dim: line.
ENGINE_RINGS = {
    "an-hypersurface": lambda n: f"vars: x y z\nbin: x*y - z^{n}\ndim: 2\n",
    "an-extrees": lambda n: f"vars: x y z w\nbin: x*y - z^{n}*w^{n - 2}\ndim: 3\n",
    "ci-extrees": lambda m, n: (
        f"vars: x y z w t\nbin: x^{m} - z*t\nbin: y^{n} - w*t\ndim: 3\n"),
}


def ci_extrees_presentation(m: int, n: int) -> engine.PresentedQuotient:
    """Extended Rees algebra of (x^m, y^n) in k[x, y], presented on five
    variables with relations x^m - zt and y^n - wt."""
    return engine.parse_presentation(ENGINE_RINGS["ci-extrees"](m, n))[0]


def _engine_preset(description: str, p: engine.PresentedQuotient,
                   order: engine.MonomialOrderSpec | None,
                   target: Fraction | None = None,
                   twin: toric.Semigroup2D | None = None) -> Preset:
    """A preset that counts with `engine.frobenius_colength` under `order`.

    With a twin, the ring is k[S] (dim 2) or R'(m) over k[S] (dim 3) for
    the normal semigroup S = twin.  For A_n, S = <(0,n), (1,1), (n,0)>:
    z -> (1,1), x -> (n,0) and y -> (0,n) map k[x,y,z]/(xy - z^n) onto
    k[S], as xy and z^n both go to (n,n), and with w -> t^-1 (and the
    three others times t) k[x,y,z,w]/(xy - z^n w^(n-2)) onto R'(m), as
    both sides go to ((n,n), 2).  Source and image are domains of the
    same dimension (the relation is linear in x, so irreducible), so these
    are isomorphisms, and they map (x^q, y^q, z^q[, w^q]) onto the M^[q]
    of `lattice`, whose (q g_i, 0) is (q g_i, q) times (0, -q).  S is
    normal: ZS = {x = y mod n}, and each of its points (x, y) in the
    quadrant is min(x, y) (1,1) plus a multiple of (n,0) or (0,n).  So by
    `toric` the colength is, for every q >= 1, a polynomial of degree dim
    on each residue class of q mod P = `toric.period(S, dim)`.

    A Buchberger run costs a fixed part plus a part that grows with q.
    With r = (q - 1) mod P, the nodes r + 1 + jP, j = 0..dim, sum to
    (dim+1)(r+1) + P dim(dim+1)/2: below that sum the engine runs at q,
    and from it on `toric.polynomial_in_q` reads q from the nodes.  P is
    computed here, and one node table keeps every value counted.
    """
    def count(q: int) -> int:
        return engine.frobenius_colength(p, q, order)

    if twin is None:
        return Preset(description, p.dimension, count, target)
    dim, table = p.dimension, {}
    period = toric.period(twin, dim)

    def counter(q: int) -> int:
        r = (q - 1) % period
        if q >= (dim + 1) * (r + 1) + period * dim * (dim + 1) // 2:
            return toric.polynomial_in_q(count, dim, q, period, table)
        if q not in table:
            table[q] = count(q)
        return table[q]

    return Preset(description, dim, counter, target)


def an_hypersurface(n: int,
                    order: engine.MonomialOrderSpec | None = None) -> Preset:
    """The binomial hypersurface k[x,y,z]/(xy - z^n)."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    p, _ = engine.parse_presentation(ENGINE_RINGS["an-hypersurface"](n))
    twin = lattice.semigroup_binomial_an(n) if n >= 2 else None
    return _engine_preset(f"an-hypersurface n={n}", p, order,
                          cf.conca_ehk([1, 1], [n]), twin)


def an_extrees(n: int,
               order: engine.MonomialOrderSpec | None = None) -> Preset:
    """k[x,y,z,w]/(xy - z^n w^(n-2)): the extended Rees algebra of the
    maximal ideal of the n-th binomial hypersurface."""
    target = cf.an_extrees_ehk(n)  # rejects n < 2
    p, _ = engine.parse_presentation(ENGINE_RINGS["an-extrees"](n))
    return _engine_preset(f"an-extrees n={n}", p, order, target,
                          lattice.semigroup_binomial_an(n))


def segre(c: int, d: int) -> Preset:
    """Segre product of polynomial rings in c and d variables."""
    table: dict = {}
    return Preset(
        description=f"segre c={c} d={d}",
        dimension=c + d - 1,
        counter=lambda q: lattice.segre_colength(c, d, q, table),
        target=cf.segre_ehk(cf.SegreParams(c, d)),
    )


def veronese_rees(c: int, d: int) -> Preset:
    """Rees algebra of the maximal ideal over the degree-c Veronese of a
    d-variable polynomial ring.  The counter works with bracket exponent
    cq, so samples are recorded at effective q = cq."""
    target = None
    if d >= 2:
        target = cf.veronese_rees_ehk_general(cf.VeroneseParams(c, d))
    elif d == 1 and c >= 1:
        target = Fraction(1)
    table: dict = {}
    return Preset(
        description=f"veronese-rees c={c} d={d}",
        dimension=d + 1,
        counter=lambda q: lattice.veronese_rees_colength(c, d, q, table),
        target=target,
        q_scale=c,
    )


def ci_rees(m: int, n: int) -> Preset:
    """Rees algebra of I = (x^m, y^n) in k[x, y], via the point-by-point
    counter `lattice.ci_rees_colength` on the maximal homogeneous ideal;
    the staircase counter `lattice.rees_monomial_colength` is its test
    oracle."""
    return Preset(
        description=f"ci-rees m={m} n={n}",
        dimension=3,
        counter=lambda q: lattice.ci_rees_colength(m, n, q),
        target=cf.ci_rees_values(m, n).ehk_rees,
    )


def ci_extrees(m: int, n: int,
               order: engine.MonomialOrderSpec | None = None) -> Preset:
    """Extended Rees algebra of (x^m, y^n), via the Buchberger engine."""
    target = cf.ci_rees_values(m, n).ehk_extrees  # rejects m, n < 1
    return _engine_preset(f"ci-extrees m={m} n={n}",
                          ci_extrees_presentation(m, n), order, target)


def _generators(s: toric.Semigroup2D) -> str:
    return " ".join(f"({a},{b})" for a, b in s.generators)


def semigroup(s: toric.Semigroup2D) -> Preset:
    """Affine semigroup ring k[S] for a rank-2 semigroup."""
    table: dict = {}
    return Preset(
        description=f"semigroup {_generators(s)}",
        dimension=2,
        counter=lambda q: lattice.semigroup_ehk_colength(s, q, table),
    )


def semigroup_extrees(s: toric.Semigroup2D) -> Preset:
    """Extended Rees algebra of the maximal ideal of k[S]."""
    table: dict = {}
    return Preset(
        description=f"semigroup-extrees {_generators(s)}",
        dimension=3,
        counter=lambda q: lattice.semigroup_extrees_colength(s, q, table),
    )


def presentation(p: engine.PresentedQuotient,
                 order: engine.MonomialOrderSpec | None = None) -> Preset:
    """Arbitrary presented quotient fed straight to the engine.  Its
    declared dimension must be the Krull dimension of its relations."""
    actual = engine.krull_dimension(p, order)
    if actual != p.dimension:
        raise DimensionError(
            f"declared dim: {p.dimension}, but the relations give Krull "
            f"dimension {actual}"
        )
    parts = [f"vars={','.join(p.variables)}"]
    for b in p.binomials:
        parts.append(f"bin={b.plus}-{b.minus}")
    for m in p.monomials:
        parts.append(f"mono={m}")
    parts.append(f"dim={p.dimension}")
    if order is not None:
        parts.append(f"order={order.kind},{order.permutation}")
    return _engine_preset("presentation " + " ".join(parts), p, order)
