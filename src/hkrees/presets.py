"""Named ring-family presets bundling a colength counter, the Krull
dimension used for normalization, and the closed-form target when one is
known.  Every preset carries a canonical description string used for cache
keying, so identical computations hit the same cache entries regardless of
how they were requested.  The Segre, Veronese Rees and semigroup presets
also carry one node table for their counter (see `lattice`), so the q of
one ladder share their node values; a new preset starts a new table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import closed_forms as cf
from . import engine, lattice
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


@dataclass(frozen=True)
class Preset:
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
                   target: Fraction | None = None) -> Preset:
    return Preset(description, p.dimension,
                  lambda q: engine.frobenius_colength(p, q, order), target)


def an_hypersurface(n: int,
                    order: engine.MonomialOrderSpec | None = None) -> Preset:
    """The binomial hypersurface k[x,y,z]/(xy - z^n)."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    p, _ = engine.parse_presentation(ENGINE_RINGS["an-hypersurface"](n))
    return _engine_preset(f"an-hypersurface n={n}", p, order,
                          cf.conca_ehk([1, 1], [n]))


def an_extrees(n: int,
               order: engine.MonomialOrderSpec | None = None) -> Preset:
    """k[x,y,z,w]/(xy - z^n w^(n-2)): the extended Rees algebra of the
    maximal ideal of the n-th binomial hypersurface."""
    target = cf.an_extrees_ehk(n)  # rejects n < 2
    p, _ = engine.parse_presentation(ENGINE_RINGS["an-extrees"](n))
    return _engine_preset(f"an-extrees n={n}", p, order, target)


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


def _generators(s: lattice.Semigroup2D) -> str:
    return " ".join(f"({a},{b})" for a, b in s.generators)


def semigroup(s: lattice.Semigroup2D) -> Preset:
    """Affine semigroup ring k[S] for a rank-2 semigroup."""
    table: dict = {}
    return Preset(
        description=f"semigroup {_generators(s)}",
        dimension=2,
        counter=lambda q: lattice.semigroup_ehk_colength(s, q, table),
    )


def semigroup_extrees(s: lattice.Semigroup2D) -> Preset:
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
