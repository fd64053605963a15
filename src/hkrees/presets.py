"""Named ring-family presets bundling a colength counter, the Krull
dimension used for normalization, and the closed-form target when one is
known.  Every preset carries a canonical description string used for cache
keying, so identical computations hit the same cache entries regardless of
how they were requested.
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


def _an_presentation(n: int) -> engine.PresentedQuotient:
    return engine.PresentedQuotient(
        variables=("x", "y", "z"),
        binomials=(engine.PureDifferenceBinomial((1, 1, 0), (0, 0, n)),),
        dimension=2,
    )


def _an_extrees_presentation(n: int) -> engine.PresentedQuotient:
    return engine.PresentedQuotient(
        variables=("x", "y", "z", "w"),
        binomials=(
            engine.PureDifferenceBinomial((1, 1, 0, 0), (0, 0, n, n - 2)),
        ),
        dimension=3,
    )


def ci_extrees_presentation(m: int, n: int) -> engine.PresentedQuotient:
    """Extended Rees algebra of (x^m, y^n) in k[x, y], presented on five
    variables with relations x^m - zt and y^n - wt."""
    return engine.PresentedQuotient(
        variables=("x", "y", "z", "w", "t"),
        binomials=(
            engine.PureDifferenceBinomial((m, 0, 0, 0, 0), (0, 0, 1, 0, 1)),
            engine.PureDifferenceBinomial((0, n, 0, 0, 0), (0, 0, 0, 1, 1)),
        ),
        dimension=3,
    )


def _engine_counter(p: engine.PresentedQuotient,
                    order: engine.MonomialOrderSpec | None):
    def counter(q: int) -> int:
        return engine.frobenius_colength(p, q, order)

    return counter


def an_hypersurface(n: int,
                    order: engine.MonomialOrderSpec | None = None) -> Preset:
    """k[x,y,z]/(xy - z^n), dimension 2."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    return Preset(
        description=f"an-hypersurface n={n}",
        dimension=2,
        counter=_engine_counter(_an_presentation(n), order),
        target=cf.conca_ehk([1, 1], [n]),
    )


def an_extrees(n: int,
               order: engine.MonomialOrderSpec | None = None) -> Preset:
    """k[x,y,z,w]/(xy - z^n w^(n-2)), dimension 3: the extended Rees
    algebra of the maximal ideal of the n-th binomial hypersurface."""
    target = cf.an_extrees_ehk(n)  # rejects n < 2
    return Preset(
        description=f"an-extrees n={n}",
        dimension=3,
        counter=_engine_counter(_an_extrees_presentation(n), order),
        target=target,
    )


def segre(c: int, d: int) -> Preset:
    """Segre product of polynomial rings in c and d variables."""
    return Preset(
        description=f"segre c={c} d={d}",
        dimension=c + d - 1,
        counter=lambda q: lattice.segre_colength(c, d, q),
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
    return Preset(
        description=f"veronese-rees c={c} d={d}",
        dimension=d + 1,
        counter=lambda q: lattice.veronese_rees_colength(c, d, q),
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
    if m < 1 or n < 1:
        raise ParameterError(f"exponents must be >= 1, got ({m}, {n})")
    return Preset(
        description=f"ci-extrees m={m} n={n}",
        dimension=3,
        counter=_engine_counter(ci_extrees_presentation(m, n), order),
        target=cf.ci_rees_values(m, n).ehk_extrees,
    )


def semigroup(s: lattice.Semigroup2D) -> Preset:
    """Affine semigroup ring k[S] for a rank-2 semigroup."""
    gens = " ".join(f"({a},{b})" for a, b in s.generators)
    return Preset(
        description=f"semigroup {gens}",
        dimension=2,
        counter=lambda q: lattice.semigroup_ehk_colength(s, q),
    )


def semigroup_extrees(s: lattice.Semigroup2D) -> Preset:
    """Extended Rees algebra of the maximal ideal of k[S]."""
    gens = " ".join(f"({a},{b})" for a, b in s.generators)
    return Preset(
        description=f"semigroup-extrees {gens}",
        dimension=3,
        counter=lambda q: lattice.semigroup_extrees_colength(s, q),
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
    return Preset(
        description="presentation " + " ".join(parts),
        dimension=p.dimension,
        counter=_engine_counter(p, order),
    )
