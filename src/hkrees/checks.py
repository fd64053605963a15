"""Inequality and identity suites over the implemented ring families.

Each suite runs a fixed list of exact comparisons and returns CheckResult
records; a limit with no closed form is read exactly from its lattice
counter with `toric.leading_coefficient`, and cor54 proves its inequality
for every c from the Newton coefficients `toric.forward_differences` gives
of a closed form that is a polynomial in c.  Report-only checks record
observed values without ever failing a run; they cover comparisons where
published reference values are known to disagree with each other.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import closed_forms as cf
from . import lattice, presets, toric
# No suite calls estimate; it stays importable as checks.estimate, a name
# the bench harness wraps.
from .estimator import estimate  # noqa: F401
from .exact import factorial, format_fraction


class CheckResult(NamedTuple):
    check_id: str
    status: str  # pass | fail | report-only
    lhs: str
    rhs: str
    citation: str

    def to_dict(self) -> dict:
        """The JSON record: the fields in order, check_id keyed as "id" and
        citation as "note"."""
        return dict(zip(("id", "status", "lhs", "rhs", "note"), self))


def _cmp(check_id: str, ok: bool | None, lhs, rhs, citation: str) -> CheckResult:
    """A pass/fail result; ok=None records a report-only observation."""
    status = "report-only" if ok is None else "pass" if ok else "fail"
    lhs, rhs = (format_fraction(x) if isinstance(x, (Fraction, int)) else str(x)
                for x in (lhs, rhs))
    return CheckResult(check_id, status, lhs, rhs, citation)


def suite_theorem1() -> list[CheckResult]:
    """Multiplicity chain on the binomial hypersurface family: the base
    value is at most the extended-Rees value, which is at most e = 2."""
    out = []
    for n in range(2, 11):
        base = cf.conca_ehk([1, 1], [n])
        ext = cf.an_extrees_ehk(n)
        out.append(_cmp(
            f"theorem1/chain-n{n}",
            base <= ext <= 2,
            base, ext,
            "hypersurface value <= extended-Rees value <= e",
        ))
    base2 = cf.conca_ehk([1, 1], [2])
    ext2 = cf.an_extrees_ehk(2)
    out.append(_cmp(
        "theorem1/equality-n2",
        base2 == ext2 == Fraction(3, 2),
        base2, ext2,
        "both values equal 3/2 at n = 2",
    ))
    return out


def suite_theorem2() -> list[CheckResult]:
    """Bound for Rees algebras over degree-c Veronese of 2 variables:
    value <= c(2) * e(A), with equality exactly at c = 1."""
    out = []
    bound_const = cf.c_of_d(2)
    for c in range(1, 11):
        val = cf.veronese_rees_ehk_general(cf.VeroneseParams(c, 2))
        bound = bound_const * c
        ok = val <= bound and ((val == bound) == (c == 1))
        out.append(_cmp(
            f"theorem2/veronese-c{c}",
            ok, val, bound,
            "bound with equality only in the regular case",
        ))
    return out


def suite_cor54() -> list[CheckResult]:
    """Corollary 5.4 on the degree-c Veronese of d = 3, 4 variables,
    proved for every c >= lo = d(d-1)/2: value < e(A) = c^(d-1), and
    value / c^(d-1) tends to (2^(d+1) - 2)/(d+1)!.

    For c >= d the closed form `cf.veronese_rees_ehk` gives

        c value = 2^(d+1) c^d/(d+1)! - (2c - d(d-1)) prod_{0<i<d} (c+i)/(d+1)!,

    a polynomial of degree d in c, and lo >= d.  So by Newton's formula
    f(c) = c^d - c value is the sum over j <= d of C(c - lo, j)
    Delta^j f(lo) at every integer c >= lo, where C(c - lo, 0) = 1 and no
    C(c - lo, j) is negative.  If Delta^0 f(lo) > 0 and no Delta^j f(lo)
    is negative, then f(c) > 0, that is value < c^(d-1), for every
    c >= lo.  The limit is the leading coefficient of c value, read from
    the same nodes c = lo, ..., lo + d by `toric.leading_coefficient`.
    """
    out = []
    for d in (3, 4):
        lo = d * (d - 1) // 2

        def scaled(c):
            return c * cf.veronese_rees_ehk(cf.VeroneseParams(c, d))
        diffs = toric.forward_differences(lambda c: c**d - scaled(c), d, 1, lo)
        out.append(_cmp(
            f"cor54/strict-d{d}", diffs[0] > 0 and min(diffs) >= 0,
            ", ".join(map(format_fraction, diffs)), 0,
            f"Newton coefficients of c^{d} - c*value at c = {lo}: the first "
            f"> 0 and none < 0, so value < c^{d - 1} for every c >= {lo}",
        ))
        ratio = toric.leading_coefficient(scaled, d, 1, lo)
        limit = Fraction(2 ** (d + 1) - 2, factorial(d + 1))
        out.append(_cmp(
            f"cor54/ratio-d{d}", ratio == limit, ratio, limit,
            f"limit of value / c^{d - 1}, the leading coefficient of "
            f"c*value, is (2^{d + 1} - 2)/{d + 1}!",
        ))
    return out


def suite_prop412() -> list[CheckResult]:
    """Rees-algebra value dominates the base multiplicity e(A), read
    exactly as the leading coefficient of each lattice counter (divided by
    c^3 on the degree-c Veronese, whose counter takes bracket exponent cq).
    Both colengths are cubics in q from q = 1 on: the Veronese-Rees one by
    the proof in `lattice.veronese_rees_colength`, and the ci-rees one at
    m = n = 1, where every floor in `lattice.ci_rees_colength` is exact."""
    cases = [("polynomial-ring", presets.ci_rees(1, 1), 1,
              "Rees of the maximal ideal over a 2-variable polynomial ring")]
    cases += [(f"veronese-c{c}", presets.veronese_rees(c, 2), c,
               "Rees value at least e(A) = c over the degree-c Veronese")
              for c in (1, 2, 3)]
    out = []
    for name, p, e, note in cases:
        value = (toric.leading_coefficient(p.counter, p.dimension)
                 / p.q_scale**p.dimension)
        out.append(_cmp(f"prop412/{name}", value >= e, value, e, note))
    return out


def suite_prop57() -> list[CheckResult]:
    """Equality criterion a_i/a + b_i/b = 1 for all generators, plus the
    exact base and extended-Rees limits on one true case and one false
    case: equal on Veronese-2, different on A2.  Both S are normal, so
    each colength is a polynomial in q on each residue class of q mod
    `toric.period` (the proof is in `toric`), and the limit is its leading
    coefficient along the class of q = 1."""
    out = []
    for c in range(2, 6):
        s = lattice.semigroup_veronese(c)
        out.append(_cmp(
            f"prop57/criterion-veronese-c{c}",
            lattice.equality_criterion(s),
            "criterion", "true",
            "Veronese semigroups satisfy the equality criterion",
        ))
    for n in range(2, 6):
        s = lattice.semigroup_binomial_an(n + 1)
        out.append(_cmp(
            f"prop57/criterion-an-n{n}",
            not lattice.equality_criterion(s),
            "criterion", "false",
            "double-point semigroups fail the criterion for n >= 2",
        ))
    for name, s, equal, note in (
        ("overlap-veronese2", lattice.semigroup_veronese(2), True,
         "criterion-true case: base and extended-Rees limits are equal"),
        ("disjoint-a2", lattice.semigroup_binomial_an(3), False,
         "criterion-false case: base and extended-Rees limits differ"),
    ):
        b, e = (toric.leading_coefficient(p.counter, p.dimension,
                                          toric.period(s, p.dimension))
                for p in (presets.semigroup(s), presets.semigroup_extrees(s)))
        out.append(_cmp(f"prop57/brackets-{name}", (b == e) == equal, b, e,
                        note))
    return out


def suite_lemma13() -> list[CheckResult]:
    """Band e/d! <= e_HK <= e for every family with known multiplicity e."""
    out = []

    def band(check_id, e, d, value, note):
        ok = Fraction(e, factorial(d)) <= value <= e
        out.append(_cmp(check_id, ok, value, e, note))

    for n in range(1, 11):
        band(f"lemma13/an-n{n}", 2, 2, cf.conca_ehk([1, 1], [n]),
             "hypersurface, e = 2, dim 2")
    for n in range(2, 11):
        band(f"lemma13/an-extrees-n{n}", 2, 3, cf.an_extrees_ehk(n),
             "extended Rees of the hypersurface, e = 2, dim 3")
    for m in range(1, 7):
        for n in range(1, m + 1):
            v = cf.ci_rees_values(m, n)
            band(f"lemma13/ci-rees-m{m}n{n}", n + 1, 3, v.ehk_rees,
                 "Rees of (x^m, y^n), e = n + 1, dim 3")
    for d in (2, 3):
        for c in range(1, 7):
            ehk_a = Fraction(cf.alpha(d + 1, c - 1), c)
            band(f"lemma13/veronese-c{c}d{d}", c ** (d - 1), d, ehk_a,
                 "Veronese subring, e = c^(d-1), dim d")
    return out


def suite_assembly() -> list[CheckResult]:
    """Moment-sum assembly reproduces the closed form for c >= d >= 2."""
    out = []
    for d in range(2, 7):
        for c in range(d, 7):
            p = cf.VeroneseParams(c, d)
            lhs = cf.veronese_rees_ehk_general(p)
            rhs = cf.veronese_rees_ehk(p)
            out.append(_cmp(
                f"assembly/c{c}d{d}", lhs == rhs, lhs, rhs,
                "moment assembly vs closed form",
            ))
    return out


def suite_bcp_compare() -> list[CheckResult]:
    """Report-only comparison of the two Segre closed forms, the Stirling
    sum and the integral formula.  They agree at every 1 <= c <= d <= 12;
    the checks stay report-only and record the observed values."""
    out = []
    for c in range(1, 5):
        for d in range(c, 5):
            a = cf.segre_ehk(cf.SegreParams(c, d))
            b = cf.bcp_segre_ehk(cf.SegreParams(c, d))
            tag = " (agree)" if a == b else " (DIFFER)"
            out.append(_cmp(
                f"bcp-compare/c{c}d{d}", None,
                a, format_fraction(b) + tag,
                "Stirling-sum formula vs integral formula",
            ))
    return out


def suite_all() -> list[CheckResult]:
    """Every other suite, in table order."""
    return [r for name, suite in SUITES.items() if name != "all"
            for r in suite()]


SUITES = {
    "theorem1": suite_theorem1,
    "theorem2": suite_theorem2,
    "cor54": suite_cor54,
    "prop412": suite_prop412,
    "prop57": suite_prop57,
    "lemma13": suite_lemma13,
    "assembly": suite_assembly,
    "bcp-compare": suite_bcp_compare,
    "all": suite_all,
}


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {tuple(SUITES)}")
    return SUITES[name]()
