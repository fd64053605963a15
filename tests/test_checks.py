"""Tests for the invariant suites."""

import math
from fractions import Fraction

import pytest

from hkrees import checks, lattice, toric
from hkrees import closed_forms as cf
from hkrees.exact import format_fraction


def run(name):
    return checks.run_suite(name)


@pytest.mark.parametrize(
    "suite", ["theorem1", "theorem2", "cor54", "prop412", "lemma13", "assembly"]
)
def test_exact_suites_pass(suite):
    results = run(suite)
    assert results
    failed = [r for r in results if r.status == "fail"]
    assert not failed, failed


def test_prop57_suite_passes():
    results = run("prop57")
    failed = [r for r in results if r.status == "fail"]
    assert not failed, failed
    ids = [r.check_id for r in results]
    assert "prop57/brackets-overlap-veronese2" in ids
    assert "prop57/brackets-disjoint-a2" in ids


def test_prop412_reads_exact_limits():
    """Each lhs is the closed-form e_HK of its Rees algebra, read from the
    counter's exact polynomial, not an extrapolated estimate."""
    want = [cf.c_of_d(2), cf.c_of_d(2)] + [
        cf.veronese_rees_ehk_general(cf.VeroneseParams(c, 2)) for c in (2, 3)]
    assert [r.lhs for r in run("prop412")] == [format_fraction(v) for v in want]
    assert want == [Fraction(4, 3), Fraction(4, 3), Fraction(13, 6),
                    Fraction(28, 9)]


def test_prop57_compares_exact_limits():
    """The last two checks compare the exact base and extended-Rees limits
    of Veronese-2 and A2, which are normal, so their colengths are
    quasi-polynomials with period `toric.period`."""
    rows = run("prop57")[-2:]
    want = [(Fraction(3, 2), Fraction(3, 2)),
            (cf.conca_ehk([1, 1], [3]), cf.an_extrees_ehk(3))]
    assert [(r.lhs, r.rhs) for r in rows] == [
        (format_fraction(b), format_fraction(e)) for b, e in want]
    assert want[1] == (Fraction(5, 3), Fraction(46, 27))
    for s in (lattice.semigroup_veronese(2), lattice.semigroup_binomial_an(3)):
        assert toric.is_normal(s)


def newton(diffs, k):
    """Newton's forward-difference formula k steps past its start."""
    return sum(math.comb(k, j) * x for j, x in enumerate(diffs))


COR54 = {  # d: (lo, Newton coefficients of c^d - c*value at lo, limit)
    3: (3, [9, Fraction(89, 6), 10, Fraction(5, 2)], Fraction(7, 12)),
    4: (6, [Fraction(4752, 5), Fraction(2467, 3), Fraction(1325, 3), 135, 18],
        Fraction(1, 4)),
}


def test_cor54_proves_from_newton_coefficients():
    """Each strict row prints the Newton coefficients of c^d - c*value at
    lo = d(d-1)/2, all positive, and each ratio row the exact limit."""
    rows = run("cor54")
    want = []
    for d, (lo, diffs, limit) in COR54.items():
        want.append((f"cor54/strict-d{d}", "pass",
                     ", ".join(map(format_fraction, diffs)), "0"))
        want.append((f"cor54/ratio-d{d}", "pass", format_fraction(limit),
                     format_fraction(limit)))
        assert limit == Fraction(2 ** (d + 1) - 2, math.factorial(d + 1))
    assert [(r.check_id, r.status, r.lhs, r.rhs) for r in rows] == want


@pytest.mark.parametrize("d", [3, 4])
def test_cor54_newton_form_matches_general_formula(d):
    """At held-out c up to 200, the Newton form through the pinned
    coefficients equals c^d - c*value from the moment-sum assembly, a
    route the suite does not take; its leading coefficient is 1 - limit."""
    lo, diffs, limit = COR54[d]
    assert diffs == toric.forward_differences(
        lambda c: c**d - c * cf.veronese_rees_ehk(cf.VeroneseParams(c, d)),
        d, 1, lo)
    for c in range(lo, 201):
        value = cf.veronese_rees_ehk_general(cf.VeroneseParams(c, d))
        assert newton(diffs, c - lo) == c**d - c * value
    assert diffs[-1] / math.factorial(d) == 1 - limit


def test_cor54_reads_only_its_nodes(monkeypatch):
    """The suite evaluates the closed form at c = lo, ..., lo + d only, and
    never the general formula."""
    seen = []
    closed = cf.veronese_rees_ehk

    def recording(p):
        seen.append((p.d, p.c))
        return closed(p)

    def unused(p):
        raise AssertionError("cor54 called veronese_rees_ehk_general")

    monkeypatch.setattr(cf, "veronese_rees_ehk", recording)
    monkeypatch.setattr(cf, "veronese_rees_ehk_general", unused)
    assert all(r.status == "pass" for r in run("cor54"))
    assert set(seen) == {(d, c) for d, (lo, _, _) in COR54.items()
                         for c in range(lo, lo + d + 1)}


def test_cor54_refuses_a_negative_newton_coefficient(monkeypatch):
    """Negative control: with c^d - c*value = (c - 5)^2, the coefficients
    from c = 3 are 4, -3, 2, 0, so strict-d3 fails although f > 0 at
    c = 3; from c = 6 they are 1, 3, 2, 0, 0, and (c - 5)^2 > 0 for every
    c >= 6, so strict-d4 passes.  The leading coefficient of c*value is
    then 1, which is neither limit."""
    monkeypatch.setattr(cf, "veronese_rees_ehk", lambda p: Fraction(
        p.c**p.d - (p.c - 5) ** 2, p.c))
    rows = run("cor54")
    assert [(r.check_id, r.status, r.lhs) for r in rows] == [
        ("cor54/strict-d3", "fail", "4, -3, 2, 0"),
        ("cor54/ratio-d3", "fail", "1"),
        ("cor54/strict-d4", "pass", "1, 3, 2, 0, 0"),
        ("cor54/ratio-d4", "fail", "1"),
    ]


def test_theorem1_chain_for_every_n():
    """On the A_n hypersurfaces, e_HK(A) = 2 - 1/n and
    e_HK(R') = 2 - 2(n+1)/(3n^2), so n^2 (e_HK(R') - e_HK(A)) = (n-2)/3 and
    n^2 (2 - e_HK(R')) = 2(n+1)/3 are linear in n.  Their Newton
    coefficients at n = 2 are 0, 1/3 and 2, 2/3: equality holds only at
    n = 2, and e_HK(R') < 2 for every n >= 2."""
    def gap(n):
        return n * n * (cf.an_extrees_ehk(n) - cf.conca_ehk([1, 1], [n]))

    def room(n):
        return n * n * (2 - cf.an_extrees_ehk(n))

    for f, want in ((gap, [0, Fraction(1, 3)]), (room, [2, Fraction(2, 3)])):
        diffs = toric.forward_differences(f, 1, 1, 2)
        assert diffs == want
        assert all(newton(diffs, n - 2) == f(n) for n in range(2, 201))


def test_theorem2_for_every_c_when_d_is_2():
    """For c >= 2 the closed form holds, so c (c(2) c - value) is a
    quadratic in c; its Newton coefficients at c = 2 are 1, 5/3, 2/3, all
    positive, so value < c(2) c for every c >= 2.  At c = 1 the value is
    c(2) itself, the only equality."""
    def room(c):
        return c * (cf.c_of_d(2) * c
                    - cf.veronese_rees_ehk_general(cf.VeroneseParams(c, 2)))

    diffs = toric.forward_differences(room, 2, 1, 2)
    assert diffs == [1, Fraction(5, 3), Fraction(2, 3)]
    assert all(newton(diffs, c - 2) == room(c) for c in range(2, 201))
    assert cf.veronese_rees_ehk_general(cf.VeroneseParams(1, 2)) == cf.c_of_d(2)


def test_bcp_compare_is_report_only():
    results = run("bcp-compare")
    assert all(r.status == "report-only" for r in results)
    # every reported pair of formulas agrees on the implemented values
    assert all("(agree)" in r.rhs for r in results)


def test_all_runs_every_suite():
    results = checks.run_suite("all")
    prefixes = {r.check_id.split("/")[0] for r in results}
    assert prefixes == {
        "theorem1", "theorem2", "cor54", "prop412", "prop57",
        "lemma13", "assembly", "bcp-compare",
    }


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        checks.run_suite("nope")


def test_result_serialization():
    r = run("theorem1")[0]
    doc = r.to_dict()
    assert doc["status"] == "pass"
    assert set(doc) == {"id", "status", "lhs", "rhs", "note"}
