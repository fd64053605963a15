"""Tests for the invariant suites."""

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
