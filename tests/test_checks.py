"""Tests for the invariant suites."""

import pytest

from hkrees import checks


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
