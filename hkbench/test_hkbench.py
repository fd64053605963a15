"""Tests of the benchmark itself: grading, failure counting and tracing.

    PYTHONPATH=src python -m pytest -q hkbench
"""

import copy
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "hkbench_run", Path(__file__).with_name("run.py"))
bench = importlib.util.module_from_spec(_spec)
sys.modules["hkbench_run"] = bench
_spec.loader.exec_module(bench)

if str(bench.SRC) not in sys.path:
    sys.path.insert(0, str(bench.SRC))
cli = importlib.import_module("hkrees.cli")

WRAPPED = {
    "hkrees.engine": ("frobenius_colength", "buchberger", "reduce",
                      "initial_ideal", "count_standard_monomials"),
    "hkrees.lattice": ("segre_colength", "quotient_length", "veronese_beta"),
    "hkrees.presets": ("segre", "ci_rees"),
    "hkrees.cli": ("estimate",),
}


@pytest.fixture(scope="module")
def ref():
    return bench.load_reference()


def _segre_op():
    return bench._oracle_op("segre c=2 d=2", (2, 4), {})


def _wrapped_names():
    m = sys.modules
    names = [f"{mod}.{a}" for mod, attrs in WRAPPED.items() for a in attrs
             if hasattr(getattr(m[mod], a), "__wrapped__")]
    if m["hkrees.cli"].cf is not m["hkrees.closed_forms"]:
        names.append("hkrees.cli.cf")
    if hasattr(m["hkrees.lattice"].MonomialIdeal2D.threshold, "__wrapped__"):
        names.append("MonomialIdeal2D.threshold")
    return names


def test_reference_count_mismatch_raises_fail_ratio(ref):
    work = bench.Workload(cli.main, [_segre_op()])
    _, tally = bench.measure(work, ref, 0, min_passes=2)
    assert (tally.attempted, tally.failed) == (2, 0)
    wrong = copy.deepcopy(ref)
    wrong["colengths"]["segre c=2 d=2"]["4"][1] += 1
    _, tally = bench.measure(work, wrong, 0, min_passes=2)
    assert (tally.attempted, tally.failed) == (2, 2)


def test_nonzero_exit_counts_as_failure(ref, tmp_path):
    missing_d = bench.Op("oracle", ["oracle", "--preset", "segre", "--c", "2",
                                    "--q", "2,4", "--json"], "segre c=2 d=2", (2, 4))
    missing_file = bench._oracle_op("semigroup (0,2) (1,1) (2,0)", (2, 4), {
        "semigroup (0,2) (1,1) (2,0)": str(tmp_path / "absent.txt")})
    bad_suite = bench.Op("check", ["check", "--suite", "nope", "--json"], "all")
    for op in (missing_d, missing_file, bad_suite):
        rc, _ = bench.call(cli.main, op.argv)
        assert rc != 0
    work = bench.Workload(cli.main, [missing_d, missing_file, bad_suite, _segre_op()])
    _, tally = bench.measure(work, ref, 0, min_passes=1)
    assert (tally.attempted, tally.failed) == (4, 3)

    def right_output_exit_one(argv):
        cli.main(argv)
        return 1

    work = bench.Workload(right_output_exit_one, [_segre_op()])
    _, tally = bench.measure(work, ref, 0, min_passes=1)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_untraced_run_installs_no_wrapper(ref, monkeypatch):
    seen = []

    def probe(argv):
        seen.append(_wrapped_names())
        return cli.main(argv)

    monkeypatch.setattr(bench, "setup", lambda *a: bench.Workload(probe, [_segre_op()]))
    traced = bench.run("lattice-ladder", 1, 0, trace=True)
    assert any(seen)  # traced passes see the wrappers
    assert _wrapped_names() == []  # and they are gone afterwards
    seen.clear()

    def refuse(self):
        raise AssertionError("a wrapper was installed in an untraced run")

    monkeypatch.setattr(bench.Tracer, "install", refuse)
    plain = bench.run("lattice-ladder", 1, 0, trace=False)
    assert seen and all(names == [] for names in seen)
    assert plain["correct"] and traced["correct"]


def test_metric_names_match_benchmark_json(ref, monkeypatch):
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench, "setup", lambda *a: bench.Workload(cli.main, [_segre_op()]))
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        metrics = bench.run("lattice-ladder", 1, 0, trace)["metrics"]
        assert {m["name"]: m["unit"] for m in spec[section]} == {
            k: v["unit"] for k, v in metrics.items()}
