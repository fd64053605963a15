"""The CLI gives the benchmark's frozen answers in hkbench/reference.json,
graded as hkbench/run.py grades them: each check suite's {id: status}
map, every formula call it records, and for every ring of `colengths` the
samples at all of its q together with the closed-form target of `targets`
(or no target).  Each ring's argv and input file are built from its key,
so a ring added to the file is graded with no edit here; the only
hand-written cases are the three A_n rings under grevlex.

The colengths that no second route confirmed when the file was made (its
`unconfirmed` lists) are confirmed here by routes that neither read a
counter's node table nor extrapolate from it.  The file is only read."""

import json
import re
from pathlib import Path

import pytest

from hkrees import cli, lattice

from reference_routes import (
    ci_extrees_colength_by_sum,
    segre_colength_by_alpha_q,
    veronese_rees_colength_by_alpha_q,
)

REFERENCE = json.loads(
    (Path(__file__).parents[1] / "hkbench" / "reference.json").read_text(encoding="utf-8"))

# The A_n rings count their nodes under the order given and read large q
# from them, so grevlex must give the same frozen colengths as lex.
GREVLEX = ["an-hypersurface n=2", "an-hypersurface n=3", "an-extrees n=3"]
CASES = [(key, []) for key in sorted(REFERENCE["colengths"])]
CASES += [(key, ["--order", "grevlex"]) for key in GREVLEX]


def parse_key(key):
    """(preset, params, file text) of a ring key: `segre c=3 d=4` has
    params {"c": 3, "d": 4}; a semigroup key lists its generators, and
    `presentation rees(x^m,y^n)` is the Rees algebra of (x^m, y^n)."""
    preset, _, rest = key.partition(" ")
    if preset.startswith("semigroup"):
        return preset, {}, f"sg: {rest}\n"
    if preset == "presentation":
        m, n = re.fullmatch(r"rees\(x\^(\d+),y\^(\d+)\)", rest).groups()
        return preset, {}, f"vars: x y u v\nbin: x^{m}*v - y^{n}*u\ndim: 3\n"
    return preset, {k: int(v) for k, v in (p.split("=") for p in rest.split())}, None


def case_id(case):
    """The preset's CLI arguments, or the key of a ring read from a file."""
    key, extra = case
    preset, params, text = parse_key(key)
    words = [key] if text else [preset, *(f"--{k} {v}" for k, v in params.items())]
    return " ".join(words + extra)


def run_json(capsys, argv):
    assert cli.main(argv) == 0, argv
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("suite", sorted(REFERENCE["checks"]))
def test_check_statuses_match_reference(capsys, suite):
    doc = run_json(capsys, ["check", "--suite", suite, "--json"])
    assert {r["id"]: r["status"] for r in doc} == REFERENCE["checks"][suite]


def test_formulas_match_reference(capsys):
    """`value_approx`, a labelled float convenience field, is not graded."""
    differ = []
    for argv, want in REFERENCE["formulas"].items():
        doc = run_json(capsys, argv.split())
        doc.pop("value_approx", None)
        if doc != want:
            differ.append((argv, doc, want))
    assert differ == []


def test_every_target_belongs_to_a_graded_ring():
    assert set(REFERENCE["targets"]) <= set(REFERENCE["colengths"])


@pytest.mark.parametrize("key, extra", CASES, ids=map(case_id, CASES))
def test_ladder_colengths_match_reference(capsys, tmp_path, key, extra):
    """One oracle call at every q the reference holds for the ring."""
    preset, params, text = parse_key(key)
    argv = ["oracle", "--preset", preset]
    for k, v in params.items():
        argv += [f"--{k}", str(v)]
    if text:
        path = tmp_path / "ring.txt"
        path.write_text(text, encoding="utf-8")
        argv += ["--file", str(path)]
    table = REFERENCE["colengths"][key]
    qs = sorted(table, key=int)
    doc = run_json(capsys, [*argv, "--q", ",".join(qs), *extra, "--json"])
    assert doc["samples"] == [table[q] for q in qs]
    if key in REFERENCE["targets"]:
        assert doc["target"] == REFERENCE["targets"][key]
    else:
        assert "target" not in doc


def second_route(key):
    """A colength route for the ring that reads no node table."""
    preset, p, text = parse_key(key)
    if preset == "segre":
        return lambda q: segre_colength_by_alpha_q(p["c"], p["d"], q)
    if preset == "veronese-rees":
        return lambda q: veronese_rees_colength_by_alpha_q(p["c"], p["d"], q)
    if preset == "ci-rees":
        ideal = lattice.MonomialIdeal2D.from_gens([(p["m"], 0), (0, p["n"])])
        return lambda q: lattice.rees_monomial_colength(ideal, q, "maximal-ideal")
    if preset == "ci-extrees":
        return lambda q: ci_extrees_colength_by_sum(p["m"], p["n"], q)
    s = lattice.parse_semigroup(text)
    if preset == "semigroup":
        return lambda q: lattice._ehk_box(s, q)
    # When every generator has degree 1, on one line a + b = const, R'(m)
    # is A[u] and M^[q] maps to (m^[q], u^q): the colength is q times that
    # of k[S].  This is the finite-q form of the equality case of Prop 5.7.
    assert preset == "semigroup-extrees" and len({a + b for a, b in s.generators}) == 1, key
    return lambda q: q * lattice._ehk_box(s, q)


@pytest.mark.parametrize("key", sorted(REFERENCE["unconfirmed"]))
def test_unconfirmed_colengths_agree_with_a_second_route(key):
    route, table = second_route(key), REFERENCE["colengths"][key]
    qs = REFERENCE["unconfirmed"][key]
    assert [route(q) for q in qs] == [table[str(q)][1] for q in qs]
