"""The CLI gives the benchmark's frozen answers in hkbench/reference.json,
graded as hkbench/run.py grades them: each check suite's {id: status}
map, every formula call it records, and the colengths of the ladders
that CI checks on the installed package.  The file is only read."""

import json
from pathlib import Path

import pytest

from hkrees import cli

REFERENCE = json.loads(
    (Path(__file__).parents[1] / "hkbench" / "reference.json").read_text(encoding="utf-8"))

SUITES = ["theorem1", "theorem2", "cor54", "prop412", "prop57", "lemma13",
          "assembly", "bcp-compare", "all"]

# The rings whose ladders CI compares with the frozen colengths: the
# lattice-ladder Segre and Veronese Rees rings, the four engine-ladder
# rings under the default order, lex, as the benchmark runs them, and the
# three A_n rings under grevlex.
ENGINE_LADDERS = [
    (["an-hypersurface", "--n", "2"], "16,24,32,48,64,96"),
    (["an-hypersurface", "--n", "3"], "8,12,16,32,64,128"),
    (["an-extrees", "--n", "3"], "4,6,8,16,24,48"),
    (["ci-extrees", "--m", "2", "--n", "3"], "3,4,6,12,16,24"),
]
LADDERS = [
    (["segre", "--c", "3", "--d", "4"], "128,256,512,768,1024"),
    (["veronese-rees", "--c", "3", "--d", "3"], "64,128,256,384,512"),
    *ENGINE_LADDERS,
    *(([*ring, "--order", "grevlex"], qs) for ring, qs in ENGINE_LADDERS[:3]),
]


def run_json(capsys, argv):
    assert cli.main(argv) == 0, argv
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("suite", SUITES)
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


@pytest.mark.parametrize("ring, qs", LADDERS, ids=[" ".join(r) for r, _ in LADDERS])
def test_ladder_colengths_match_reference(capsys, ring, qs):
    doc = run_json(capsys, ["oracle", "--preset", *ring, "--q", qs, "--json"])
    table = REFERENCE["colengths"][doc["preset"]]
    assert doc["samples"] == [table[q] for q in qs.split(",")]
