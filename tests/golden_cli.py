"""Golden CLI runs: a fixed argv set through `hkrees.cli.main`, with the
stdout, exit code and stderr of every run (usage text aside).

    PYTHONPATH=src python tests/golden_cli.py           # compare, exit 1 on a diff
    PYTHONPATH=src python tests/golden_cli.py --write   # regenerate golden_cli.json

Runs go in order through one temporary directory, whose path is written
as <TMP>, so cached runs can read what earlier runs stored.  A usage error's
stderr, which starts with its usage text, is not recorded; the `--preset`,
`formula` and `--suite` choice lists that usage text shows are recorded
instead.  Every other stderr line is.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from hkrees import cli

GOLDEN = Path(__file__).with_name("golden_cli.json")
TMP = "<TMP>"

FILES = {
    "sg.txt": "sg: (0,5) (2,1) (3,0)\n",
    "a2.txt": "sg: (2,0) (1,1) (0,2)\n",
    "a2-repeated.txt": "sg: (0,2) (1,1) (1,1) (2,0)\n",
    "bad-sg.txt": "sg: (1,2,3)\n",
    "rees.txt": "vars: x y u v\nbin: x^2*v - y^3*u\ndim: 3\n",
    "pres-lex.txt": "vars: x y z\nbin: x*y - z^2\ndim: 2\norder: lex x>y>z\n",
    "pres-mono.txt": "vars: x y z\nbin: x*y - z^3\nmono: z^5\ndim: 1\n",
    "wrong-dim.txt": "vars: x y z\nbin: x*y - z^2\ndim: 3\n",
    "bad-tag.txt": "vars: x y\nfoo: x\ndim: 1\n",
    "bad-exponent.txt": "vars: x y\nbin: x^ - y\ndim: 1\n",
    "bad-dim.txt": "vars: x y z\nbin: x*y - z^2\ndim: one\n",
    "repeated-vars.txt": "vars: x y z\nbin: x*y - z^2\ndim: 2\nvars: a b c\n",
    "repeated-dim.txt": "vars: x y z\nbin: x*y - z^2\ndim: 2\ndim: 3\n",
    "repeated-order.txt":
        "vars: x y z\nbin: x*y - z^2\norder: lex\ndim: 2\norder: grevlex\n",
    "underscore-exponent.txt": "vars: x y z\nbin: x*y - z^1_0\ndim: 2\n",
    "underscore-sg.txt": "sg: (0,2) (1,1) (2,0_0)\n",
    "order-before-vars.txt": "order: lex x>y>z\nvars: x y z\nbin: x*y - z^2\ndim: 2\n",
    "bin-before-vars.txt": "bin: x*y - z^2\nvars: x y z\ndim: 2\n",
}


def _formula_cases() -> list[list[str]]:
    runs = []
    for c in range(1, 6):
        for d in range(c, 6):
            runs.append(["segre", "--c", str(c), "--d", str(d)])
            runs.append(["bcp-segre", "--c", str(c), "--d", str(d)])
    runs.append(["segre", "--c", "4", "--d", "2"])
    for d in range(1, 9):
        runs.append(["c-of-d", "--d", str(d)])
    conca = [("1,1", str(n)) for n in range(1, 7)]
    conca += [("1,2", "3"), ("2,3", "1,1"), ("1,1,1", "2"), ("2", "3")]
    for ds, es in conca:
        runs.append(["conca", "--ds", ds, "--es", es])
    for d in range(2, 5):
        for c in range(d, 7):
            runs.append(["veronese-rees", "--c", str(c), "--d", str(d)])
        for c in range(1, 9):
            runs.append(["veronese-rees-general", "--c", str(c), "--d", str(d)])
    for m in range(1, 6):
        for n in range(1, 6):
            runs.append(["ci-rees", "--m", str(m), "--n", str(n)])
    for n in range(1, 16):
        runs.append(["stirling-table", "--n", str(n)])
    return [["formula", *r, *j] for r in runs for j in ([], ["--json"])]


PRESETS = [
    ["an-hypersurface", "--n", "2"],
    ["an-hypersurface", "--n", "3"],
    ["an-hypersurface", "--n", "2", "--order", "grevlex"],
    ["an-extrees", "--n", "2"],
    ["an-extrees", "--n", "3", "--order", "lex"],
    ["segre", "--c", "2", "--d", "2"],
    ["segre", "--c", "2", "--d", "3"],
    ["veronese-rees", "--c", "2", "--d", "2"],
    ["veronese-rees", "--c", "3", "--d", "2"],
    ["veronese-rees", "--c", "2", "--d", "1"],
    ["ci-rees", "--m", "1", "--n", "1"],
    ["ci-rees", "--m", "2", "--n", "3"],
    ["ci-extrees", "--m", "2", "--n", "3"],
    ["ci-extrees", "--m", "1", "--n", "2", "--order", "grevlex"],
    ["semigroup", "--file", f"{TMP}/sg.txt"],
    ["semigroup", "--file", f"{TMP}/a2.txt"],
    ["semigroup", "--file", f"{TMP}/a2-repeated.txt"],
    ["semigroup-extrees", "--file", f"{TMP}/a2.txt"],
    ["presentation", "--file", f"{TMP}/rees.txt"],
    ["presentation", "--file", f"{TMP}/pres-lex.txt"],
    ["presentation", "--file", f"{TMP}/pres-lex.txt", "--order", "grevlex"],
    ["presentation", "--file", f"{TMP}/pres-mono.txt"],
]


def _oracle_cases() -> list[list[str]]:
    runs = [["oracle", "--preset", *p, "--q", "2,4,8", *j]
            for p in PRESETS for j in ([], ["--json"])]
    runs.append(["oracle", "--preset", "an-hypersurface", "--n", "2",
                 "--grid", "primepow:3", "--q", "1,2,3"])
    runs.append(["oracle", "--preset", "segre", "--c", "2", "--d", "2",
                 "--grid", "pow2", "--q", "8,4"])
    runs.append(["oracle", "--preset", "segre", "--c", "2", "--d", "2"])
    # ci-rees ladders at large q, where the colength counter does real work
    for m, n, qs in (("2", "3", "64,96,128"), ("1", "2", "48,64,100")):
        for j in ([], ["--json"]):
            runs.append(["oracle", "--preset", "ci-rees", "--m", m, "--n", n,
                         "--q", qs, *j])
    # the cache is keyed on the description strings: inspect pins them
    for p in PRESETS[::3]:
        runs.append(["oracle", "--preset", *p, "--q", "2,3",
                     "--cache-dir", f"{TMP}/cache", "--json"])
    runs.append(["cache", "inspect", "--cache-dir", f"{TMP}/cache", "--json"])
    runs.append(["cache", "inspect", "--cache-dir", f"{TMP}/cache"])
    runs.append(["cache", "clear", "--cache-dir", f"{TMP}/cache"])
    return runs


SUITES = ["theorem1", "theorem2", "cor54", "prop412", "prop57", "lemma13",
          "assembly", "bcp-compare", "all"]

# Runs past the check suites, in the order they were added: each group is
# appended after the one before it, so every earlier run keeps its place.
EDGE_CASES = [
    # exit 2: usage errors
    ["formula", "unknown-family"],
    ["formula", "segre", "--c", "2"],
    ["formula", "conca", "--ds", "1,1"],
    ["formula", "ci-rees", "--n", "2"],
    ["formula", "stirling-table"],
    ["oracle", "--n", "2"],
    ["oracle", "--preset", "nope"],
    ["oracle", "--preset", "segre", "--c", "2"],
    ["oracle", "--preset", "an-extrees"],
    ["oracle", "--preset", "ci-extrees", "--m", "2"],
    ["oracle", "--preset", "semigroup"],
    ["oracle", "--preset", "presentation"],
    ["oracle", "--preset", "segre", "--c", "2", "--d", "2", "--order", "deglex"],
    ["check"],
    ["check", "--suite", "nope"],
    ["cache", "inspect"],
    # exit 3: computation errors
    ["formula", "conca", "--ds", "0", "--es", "1"],
    ["formula", "conca", "--ds", "1,x", "--es", "1"],
    ["formula", "segre", "--c", "0", "--d", "2"],
    ["formula", "c-of-d", "--d", "0"],
    ["formula", "veronese-rees", "--c", "1", "--d", "2"],
    ["formula", "veronese-rees-general", "--c", "2", "--d", "1"],
    ["formula", "ci-rees", "--m", "0", "--n", "1"],
    ["formula", "stirling-table", "--n", "0"],
    ["oracle", "--preset", "an-hypersurface", "--n", "0", "--q", "2"],
    ["oracle", "--preset", "an-extrees", "--n", "1", "--q", "2"],
    ["oracle", "--preset", "ci-extrees", "--m", "0", "--n", "1", "--q", "2"],
    ["oracle", "--preset", "ci-rees", "--m", "0", "--n", "1", "--q", "2"],
    ["oracle", "--preset", "segre", "--c", "0", "--d", "2", "--q", "2"],
    ["oracle", "--preset", "an-hypersurface", "--n", "2", "--q", "0,2"],
    ["oracle", "--preset", "an-hypersurface", "--n", "2", "--q", "a,b"],
    ["oracle", "--preset", "an-hypersurface", "--n", "2", "--grid", "primepow:1"],
    ["oracle", "--preset", "an-hypersurface", "--n", "2", "--grid", "cube"],
    ["oracle", "--preset", "semigroup", "--file", f"{TMP}/absent.txt"],
    ["oracle", "--preset", "semigroup", "--file", f"{TMP}/bad-sg.txt"],
    ["oracle", "--preset", "presentation", "--file", f"{TMP}/wrong-dim.txt"],
    ["oracle", "--preset", "presentation", "--file", f"{TMP}/bad-tag.txt"],
    ["oracle", "--preset", "presentation", "--file", f"{TMP}/bad-exponent.txt"],
    ["oracle", "--preset", "presentation", "--file", f"{TMP}/bad-dim.txt"],
    ["oracle", "--preset", "presentation", "--file", f"{TMP}/repeated-vars.txt"],
    ["oracle", "--preset", "presentation", "--file", f"{TMP}/repeated-dim.txt"],
    ["oracle", "--preset", "presentation", "--file", f"{TMP}/repeated-order.txt"],
    ["oracle", "--preset", "presentation", "--file",
     f"{TMP}/underscore-exponent.txt"],
    ["oracle", "--preset", "semigroup", "--file", f"{TMP}/underscore-sg.txt"],
    ["oracle", "--preset", "segre", "--c", "2", "--d", "2", "--q", "1_6,3_2"],
    ["oracle", "--preset", "segre", "--c", "2", "--d", "2", "--q", "\uff18,16"],
    ["oracle", "--preset", "an-hypersurface", "--n", "2", "--grid", "primepow:x"],
    ["formula", "segre", "--c", "1_0", "--d", "2"],
    # valid files whose vars: line is not the first line
    ["oracle", "--preset", "presentation", "--file", f"{TMP}/order-before-vars.txt",
     "--q", "2,4,8"],
    ["oracle", "--preset", "presentation", "--file", f"{TMP}/bin-before-vars.txt",
     "--q", "2,4,8"],
    # a negative exponent on a prime-power grid
    ["oracle", "--preset", "an-hypersurface", "--n", "2", "--grid", "primepow:3",
     "--q=-1,2"],
    # flags that a formula family does not take (exit 2), and empty --q and
    # --cache-dir values (exit 3)
    ["formula", "segre", "--c", "2", "--d", "3", "--n", "9"],
    ["formula", "conca", "--ds", "1,1", "--es", "2", "--c", "4"],
    ["formula", "stirling-table", "--n", "3", "--m", "1", "--es", "2", "--json"],
    ["oracle", "--preset", "segre", "--c", "2", "--d", "2", "--n", "3", "--q", "2,4"],
    ["oracle", "--preset", "segre", "--c", "2", "--d", "2", "--q", ""],
    ["oracle", "--preset", "segre", "--c", "2", "--d", "2", "--q", ","],
    ["oracle", "--preset", "segre", "--c", "2", "--d", "2", "--q", "2,4",
     "--cache-dir", ""],
    ["cache", "inspect", "--cache-dir", ""],
    ["cache", "clear", "--cache-dir", ""],
    # empty entries in an integer list (exit 3)
    ["formula", "conca", "--ds", "1,,2", "--es", "3"],
    ["formula", "conca", "--ds", "1,2,", "--es", "3"],
    ["oracle", "--preset", "segre", "--c", "2", "--d", "2", "--q", "8,,16"],
    ["oracle", "--preset", "an-hypersurface", "--n", "2", "--grid", "primepow:3",
     "--q", "1,,2"],
]


def cases() -> list[list[str]]:
    suites = [["check", "--suite", s, *j] for s in SUITES for j in ([], ["--json"])]
    return _formula_cases() + _oracle_cases() + suites + EDGE_CASES


def choice_lists() -> dict[str, list[str]]:
    """The choices of `formula FAMILY`, `oracle --preset` and `check --suite`."""
    return {f"{command} {name}": list(cli.COMMANDS[command][2][name])
            for command, name in (("formula", "family"), ("oracle", "preset"),
                                  ("check", "suite"))}


def run_one(argv: list[str], tmp: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([a.replace(TMP, tmp) for a in argv])
        except SystemExit as exc:
            code = exc.code
    record = {"argv": argv, "code": code, "stdout": out.getvalue().replace(tmp, TMP)}
    stderr = err.getvalue()
    if stderr and not stderr.startswith("usage:"):
        record["stderr"] = stderr.replace(tmp, TMP)
    return record


def record_all() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FILES.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        runs = [run_one(argv, tmp) for argv in cases()]
    return {"choices": choice_lists(), "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"regenerate {GOLDEN.name} instead of comparing")
    args = parser.parse_args(argv)
    doc = record_all()
    if args.write:
        GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(doc['runs'])} runs to {GOLDEN}")
        return 0
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    diffs = [(g, r) for g, r in zip(golden["runs"], doc["runs"]) if g != r]
    for g, r in diffs:
        print(f"differs: {' '.join(g['argv'])}\n  golden: {g}\n  now:    {r}")
    same_choices = golden["choices"] == doc["choices"]
    if not same_choices:
        print(f"choice lists differ:\n  golden: {golden['choices']}\n  now:    {doc['choices']}")
    print(f"{len(golden['runs'])} golden runs, {len(doc['runs'])} now, {len(diffs)} differ;"
          f" choice lists {'match' if same_choices else 'differ'}")
    ok = not diffs and len(golden["runs"]) == len(doc["runs"]) and same_choices
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
