"""Tests for presets, the cache, and the command-line interface."""

import json
import os
import re
import subprocess
import sys

import pytest

import hkrees
from hkrees import presets
from hkrees.cache import ENGINE_VERSION, ColengthCache, _key, cached_counter
from hkrees.cli import main
from hkrees.errors import ParameterError


# ---------------------------------------------------------------------------
# Presets


def test_preset_targets_match_closed_forms():
    from fractions import Fraction

    assert presets.an_hypersurface(2).target == Fraction(3, 2)
    assert presets.an_extrees(2).target == Fraction(3, 2)
    assert presets.segre(2, 2).target == Fraction(4, 3)
    assert presets.veronese_rees(2, 2).target == Fraction(13, 6)
    assert presets.ci_rees(2, 2).target == Fraction(13, 6)
    assert presets.ci_extrees(2, 2).target == Fraction(5, 2)


def test_preset_samples_scale_q():
    p = presets.veronese_rees(2, 2)
    s = p.sample(4)
    assert s.q == 8  # the counter's bracket exponent is cq
    assert p.dimension == 3


def test_an_presets_agree_with_engine_values():
    p = presets.an_hypersurface(2)
    assert p.sample(4).count == 24
    ext = presets.ci_extrees(2, 2)
    assert ext.sample(2).count > 0


def test_preset_validation():
    with pytest.raises(ParameterError):
        presets.an_hypersurface(0)
    with pytest.raises(ParameterError):
        presets.an_extrees(1)
    with pytest.raises(ParameterError):
        presets.ci_extrees(0, 1)


# ---------------------------------------------------------------------------
# Cache


def test_cache_round_trip(tmp_path):
    path = str(tmp_path / "colengths.jsonl")
    cache = ColengthCache(path)
    assert cache.get("desc", 4) is None
    cache.put("desc", 4, 99)
    assert cache.get("desc", 4) == 99
    # a fresh instance reads the same entries back from disk
    again = ColengthCache(path)
    assert again.get("desc", 4) == 99
    assert again.get("desc", 8) is None
    assert again.get("other", 4) is None


def test_cache_counter_avoids_recomputation(tmp_path):
    calls = []
    base = presets.an_hypersurface(2)
    counting = presets.Preset(
        name=base.name,
        description=base.description,
        dimension=base.dimension,
        counter=lambda q: (calls.append(q), base.counter(q))[1],
        target=base.target,
    )
    cache = ColengthCache(str(tmp_path / "c.jsonl"))
    counter = cached_counter(counting, cache)
    assert counter(4) == 24
    assert counter(4) == 24
    assert calls == [4]


def test_cache_clear(tmp_path):
    cache = ColengthCache(str(tmp_path / "c.jsonl"))
    cache.put("a", 2, 5)
    assert len(cache.entries()) == 1
    cache.clear()
    assert cache.entries() == []
    assert ColengthCache(str(tmp_path / "c.jsonl")).entries() == []


def test_cache_ignores_garbage_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    cache = ColengthCache(str(path))
    cache.put("a", 2, 5)
    with open(path, "a") as fh:
        fh.write("{truncated\n")
    assert ColengthCache(str(path)).get("a", 2) == 5


def test_cache_counts_rejected_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    good = {"hash": "h", "q": 2, "count": 5, "version": ENGINE_VERSION}
    lines = [
        good,
        dict(good, q=3, count=True),  # a bool is not a count
        dict(good, q=4, hash=["h"]),  # unhashable key
        dict(good, q=5, version="0"),  # another engine version: not rejected
        "plain string",
    ]
    text = "".join(json.dumps(x) + "\n" for x in lines)
    text += json.dumps(dict(good, q=6)) + "trailing\n{torn"
    path.write_text(text)
    cache = ColengthCache(str(path))
    assert cache.entries() == [good]
    assert cache.rejected == 5


# ---------------------------------------------------------------------------
# CLI


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_formula_segre(capsys):
    code, out, _ = run_cli(capsys, "formula", "segre", "--c", "4", "--d", "4")
    assert code == 0
    assert out.strip() == "899/315"


def test_formula_c_of_d(capsys):
    code, out, _ = run_cli(capsys, "formula", "c-of-d", "--d", "2")
    assert code == 0
    assert out.strip() == "4/3"


def test_formula_conca(capsys):
    code, out, _ = run_cli(
        capsys, "formula", "conca", "--ds", "1,1", "--es", "3"
    )
    assert code == 0
    assert out.strip() == "5/3"


def test_formula_stirling_table(capsys):
    code, out, _ = run_cli(capsys, "formula", "stirling-table", "--n", "10")
    assert code == 0
    assert out.split() == [
        "1", "511", "9330", "34105", "42525", "22827", "5880", "750", "45", "1"
    ]


@pytest.mark.parametrize("n", ["0", "-2"])
def test_formula_stirling_table_rejects_n_below_one(capsys, n):
    code, out, err = run_cli(capsys, "formula", "stirling-table", "--n", n)
    assert code == 3
    assert out == ""
    assert err == f"error: n must be >= 1, got {n}\n"


def test_formula_json(capsys):
    code, out, _ = run_cli(
        capsys, "formula", "veronese-rees", "--c", "2", "--d", "2", "--json"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["value"] == "13/6"
    assert abs(doc["value_approx"] - 13 / 6) < 1e-12


def test_formula_computation_error_exit_3(capsys):
    code, _, err = run_cli(capsys, "formula", "conca", "--ds", "0", "--es", "1")
    assert code == 3
    assert "error:" in err


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["formula", "unknown-family"])
    capsys.readouterr()
    assert exc.value.code == 2


def test_oracle_exact_family(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--preset", "an-hypersurface", "--n", "2",
        "--q", "4,8,16",
    )
    assert code == 0
    assert "leading estimate: 3/2" in out
    assert "inside bracket" in out


def test_oracle_json_and_grid(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--preset", "segre", "--c", "1", "--d", "1",
        "--q", "1,2", "--grid", "primepow:3", "--json",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["samples"] == [[3, 3], [9, 9]]
    assert doc["leading"] == "1"


def test_oracle_semigroup_file(capsys, tmp_path):
    f = tmp_path / "sg.txt"
    f.write_text("sg: (2,0) (1,1) (0,2)\n")
    code, out, _ = run_cli(
        capsys, "oracle", "--preset", "semigroup", "--file", str(f),
        "--q", "2,4,8",
    )
    assert code == 0
    assert "leading estimate: 3/2" in out


def test_oracle_presentation_file(capsys, tmp_path):
    f = tmp_path / "pres.txt"
    f.write_text("vars: x y z\nbin: x*y - z^2\ndim: 2\norder: lex x>y>z\n")
    code, out, _ = run_cli(
        capsys, "oracle", "--preset", "presentation", "--file", str(f),
        "--q", "2,4,8",
    )
    assert code == 0
    assert "leading estimate: 3/2" in out


@pytest.mark.parametrize("argv, err", [
    (["segre", "--c", "2", "--d", "2", "--n", "7", "--order", "grevlex"],
     "error: --preset segre does not take --n, --order\n"),
    (["ci-rees", "--m", "2", "--n", "3", "--order", "lex"],
     "error: --preset ci-rees does not take --order\n"),
    (["semigroup", "--file", "sg.txt", "--c", "2"],
     "error: --preset semigroup does not take --c\n"),
], ids=["segre", "ci-rees", "semigroup"])
def test_oracle_rejects_flags_its_family_does_not_take(capsys, argv, err):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--preset", *argv, "--q", "2", "--json"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err == err


def test_oracle_presentation_wrong_dimension_exit_3(capsys, tmp_path):
    f = tmp_path / "pres.txt"
    f.write_text("vars: x y z\nbin: x*y - z^2\ndim: 5\n")
    code, out, err = run_cli(
        capsys, "oracle", "--preset", "presentation", "--file", str(f),
        "--q", "2,4",
    )
    assert code == 3
    assert out == ""
    assert err == (
        "error: declared dim: 5, but the relations give Krull dimension 2\n"
    )


def test_oracle_passes_order_to_engine_presets(capsys, monkeypatch):
    # the colength does not depend on the order, so only the engine sees it
    from hkrees import engine

    seen = []
    real = engine.frobenius_colength

    def recording(p, q, order=None):
        seen.append(order.kind)
        return real(p, q, order)

    monkeypatch.setattr(engine, "frobenius_colength", recording)
    for argv in (["an-hypersurface", "--n", "2"], ["an-extrees", "--n", "3"],
                 ["ci-extrees", "--m", "1", "--n", "2"]):
        code, _, _ = run_cli(capsys, "oracle", "--preset", *argv, "--q", "2,4",
                             "--order", "grevlex")
        assert code == 0
    assert seen == ["grevlex"] * 6


def test_oracle_output_identical_with_and_without_cache(capsys, tmp_path):
    argv = ["oracle", "--preset", "ci-rees", "--m", "2", "--n", "2",
            "--q", "4,8,16", "--json"]
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    cached = argv + ["--cache-dir", str(tmp_path)]
    code, first, _ = run_cli(capsys, *cached)
    assert code == 0
    code, second, _ = run_cli(capsys, *cached)  # warm cache
    assert code == 0
    assert plain == first == second


def test_oracle_deterministic(capsys):
    argv = ["oracle", "--preset", "an-extrees", "--n", "3", "--q", "2,4"]
    _, a, _ = run_cli(capsys, *argv)
    _, b, _ = run_cli(capsys, *argv)
    assert a == b


def test_check_suite_exit_codes(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "check", "--suite", "assembly")
    assert code == 0
    assert "0 failed" in out

    from hkrees import checks as checks_mod

    failing = checks_mod.CheckResult("x/y", "fail", "1", "2", "synthetic")
    monkeypatch.setattr(
        checks_mod, "run_suite", lambda name: [failing]
    )
    code, out, _ = run_cli(capsys, "check", "--suite", "assembly")
    assert code == 1
    assert "1 failed" in out


def test_check_report_only_does_not_fail(capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "bcp-compare", "--json")
    assert code == 0
    assert all(r["status"] == "report-only" for r in json.loads(out))


def test_cache_command(capsys, tmp_path):
    run_cli(
        capsys, "oracle", "--preset", "an-hypersurface", "--n", "2",
        "--q", "2,4", "--cache-dir", str(tmp_path),
    )
    code, out, _ = run_cli(capsys, "cache", "inspect", "--cache-dir", str(tmp_path))
    assert code == 0
    assert "2 entries" in out
    code, out, _ = run_cli(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "cache", "inspect", "--cache-dir", str(tmp_path))
    assert "0 entries" in out


AN2_HASH = _key("an-hypersurface n=2")


@pytest.mark.parametrize("record", [
    [1, 2],
    {"hash": AN2_HASH, "q": 4, "version": ENGINE_VERSION},
    {"hash": AN2_HASH, "q": 4, "count": "oops", "version": ENGINE_VERSION},
], ids=["not-a-dict", "no-count", "count-not-int"])
def test_oracle_recomputes_over_malformed_cache_record(capsys, tmp_path, record):
    argv = ["oracle", "--preset", "an-hypersurface", "--n", "2", "--q", "2,4",
            "--json"]
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    path = tmp_path / "colengths.jsonl"
    path.write_text(json.dumps(record) + "\n")
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    assert code == 0
    assert err == ""
    assert out == plain
    assert json.loads(out)["samples"] == [[2, 6], [4, 24]]
    cache = ColengthCache(str(path))  # the recomputed count was appended
    assert cache.rejected == 1
    assert cache.get("an-hypersurface n=2", 4) == 24


def test_missing_file_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "oracle", "--preset", "semigroup", "--file", "/nonexistent"
    )
    assert code == 3
    assert "error:" in err


def test_oracle_drops_repeated_semigroup_generators(capsys, tmp_path):
    plain, repeated = tmp_path / "plain.txt", tmp_path / "repeated.txt"
    plain.write_text("sg: (0,2) (1,1) (2,0)\n")
    repeated.write_text("sg: (0,2) (1,1) (1,1) (2,0)\n")
    cache_dir = str(tmp_path / "cache")
    for extra in ([], ["--json"], ["--json", "--cache-dir", cache_dir]):
        outs = []
        for f in (plain, repeated):
            code, out, err = run_cli(
                capsys, "oracle", "--preset", "semigroup", "--file", str(f),
                "--q", "2,4", *extra,
            )
            assert (code, err) == (0, "")
            outs.append(out)
        assert outs[0] == outs[1]
    # the repeated file hit the records the plain one wrote: same description
    cache = ColengthCache(os.path.join(cache_dir, "colengths.jsonl"))
    assert len(cache.entries()) == 2


def test_main_called_repeatedly_matches_fresh_processes(capsys):
    runs = [
        ["oracle", "--preset", "segre", "--c", "2", "--d", "2", "--q", "2,4"],
        ["formula", "segre", "--c", "2", "--d", "3", "--json"],
        ["check", "--suite", "assembly"],
        ["formula", "conca", "--ds", "0", "--es", "1"],
        ["oracle", "--preset", "segre", "--c", "2", "--d", "2", "--q", "2,4"],
    ]
    src = os.path.dirname(os.path.dirname(hkrees.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in runs:
        fresh = subprocess.run(
            [sys.executable, "-m", "hkrees.cli", *argv],
            capture_output=True, text=True, env=env, check=False,
        )
        assert run_cli(capsys, *argv) == (
            fresh.returncode, fresh.stdout, fresh.stderr
        ), argv


def test_readme_formula_lines_print_their_values(capsys):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        lines = [line for line in fh if line.startswith("hkrees formula ")]
    checked = 0
    for line in lines:
        command, _, comment = line.partition("#")
        code, out, _ = run_cli(capsys, *command.split()[1:])
        assert code == 0, line
        if re.fullmatch(r"-?\d+(/\d+)?", comment.strip()):
            assert out.strip() == comment.strip(), line
            checked += 1
    assert checked >= 2  # segre --c 4 --d 4 and c-of-d --d 2
