"""Tests for presets, the cache, and the command-line interface."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hkrees
from hkrees import cache as cache_mod
from hkrees import presets
from hkrees.cache import ENGINE_VERSION, ColengthCache, _key, cached_counter
from hkrees.cli import COMMANDS, main, parse_args
from hkrees.errors import ParameterError
from hkrees.exact import parse_int
from reference_routes import build_parser


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
        dict(good, hash=7),  # a hash must be a str
        dict(good, q="4"),  # a q must be an int >= 1
        dict(good, q=True),
        dict(good, q=2.0),
        dict(good, q=0),
        dict(good, q=7, count=-5),  # a count must be >= 0
    ]
    text = "".join(json.dumps(x) + "\n" for x in lines)
    text += json.dumps(dict(good, q=6)) + "trailing\n{torn"
    path.write_text(text)
    cache = ColengthCache(str(path))
    assert cache.entries() == [good]
    assert cache.rejected == 11


def reference_load(path):
    """The earlier full parse: every line of a text-mode read, the last
    valid record winning for each (hash, q).  A line that is not UTF-8
    counts as rejected (the earlier parse stopped with an error there)."""
    decode = json.JSONDecoder().raw_decode
    entries, rejected = {}, 0
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                line.encode("utf-8")  # a lone surrogate stands for a bad byte
                rec, end = decode(line)
                if end == len(line):
                    if rec.get("version") != ENGINE_VERSION:
                        continue
                    h, q, count = rec["hash"], rec["q"], rec["count"]
                    if (isinstance(h, str) and type(q) is int and q >= 1
                            and type(count) is int and count >= 0):
                        entries[(h, q)] = count
                        continue
            except (ValueError, AttributeError, KeyError, TypeError):
                pass
            rejected += 1
    return entries, rejected


CACHE_DESCS = ("a", "b", "semigroup (0,2) (1,1) (2,0)")


def _escape_hex(text, h, picks):
    """text with the hex digits of h at the picked positions spelled as
    \\u escapes; the JSON value is unchanged."""
    spelled = "".join(f"\\u{ord(c):04x}" if i in picks else c for i, c in enumerate(h))
    return text.replace(h, spelled, 1)


@st.composite
def cache_lines(draw):
    h = _key(draw(st.sampled_from(CACHE_DESCS)))
    rec = {"hash": h, "q": draw(st.sampled_from([1, 2, 2.0, 3, True, "2", 0])),
           "count": draw(st.integers(-2, 10**6)), "version": ENGINE_VERSION}
    kind = draw(st.sampled_from([
        "valid", "stale", "torn", "non-dict", "bool-count", "duplicate-key",
        "escaped-hash", "non-utf8", "unicode-description", "trailing", "blank",
    ]))
    text = json.dumps(rec)
    if kind == "stale":
        text = json.dumps(dict(rec, version="0"))
    elif kind == "torn":
        text = text[:draw(st.integers(1, len(text) - 1))]
    elif kind == "non-dict":
        text = json.dumps(draw(st.sampled_from([[h, 2], h, 7])))
    elif kind == "bool-count":
        text = json.dumps(dict(rec, count=True))
    elif kind == "duplicate-key":  # the decoder keeps the last "hash"
        other = _key(draw(st.sampled_from(CACHE_DESCS)))
        text = text.replace('"q"', f'"hash": "{other}", "q"')
    elif kind == "escaped-hash":
        text = _escape_hex(text, h, draw(st.sets(st.integers(0, 63), min_size=1)))
    elif kind == "unicode-description":
        text = json.dumps(dict(rec, description="\u00e9\u27e8"),
                          ensure_ascii=draw(st.booleans()))
    elif kind == "trailing":
        text += "x"
    elif kind == "blank":
        text = ""
    line = text.encode("utf-8")
    if kind == "non-utf8":
        at = draw(st.integers(0, len(line)))
        bad = draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
        line = line[:at] + bad + line[at:]
    pad = st.sampled_from([b"", b" ", b"\t", b"\x0b", b"\x0c", b"\x1c", b"\xc2\x85"])
    return draw(pad) + line + draw(pad)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(cache_lines(), st.sampled_from([b"\n", b"\r\n", b"\r"])),
                max_size=12),
       st.booleans())
def test_cache_lookup_matches_full_parse(tmp_path_factory, lines, torn_end):
    data = b"".join(line + sep for line, sep in lines)
    if torn_end and lines:
        data = data[: -len(lines[-1][1])]
    path = tmp_path_factory.mktemp("cache") / "c.jsonl"
    path.write_bytes(data)
    entries, rejected = reference_load(path)
    cache = ColengthCache(str(path))
    for desc in CACHE_DESCS:
        for q in (1, 2, 3):
            assert cache.get(desc, q) == entries.get((_key(desc), q))
    assert cache.entries() == [
        {"hash": h, "q": q, "count": c, "version": ENGINE_VERSION}
        for (h, q), c in sorted(entries.items())
    ]
    assert cache.rejected == rejected


def test_cache_lookup_decodes_only_candidate_lines(tmp_path, monkeypatch):
    path = tmp_path / "c.jsonl"
    cache = ColengthCache(str(path))
    for i in range(50):
        cache.put(f"filler {i}", 2, i)
    cache.put("a", 2, 5)
    cache.put("a", 4, 7)
    cache.put("caf\u00e9", 2, 9)  # ASCII JSON spells it with a backslash
    decoded = []
    real = cache_mod._decode
    monkeypatch.setattr(cache_mod, "_decode", lambda s: decoded.append(s) or real(s))
    fresh = ColengthCache(str(path))
    assert decoded == []
    assert fresh.get("a", 2) == 5
    assert len(decoded) == 3  # the two records of "a" and the escaped one
    assert fresh.get("absent", 2) is None
    assert len(decoded) == 4


def test_cache_put_after_get_decodes_nothing(tmp_path, monkeypatch):
    path = tmp_path / "c.jsonl"
    cache = ColengthCache(str(path))
    for i in range(20):
        cache.put(f"filler {i}", 2, i)
    cache.put("a", 2, 5)
    decoded = []
    real = cache_mod._decode
    monkeypatch.setattr(cache_mod, "_decode", lambda s: decoded.append(s) or real(s))
    fresh = ColengthCache(str(path))
    assert fresh.get("a", 4) is None
    assert len(decoded) == 1
    fresh.put("a", 4, 7)  # the miss cached_counter fills
    fresh.put("a", 2, 6)  # already on file: not appended
    assert len(decoded) == 1
    assert fresh.get("a", 4) == 7 and fresh.get("a", 2) == 5
    assert len(decoded) == 1
    assert ColengthCache(str(path)).entries() == fresh.entries()
    assert fresh.get("filler 3", 2) == 3


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(cache_lines(), st.sampled_from([b"\n", b"\r\n", b"\r"])),
                max_size=40),
       st.booleans(), st.integers(64, 256),
       st.lists(st.tuples(st.booleans(), st.sampled_from(CACHE_DESCS),
                          st.sampled_from([1, 2, 3]), st.integers(0, 99)), max_size=12))
def test_cache_lookup_across_windows_matches_full_parse(
        tmp_path_factory, lines, torn_end, window, calls):
    """Small windows split the file into many, and gets and puts of random
    keys resume each other's scans."""
    data = b"".join(line + sep for line, sep in lines)
    if torn_end and lines:
        data = data[: -len(lines[-1][1])]
    path = tmp_path_factory.mktemp("cache") / "c.jsonl"
    path.write_bytes(data)
    entries, rejected = reference_load(path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cache_mod, "_WINDOW", window)
        cache = ColengthCache(str(path))
        for is_put, desc, q, count in calls:
            key = (_key(desc), q)
            if is_put:
                size = path.stat().st_size
                cache.put(desc, q, count)
                assert (path.stat().st_size > size) == (key not in entries)
                entries.setdefault(key, count)
            else:
                assert cache.get(desc, q) == entries.get(key)
        assert reference_load(path) == (entries, rejected)
        assert cache.entries() == [
            {"hash": h, "q": q, "count": c, "version": ENGINE_VERSION}
            for (h, q), c in sorted(entries.items())
        ]
        assert cache.rejected == rejected


def _spy_decode(monkeypatch):
    decoded = []
    real = cache_mod._decode
    monkeypatch.setattr(cache_mod, "_decode", lambda s: decoded.append(s) or real(s))
    return decoded


def _write_records(path, *records):
    """Records of "a" and of "filler i" (a count alone stands for a filler)."""
    rec = {"hash": _key("a"), "version": ENGINE_VERSION}
    lines = [dict(rec, hash=_key(f"filler {r}"), q=2, count=r) if type(r) is int
             else dict(rec, q=r[0], count=r[1]) for r in records]
    path.write_text("".join(json.dumps(x, sort_keys=True) + "\n" for x in lines))


@pytest.mark.parametrize("fillers", [3, 500])
def test_cache_get_stops_at_the_newest_record(tmp_path, monkeypatch, fillers):
    path = tmp_path / "c.jsonl"
    _write_records(path, (2, 5), *range(fillers), (2, 6))
    decoded = _spy_decode(monkeypatch)
    assert ColengthCache(str(path)).get("a", 2) == 6
    assert len(decoded) == 1  # the newer record alone


def test_cache_put_reads_the_rest_of_the_file_first(tmp_path, monkeypatch):
    path = tmp_path / "c.jsonl"
    _write_records(path, (2, 5), *range(500), (4, 7))
    decoded = _spy_decode(monkeypatch)
    cache = ColengthCache(str(path))
    assert cache.get("a", 4) == 7
    assert len(decoded) == 1  # (a, 2) lies before the frontier
    before = path.read_bytes()
    cache.put("a", 2, 99)
    assert path.read_bytes() == before
    assert len(decoded) == 2
    assert cache.get("a", 2) == 5


def test_cache_put_creates_its_directory_only_when_missing(tmp_path, monkeypatch):
    path = tmp_path / "new" / "nested" / "colengths.jsonl"
    cache = ColengthCache(str(path))
    cache.put("a", 2, 5)
    assert ColengthCache(str(path)).get("a", 2) == 5
    made = []
    monkeypatch.setattr(cache_mod.os, "makedirs", lambda *args, **kw: made.append(args))
    cache.put("a", 4, 7)
    assert made == []
    assert ColengthCache(str(path)).get("a", 4) == 7


class _SpiedFile:
    """A file whose reads are logged as (offset, bytes read)."""

    def __init__(self, fh, reads):
        self._fh, self._reads = fh, reads

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def read(self, *args):
        at = self._fh.tell()
        data = self._fh.read(*args)
        self._reads.append((at, len(data)))
        return data

    def readinto(self, buf):
        at = self._fh.tell()
        n = self._fh.readinto(buf)
        self._reads.append((at, n))
        return n


def _spy_reads(monkeypatch):
    """Every read the cache module makes from a file it opens."""
    reads = []

    def spied(*args, **kw):
        return _SpiedFile(open(*args, **kw), reads)

    monkeypatch.setattr(cache_mod, "open", spied, raising=False)
    return reads


def _write_long_file(path, *records):
    """_write_records with enough fillers before the records for a file
    of at least 20 windows."""
    _write_records(path, *range(20 * cache_mod._WINDOW // 90), *records)
    size = path.stat().st_size
    assert size >= 20 * cache_mod._WINDOW
    return size


def test_cache_hit_reads_only_the_tail(tmp_path, monkeypatch):
    path = tmp_path / "c.jsonl"
    size = _write_long_file(path, (2, 5), (4, 7))
    reads = _spy_reads(monkeypatch)
    cache = ColengthCache(str(path))
    assert cache.get("a", 2) == 5 and cache.get("a", 4) == 7
    assert reads == [(size - 2 * cache_mod._WINDOW, 2 * cache_mod._WINDOW)]


def test_cache_miss_reads_the_head_once(tmp_path, monkeypatch):
    path = tmp_path / "c.jsonl"
    size = _write_long_file(path, (8, 1))
    reads = _spy_reads(monkeypatch)
    cache = ColengthCache(str(path))
    assert reads == [(size - 2 * cache_mod._WINDOW, 2 * cache_mod._WINDOW)]
    assert cache.get("a", 2) is None
    head = size - len(cache._tail)
    assert size - 2 * cache_mod._WINDOW < head <= size - cache_mod._WINDOW
    assert reads[1:] == [(0, head)]
    assert cache.get("a", 4) is None  # the ladder's second q
    cache.put("a", 2, 5)
    cache.put("a", 4, 7)
    assert len(reads) == 2
    assert ColengthCache(str(path)).get("a", 2) == 5


def test_cache_scan_after_a_tail_hit_matches_full_parse(tmp_path, monkeypatch):
    path = tmp_path / "c.jsonl"
    _write_long_file(path, (2, 6))
    data = path.read_bytes()
    good = {"hash": _key("a"), "q": 4, "count": 7, "version": ENGINE_VERSION}
    old = (json.dumps(good) + "\r\n{torn\r\n").encode()  # rejected, in the head
    new = b"not json\n" + json.dumps(dict(good, q=3)).encode() + b"\n"
    path.write_bytes(old + data + new)
    size = path.stat().st_size
    entries, rejected = reference_load(path)
    reads = _spy_reads(monkeypatch)
    cache = ColengthCache(str(path))
    assert cache.get("a", 2) == 6
    assert reads == [(size - 2 * cache_mod._WINDOW, 2 * cache_mod._WINDOW)]
    assert cache.entries() == [
        {"hash": h, "q": q, "count": c, "version": ENGINE_VERSION}
        for (h, q), c in sorted(entries.items())
    ]
    assert cache.rejected == rejected == 2
    assert len(reads) == 2 and reads[1][0] == 0  # the head, read once
    assert cache.get("a", 4) == 7
    assert len(reads) == 2


def test_cache_open_survives_the_file_removed_before_it_is_read(tmp_path, monkeypatch):
    path = tmp_path / "c.jsonl"
    _write_records(path, (2, 5))

    def removed_first(*args, **kw):  # a concurrent `cache clear` wins the race
        if os.path.exists(path):
            path.unlink()
        return open(*args, **kw)

    monkeypatch.setattr(cache_mod, "open", removed_first, raising=False)
    cache = ColengthCache(str(path))
    assert cache.get("a", 2) is None
    assert cache.entries() == [] and cache.rejected == 0


@pytest.mark.parametrize("replacement", [None, b"", b"{torn", "longer"])
def test_cache_lookup_survives_the_file_changed_before_the_head_is_read(
        tmp_path, replacement):
    """Another process clears or rewrites the file after ColengthCache()
    read the tail: a lookup that reaches the head gives a miss or a record
    that one of the two files holds."""
    path = tmp_path / "c.jsonl"
    _write_records(path, (2, 5), *range(20 * cache_mod._WINDOW // 90), 3)
    old, _ = reference_load(path)
    cache = ColengthCache(str(path))
    if replacement is None:
        path.unlink()
    elif replacement == "longer":
        _write_records(path, (2, 9), (4, 1), *range(8000))
    else:
        path.write_bytes(replacement)
    new = reference_load(path)[0] if path.exists() else {}
    held = [old, new]
    for desc, q in [("a", 2), ("a", 4), ("filler 3", 2), ("filler 7999", 2)]:
        got = cache.get(desc, q)
        assert got is None or any(got == e.get((_key(desc), q)) for e in held)
    assert cache.get("filler 3", 2) == 3  # in the tail, read before the change
    for rec in cache.entries():
        assert any(rec["count"] == e.get((rec["hash"], rec["q"])) for e in held)


def test_cached_oracle_survives_a_clear_before_the_head_is_read(
        capsys, tmp_path, monkeypatch):
    argv = ["oracle", "--preset", "ci-rees", "--m", "1", "--n", "1",
            "--q", "2,4", "--json"]
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    path = tmp_path / "colengths.jsonl"
    _write_long_file(path)
    real = ColengthCache._load

    def cleared_after_load(self):  # another process's `cache clear`
        real(self)
        os.remove(self.path)

    monkeypatch.setattr(ColengthCache, "_load", cleared_after_load)
    assert run_cli(capsys, *argv, "--cache-dir", str(tmp_path)) == (0, plain, "")
    monkeypatch.undo()
    assert ColengthCache(str(path)).get("ci-rees m=1 n=1", 4) == 84


def test_put_ends_a_torn_last_line(capsys, tmp_path):
    path = tmp_path / "colengths.jsonl"
    path.write_text('{"count": 5, "hash": "ab')
    argv = ["oracle", "--preset", "ci-rees", "--m", "1", "--n", "1",
            "--q", "2,4", "--cache-dir", str(tmp_path)]
    assert run_cli(capsys, *argv)[0] == 0
    cache = ColengthCache(str(path))
    assert cache.rejected == 1  # the torn line alone
    assert cache.get("ci-rees m=1 n=1", 2) == 10
    assert cache.get("ci-rees m=1 n=1", 4) == 84


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


@pytest.mark.parametrize("preset", ["an-hypersurface", "an-extrees"])
@pytest.mark.parametrize("q", ["0", "-4", "0,64"])
def test_twin_presets_reject_q_below_one(capsys, preset, q):
    """q >= 1 is checked before any period or node is read."""
    code, out, err = run_cli(capsys, "oracle", "--preset", preset, "--n", "3",
                             "--q", q)
    assert (code, out) == (3, "")
    assert err == f"error: q must be >= 1, got {q.split(',')[0]}\n"


def test_formula_json(capsys):
    code, out, _ = run_cli(
        capsys, "formula", "veronese-rees", "--c", "2", "--d", "2", "--json"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["value"] == "13/6"
    assert abs(doc["value_approx"] - 13 / 6) < 1e-12


def test_formula_json_value_beyond_float_range(capsys):
    """`value` stays exact, and `value_approx` is null when the value does
    not fit a float."""
    argv = ["formula", "veronese-rees-general", "--c", str(10**400), "--d", "2"]
    code, text, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    code, out, err = run_cli(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["value"] == text.strip()
    assert doc["value_approx"] is None


def test_formula_computation_error_exit_3(capsys):
    code, _, err = run_cli(capsys, "formula", "conca", "--ds", "0", "--es", "1")
    assert code == 3
    assert "error:" in err


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["formula", "unknown-family"])
    capsys.readouterr()
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, shows", [
    (["-h"], "Exit codes: 0 ok, 1 check failure, 2 usage error"),
    (["--help"], "  oracle   compute finite-q colength samples"),
    (["oracle", "--help"], "[--cache-dir DIR]"),
    (["formula", "segre", "--c", "2", "-h"], "usage: hkrees formula {segre,"),
    (["cache", "-h", "--bogus"], "usage: hkrees cache {inspect,clear} --cache-dir DIR"),
])
def test_help_prints_and_exits_0(capsys, argv, shows):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "") and shows in out


@pytest.mark.parametrize("argv, err", [
    ([], "error: a command is required"),
    (["--json"], "error: unknown command '--json'"),
    (["oracle", "--pre", "segre"], "error: unrecognized argument '--pre'"),
    (["cache", "inspect", "--c", "x"], "error: unrecognized argument '--c'"),
    (["formula", "--family", "segre"], "error: unrecognized argument '--family'"),
    (["formula", "segre", "--json=1"], "error: --json takes no value"),
    (["formula", "segre", "--c", "--d", "2"], "error: --c needs a value"),
    (["oracle", "--preset", "segre", "--q"], "error: --q needs a value"),
    (["cache", "--cache-dir", "x"], "error: missing action"),
    (["cache"], "error: missing action, --cache-dir"),
])
def test_usage_errors_print_usage_then_error(capsys, argv, err):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, got = capsys.readouterr()
    usage, message = got.splitlines()
    assert (exc.value.code, out, message) == (2, "", err)
    command = argv[0] if argv and argv[0] in COMMANDS else "{formula,"
    assert usage.startswith(f"usage: hkrees {command}")


def test_flag_values_may_start_with_one_dash(capsys):
    """Only a token starting with -- is refused as a value, so `--q -1,2`
    reads like `--q=-1,2`; a negative flag value is a computation error."""
    argv = ["oracle", "--preset", "an-hypersurface", "--n", "2", "--grid",
            "primepow:3"]
    assert run_cli(capsys, *argv, "--q", "-1,2") == run_cli(capsys, *argv, "--q=-1,2")
    assert run_cli(capsys, "formula", "segre", "--c", "-1", "--d", "2")[0] == 3


def _parsed(parse, argv):
    """(exit code, fields) of one parse; the fields are None on an exit."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            fields = vars(parse(argv))
        except SystemExit as exc:
            return exc.code, None
    fields.pop("func", None)
    return 0, fields


@st.composite
def command_lines(draw):
    """An argv drawn from a command's table: full flag names, each spelled
    `--f v` or `--f=v`, values that do not start with -, and at times one
    fault: a bad choice or integer, an unknown flag, a missing value, a
    value given to --json or a left-out required argument."""
    command = draw(st.sampled_from(list(COMMANDS)))
    _, positional, flags, required = COMMANDS[command]

    def value(kind):
        if kind is parse_int:
            return str(draw(st.integers(0, 99)))
        if isinstance(kind, str):
            return draw(st.sampled_from(["2,4", "8", "", "a=b", "x y", "pow2"]))
        return draw(st.sampled_from(list(kind)))

    names = [n for n in flags if n != positional]
    chosen = [n for n in required if n != positional and draw(st.integers(0, 9))]
    chosen += draw(st.lists(st.sampled_from(names), max_size=5))
    chosen = draw(st.permutations(chosen))
    words = []
    for name in chosen:
        if flags[name] is bool:
            words.append([f"--{name}"])
        elif draw(st.booleans()):
            words.append([f"--{name}={value(flags[name])}"])
        else:
            words.append([f"--{name}", value(flags[name])])
    if positional and draw(st.integers(0, 9)):
        words.insert(draw(st.integers(0, len(words))), [value(flags[positional])])
    fault = draw(st.sampled_from(["none"] * 4 + ["choice", "unknown", "value"]))
    if fault == "choice":
        picked = [n for n in flags if flags[n] is parse_int
                  or not isinstance(flags[n], (str, type))]
        name = draw(st.sampled_from(picked))
        bad = draw(st.sampled_from(["nope", "1_0", "+3", "x1"]))
        words.append([bad] if name == positional else [f"--{name}", bad])
    elif fault == "unknown":
        # argparse takes a unique prefix of a flag, so no unknown flag is one
        others = ["bogus", "family", "action", "preset", "suite", "c", "d", "q", "es",
                  "file", "cache-dir"]
        name = draw(st.sampled_from([n for n in others if not any(
            f.startswith(n) for f in [*names, "help"])]))
        words.insert(draw(st.integers(0, len(words))),
                     [draw(st.sampled_from([f"--{name}", f"--{name}=2", "-x"]))])
    elif fault == "value" and draw(st.booleans()):
        words.insert(draw(st.integers(0, len(words))), ["--json=1"])
    elif fault == "value":
        name = draw(st.sampled_from([n for n in names if flags[n] is not bool]))
        words.insert(draw(st.integers(0, len(words))), [f"--{name}"])
        if words[-1] != [f"--{name}"]:  # not last: a flag follows it
            words.insert(words.index([f"--{name}"]) + 1, ["--json"])
    return [command, *(w for word in words for w in word)]


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_parse_args_agrees_with_argparse(argv):
    """The table walk exits where the argparse parser exits, with the same
    code, and otherwise gives every field the same value."""
    assert _parsed(parse_args, argv) == _parsed(build_parser().parse_args, argv)


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


@pytest.mark.parametrize("preset, text, err", [
    ("presentation", "vars: x x\nbin: x - x^2\ndim: 1\n",
     "error: repeated variable 'x' in vars: line\n"),
    ("semigroup", "sg: (0, 2) (1,1) (2,0)\n", "error: bad generator '0,'\n"),
    ("presentation", "vars: x y\nbin: x^ - y\ndim: 1\n",
     "error: bad exponent '' in 'x^'\n"),
    ("presentation", "vars: x y z\nbin: x*y - z^2\ndim: one\n",
     "error: bad dim: value 'one'\n"),
    ("presentation", "vars: x y z\nbin: x*y - z^2\ndim: 2\nvars: a b c\n",
     "error: repeated vars: line\n"),
    ("presentation", "vars: x y z\nbin: x*y - z^2\ndim: 2\ndim: 2\n",
     "error: repeated dim: line\n"),
    ("presentation",
     "vars: x y z\nbin: x*y - z^2\norder: lex\ndim: 2\norder: grevlex\n",
     "error: repeated order: line\n"),
    ("presentation", "vars: x y z\nbin: x**y - z^2\ndim: 2\n",
     "error: empty factor in monomial 'x**y'\n"),
    ("presentation", "vars: x y z\nbin: x*y - z^2\nmono: x^-2\ndim: 2\n",
     "error: negative exponent in 'x^-2'\n"),
    ("presentation", "vars: x y z\nbin: x*y - z^2\ndim: 2\norder: lex x>y>w\n",
     "error: order chain 'x>y>w' does not match vars\n"),
], ids=["repeated-variable", "non-integer-coordinate", "empty-exponent",
        "non-integer-dim", "repeated-vars", "repeated-dim", "repeated-order",
        "empty-factor", "negative-exponent", "order-chain-names-another-variable"])
def test_oracle_rejects_malformed_file_exit_3(capsys, tmp_path, preset, text, err):
    f = tmp_path / "input.txt"
    f.write_text(text)
    code, out, got = run_cli(
        capsys, "oracle", "--preset", preset, "--file", str(f), "--q", "2,3",
    )
    assert (code, out, got) == (3, "", err)


@pytest.mark.parametrize("text", [
    "order: lex x>y>z\nvars: x y z\nbin: x*y - z^2\ndim: 2\n",
    "bin: x*y - z^2\nvars: x y z\ndim: 2\norder: lex x>y>z\n",
    "dim: 1\nmono: z^5\norder: grevlex z>y>x\nbin: x*y - z^3\nvars: x y z\n",
], ids=["order-first", "bin-first", "vars-last"])
def test_oracle_reads_vars_line_first(capsys, tmp_path, text):
    # the same ring as with vars: on the first line
    first = tmp_path / "first.txt"
    lines = text.splitlines()
    first.write_text("\n".join(sorted(lines, key=lambda l: not l.startswith("vars:"))))
    later = tmp_path / "later.txt"
    later.write_text(text)
    runs = [run_cli(capsys, "oracle", "--preset", "presentation", "--file", str(f),
                    "--q", "2,4,8", "--json") for f in (first, later)]
    assert runs[0][0] == 0
    assert runs[1] == runs[0]


# int() also reads underscores and non-ASCII digits; every integer from
# outside must be ASCII digits with an optional leading minus.  An empty
# list entry is no integer either: `--ds 1,,2` once read as `--ds 1,2`.
@pytest.mark.parametrize("argv, text, code, err", [
    (["oracle", "--preset", "presentation", "--q", "2,3"],
     "vars: x y z\nbin: x*y - z^1_0\ndim: 2\n",
     3, "error: bad exponent '1_0' in 'z^1_0'\n"),
    (["oracle", "--preset", "presentation", "--q", "2,3"],
     "vars: x y z\nbin: x*y - z^2\ndim: \uff12\n",
     3, "error: bad dim: value '\uff12'\n"),
    (["oracle", "--preset", "semigroup", "--q", "2,3"],
     "sg: (0,2) (1,1) (2,0_0)\n", 3, "error: bad generator '2,0_0'\n"),
    (["oracle", "--preset", "segre", "--c", "2", "--d", "2", "--q", "1_6,3_2"],
     None, 3, "error: bad integer list '1_6,3_2'\n"),
    (["oracle", "--preset", "segre", "--c", "2", "--d", "2", "--q", "\uff18,16"],
     None, 3, "error: bad integer list '\uff18,16'\n"),
    (["oracle", "--preset", "an-hypersurface", "--n", "2", "--grid",
      "primepow:x", "--q", "1,2"], None, 3, "error: bad integer 'x'\n"),
    (["oracle", "--preset", "an-hypersurface", "--n", "2", "--grid",
      "primepow:+3", "--q", "1,2"], None, 3, "error: bad integer '+3'\n"),
    (["formula", "conca", "--ds", "1,1", "--es", "1_0"],
     None, 3, "error: bad integer list '1_0'\n"),
    (["formula", "segre", "--c", "1_0", "--d", "2"], None, 2, "'1_0'"),
    (["formula", "ci-rees", "--m", "2", "--n", "\u0663"], None, 2, "'\u0663'"),
    (["formula", "conca", "--ds", "1,,2", "--es", "3"],
     None, 3, "error: bad integer list '1,,2'\n"),
    (["formula", "conca", "--ds", "1,2,", "--es", "3"],
     None, 3, "error: bad integer list '1,2,'\n"),
    (["oracle", "--preset", "segre", "--c", "2", "--d", "2", "--q", "8,,16"],
     None, 3, "error: bad integer list '8,,16'\n"),
    (["oracle", "--preset", "an-hypersurface", "--n", "2", "--grid",
      "primepow:3", "--q", "1,,2"], None, 3, "error: bad integer list '1,,2'\n"),
    (["oracle", "--preset", "segre", "--c", "2", "--d", "2", "--q", ""],
     None, 3, "error: bad integer list ''\n"),
    (["oracle", "--preset", "segre", "--c", "2", "--d", "2", "--q", ","],
     None, 3, "error: bad integer list ','\n"),
], ids=["exponent", "dim", "coordinate", "q-underscore", "q-fullwidth",
        "grid-base", "grid-plus", "conca-list", "flag-underscore",
        "flag-arabic-indic", "conca-empty-entry", "conca-trailing-comma",
        "q-empty-entry", "grid-empty-exponent", "q-empty", "q-comma"])
def test_integers_from_input_are_ascii_digits(capsys, tmp_path, argv, text,
                                              code, err):
    if text is not None:
        f = tmp_path / "input.txt"
        f.write_text(text, encoding="utf-8")
        argv = [*argv, "--file", str(f)]
    try:
        got_code, out, got_err = run_cli(capsys, *argv)
    except SystemExit as exc:  # the parser rejects a bad flag value
        got_code, got_err = exc.code, capsys.readouterr().err
        out = ""
    assert (got_code, out) == (code, "")
    assert got_err == err if code == 3 else err in got_err


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


def test_cached_oracle_keeps_the_preset_fields(capsys, tmp_path):
    """--cache-dir swaps only the counter: the samples keep veronese-rees'
    q_scale, and the description and target are the preset's own."""
    argv = ["oracle", "--preset", "veronese-rees", "--c", "2", "--d", "2",
            "--q", "2,4", "--json"]
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    preset = presets.veronese_rees(2, 2)
    for _ in range(2):  # cold, then warm
        code, out, _ = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
        assert (code, out) == (0, plain)
        doc = json.loads(out)
        assert [q for q, _ in doc["samples"]] == [4, 8]
        assert doc["preset"] == preset.description
        assert doc["target"] == "13/6" == str(preset.target)
    entries = ColengthCache(os.path.join(tmp_path, "colengths.jsonl")).entries()
    key = _key(preset.description)  # the grid q, as the counter takes it
    assert {(e["hash"], e["q"]) for e in entries} == {(key, 2), (key, 4)}


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


def test_cache_clear_without_a_cache_file(capsys, tmp_path):
    got = run_cli(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
    assert got == (0, "cache cleared\n", "")
    assert not any(tmp_path.iterdir())



@pytest.mark.parametrize("argv", [
    ["cache", "inspect", "--cache-dir", ""],
    ["cache", "clear", "--cache-dir", ""],
    ["oracle", "--preset", "an-hypersurface", "--n", "2", "--q", "2,4",
     "--cache-dir", ""],
], ids=["inspect", "clear", "oracle"])
def test_empty_cache_dir_is_rejected(capsys, tmp_path, monkeypatch, argv):
    """An empty --cache-dir exits 3 and neither reads nor clears the cache
    file of the working directory."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "colengths.jsonl").write_text("kept\n")
    assert run_cli(capsys, *argv) == (3, "", "error: --cache-dir must not be empty\n")
    assert (tmp_path / "colengths.jsonl").read_text() == "kept\n"


@pytest.mark.parametrize("argv, err", [
    (["segre", "--c", "2", "--d", "3", "--n", "9"],
     "error: formula segre does not take --n\n"),
    (["conca", "--ds", "1,1", "--es", "2", "--c", "4"],
     "error: formula conca does not take --c\n"),
    (["ci-rees", "--n", "2", "--d", "1"],
     "error: formula ci-rees does not take --d\n"),
], ids=["segre", "conca", "foreign-before-missing"])
def test_formula_rejects_flags_its_family_does_not_take(capsys, argv, err):
    with pytest.raises(SystemExit) as exc:
        main(["formula", *argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err == err


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


def test_mistyped_cache_records_are_rejected_and_recomputed(capsys, tmp_path):
    argv = ["oracle", "--preset", "an-hypersurface", "--n", "2", "--q", "2,4",
            "--json"]
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    good = {"hash": AN2_HASH, "q": 4, "count": 24, "version": ENGINE_VERSION}
    records = [
        dict(good, hash=7),
        dict(good, q="4"),
        dict(good, q=True, count=99),  # would be served as q = 1
        dict(good, q=2.0, count=99),  # would be served as q = 2
        dict(good, count=-5),
    ]
    path = tmp_path / "colengths.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, err = run_cli(capsys, "cache", "inspect", "--cache-dir", str(tmp_path))
    assert (code, out, err) == (0, "0 entries\n", "")
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    assert (code, out, err) == (0, plain, "")
    cache = ColengthCache(str(path))
    assert cache.rejected == len(records)
    assert (cache.get("an-hypersurface n=2", 2), cache.get("an-hypersurface n=2", 4)) == (6, 24)


def test_non_utf8_cache_line_is_rejected_not_fatal(capsys, tmp_path):
    argv = ["oracle", "--preset", "an-hypersurface", "--n", "2", "--q", "2,4",
            "--json"]
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    path = tmp_path / "colengths.jsonl"
    path.write_bytes(b'{"count": 6, "hash": "\xff"}\n')
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    assert (code, out, err) == (0, plain, "")
    code, out, err = run_cli(capsys, "cache", "inspect", "--cache-dir", str(tmp_path))
    assert (code, err) == (0, "")
    assert "2 entries" in out
    assert ColengthCache(str(path)).rejected == 1


def test_missing_file_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "oracle", "--preset", "semigroup", "--file", "/nonexistent"
    )
    assert code == 3
    assert "error:" in err


@pytest.mark.parametrize("exc, err", [
    (MemoryError(), "error: out of memory\n"),
    (MemoryError("box too large"), "error: box too large\n"),
])
def test_out_of_memory_exit_3(capsys, tmp_path, monkeypatch, exc, err):
    """A counter that cannot allocate its box gives a one-line error and
    exit 3, not a traceback.  S is not normal, so the box runs at q."""
    from hkrees import lattice

    def no_memory(*args):
        raise exc

    monkeypatch.setattr(lattice, "_PackedBox", no_memory)
    path = tmp_path / "sg.txt"
    path.write_text("sg: (0,5) (2,1) (3,0)\n")
    got = run_cli(capsys, "oracle", "--preset", "semigroup", "--file",
                  str(path), "--q", "8,16")
    assert got == (3, "", err)


@pytest.mark.parametrize("preset", ["semigroup", "semigroup-extrees"])
def test_box_past_the_machine_word_exit_3(capsys, tmp_path, preset):
    """At q = 10^20 the box of a non-normal S has a side that no C size
    holds: one line and exit 3, not an OverflowError traceback."""
    path = tmp_path / "sg.txt"
    path.write_text("sg: (0,5) (2,1) (3,0)\n")
    code, out, err = run_cli(capsys, "oracle", "--preset", preset, "--file", str(path),
                             "--q", "100000000000000000000,200000000000000000000")
    assert (code, out) == (3, "")
    assert err.startswith("error: too large to compute: ") and err.count("\n") == 1


def test_recursion_limit_exit_3(capsys, monkeypatch):
    """A count that recurses past the limit, as the slab walk does with one
    slab frame per coupled variable at about 1,000 of them, gives one line
    and exit 3.  n = 1 has no toric twin, so the engine counts at q."""
    from hkrees import engine

    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(engine, "count_standard_monomials", too_deep)
    got = run_cli(capsys, "oracle", "--preset", "an-hypersurface", "--n", "1",
                  "--q", "2,4")
    assert got == (3, "", "error: too large to compute: maximum recursion depth exceeded\n")


def test_polynomial_ring_in_1100_variables(capsys, tmp_path):
    """Every variable of a polynomial ring is free, so the count takes no
    slab frame per variable and stays far below the recursion limit; the
    colength at q is q^1100."""
    f = tmp_path / "poly1100.txt"
    f.write_text("vars: " + " ".join(f"x{i}" for i in range(1100)) + "\ndim: 1100\n")
    code, out, err = run_cli(capsys, "oracle", "--preset", "presentation",
                             "--file", str(f), "--q", "2,3", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["samples"] == [[2, 2**1100], [3, 3**1100]]


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
