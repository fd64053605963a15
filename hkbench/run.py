#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for hkrees.

Usage, from the root of a source checkout:

    python3 hkbench/run.py --workload engine-ladder --seed 1 --seconds 30 --trace 0

One operation ("op") is one in-process ``hkrees.cli.main(argv)`` call with
``--json`` and captured output.  A run imports hkrees from ``src/`` of the
checkout, builds the workload's ops from the seed, then runs passes over
them until ``--seconds`` have elapsed (and at least MIN_PASSES passes are
done).  Every output is compared with ``reference.json`` after its pass.
Times are scaled to a reference host speed tracked by a calibration
kernel, because the speed of a shared host drifts (see KERNEL_REF_S).

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate, and the last line
holds the per-layer metrics recorded by wrappers around each layer's
public functions (see NOTES.md).  Earlier stdout lines are for people.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import types
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
WORK_ROOT = ROOT / ".hkbench-work"

SETUP_REPEATS = 5
# The host's speed drifts by up to 2x over seconds to minutes (other tenants
# share its cores), so every timing is scaled to a reference speed: a fixed
# pure-Python kernel is timed between ops, and a time t measured while the
# kernel takes k is reported as t * KERNEL_REF_S / k.  KERNEL_REF_S is the
# kernel's median time on a 2-vCPU x86-64 host (Python 3.11) in a quiet spell.
KERNEL_REF_S = 0.00062
KERNEL_PROBES = 25  # kernel timings on each side of a set-up; the least per pass
# op_tail_ms is read at the middle of the second-slowest op of a pass, so it
# never sits on the edge between two ops of very different cost; 7 passes
# put 10.5 samples beyond it.
TAIL_RANK = 1
MIN_PASSES = 7
MIN_TRACED_PASSES = 3


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or reference)."""


def speed_kernel() -> int:
    """A fixed mix of tuple, dict and integer work, like hkrees' own."""
    acc = 0
    seen: dict = {}
    for i in range(1000):
        t = (i, i * 7 % 13, i ^ 5)
        seen[t] = seen.get(t, 0) + 1
        acc += max(t) - min(t)
    return acc


def kernel_times(probes: int) -> list[float]:
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        speed_kernel()
        times.append(time.perf_counter() - t0)
    return times


def slowdown(before: list[float], after: list[float]) -> float:
    """The host's slowdown against the reference speed while something ran
    between two groups of kernel timings."""
    return statistics.median(before + after) / KERNEL_REF_S


# ---------------------------------------------------------------------------
# Rings, ladders and workloads


@dataclass(frozen=True)
class Ring:
    """One oracle preset: its CLI arguments and, for file presets, the text
    of the input file (semigroup generators or a presentation)."""

    argv: tuple[str, ...]
    gens: tuple[tuple[int, int], ...] = ()
    text: str = ""


def _preset(name: str, **params: int) -> tuple[str, Ring]:
    argv = ["--preset", name]
    for k, v in params.items():
        argv += [f"--{k}", str(v)]
    key = " ".join([name] + [f"{k}={v}" for k, v in params.items()])
    return key, Ring(tuple(argv))


def _semigroup(kind: str, *gens: tuple[int, int]) -> tuple[str, Ring]:
    key = kind + " " + " ".join(f"({a},{b})" for a, b in gens)
    return key, Ring(("--preset", kind), gens=gens)


REES_X2Y3 = "presentation rees(x^2,y^3)"
RINGS = dict([
    _preset("an-hypersurface", n=2),
    _preset("an-hypersurface", n=3),
    _preset("an-extrees", n=3),
    _preset("ci-extrees", m=2, n=3),
    (REES_X2Y3, Ring(("--preset", "presentation"),
                     text="vars: x y u v\nbin: x^2*v - y^3*u\ndim: 3\n")),
    _preset("ci-rees", m=1, n=1),
    _preset("ci-rees", m=1, n=2),
    _preset("ci-rees", m=2, n=3),
    _preset("segre", c=2, d=2),
    _preset("segre", c=2, d=3),
    _preset("segre", c=3, d=3),
    _preset("segre", c=3, d=4),
    _preset("veronese-rees", c=2, d=2),
    _preset("veronese-rees", c=3, d=2),
    _preset("veronese-rees", c=2, d=3),
    _preset("veronese-rees", c=3, d=3),
    _semigroup("semigroup", (0, 5), (2, 1), (3, 0)),
    _semigroup("semigroup", (0, 2), (1, 1), (2, 0)),
    _semigroup("semigroup-extrees", (0, 2), (1, 1), (2, 0)),
    _semigroup("semigroup", (0, 3), (1, 1), (3, 0)),
    _semigroup("semigroup-extrees", (0, 3), (1, 1), (3, 0)),
    _semigroup("semigroup", (0, 3), (1, 2), (2, 1), (3, 0)),
    _semigroup("semigroup-extrees", (0, 3), (1, 2), (2, 1), (3, 0)),
])


@dataclass(frozen=True)
class Ladder:
    """An oracle ladder: the fixed rungs plus `pick` rungs the seed draws
    from `low`.  The estimator reads only the top four rungs, so a ring
    with a target keeps them fixed and the seed varies a rung below them;
    accuracy then does not depend on the seed.  Semigroup rings have no
    target, and the seed draws all their rungs."""

    ring: str
    top: tuple[int, ...] = ()
    low: tuple[int, ...] = ()
    pick: int = 1

    def draw(self, rng: random.Random) -> list[int]:
        qs = list(self.top) + rng.sample(self.low, self.pick)
        rng.shuffle(qs)  # the CLI sorts; argument order is free
        return qs


WORKLOADS = {
    # The engine does the work, split between buchberger (large |GB| on the
    # hypersurfaces) and count_standard_monomials (the 4- and 5-variable
    # Rees algebras).  No lattice code runs.
    "engine-ladder": [
        Ladder("an-hypersurface n=2", (32, 48, 64, 96), (16, 24)),
        Ladder("an-hypersurface n=3", (16, 32, 64, 128), (8, 12)),
        Ladder("an-extrees n=3", (8, 16, 24, 48), (4, 6)),
        Ladder("ci-extrees m=2 n=3", (6, 12, 16, 24), (3, 4)),
        Ladder(REES_X2Y3, (6, 8, 12, 16), (3, 4)),
    ],
    # The lattice counters do the work: semigroup grids (three rungs each,
    # so a grid shared across q can show), staircases and Segre/Veronese
    # sums at large q.  No engine code runs.
    "lattice-ladder": [
        Ladder("ci-rees m=2 n=3", (16, 32, 64, 96), (8, 12)),
        Ladder("ci-rees m=1 n=2", (24, 36, 48, 64), (12, 16)),
        Ladder("segre c=3 d=4", (256, 512, 768, 1024), (128, 192)),
        Ladder("segre c=2 d=3", (640, 1024, 1536, 2048), (384, 512)),
        Ladder("veronese-rees c=3 d=3", (128, 256, 384, 512), (64, 96)),
        Ladder("veronese-rees c=2 d=2", (160, 256, 384, 512), (64, 96)),
        Ladder("semigroup (0,5) (2,1) (3,0)", low=(8, 12, 16, 20, 24), pick=3),
        Ladder("semigroup (0,2) (1,1) (2,0)", low=(16, 24, 32, 48, 64), pick=3),
        Ladder("semigroup-extrees (0,2) (1,1) (2,0)",
               low=(8, 16, 24, 32), pick=3),
        Ladder("semigroup (0,3) (1,1) (3,0)", low=(16, 24, 32, 40, 48), pick=3),
        Ladder("semigroup-extrees (0,3) (1,1) (3,0)",
               low=(8, 12, 16, 20, 24), pick=3),
        Ladder("semigroup (0,3) (1,2) (2,1) (3,0)",
               low=(16, 24, 32, 40, 48), pick=3),
        Ladder("semigroup-extrees (0,3) (1,2) (2,1) (3,0)",
               low=(8, 12, 16, 20, 24), pick=3),
    ],
}

# check-and-cache: every suite, FORMULA_DRAWS seeded formula calls and one
# two-point cached oracle ladder per (ring, pair).  The pairs of one ring
# share no q, so within a pass no op hits a record another op appended.
SUITES = ("theorem1", "theorem2", "cor54", "prop412", "prop57", "lemma13",
          "assembly", "bcp-compare", "all")
CACHE_RINGS = (
    "segre c=2 d=2", "segre c=2 d=3", "segre c=3 d=3",
    "veronese-rees c=2 d=2", "veronese-rees c=3 d=2", "veronese-rees c=2 d=3",
    "ci-rees m=1 n=1", "ci-rees m=2 n=3",
    "an-hypersurface n=2", "an-hypersurface n=3", "an-extrees n=3",
    "ci-extrees m=2 n=3",
    "semigroup (0,2) (1,1) (2,0)", "semigroup-extrees (0,2) (1,1) (2,0)",
)
CACHE_PAIRS = ((2, 4), (3, 6), (5, 10), (7, 14))
FORMULA_DRAWS = 44  # keeps the op count odd, so op_p50_ms is one op's time
FILLER_RECORDS = 4000
STALE_SHARE = 20  # one filler record in 20 carries an old engine version


def formula_pool() -> list[tuple[str, ...]]:
    """Every formula call the check-and-cache workload may draw."""
    pool = []
    for c in range(1, 6):
        for d in range(c, 6):
            pool.append(("segre", "--c", str(c), "--d", str(d)))
            pool.append(("bcp-segre", "--c", str(c), "--d", str(d)))
    for d in range(1, 9):
        pool.append(("c-of-d", "--d", str(d)))
    conca = [("1,1", str(n)) for n in range(1, 7)]
    conca += [("1,2", "3"), ("2,3", "1,1"), ("1,1,1", "2"), ("2", "3")]
    for ds, es in conca:
        pool.append(("conca", "--ds", ds, "--es", es))
    for d in range(2, 5):
        for c in range(d, 7):
            pool.append(("veronese-rees", "--c", str(c), "--d", str(d)))
        for c in range(1, 9):
            pool.append(("veronese-rees-general", "--c", str(c), "--d", str(d)))
    for m in range(1, 6):
        for n in range(1, 6):
            pool.append(("ci-rees", "--m", str(m), "--n", str(n)))
    for n in range(1, 16):
        pool.append(("stirling-table", "--n", str(n)))
    return [("formula",) + p + ("--json",) for p in pool]


def ring_qs() -> dict[str, set[int]]:
    """Every q any workload may ask of each ring: the reference covers these."""
    out: dict[str, set[int]] = defaultdict(set)
    for ladders in WORKLOADS.values():
        for lad in ladders:
            out[lad.ring].update(lad.top + lad.low)
    for ring in CACHE_RINGS:
        for pair in CACHE_PAIRS:
            out[ring].update(pair)
    return out


# ---------------------------------------------------------------------------
# Ops and grading


@dataclass
class Op:
    kind: str  # oracle | formula | check
    argv: list[str]
    key: str  # ring key, formula argv or suite name
    qs: tuple[int, ...] = ()


def _oracle_op(ring_key: str, qs, files: dict[str, str], extra=()) -> Op:
    ring = RINGS[ring_key]
    argv = ["oracle", *ring.argv, "--q", ",".join(map(str, qs)), *extra, "--json"]
    if ring_key in files:
        argv[argv.index("--json"):argv.index("--json")] = ["--file", files[ring_key]]
    return Op("oracle", argv, ring_key, tuple(sorted(qs)))


def write_inputs(workdir: Path, rng: random.Random, keys) -> dict[str, str]:
    """Write the semigroup and presentation files the rings need."""
    files = {}
    for i, key in enumerate(sorted(set(keys))):
        ring = RINGS[key]
        if ring.gens:
            gens = list(ring.gens)
            rng.shuffle(gens)  # the parser normalizes generator order
            text = "sg: " + " ".join(f"({a},{b})" for a, b in gens) + "\n"
        elif ring.text:
            text = ring.text
        else:
            continue
        path = workdir / f"ring{i}.txt"
        path.write_text(text, encoding="utf-8")
        files[key] = str(path)
    return files


def grade(op: Op, rc, out: str, ref: dict):
    """(ok, accuracy) for one op; accuracy is (missed, rel_err) for an
    oracle op whose ring has a closed-form target, else None."""
    if rc != 0:
        return False, None
    try:
        return _compare(op, json.loads(out), ref)
    except (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError):
        return False, None  # output of the wrong shape


def _compare(op: Op, doc, ref: dict):
    if op.kind == "check":
        got = {r["id"]: r["status"] for r in doc}
        return got == ref["checks"][op.key], None
    if op.kind == "formula":
        doc.pop("value_approx", None)  # labelled float convenience field
        return doc == ref["formulas"][" ".join(op.argv)], None
    table = ref["colengths"][op.key]
    expect = [table[str(q)] for q in op.qs]
    target = ref["targets"].get(op.key)
    if doc.get("samples") != expect or doc.get("target") != target:
        return False, None
    if target is None:
        return True, None
    t = Fraction(target)
    lo, hi = (Fraction(b) for b in doc["bracket"])
    return True, (not lo <= t <= hi, abs(Fraction(doc["leading"]) - t) / t)


# ---------------------------------------------------------------------------
# Set-up


def import_cli():
    """Import hkrees afresh from the checkout's src/ and return its CLI."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "hkrees" or m.startswith("hkrees.")]:
        del sys.modules[name]
    try:
        cli = importlib.import_module("hkrees.cli")
    except ImportError as exc:
        raise BenchError(f"cannot import hkrees from {SRC}: {exc}") from None
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"hkrees imported from {cli.__file__}, not {SRC}")
    return cli


def call(main, argv):
    """Run one CLI call with output captured: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed op, not a crash
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def _filler(version: str, rng: random.Random) -> str:
    """Cache records standing for earlier results; no op asks for them."""
    lines = []
    for i in range(FILLER_RECORDS):
        desc = f"semigroup (0,{i % 97 + 2}) (1,1) ({i % 89 + 2},0)"
        q = 1000 + i
        rec = {
            "count": rng.randrange(10**6, 10**9),
            "description": desc,
            "hash": hashlib.sha256(desc.encode("utf-8")).hexdigest(),
            "q": q,
            "version": "0" if i % STALE_SHARE == 0 else version,
        }
        lines.append(json.dumps(rec, sort_keys=True) + "\n")
    return "".join(lines)


@dataclass
class Workload:
    main: object
    ops: list
    cache_file: Path | None = None
    cache_image: bytes = b""

    def reset(self):
        """Put the seeded cache file back, so every pass starts alike."""
        if self.cache_file is not None:
            self.cache_file.write_bytes(self.cache_image)


def setup(name: str, seed: int, workdir: Path) -> Workload:
    """Import hkrees, generate the ops and input files, seed the cache."""
    cli = import_cli()
    rng = random.Random(seed)
    if name in WORKLOADS:
        ladders = WORKLOADS[name]
        files = write_inputs(workdir, rng, [lad.ring for lad in ladders])
        ops = [_oracle_op(lad.ring, lad.draw(rng), files) for lad in ladders]
        rng.shuffle(ops)
        return Workload(cli.main, ops)
    if name != "check-and-cache":
        raise BenchError(f"unknown workload {name!r}")
    files = write_inputs(workdir, rng, CACHE_RINGS)
    cache_dir = workdir / "cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir()
    cache_file = cache_dir / "colengths.jsonl"
    version = sys.modules["hkrees.cache"].ENGINE_VERSION
    cache_file.write_text(_filler(version, rng), encoding="utf-8")
    extra = ("--cache-dir", str(cache_dir))
    oracle = [_oracle_op(r, p, files, extra) for r in CACHE_RINGS for p in CACHE_PAIRS]
    for op in rng.sample(oracle, len(oracle) // 2):
        call(cli.main, op.argv)  # the program writes its own records
    ops = oracle + [Op("check", ["check", "--suite", s, "--json"], s) for s in SUITES]
    ops += [Op("formula", list(p), " ".join(p))
            for p in rng.sample(formula_pool(), FORMULA_DRAWS)]
    rng.shuffle(ops)
    return Workload(cli.main, ops, cache_file, cache_file.read_bytes())


# ---------------------------------------------------------------------------
# Tracing


class Tracer:
    """Spans and counters recorded by wrappers around each layer's public
    functions, installed only for traced passes.  A span's self time is its
    duration minus the time of its child spans."""

    def __init__(self):
        self.installed: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def call(self, name, fn, *args, **kwargs):
        if self.stack and self.stack[-1][0] == name:
            return fn(*args, **kwargs)  # recursion inside one layer
        frame = [name, 0.0]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self.stack.pop()
            if self.stack:
                self.stack[-1][1] += dt
            self.calls[name] += 1
            self.self_s[name] += dt - frame[1]

    def _replace(self, owner, attr, value):
        self.installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr)
        self._replace(owner, attr, functools.wraps(original)(make(original)))

    def span(self, owner, attr, name, note=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                result = self.call(name, fn, *args, **kwargs)
                if note is not None:
                    note(result, args)
                return result
            return wrapper
        self._patch(owner, attr, make)

    def count(self, owner, attr, name, useful=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.calls[name] += 1
                if useful is not None and useful(result):
                    self.counts[name + ".useful"] += 1
                return result
            return wrapper
        self._patch(owner, attr, make)

    def install(self):
        """Wrap the public names where hkrees' callers look them up."""
        m = sys.modules
        cli, checks, cf = m["hkrees.cli"], m["hkrees.checks"], m["hkrees.closed_forms"]
        engine, lattice, presets = m["hkrees.engine"], m["hkrees.lattice"], m["hkrees.presets"]
        cache_cls = m["hkrees.cache"].ColengthCache
        n = self.counts

        def gb_size(result, _):
            n["engine.buchberger.gb_size_sum"] += len(result)
            n["engine.buchberger.gb_size_max"] = max(
                n["engine.buchberger.gb_size_max"], len(result))

        def ii_gens(result, _):
            n["engine.initial_ideal.gens_sum"] += len(result)

        def load_lines(_, args):
            cache = args[0]
            try:
                data = Path(cache.path).read_bytes()
            except FileNotFoundError:
                data = b""
            lines = sum(1 for line in data.splitlines() if line.strip())
            n["cache.load.lines"] += lines
            n["cache.load.rejected"] += lines - len(cache._entries)

        def hit(result, _):
            n["cache.get.hits"] += result is not None

        self.span(cli, "estimate", "estimator.estimate")
        self.span(checks, "estimate", "estimator.estimate")
        self.span(checks, "run_suite", "checks.run_suite")
        for attr in ("an_hypersurface", "an_extrees", "segre", "veronese_rees",
                     "ci_rees", "ci_extrees", "semigroup", "semigroup_extrees",
                     "presentation"):
            self.span(presets, attr, "presets.build")
        # closed_forms is wrapped as its users see it, through the name cf:
        # its own internal calls and lattice's imported alpha stay untraced.
        proxy = types.ModuleType(cf.__name__)
        proxy.__dict__.update(vars(cf))
        for attr, obj in vars(cf).items():
            if (callable(obj) and not attr.startswith("_") and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == cf.__name__):
                self.span(proxy, attr, "closed_forms")
        for user in (cli, checks, presets):
            self._replace(user, "cf", proxy)
        self.span(engine, "frobenius_colength", "engine.frobenius_colength")
        self.span(engine, "buchberger", "engine.buchberger", gb_size)
        self.span(engine, "initial_ideal", "engine.initial_ideal", ii_gens)
        self.span(engine, "count_standard_monomials", "engine.count_standard_monomials")
        self.count(engine, "reduce", "engine.reduce", lambda r: r is not None)
        for attr in ("semigroup_ehk_colength", "semigroup_extrees_colength",
                     "rees_monomial_colength", "quotient_length", "segre_colength",
                     "veronese_rees_colength"):
            self.span(lattice, attr, f"lattice.{attr}")
        self.count(lattice.MonomialIdeal2D, "threshold", "lattice.threshold")
        self.count(lattice, "veronese_beta", "lattice.veronese_beta")
        self.span(cache_cls, "_load", "cache.load", load_lines)
        self.span(cache_cls, "get", "cache.get", hit)
        self.span(cache_cls, "put", "cache.put")

    def uninstall(self):
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed.clear()

    def layer_metrics(self, wall_s: float, slow: float) -> dict[str, float]:
        """The per-layer metrics of one traced pass; times are scaled to
        the reference speed, like the end-to-end ones."""
        c, s, n = self.calls, self.self_s, self.counts

        def ms(name):
            return s[name] * 1000 / slow

        def ratio(a, b):
            return a / b if b else 0.0

        engine_s = sum(v for k, v in s.items() if k.startswith("engine."))
        lattice_s = sum(v for k, v in s.items() if k.startswith("lattice."))
        return {
            "cli.main.calls": c["cli.main"],
            "cli.main.self_ms": ms("cli.main"),
            "presets.build.self_ms": ms("presets.build"),
            "engine.frobenius_colength.calls": c["engine.frobenius_colength"],
            "engine.buchberger.self_ms": ms("engine.buchberger"),
            "engine.buchberger.gb_size_max": n["engine.buchberger.gb_size_max"],
            "engine.buchberger.gb_size_sum": n["engine.buchberger.gb_size_sum"],
            "engine.reduce.calls": c["engine.reduce"],
            "engine.reduce.useful_ratio": ratio(n["engine.reduce.useful"], c["engine.reduce"]),
            "engine.initial_ideal.self_ms": ms("engine.initial_ideal"),
            "engine.initial_ideal.gens_sum": n["engine.initial_ideal.gens_sum"],
            "engine.count_standard_monomials.self_ms": ms("engine.count_standard_monomials"),
            "engine.self_share": ratio(engine_s, wall_s),
            "lattice.semigroup_ehk_colength.self_ms": ms("lattice.semigroup_ehk_colength"),
            "lattice.semigroup_extrees_colength.self_ms":
                ms("lattice.semigroup_extrees_colength"),
            "lattice.rees_monomial_colength.self_ms": ms("lattice.rees_monomial_colength"),
            "lattice.quotient_length.calls": c["lattice.quotient_length"],
            "lattice.quotient_length.self_ms": ms("lattice.quotient_length"),
            "lattice.threshold.calls": c["lattice.threshold"],
            "lattice.segre_colength.self_ms": ms("lattice.segre_colength"),
            "lattice.veronese_rees_colength.self_ms": ms("lattice.veronese_rees_colength"),
            "lattice.veronese_beta.calls": c["lattice.veronese_beta"],
            "lattice.self_share": ratio(lattice_s, wall_s),
            "closed_forms.calls": c["closed_forms"],
            "closed_forms.self_ms": ms("closed_forms"),
            "estimator.estimate.calls": c["estimator.estimate"],
            "estimator.estimate.self_ms": ms("estimator.estimate"),
            "cache.load.self_ms": ms("cache.load"),
            "cache.load.lines": n["cache.load.lines"],
            "cache.load.rejected": n["cache.load.rejected"],
            "cache.get.calls": c["cache.get"],
            "cache.hit_ratio": ratio(n["cache.get.hits"], c["cache.get"]),
            "cache.put.calls": c["cache.put"],
            "cache.put.self_ms": ms("cache.put"),
            "checks.run_suite.self_ms": ms("checks.run_suite"),
            "trace.wall_s": wall_s / slow,
        }


# ---------------------------------------------------------------------------
# Measurement


@dataclass
class Pass:
    wall_s: float  # at the reference speed, like latencies_ms
    latencies_ms: list
    raw_wall_s: float
    slow: float  # median over the pass's ops
    traced: bool
    layers: dict | None = None


def run_pass(work: Workload, tracer: Tracer | None = None):
    """One timed pass over the ops; outputs are kept for grading after it."""
    work.reset()
    results = []
    main = work.main
    if tracer is not None:
        tracer.reset()
        tracer.install()
        main = functools.partial(tracer.call, "cli.main", work.main)
    # each op is scaled by the kernel timings taken just before and after it
    per_op = max(3, KERNEL_PROBES // len(work.ops))
    probes = [kernel_times(per_op)]
    try:
        for op in work.ops:
            t0 = time.perf_counter()
            rc, out = call(main, op.argv)
            results.append((op, rc, out, (time.perf_counter() - t0) * 1000))
            probes.append(kernel_times(per_op))
    finally:
        if tracer is not None:
            tracer.uninstall()
    slows = [slowdown(a, b) for a, b in zip(probes, probes[1:])]
    lat = [r[3] / k for r, k in zip(results, slows)]
    raw_wall, slow = sum(r[3] for r in results) / 1000, statistics.median(slows)
    layers = tracer.layer_metrics(raw_wall, slow) if tracer is not None else None
    p = Pass(sum(lat) / 1000, lat, raw_wall, slow, tracer is not None, layers)
    return p, results


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    targeted: int = 0
    missed: int = 0
    rel_err_max: Fraction = Fraction(0)
    missed_rings: set = field(default_factory=set)

    def add(self, results, ref):
        for op, rc, out, _ in results:
            ok, acc = grade(op, rc, out, ref)
            self.attempted += 1
            self.failed += not ok
            if acc is not None:
                self.targeted += 1
                self.missed += acc[0]
                if acc[0]:
                    self.missed_rings.add(op.key)
                self.rel_err_max = max(self.rel_err_max, acc[1])


def measure(work: Workload, ref: dict, seconds: float, tracer: Tracer | None = None,
            min_passes: int = MIN_PASSES):
    """Run passes for `seconds` and at least `min_passes` of each kind.
    With a tracer, untraced and traced passes alternate."""
    passes, tally = [], Tally()
    kinds = (None, tracer) if tracer is not None else (None,)
    start = time.perf_counter()
    while True:
        for t in kinds:
            p, results = run_pass(work, t)
            passes.append(p)
            tally.add(results, ref)
        done = sum(1 for p in passes if not p.traced)
        if time.perf_counter() - start >= seconds and done >= min_passes:
            return passes, tally


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks, p in [0, 1]."""
    xs = sorted(values)
    pos = p * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_point(ops_per_pass: int) -> float:
    return 1 - (TAIL_RANK + 0.5) / ops_per_pass


# ---------------------------------------------------------------------------
# Entry point


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise BenchError(f"missing {REFERENCE}") from None


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    ref = load_reference()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        setup_times, setup_slows = [], []
        for _ in range(SETUP_REPEATS):
            before = kernel_times(KERNEL_PROBES)
            t0 = time.perf_counter()
            work = setup(name, seed, workdir)
            setup_times.append(time.perf_counter() - t0)
            setup_slows.append(slowdown(before, kernel_times(KERNEL_PROBES)))
        tracer = Tracer() if trace else None
        passes, tally = measure(work, ref, seconds, tracer,
                                MIN_TRACED_PASSES if trace else MIN_PASSES)
        extra = engine_baseline(tracer) if trace and name == "engine-ladder" else []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it

    plain = [p for p in passes if not p.traced]
    n_ops = len(work.ops)
    lat = [x for p in plain for x in p.latencies_ms]
    wall_s = statistics.median(p.wall_s for p in plain)
    setup_s = statistics.median(t / k for t, k in zip(setup_times, setup_slows))
    print(f"workload {name}: seed {seed}, {n_ops} ops per pass, "
          f"{len(plain)} untraced passes, {tally.attempted} ops graded, "
          f"{tally.failed} failed (fail_ratio {tally.failed / tally.attempted:.4f})")
    print(f"host slowdown against the reference speed: median "
          f"{statistics.median(p.slow for p in plain):.3f}, range "
          f"{min(p.slow for p in plain):.3f}-{max(p.slow for p in plain):.3f} over passes")
    print(f"raw (unscaled): setup_s {statistics.median(setup_times):.4f}, wall_s "
          f"{statistics.median(p.raw_wall_s for p in plain):.4f}, single passes "
          f"{min(p.raw_wall_s for p in plain):.3f}-{max(p.raw_wall_s for p in plain):.3f} s")
    tp = tail_point(n_ops)
    print(f"target misses: {tally.missed} of {tally.targeted} targeted oracle ops"
          f" ({'; '.join(sorted(tally.missed_rings)) or 'none'})")
    metrics = {}
    if not trace:
        print(f"op_tail_ms is p{tp * 100:.2f} of {len(lat)} samples, "
              f"{(1 - tp) * len(lat):.1f} beyond it")
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "op_p50_ms": (percentile(lat, 0.5), "ms"),
            "op_tail_ms": (percentile(lat, tp), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "target_miss_ratio": (tally.missed / tally.targeted if tally.targeted else 0.0,
                                  "ratio"),
            "est_rel_err_max": (float(tally.rel_err_max), "ratio"),
        }
    else:
        traced = [p for p in passes if p.traced]
        for key in traced[0].layers:
            value = statistics.median(p.layers[key] for p in traced)
            metrics[key] = (value, _unit(key))
        traced_s = statistics.median(p.wall_s for p in traced)
        metrics["trace.overhead_s"] = (traced_s - wall_s, "s")
        print(f"tracing overhead: {traced_s - wall_s:+.4f} s per pass "
              f"(traced {traced_s:.4f} s, untraced {wall_s:.4f} s)")
        for line in extra:
            print(line)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _unit(key: str) -> str:
    if key.endswith("_ms"):
        return "ms"
    if key.endswith("_s"):
        return "s"
    if key.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def engine_baseline(tracer: Tracer) -> list[str]:
    """Per-layer engine times at the fixed baseline points of the ROADMAP."""
    presets = sys.modules["hkrees.presets"]
    an3, ci23 = presets.an_hypersurface(3), presets.ci_extrees(2, 3)
    lines = ["engine baseline points (one traced call each):"]
    for label, preset, q in (("an-hypersurface n=3", an3, 32),
                             ("an-hypersurface n=3", an3, 64),
                             ("an-hypersurface n=3", an3, 128),
                             ("ci-extrees m=2 n=3", ci23, 32)):
        tracer.reset()
        tracer.install()
        try:
            t0 = time.perf_counter()
            preset.counter(q)
            total = (time.perf_counter() - t0) * 1000
        finally:
            tracer.uninstall()
        s = tracer.self_s
        lines.append(
            f"  {label} q={q}: total {total:.1f} ms, "
            f"buchberger {s['engine.buchberger'] * 1000:.1f} ms "
            f"(|GB|={tracer.counts['engine.buchberger.gb_size_max']}), "
            f"initial_ideal {s['engine.initial_ideal'] * 1000:.2f} ms, "
            f"count {s['engine.count_standard_monomials'] * 1000:.1f} ms")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "check-and-cache"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
