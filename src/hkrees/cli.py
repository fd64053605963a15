"""Command-line front end.

Commands:
  formula  evaluate a closed form and print the exact fraction
  oracle   compute finite-q colength samples and an extrapolated estimate
  check    run an inequality/identity suite
  cache    inspect or clear a colength cache directory

Exit codes: 0 ok, 1 check failure, 2 usage error, 3 computation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import closed_forms as cf
from . import checks, engine, lattice, presets
from .cache import ColengthCache, cached_counter
from .errors import ClosureError, ParameterError
from .estimator import estimate
from .exact import format_fraction, parse_int, stirling2


def _take_flags(args, label: str, flags, families):
    """Exit 2 when a flag that one of `families` takes, but `flags` do not,
    is given, then when one of `flags` other than "order" is missing."""
    every = dict.fromkeys(f for fs in families for f in fs)
    foreign = [f for f in every if f not in flags and getattr(args, f) is not None]
    if foreign:
        print(f"error: {label} does not take "
              + ", ".join(f"--{f}" for f in foreign), file=sys.stderr)
        raise SystemExit(2)
    missing = [f for f in flags if f != "order" and getattr(args, f) is None]
    if missing:
        print("error: missing required argument(s): "
              + ", ".join(f"--{f}" for f in missing), file=sys.stderr)
        raise SystemExit(2)


def _cache(cache_dir: str) -> ColengthCache:
    """The cache in `cache_dir`, which must be named: an empty name would
    mean the working directory."""
    if not cache_dir:
        raise ParameterError("--cache-dir must not be empty")
    return ColengthCache(os.path.join(cache_dir, "colengths.jsonl"))


def _int_list(text: str) -> list[int]:
    try:
        return [parse_int(x.strip()) for x in text.split(",")]
    except ValueError:
        raise ParameterError(f"bad integer list {text!r}")


def _stirling_row(n: int) -> list[int]:
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    return [stirling2(n, k) for k in range(1, n + 1)]


# Each formula family: its CLI flags and its value from them.  The values
# look closed forms up through `cf` at call time.
FORMULAS = {
    "segre": (("c", "d"), lambda c, d: cf.segre_ehk(cf.SegreParams(c, d))),
    "conca": (("ds", "es"), lambda ds, es: cf.conca_ehk(_int_list(ds), _int_list(es))),
    "c-of-d": (("d",), lambda d: cf.c_of_d(d)),
    "veronese-rees": (("c", "d"),
                      lambda c, d: cf.veronese_rees_ehk(cf.VeroneseParams(c, d))),
    "veronese-rees-general": (
        ("c", "d"), lambda c, d: cf.veronese_rees_ehk_general(cf.VeroneseParams(c, d))),
    "ci-rees": (("m", "n"), lambda m, n: cf.ci_rees_values(m, n)),
    "bcp-segre": (("c", "d"), lambda c, d: cf.bcp_segre_ehk(cf.SegreParams(c, d))),
    "stirling-table": (("n",), _stirling_row),
}


def cmd_formula(args) -> int:
    flags, value_of = FORMULAS[args.family]
    _take_flags(args, f"formula {args.family}", flags,
                (fs for fs, _ in FORMULAS.values()))
    value = value_of(*(getattr(args, f) for f in flags))
    if isinstance(value, cf.CiReesValues):
        doc = {k: format_fraction(x) for k, x in value._asdict().items()}
        if args.json:
            print(json.dumps(doc, sort_keys=True))
        else:
            for k, x in doc.items():
                print(f"{k} = {x}")
    elif isinstance(value, list):  # a Stirling row
        if args.json:
            print(json.dumps({"n": args.n, "row": value}))
        else:
            print(" ".join(str(x) for x in value))
    elif args.json:
        try:
            approx = float(value)
        except OverflowError:  # beyond the float range: only `value` is exact
            approx = None
        print(json.dumps({"family": args.family, "value": format_fraction(value),
                          "value_approx": approx}, sort_keys=True))
    else:
        print(format_fraction(value))
    return 0


def _build_preset(args) -> presets.Preset:
    flags = presets.FAMILIES[args.preset]
    _take_flags(args, f"--preset {args.preset}", flags, presets.FAMILIES.values())
    order = None if args.order is None else engine.MonomialOrderSpec(args.order)
    if flags[0] == "file":
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
        if args.preset == "presentation":
            p, file_order = engine.parse_presentation(text)
            params = [p, order or file_order]
        else:
            params = [lattice.parse_semigroup(text)]
    else:
        params = [order if f == "order" else getattr(args, f) for f in flags]
    return getattr(presets, args.preset.replace("-", "_"))(*params)


def _grid_values(args) -> list[int]:
    values = [8, 16, 32] if args.q is None else _int_list(args.q)
    if args.grid == "pow2" or args.grid is None:
        return values
    if args.grid.startswith("primepow:"):
        p = parse_int(args.grid.partition(":")[2])
        if p < 2:
            raise ParameterError(f"prime base must be >= 2, got {p}")
        for e in values:
            if e < 0:
                raise ParameterError(f"prime-power exponent must be >= 0, got {e}")
        return [p**e for e in values]
    raise ParameterError(f"unknown grid {args.grid!r}")


def cmd_oracle(args) -> int:
    preset = _build_preset(args)
    if args.cache_dir is not None:
        preset = preset._replace(
            counter=cached_counter(preset, _cache(args.cache_dir)))
    samples = [preset.sample(q) for q in sorted(set(_grid_values(args)))]
    est = estimate(samples, preset.dimension)
    doc = est.to_dict()
    doc["preset"] = preset.description
    if preset.target is not None:
        doc["target"] = format_fraction(preset.target)
        doc["target_in_bracket"] = est.contains(preset.target)
    if args.json:
        print(json.dumps(doc, sort_keys=True))
        return 0
    print(f"preset: {preset.description} (dim {preset.dimension})")
    for (q, count), v in zip(doc["samples"], doc["normalized"]):
        print(f"  q={q:<6d} count={count:<16d} normalized={v}")
    print(f"leading estimate: {doc['leading']} (~{doc['leading_approx']:.6f})")
    print("bracket: [{}, {}]".format(*doc["bracket"]))
    if "target" in doc:
        status = "inside" if doc["target_in_bracket"] else "OUTSIDE"
        print(f"target: {doc['target']} ({status} bracket)")
    return 0


def cmd_check(args) -> int:
    results = checks.run_suite(args.suite)
    if args.json:
        print(json.dumps([r.to_dict() for r in results], sort_keys=True))
    else:
        for r in results:
            print(f"[{r.status:<11s}] {r.check_id}: {r.lhs} vs {r.rhs}"
                  f"  ({r.citation})")
    failed = sum(1 for r in results if r.status == "fail")
    if not args.json:
        print(f"{len(results)} checks, {failed} failed")
    return 1 if failed else 0


def cmd_cache(args) -> int:
    cache = _cache(args.cache_dir)
    if args.action == "inspect":
        entries = cache.entries()
        if args.json:
            print(json.dumps(entries, sort_keys=True))
        else:
            for e in entries:
                print(f"{e['hash'][:16]}... q={e['q']} count={e['count']}")
            print(f"{len(entries)} entries")
    else:
        cache.clear()
        print("cache cleared")
    return 0


# No argument has a mutable default, so one parser serves every call.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hkrees",
        description="Exact Hilbert-Kunz multiplicities of Rees-type families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")

    def add_params(p):
        for flag in ("c", "d", "m", "n"):
            p.add_argument(f"--{flag}", type=parse_int)

    f = sub.add_parser("formula", help="evaluate a closed form")
    f.add_argument("family", choices=list(FORMULAS))
    add_params(f)
    f.add_argument("--ds", help="comma list of first exponent block")
    f.add_argument("--es", help="comma list of second exponent block")
    add_common(f)
    f.set_defaults(func=cmd_formula)

    o = sub.add_parser("oracle", help="finite-q colengths and estimate")
    o.add_argument("--preset", required=True, choices=list(presets.FAMILIES))
    add_params(o)
    o.add_argument("--file", help="semigroup or presentation file")
    o.add_argument("--q", help="comma list of grid values (default 8,16,32)")
    o.add_argument("--grid", help="pow2 (default; --q taken literally) or "
                   "primepow:p (--q entries are exponents of p)")
    o.add_argument("--order", choices=["lex", "grevlex"])
    o.add_argument("--cache-dir", help="directory for the colength cache")
    add_common(o)
    o.set_defaults(func=cmd_oracle)

    k = sub.add_parser("check", help="run an invariant suite")
    k.add_argument("--suite", required=True, choices=list(checks.SUITES))
    add_common(k)
    k.set_defaults(func=cmd_check)

    c = sub.add_parser("cache", help="inspect or clear the colength cache")
    c.add_argument("action", choices=["inspect", "clear"])
    c.add_argument("--cache-dir", required=True)
    add_common(c)
    c.set_defaults(func=cmd_cache)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ClosureError, OSError, MemoryError) as exc:
        # a MemoryError, as from allocating a box, usually has no text
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (OverflowError, RecursionError) as exc:
        # past what a counter can hold: a box side beyond the machine word,
        # or one slab frame per variable beyond the recursion limit
        print(f"error: too large to compute: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
