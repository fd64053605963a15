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
from fractions import Fraction

from . import closed_forms as cf
from . import checks, engine, lattice, presets
from .cache import ColengthCache, cached_counter
from .errors import ClosureError, DimensionError, ParameterError, RankError
from .estimator import estimate, normalized_sequence
from .exact import format_fraction, stirling2


def _require(args, names):
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        flags = ", ".join(f"--{n}" for n in missing)
        print(f"error: missing required argument(s): {flags}", file=sys.stderr)
        raise SystemExit(2)


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ParameterError(f"bad integer list {text!r}")


def cmd_formula(args) -> int:
    family = args.family
    if family == "segre":
        _require(args, ["c", "d"])
        value = cf.segre_ehk(cf.SegreParams(args.c, args.d))
    elif family == "bcp-segre":
        _require(args, ["c", "d"])
        value = cf.bcp_segre_ehk(cf.SegreParams(args.c, args.d))
    elif family == "c-of-d":
        _require(args, ["d"])
        value = cf.c_of_d(args.d)
    elif family == "conca":
        _require(args, ["ds", "es"])
        value = cf.conca_ehk(_int_list(args.ds), _int_list(args.es))
    elif family == "veronese-rees":
        _require(args, ["c", "d"])
        value = cf.veronese_rees_ehk(cf.VeroneseParams(args.c, args.d))
    elif family == "veronese-rees-general":
        _require(args, ["c", "d"])
        value = cf.veronese_rees_ehk_general(cf.VeroneseParams(args.c, args.d))
    elif family == "ci-rees":
        _require(args, ["m", "n"])
        v = cf.ci_rees_values(args.m, args.n)
        doc = {
            "e_rees": format_fraction(v.e_rees),
            "ehk_rees": format_fraction(v.ehk_rees),
            "e_extrees": format_fraction(v.e_extrees),
            "ehk_extrees": format_fraction(v.ehk_extrees),
        }
        if args.json:
            print(json.dumps(doc, sort_keys=True))
        else:
            for k, x in doc.items():
                print(f"{k} = {x}")
        return 0
    elif family == "stirling-table":
        _require(args, ["n"])
        if args.n < 1:
            raise ParameterError(f"n must be >= 1, got {args.n}")
        row = [stirling2(args.n, k) for k in range(1, args.n + 1)]
        if args.json:
            print(json.dumps({"n": args.n, "row": row}))
        else:
            print(" ".join(str(x) for x in row))
        return 0
    else:
        raise ParameterError(f"unknown family {family!r}")
    if args.json:
        print(json.dumps({
            "family": family,
            "value": format_fraction(value),
            "value_approx": float(value),
        }, sort_keys=True))
    else:
        print(format_fraction(value))
    return 0


def _parse_order(args) -> engine.MonomialOrderSpec | None:
    if args.order is None:
        return None
    return engine.MonomialOrderSpec(args.order)


def _build_preset(args) -> presets.Preset:
    name = args.preset
    order = _parse_order(args)
    if name == "an-hypersurface":
        _require(args, ["n"])
        return presets.an_hypersurface(args.n, order)
    if name == "an-extrees":
        _require(args, ["n"])
        return presets.an_extrees(args.n, order)
    if name == "segre":
        _require(args, ["c", "d"])
        return presets.segre(args.c, args.d)
    if name == "veronese-rees":
        _require(args, ["c", "d"])
        return presets.veronese_rees(args.c, args.d)
    if name == "ci-rees":
        _require(args, ["m", "n"])
        return presets.ci_rees(args.m, args.n)
    if name == "ci-extrees":
        _require(args, ["m", "n"])
        return presets.ci_extrees(args.m, args.n, order)
    if name in ("semigroup", "semigroup-extrees"):
        _require(args, ["file"])
        with open(args.file, encoding="utf-8") as fh:
            s = lattice.parse_semigroup(fh.read())
        builder = (
            presets.semigroup if name == "semigroup"
            else presets.semigroup_extrees
        )
        return builder(s)
    if name == "presentation":
        _require(args, ["file"])
        with open(args.file, encoding="utf-8") as fh:
            p, file_order = engine.parse_presentation(fh.read())
        return presets.presentation(p, order or file_order)
    raise ParameterError(f"unknown preset {name!r}")


def _grid_values(args) -> list[int]:
    values = _int_list(args.q) if args.q else [8, 16, 32]
    if args.grid == "pow2" or args.grid is None:
        return values
    if args.grid.startswith("primepow:"):
        p = int(args.grid.partition(":")[2])
        if p < 2:
            raise ParameterError(f"prime base must be >= 2, got {p}")
        return [p**e for e in values]
    raise ParameterError(f"unknown grid {args.grid!r}")


def cmd_oracle(args) -> int:
    preset = _build_preset(args)
    cache = None
    if args.cache_dir:
        cache = ColengthCache(os.path.join(args.cache_dir, "colengths.jsonl"))
    counter = cached_counter(preset, cache)
    q_values = sorted(set(_grid_values(args)))
    samples = [
        presets.ColengthSample(preset.q_scale * q, counter(q))
        for q in q_values
    ]
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
    for s, v in zip(est.samples, normalized_sequence(est.samples, est.dimension)):
        print(f"  q={s.q:<6d} count={s.count:<16d} normalized={format_fraction(v)}")
    print(f"leading estimate: {format_fraction(est.leading)}"
          f" (~{float(est.leading):.6f})")
    print(f"bracket: [{format_fraction(est.bracket[0])},"
          f" {format_fraction(est.bracket[1])}]")
    if preset.target is not None:
        status = "inside" if est.contains(preset.target) else "OUTSIDE"
        print(f"target: {format_fraction(preset.target)} ({status} bracket)")
    return 0


def cmd_check(args) -> int:
    results = checks.run_suite(args.suite, fast=args.fast)
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
    cache = ColengthCache(os.path.join(args.cache_dir, "colengths.jsonl"))
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
            p.add_argument(f"--{flag}", type=int)

    f = sub.add_parser("formula", help="evaluate a closed form")
    f.add_argument("family", choices=[
        "segre", "conca", "c-of-d", "veronese-rees", "veronese-rees-general",
        "ci-rees", "bcp-segre", "stirling-table",
    ])
    add_params(f)
    f.add_argument("--ds", help="comma list of first exponent block")
    f.add_argument("--es", help="comma list of second exponent block")
    add_common(f)
    f.set_defaults(func=cmd_formula)

    o = sub.add_parser("oracle", help="finite-q colengths and estimate")
    o.add_argument("--preset", required=True, choices=[
        "an-hypersurface", "an-extrees", "segre", "veronese-rees",
        "ci-rees", "ci-extrees", "semigroup", "semigroup-extrees",
        "presentation",
    ])
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
    k.add_argument("--fast", action="store_true",
                   help="smaller q grids for the estimator-based checks")
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
    except (ParameterError, DimensionError, RankError, ClosureError,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
