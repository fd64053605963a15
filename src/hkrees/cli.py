"""Command-line front end.

Commands:
  formula  evaluate a closed form and print the exact fraction
  oracle   compute finite-q colength samples and an extrapolated estimate
  check    run an inequality/identity suite
  cache    inspect or clear a colength cache directory

`hkrees COMMAND -h` shows a command's arguments.  Flags are written in
full, as `--flag value` or `--flag=value`.

Exit codes: 0 ok, 1 check failure, 2 usage error, 3 computation error.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

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


_INTS = dict.fromkeys(("c", "d", "m", "n"), parse_int)

# Each command: its function, the name of its positional argument (or None),
# its arguments and the required ones.  An argument's entry is `parse_int`,
# its choices, the word its usage shows for free text, or `bool` for --json,
# which takes no value.  Every argument but the positional is a --flag.
COMMANDS = {
    "formula": (cmd_formula, "family", {"family": FORMULAS, **_INTS, "ds": "LIST",
                                        "es": "LIST", "json": bool}, ("family",)),
    "oracle": (cmd_oracle, None, {
        "preset": presets.FAMILIES, **_INTS, "file": "FILE", "q": "LIST",
        "grid": "pow2|primepow:P", "order": ("lex", "grevlex"), "cache-dir": "DIR",
        "json": bool}, ("preset",)),
    "check": (cmd_check, None, {"suite": checks.SUITES, "json": bool}, ("suite",)),
    "cache": (cmd_cache, "action", {"action": ("inspect", "clear"), "cache-dir": "DIR",
                                    "json": bool}, ("action", "cache-dir")),
}


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: hkrees {" + ",".join(COMMANDS) + "} ..."
    _, positional, flags, required = COMMANDS[command]
    words = ["usage: hkrees", command]
    for name, kind in flags.items():
        word = ("" if kind is bool else "INT" if kind is parse_int else kind
                if isinstance(kind, str) else "{" + ",".join(kind) + "}")
        if name != positional:
            word = f"--{name} {word}".rstrip()
        words.append(word if name in required else f"[{word}]")
    return " ".join(words)


def _usage_error(command: str | None, message: str):
    print(_usage(command), f"error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command and its arguments from `argv`, in one walk over the
    command's table: `--flag value` or `--flag=value`, the last of a
    repeated flag winning, and every flag not given None (--json False).
    A usage error prints the usage and exits 2; -h or --help prints help
    and exits 0."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        print(__doc__ or _usage(None))
        raise SystemExit(0)
    if command not in COMMANDS:
        _usage_error(None, f"unknown command {command!r}" if argv
                     else "a command is required")
    _, positional, flags, required = COMMANDS[command]
    args = {f.replace("-", "_"): False if k is bool else None for f, k in flags.items()}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            print(_usage(command))
            raise SystemExit(0)
        if token.startswith("--"):
            name, eq, value = token[2:].partition("=")
            kind = None if name == positional else flags.get(name)
        elif positional and args[positional] is None:
            name, eq, value = positional, True, token
            kind = flags[name]
        else:
            kind = None
        if kind is None:
            _usage_error(command, f"unrecognized argument {token!r}")
        if kind is bool:
            if eq:
                _usage_error(command, f"--{name} takes no value")
            args[name] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                _usage_error(command, f"--{name} needs a value")
        if kind is parse_int:
            try:
                value = parse_int(value)
            except ValueError:
                _usage_error(command, f"--{name}: invalid integer {value!r}")
        elif not isinstance(kind, str) and value not in kind:
            _usage_error(command, f"invalid {name} {value!r} (choose from "
                         + ", ".join(kind) + ")")
        args[name.replace("-", "_")] = value
    missing = [f if f == positional else f"--{f}" for f in required
               if args[f.replace("-", "_")] is None]
    if missing:
        _usage_error(command, "missing " + ", ".join(missing))
    return SimpleNamespace(command=command, **args)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return COMMANDS[args.command][0](args)
    except (ValueError, ClosureError, OSError, MemoryError) as exc:
        # a MemoryError, as from allocating a box, usually has no text
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (OverflowError, RecursionError) as exc:
        # past what a counter can hold: a box side beyond the machine word,
        # or one slab frame per coupled variable beyond the recursion limit
        print(f"error: too large to compute: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
