#!/usr/bin/env python3
"""Write hkbench/reference.json: the exact outputs every benchmark op is
graded against.

    python3 hkbench/make_reference.py

For every (ring, q) any workload may draw it records the colength sample
the CLI reports, and confirms it with a second, independent oracle wherever
the package has one:

  an-hypersurface n      <->  semigroup (0,n) (1,1) (n,0)          (engine / lattice)
  an-extrees n           <->  semigroup-extrees of that semigroup  (engine / lattice)
  ci-rees m,n            <->  presentation x^m*v - y^n*u           (lattice / engine)
  segre c,d              <->  presentation by 2x2 minors           (lattice / engine)
  semigroup (0,3) (1,2) (2,1) (3,0)  <->  twisted cubic minors     (lattice / engine)
  semigroup (0,5) (2,1) (3,0)        <->  x^3*z^10 - y^15          (lattice / engine)

It also records every drawable formula value and every suite's check
statuses.  Run it on the commit whose outputs are to be the reference; it
refuses to write anything if two oracles disagree or a call fails.
"""

from __future__ import annotations

import contextlib
import json
import random
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

# Largest q at which the engine's second opinion is affordable.
CI_REES_Q_MAX = 32
TWISTED_CUBIC_Q_MAX = 32
SEGRE_Q_MAX = {4: 14, 6: 7, 9: 3}  # by number of variables c*d


def _minors(engine, matrix, dim: int):
    """The ring presented by the 2x2 minors of a matrix of variables."""
    names = sorted({v for row in matrix for v in row})
    lines = [f"vars: {' '.join(names)}"]
    for i1 in range(len(matrix)):
        for i2 in range(i1 + 1, len(matrix)):
            for j1 in range(len(matrix[0])):
                for j2 in range(j1 + 1, len(matrix[0])):
                    lines.append(f"bin: {matrix[i1][j1]}*{matrix[i2][j2]}"
                                 f" - {matrix[i1][j2]}*{matrix[i2][j1]}")
    lines.append(f"dim: {dim}")
    return engine.parse_presentation("\n".join(lines))[0]


def second_oracle(key: str, q: int):
    """(name, count) from an oracle independent of the CLI's, or None."""
    m = sys.modules
    engine, lattice, presets = m["hkrees.engine"], m["hkrees.lattice"], m["hkrees.presets"]
    kind, _, params = key.partition(" ")
    if kind in ("an-hypersurface", "an-extrees"):
        n = int(params.split("=")[1])
        s = lattice.semigroup_binomial_an(n)
        if kind == "an-hypersurface":
            return "lattice semigroup", lattice.semigroup_ehk_colength(s, q)
        return "lattice semigroup-extrees", lattice.semigroup_extrees_colength(s, q)
    gens = bench.RINGS[key].gens
    if kind in ("semigroup", "semigroup-extrees") and len(gens) == 3 and gens[1] == (1, 1):
        n = gens[0][1]
        if kind == "semigroup":
            return "engine an-hypersurface", presets.an_hypersurface(n).counter(q)
        return "engine an-extrees", presets.an_extrees(n).counter(q)
    if key == "semigroup (0,5) (2,1) (3,0)":
        p, _ = engine.parse_presentation("vars: x y z\nbin: x^3*z^10 - y^15\ndim: 2\n")
        return "engine x^3*z^10 - y^15", engine.frobenius_colength(p, q)
    if key == "semigroup (0,3) (1,2) (2,1) (3,0)" and q <= TWISTED_CUBIC_Q_MAX:
        p = _minors(engine, [("a", "b", "c"), ("b", "c", "d")], 2)
        return "engine twisted cubic", engine.frobenius_colength(p, q)
    if kind == "ci-rees" and q <= CI_REES_Q_MAX:
        mm, nn = (int(x.split("=")[1]) for x in params.split())
        p, _ = engine.parse_presentation(
            f"vars: x y u v\nbin: x^{mm}*v - y^{nn}*u\ndim: 3\n")
        return "engine Rees presentation", engine.frobenius_colength(p, q)
    if key == bench.REES_X2Y3:
        ideal = lattice.MonomialIdeal2D.from_gens([(2, 0), (0, 3)])
        return "lattice ci-rees", lattice.rees_monomial_colength(ideal, q, "maximal-ideal")
    if kind == "segre":
        c, d = (int(x.split("=")[1]) for x in params.split())
        if q <= SEGRE_Q_MAX.get(c * d, 0):
            matrix = [[f"x{i}{j}" for j in range(d)] for i in range(c)]
            p = _minors(engine, matrix, c + d - 1)
            return "engine 2x2 minors", engine.frobenius_colength(p, q)
    return None


def main() -> int:
    cli = bench.import_cli()
    ref = {"colengths": {}, "targets": {}, "confirmed": {}, "unconfirmed": {},
           "formulas": {}, "checks": {}}
    bench.WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=bench.WORK_ROOT))
    try:
        files = bench.write_inputs(workdir, random.Random(0), bench.ring_qs())
        for key, qs in sorted(bench.ring_qs().items()):
            t0 = time.perf_counter()
            op = bench._oracle_op(key, sorted(qs), files)
            rc, out = bench.call(cli.main, op.argv)
            if rc != 0:
                raise SystemExit(f"{key}: exit {rc}")
            doc = json.loads(out)
            table = dict(zip(map(str, op.qs), doc["samples"]))
            ref["colengths"][key] = table
            if "target" in doc:
                ref["targets"][key] = doc["target"]
            confirmed, oracle = [], None
            for q in op.qs:
                other = second_oracle(key, q)
                if other is None:
                    continue
                oracle, count = other
                if count != table[str(q)][1]:
                    raise SystemExit(f"{key} q={q}: {table[str(q)][1]} vs {oracle} {count}")
                confirmed.append(q)
            if confirmed:
                ref["confirmed"][key] = {"oracle": oracle, "q": confirmed}
            missing = [q for q in op.qs if q not in confirmed]
            if missing:
                ref["unconfirmed"][key] = missing
            print(f"{key}: {len(op.qs)} q, {len(confirmed)} confirmed"
                  f" ({time.perf_counter() - t0:.1f} s)", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            bench.WORK_ROOT.rmdir()
    for argv in bench.formula_pool():
        rc, out = bench.call(cli.main, list(argv))
        if rc != 0:
            raise SystemExit(f"{' '.join(argv)}: exit {rc}")
        doc = json.loads(out)
        doc.pop("value_approx", None)
        ref["formulas"][" ".join(argv)] = doc
    for suite in bench.SUITES:
        rc, out = bench.call(cli.main, ["check", "--suite", suite, "--json"])
        if rc != 0:
            raise SystemExit(f"check --suite {suite}: exit {rc}")
        ref["checks"][suite] = {r["id"]: r["status"] for r in json.loads(out)}
    bench.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n",
                               encoding="utf-8")
    print(f"wrote {bench.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
