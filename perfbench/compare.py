#!/usr/bin/env python3
"""Compare two stamped benchmark results of the same workload.

    python3 perfbench/compare.py BASE.json NEW.json

Both files are results written by run.py into .bench_out/. Results are
only comparable from the same host class (core count), build type,
worker count and trace mode, and of a full (not --quick) run of one
workload; anything else is refused with exit code 2. Prints each
metric's change and, for end-to-end metrics, whether it stays inside the
bound BENCHMARK.json fixes; exits 1 when any end-to-end metric is worse
than its bound.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MUST_MATCH = ("nproc", "build_type", "workers", "workload", "trace",
              "quick")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        base = json.load(f)
    with open(argv[2]) as f:
        new = json.load(f)
    for key in MUST_MATCH:
        if base["stamp"].get(key) != new["stamp"].get(key):
            print(f"refused: {key} differs ({base['stamp'].get(key)!r} vs "
                  f"{new['stamp'].get(key)!r})", file=sys.stderr)
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}

    worse = 0
    print(f"{'metric':<40} {'base':>14} {'new':>14} {'change':>9}  verdict")
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        if n is None:
            continue
        bv, nv = b["value"], n["value"]
        change = (nv - bv) / bv if bv else 0.0
        verdict = ""
        if name in e2e:
            lower = e2e[name]["better"] == "lower"
            loss = change if lower else -change
            verdict = "worse than bound" if loss > e2e[name]["bound"] else "ok"
            worse += verdict != "ok"
        print(f"{name:<40} {bv:>14.6g} {nv:>14.6g} {change:>+9.2%}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
