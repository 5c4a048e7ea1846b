#!/usr/bin/env python3
"""Compare a PAM_BENCH_JSON results stream against a committed baseline.

The bench binaries emit one JSON line per reported metric
({"bench":…,"config":…,"metric":…,"value":…}) when PAM_BENCH_JSON is set.
This tool holds those results to a *committed* baseline file, so the perf
trajectory is reviewed like code: raising a floor is a diff, and a
regression fails the run instead of silently eroding.

The baseline is self-describing JSON:

    {
      "note": "free-form provenance",
      "gates": [
        {"bench": "bench_leaf_encodings", "config": "delta_space",
         "metric": "flat_over_delta", "min": 1.5, "reference": 3.69},
        ...
      ]
    }

Each gate names one (bench, config, metric) series and enforces "min"
and/or "max" against the LAST matching line in the results stream (a
rerun appends; the latest run wins). "reference" is informational — the
value measured when the floor was cut — and is never enforced.

Exit codes: 0 all gates hold (or the run was skipped), 1 a gate failed,
2 the baseline itself is malformed. If the results file does not exist,
prints SKIPPED and exits 0 so ctest can mark the test as skipped (the
results stream only exists after a bench binary ran with PAM_BENCH_JSON;
CI's perf-smoke job produces it, a plain `ctest` run does not).

Gates whose series is absent from the results stream are only an error
under --require-all (CI runs every bench; a local spot-run of one bench
should not fail the other benches' gates).

    bench_compare.py --diff A.json B.json

prints the ledger of two results streams side by side instead: one line
per (bench, config, metric) present in either, with A's value, B's value
and B/A ("-" where a side is missing or A is zero). It gates nothing and
exits 0, or 2 if either stream cannot be read.
"""

import argparse
import json
import sys


def load_results(path):
    series = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                print(f"warning: {path}:{lineno}: unparseable line skipped")
                continue
            if "metric" not in row:
                continue  # env-provenance header line, not a metric row
            try:
                key = (row["bench"], row["config"], row["metric"])
                series[key] = float(row["value"])
            except (KeyError, TypeError, ValueError):
                print(f"warning: {path}:{lineno}: malformed metric row skipped")
    return series


def diff(path_a, path_b):
    try:
        a, b = load_results(path_a), load_results(path_b)
    except OSError as e:
        print(f"ERROR: {e}")
        return 2
    rows = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        ratio = "-" if va is None or vb is None or va == 0 else f"{vb / va:.3f}"
        rows.append(("/".join(key), "-" if va is None else f"{va:g}",
                     "-" if vb is None else f"{vb:g}", ratio))
    width = max([len(r[0]) for r in rows] + [6])
    print(f"{'series':<{width}}  {'A':>12}  {'B':>12}  {'B/A':>7}")
    for name, va, vb, ratio in rows:
        print(f"{name:<{width}}  {va:>12}  {vb:>12}  {ratio:>7}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline",
                    help="committed baseline JSON (gates + floors)")
    ap.add_argument("--current",
                    help="PAM_BENCH_JSON results stream to check")
    ap.add_argument("--require-all", action="store_true",
                    help="fail if a gated series is missing from the results")
    ap.add_argument("--diff", nargs=2, metavar=("A", "B"),
                    help="print two results streams side by side with B/A")
    args = ap.parse_args()
    if args.diff:
        return diff(*args.diff)
    if not args.baseline or not args.current:
        ap.error("--baseline and --current are required without --diff")

    try:
        with open(args.baseline, "r", encoding="utf-8") as f:
            baseline = json.load(f)
        gates = baseline["gates"]
        if not isinstance(gates, list) or not gates:
            raise ValueError("empty gates")
        for g in gates:
            if "min" not in g and "max" not in g:
                raise ValueError(f"gate without min/max: {g}")
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"ERROR: malformed baseline {args.baseline}: {e}")
        return 2

    try:
        series = load_results(args.current)
    except OSError:
        print(f"SKIPPED: no bench results at {args.current} "
              "(run a bench with PAM_BENCH_JSON=<path> first)")
        return 0

    failures = 0
    missing = 0
    for g in gates:
        key = (g["bench"], g["config"], g["metric"])
        name = "/".join(key)
        if key not in series:
            missing += 1
            level = "MISSING" if args.require_all else "absent "
            print(f"{level}  {name}")
            continue
        v = series[key]
        ok = True
        bound = []
        if "min" in g:
            bound.append(f">= {g['min']}")
            ok = ok and v >= float(g["min"])
        if "max" in g:
            bound.append(f"<= {g['max']}")
            ok = ok and v <= float(g["max"])
        ref = f"  (reference {g['reference']})" if "reference" in g else ""
        verdict = "ok    " if ok else "FAIL  "
        print(f"{verdict}  {name} = {v:g}  [{' and '.join(bound)}]{ref}")
        if not ok:
            failures += 1

    if args.require_all and missing:
        print(f"{missing} gated series missing from {args.current}")
        return 1
    if failures:
        print(f"{failures} gate(s) failed against {args.baseline}")
        return 1
    print(f"all present gates hold against {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
