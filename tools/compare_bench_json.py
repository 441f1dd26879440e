#!/usr/bin/env python3
"""Diff a BENCH_*.json artifact against its golden copy.

Bench binaries mirror every printed row into a machine-readable
artifact when MORRIGAN_BENCH_JSON is set (see bench/bench_util.hh).
This tool compares such an artifact against a checked-in golden file
row by row with a relative tolerance, and prints a readable per-row
delta table, so CI can gate on figure regressions without scraping
stdout.

Exit status: 0 when every row matches within tolerance, 1 on a
measured regression (missing row, extra row, unit or paper_note
change, out-of-tolerance value), 2 when an input is unusable: a file is
missing or unreadable, or the candidate artifact is *degraded* -- it
carries a failure manifest or NaN/null measurements from a campaign
that lost jobs. Degraded artifacts are an infrastructure failure,
not a measured regression, so they get their own exit code and CI
can tell "the figure moved" apart from "the campaign died".

A candidate produced by a campaign that lost jobs (crashes, timeouts
-- see sim/supervisor.hh) carries a "failures" manifest; such an
artifact never passes, and the manifest is echoed so CI logs say
*which* jobs died rather than just "rows disappeared".

A row's paper_note (what it measures and the paper's figure for it)
must equal the golden's in both gating modes: a bench that changes
what a row measures changes its note, and the golden follows.

Two gating modes:

  - default (figure regression): each row must match the golden
    within --rtol/--atol, both directions.
  - --min-ratio R (throughput): one-sided -- a row passes when
    candidate >= R * golden. Throughput varies with machine load, so
    a symmetric tolerance would be flaky; only a real slowdown below
    the ratio floor fails, and faster-than-golden always passes.

Usage:
  compare_bench_json.py --rtol 0.02 CANDIDATE GOLDEN
  compare_bench_json.py --min-ratio 0.7 CANDIDATE GOLDEN
"""

import argparse
import json
import math
import sys


def load_doc(path):
    """Read and validate one artifact; exit 2 with a clear message
    instead of a traceback when the file is absent or malformed (the
    common CI failure: the bench crashed before writing anything)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        print(f"error: cannot read artifact {path}: "
              f"{e.strerror or e}\n(did the bench binary run, and "
              f"was MORRIGAN_BENCH_JSON set?)", file=sys.stderr)
        raise SystemExit(2) from None
    except json.JSONDecodeError as e:
        print(f"error: {path} is not valid JSON ({e}); the "
              f"producing bench likely died mid-write",
              file=sys.stderr)
        raise SystemExit(2) from None
    if not isinstance(doc, dict) or doc.get("schema") != "morrigan-bench":
        print(f"error: {path}: not a morrigan-bench artifact",
              file=sys.stderr)
        raise SystemExit(2)
    return doc


def load_rows(doc, path):
    """Flatten a bench artifact into
    {(section, label): (value, unit, paper_note)}."""
    rows = {}
    for section in doc.get("sections", []):
        fig = section.get("figure", "?")
        for row in section.get("rows", []):
            key = (fig, row["label"])
            if key in rows:
                raise SystemExit(f"error: {path}: duplicate row {key}")
            # Degraded campaigns emit NaN measurements, which the
            # JSON writer serializes as null; map them back to NaN so
            # within() fails the row instead of float(None) crashing.
            try:
                value = float(row["measured"])
            except (TypeError, ValueError):
                value = math.nan
            rows[key] = (value, row.get("unit", ""),
                          row.get("paper_note", ""))
    if not rows:
        raise SystemExit(f"error: {path}: no rows (empty artifact)")
    return rows


def report_failure_manifest(doc, path):
    """Echo a degraded artifact's failure manifest; returns the
    number of manifest entries (0 for a clean artifact)."""
    manifest = doc.get("failures", [])
    if not manifest:
        return 0
    print(f"{path}: DEGRADED artifact -- {len(manifest)} job(s) "
          f"failed permanently during the producing campaign:")
    for entry in manifest:
        label = entry.get("label", "?")
        status = entry.get("status", "?")
        attempts = entry.get("attempts", "?")
        what = entry.get("what", "")
        print(f"  {label}: {status} after {attempts} attempt(s)"
              f"{': ' + what if what else ''}")
        repro = entry.get("repro", "")
        if repro:
            print(f"    repro: {repro}")
    return len(manifest)


def within(candidate, golden, rtol, atol):
    if math.isnan(candidate) or math.isnan(golden):
        return False
    return abs(candidate - golden) <= max(atol, rtol * abs(golden))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("candidate", help="freshly produced BENCH_*.json")
    ap.add_argument("golden", help="checked-in golden BENCH_*.json")
    ap.add_argument("--rtol", type=float, default=0.02,
                    help="relative tolerance per row (default 0.02)")
    ap.add_argument("--atol", type=float, default=1e-9,
                    help="absolute floor for near-zero rows")
    ap.add_argument("--min-ratio", type=float, default=None,
                    help="one-sided throughput gate: pass a row when "
                         "candidate >= MIN_RATIO * golden (replaces "
                         "the rtol check; 0.7 is the CI default for "
                         "BENCH_Throughput.json)")
    args = ap.parse_args()

    cand_doc = load_doc(args.candidate)
    gold_doc = load_doc(args.golden)
    cand = load_rows(cand_doc, args.candidate)
    gold = load_rows(gold_doc, args.golden)

    manifest_entries = report_failure_manifest(cand_doc,
                                               args.candidate)
    nan_rows = sum(1 for value, _, _ in cand.values()
                   if math.isnan(value))
    degraded = manifest_entries > 0 or nan_rows > 0
    failures = manifest_entries
    missing = 0
    width = max(len(label) for _, label in (cand.keys() | gold.keys()))
    if args.min_ratio is not None:
        print(f"comparing {args.candidate} vs {args.golden} "
              f"(min-ratio {args.min_ratio:g}, one-sided)")
    else:
        print(f"comparing {args.candidate} vs {args.golden} "
              f"(rtol {args.rtol:g})")
    print(f"  {'row':<{width}} {'golden':>12} {'candidate':>12} "
          f"{'delta':>10}  verdict")

    for key in sorted(gold.keys() | cand.keys()):
        _, label = key
        if key not in cand:
            print(f"  {label:<{width}} {gold[key][0]:>12.4f} "
                  f"{'missing':>12} {'':>10}  FAIL (row disappeared)")
            failures += 1
            missing += 1
            continue
        if key not in gold:
            print(f"  {label:<{width}} {'missing':>12} "
                  f"{cand[key][0]:>12.4f} {'':>10}  FAIL (new row; "
                  f"regenerate the golden)")
            failures += 1
            continue
        gv, gu, gn = gold[key]
        cv, cu, cn = cand[key]
        if gu != cu:
            print(f"  {label:<{width}} {gv:>12.4f} {cv:>12.4f} "
                  f"{'':>10}  FAIL (unit '{gu}' -> '{cu}')")
            failures += 1
            continue
        if gn != cn:
            print(f"  {label:<{width}} {gv:>12.4f} {cv:>12.4f} "
                  f"{'':>10}  FAIL (paper_note '{gn}' -> '{cn}')")
            failures += 1
            continue
        delta = cv - gv
        rel = delta / gv if gv else math.inf if delta else 0.0
        if args.min_ratio is not None:
            ratio = (cv / gv) if gv else math.inf
            ok = (not math.isnan(cv) and not math.isnan(gv)
                  and cv >= args.min_ratio * gv)
            verdict = ("ok" if ok else
                       f"FAIL (ratio {ratio:.2f} < "
                       f"{args.min_ratio:g})")
        else:
            ok = within(cv, gv, args.rtol, args.atol)
            verdict = "ok" if ok else f"FAIL (rel {rel:+.2%})"
        print(f"  {label:<{width}} {gv:>12.4f} {cv:>12.4f} "
              f"{delta:>+10.4f}  {verdict}")
        failures += 0 if ok else 1

    if degraded:
        print(f"{args.candidate}: degraded artifact "
              f"({manifest_entries} manifest entr"
              f"{'y' if manifest_entries == 1 else 'ies'}, "
              f"{nan_rows} NaN row(s)) -- not comparable; rerun the "
              f"producing campaign.")
        return 2
    if failures:
        if missing:
            print(f"{missing} golden row(s) missing from the "
                  f"candidate: the producing campaign did not "
                  f"complete (check the failure manifest above and "
                  f"the bench logs).")
        print(f"{failures} problem(s) found. If a value change is "
              f"intentional, regenerate the golden:")
        print(f"  MORRIGAN_BENCH_JSON=bench/golden "
              f"./build/bench/<bench_binary>")
        return 1
    print(f"all {len(gold)} row(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
