#!/usr/bin/env python3
"""Compares two sets of BENCH_*.json telemetry files and flags regressions.

Usage:
    scripts/bench_compare.py BASELINE_DIR CANDIDATE_DIR [--threshold PCT]
    scripts/bench_compare.py BASELINE.json CANDIDATE.json [--threshold PCT]

Every bench binary writes a BENCH_<name>.json on exit (see
bench/bench_common.cc) with metrics of the form
{"name": ..., "value": ..., "unit": ..., "repetitions": ...}. This script
matches metrics by (bench, name) and reports relative changes; changes in
the "worse" direction beyond --threshold (default 5%) fail the run with
exit code 1.

The unit decides which direction is worse:
  - time units (ns/us/ms/s/seconds): higher is worse
  - quality/throughput units (percent, ratio, items_per_second): lower is
    worse
  - anything else (e.g. "count", "share"): informational only, never
    flagged

Metrics present only in the candidate ("new") or only in the baseline
("missing") are reported but never fail the run — only regressions exit 1
— so adding instrumentation does not break comparisons against older
baselines. --require-metric NAME (repeatable) upgrades specific metrics
to mandatory: the run fails if NAME is absent from the candidate, so a
gate metric silently disappearing cannot pass as "missing, informational".

BENCH_load.json (bench_load, the overload/chaos harness) follows these
conventions: load.goodput_vs_peak is a ratio (higher is better — this is
the machine-portable gate metric, overload goodput relative to the same
machine's no-fault peak), load.*_per_second are items_per_second,
load.p*_latency are seconds, and the shed/refusal mixes are "share"
(informational: a rising shed share can mean admission control is doing
its job or that capacity fell, so no single direction applies).

--include SUBSTR (repeatable) restricts the comparison to metrics whose
bench or metric name contains any given substring — used by the CI
obs-overhead gate to pin just the hot-path benches against the committed
baselines with a tighter threshold.

--json FILE additionally writes a machine-readable summary of all five
categories ('-' for stdout).

Stdlib only; no third-party dependencies.
"""

import argparse
import json
import os
import sys

LOWER_IS_BETTER = {"ns", "us", "ms", "s", "seconds"}
HIGHER_IS_BETTER = {"percent", "ratio", "items_per_second"}


def is_dirty(doc):
    """A telemetry file from an uncommitted tree: the explicit "dirty"
    flag when present (bench_common.cc), else a "-dirty" git describe
    suffix for files written before the flag existed."""
    if "dirty" in doc:
        return bool(doc["dirty"])
    return str(doc.get("git", "")).endswith("-dirty")


def load_benches(path):
    """Returns ({bench_name: {metric_name: (value, unit)}}, [dirty_files])."""
    if os.path.isdir(path):
        files = sorted(
            os.path.join(path, f)
            for f in os.listdir(path)
            if f.startswith("BENCH_") and f.endswith(".json")
        )
    else:
        files = [path]
    if not files:
        sys.exit(f"error: no BENCH_*.json files under {path}")
    benches = {}
    dirty = []
    for f in files:
        with open(f, encoding="utf-8") as fh:
            doc = json.load(fh)
        if is_dirty(doc):
            dirty.append(f"{f} (git {doc.get('git', '?')})")
        metrics = benches.setdefault(doc.get("bench", os.path.basename(f)), {})
        for m in doc.get("metrics", []):
            metrics[m["name"]] = (float(m["value"]), m.get("unit", ""))
    return benches, dirty


def compare(baseline, candidate, threshold, include=None):
    regressions = []
    improvements = []
    infos = []
    missing = []
    new = []
    # Candidate-only metrics (a bench grew a new counter, or a new bench
    # appeared) are reported but never fail the run — otherwise adding any
    # instrumentation would break comparisons against older baselines.
    for bench, cand_metrics in sorted(candidate.items()):
        base_metrics = baseline.get(bench, {})
        for name, (value, unit) in sorted(cand_metrics.items()):
            if include and not any(s in name or s in bench for s in include):
                continue
            if name not in base_metrics:
                new.append(
                    f"{bench}/{name}: {value:g} {unit} (not in baseline)"
                )
    for bench, base_metrics in sorted(baseline.items()):
        cand_metrics = candidate.get(bench)
        if cand_metrics is None:
            if include and not any(s in bench for s in include):
                continue
            missing.append(f"{bench}: bench absent from candidate")
            continue
        for name, (base_value, unit) in sorted(base_metrics.items()):
            if include and not any(
                s in name or s in bench for s in include
            ):
                continue
            if name not in cand_metrics:
                missing.append(f"{bench}/{name}: metric absent from candidate")
                continue
            cand_value, _ = cand_metrics[name]
            if base_value == 0:
                delta_pct = 0.0 if cand_value == 0 else float("inf")
            else:
                delta_pct = 100.0 * (cand_value - base_value) / abs(base_value)
            line = (
                f"{bench}/{name}: {base_value:g} -> {cand_value:g} {unit} "
                f"({delta_pct:+.1f}%)"
            )
            if unit in LOWER_IS_BETTER:
                worse = delta_pct > threshold
                better = delta_pct < -threshold
            elif unit in HIGHER_IS_BETTER:
                worse = delta_pct < -threshold
                better = delta_pct > threshold
            else:
                infos.append(line)
                continue
            if worse:
                regressions.append(line)
            elif better:
                improvements.append(line)
            else:
                infos.append(line)
    return regressions, improvements, infos, missing, new


def main():
    parser = argparse.ArgumentParser(
        description="Diff two bench telemetry runs."
    )
    parser.add_argument("baseline", help="dir of BENCH_*.json or one file")
    parser.add_argument("candidate", help="dir of BENCH_*.json or one file")
    parser.add_argument(
        "--threshold",
        type=float,
        default=5.0,
        help="relative change (%%) beyond which a metric is flagged "
        "(default: 5)",
    )
    parser.add_argument(
        "--include",
        action="append",
        default=None,
        metavar="SUBSTR",
        help="only compare metrics whose bench or metric name contains "
        "SUBSTR (repeatable); default: compare everything",
    )
    parser.add_argument(
        "--require-metric",
        action="append",
        default=None,
        metavar="NAME",
        dest="require_metric",
        help="fail (exit 1) unless a metric with this exact name is "
        "present in the candidate (repeatable) — protects gate metrics "
        "from silently vanishing",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="also write a machine-readable summary (use '-' for stdout)",
    )
    parser.add_argument(
        "--reject-dirty-baseline",
        action="store_true",
        help="fail (exit 1) when any baseline file was produced from an "
        "uncommitted tree (git describe '-dirty' / \"dirty\": true) — "
        "dirty baselines are unreproducible; CI uses this to keep them "
        "out of the repo",
    )
    args = parser.parse_args()

    baseline, baseline_dirty = load_benches(args.baseline)
    candidate, candidate_dirty = load_benches(args.candidate)

    # Dirty stamps always warn; the baseline side can be upgraded to a
    # hard failure (CI keeps unreproducible numbers out of the tree).
    for side, dirty_files in (
        ("baseline", baseline_dirty),
        ("candidate", candidate_dirty),
    ):
        for f in dirty_files:
            print(
                f"warning: {side} {f} was built from a dirty tree — "
                "its numbers are not reproducible",
                file=sys.stderr,
            )
    regressions, improvements, infos, missing, new = compare(
        baseline, candidate, args.threshold, args.include
    )

    for name in args.require_metric or []:
        if not any(name in metrics for metrics in candidate.values()):
            regressions.append(
                f"{name}: required metric absent from candidate"
            )

    if args.reject_dirty_baseline:
        for f in baseline_dirty:
            regressions.append(f"dirty baseline: {f}")

    for title, lines in (
        ("regressions", regressions),
        ("improvements", improvements),
        ("within threshold / informational", infos),
        ("missing", missing),
        ("new (not in baseline)", new),
    ):
        if lines:
            print(f"== {title} ({len(lines)}) ==")
            for line in lines:
                print(f"  {line}")

    if args.json:
        summary = {
            "threshold_pct": args.threshold,
            "regressions": regressions,
            "improvements": improvements,
            "informational": infos,
            "missing": missing,
            "new": new,
            "dirty_baseline": baseline_dirty,
            "dirty_candidate": candidate_dirty,
            "ok": not regressions,
        }
        text = json.dumps(summary, indent=2)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")

    if regressions:
        print(
            f"\nFAIL: {len(regressions)} metric(s) regressed more than "
            f"{args.threshold:g}%"
        )
        return 1
    print(f"\nOK: no regressions beyond {args.threshold:g}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
