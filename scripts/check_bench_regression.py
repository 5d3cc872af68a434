#!/usr/bin/env python3
"""Perf-regression gate over the bench JSON artifacts.

Compares the key metrics of freshly produced BENCH_table4.json,
BENCH_scale.json and BENCH_intersect.json against the checked-in
baselines under bench/baselines/, with noise-aware thresholds: bench
numbers on shared CI machines jitter by tens of percent, so only
changes beyond 2x (lower-is-better metrics growing past 2x baseline,
higher-is-better metrics falling below 0.5x) fail the gate. Anything
subtler is reported but does not gate — a real perf story needs a
human and a quiet machine.

Usage:
  scripts/check_bench_regression.py [--build-dir build]
      [--baseline-dir bench/baselines] [--factor 2.0]
  scripts/check_bench_regression.py --self-test

Exit status: 0 when every present metric is within bounds (missing
bench files are skipped with a note: the gate only judges what ran),
1 on any regression beyond the factor, 2 on usage/IO errors.

The metric list is intentionally short and headline-grade: pipeline
solve time, snapshot load and query latency at scale, and the
intersection kernels. Adding every counter would only manufacture
flakes. Serving latency and capacity are measured by perfbench
(BENCHMARK.json), not here.

Besides the baseline ratios, a few *absolute* limits gate invariants of
the fresh run alone (no baseline needed): the request-tracing overhead
must stay within 5% (tracing.overhead_ratio <= 1.05), the per-stage
spans must attribute >= 90% of pipeline wall time
(stages.attributed_fraction >= 0.9), and the subgraph, seed-realloc,
edge-cost, search and steiner stages must stay under their ceilings.
See docs/observability.md and docs/benchmarks.md.
"""

import argparse
import json
import os
import sys

# (json_path, direction) — direction "lower" means smaller is better.
TABLE4_METRICS = [
    ("avg_total_seconds", "lower"),
    ("closure_comparison[0].total_speedup", "higher"),
]
# Absolute limits on the fresh run, judged without a baseline ratio:
# (json_path, kind, bound). "max" fails when current > bound, "min" when
# current < bound. These gate invariants rather than trajectories:
# tracing must stay cheap relative to the untraced pipeline, and the
# stage spans must explain >= 90% of the wall-clock solve time
# (docs/observability.md). Tracing is always compiled in, so every limit
# applies to every run.
#
# The tracing bound moved 1.02 -> 1.05 when the intersection-kernel /
# d-ary-heap rewrite made the pipeline ~2.3x faster: the tracing clock
# reads cost the same absolute nanoseconds, so their RELATIVE overhead
# (and the run-to-run noise of the ratio itself) grew with the shrinking
# denominator; measured ratios now jitter ~0.95-1.04 on an idle machine.
#
# The stage ceilings pin optimized stages at their current level, so the
# gate fails if a stage falls back. Ranges are on a 4-vCPU Xeon VM (GCC
# 12.2, RelWithDebInfo), over 45 runs of the code that set each ceiling
# and 10 of the code it replaced, except where a line says otherwise:
#  - stages.edge_cost_ms reads each edge's Eq. (2) cost from the
#    snapshot's con table: 0.11-0.21 ms, so 0.4 is ~2x the worst run
#    (13.4 ms when Con was counted per query, 4.3-5.7 with the
#    intersection kernels).
#  - stages.search_ms reads each document's BM25 norm and boost factors,
#    computed once at engine build, in a reusable accumulator and
#    selects the top k: 0.26-0.39 ms over 25 runs, against 0.37-0.62
#    over 25 alternating runs recomputing the norm per posting and
#    log1p per hit (0.69-1.03 before that, with a per-call hash map and
#    a full sort). The two ranges overlap; 0.45 is 15% above the worst
#    current run and below 10 of the 25 runs of the code it replaced.
#  - stages.steiner_ms: 0.52-0.82 ms over the same 25 runs, 0.57-1.04
#    for the code before it. This bench solves with a fresh scratch per
#    call, so the SteinerScratch reuse serving gets does not show here;
#    1.2 is ~1.5x the worst run and catches a solve that falls back by
#    half again.
#  - stages.subgraph_ms filters the KHop nodes by year and a sorted
#    exclusion list, then builds the induced subgraph: 0.20-0.30 ms over
#    18 runs alternating with 18 of the code before it (hash-set
#    exclusions, 0.19-0.37), so 0.5 is ~1.7x the worst current run.
#  - stages.seed_realloc_ms counts co-occurrence once into a reused map
#    with a sorted seed vector: 0.023-0.032 ms over the same 18 runs
#    (0.021-0.032 with a hash-set seed set; 0.036-0.042 when the count
#    ran up to three times), so 0.06 is ~2x the worst current run.
TABLE4_LIMITS = [
    ("tracing.overhead_ratio", "max", 1.05),
    ("stages.attributed_fraction", "min", 0.90),
    ("stages.edge_cost_ms", "max", 0.4),
    ("stages.search_ms", "max", 0.45),
    ("stages.steiner_ms", "max", 1.2),
    ("stages.subgraph_ms", "max", 0.5),
    ("stages.seed_realloc_ms", "max", 0.06),
]
SCALE_METRICS = [
    ("sweep[-1].snapshot_load_seconds", "lower"),
    ("sweep[-1].load_speedup", "higher"),
    ("sweep[-1].query_latency.p50_ms", "lower"),
]
INTERSECT_METRICS = [
    ("headline.adaptive_balanced_ns", "lower"),
    ("headline.adaptive_skewed_ns", "lower"),
]
# The adaptive dispatcher must never lose badly to the plain two-pointer
# merge anywhere on the size-ratio grid. Dimensionless (both sides are
# measured in the same run on the same machine), so unlike the ns gates
# it holds absolutely on any hardware; measured worst case ~1.1x, and
# 1.5 fails if dispatch ever routes a regime to the wrong kernel.
INTERSECT_LIMITS = [
    ("headline.adaptive_worst_ratio_vs_merge", "max", 1.5),
]

def resolve(doc, path):
    """Walks 'a.b[0].c' through nested dicts/lists; None when absent."""
    node = doc
    for part in path.split("."):
        index = None
        if "[" in part:
            part, bracket = part.split("[", 1)
            index = int(bracket.rstrip("]"))
        if part:
            if not isinstance(node, dict) or part not in node:
                return None
            node = node[part]
        if index is not None:
            if not isinstance(node, list) or not (-len(node) <= index < len(node)):
                return None
            node = node[index]
    return node


def check_file(name, current_doc, baseline_doc, metrics, factor, report):
    failures = 0
    for path, direction in metrics:
        base = resolve(baseline_doc, path)
        cur = resolve(current_doc, path)
        if not isinstance(base, (int, float)) or not isinstance(cur, (int, float)):
            report.append(f"  skip  {name}:{path} (missing in baseline or current)")
            continue
        if base <= 0:
            report.append(f"  skip  {name}:{path} (non-positive baseline {base})")
            continue
        ratio = cur / base
        if direction == "lower":
            bad = ratio > factor
            arrow = "slower" if ratio > 1 else "faster"
        else:
            bad = ratio < 1.0 / factor
            arrow = "worse" if ratio < 1 else "better"
        verdict = "FAIL" if bad else "ok"
        report.append(
            f"  {verdict:4}  {name}:{path}  baseline={base:.6g} "
            f"current={cur:.6g}  ({ratio:.2f}x, {arrow})"
        )
        if bad:
            failures += 1
    return failures


def check_limits(name, current_doc, limits, report):
    """Absolute bounds on the fresh run; no baseline involved."""
    failures = 0
    for path, kind, bound in limits:
        cur = resolve(current_doc, path)
        if not isinstance(cur, (int, float)):
            report.append(f"  skip  {name}:{path} (missing in current)")
            continue
        bad = cur > bound if kind == "max" else cur < bound
        verdict = "FAIL" if bad else "ok"
        report.append(f"  {verdict:4}  {name}:{path}  current={cur:.6g}  "
                      f"(limit: {kind} {bound:g})")
        if bad:
            failures += 1
    return failures


def run_gate(build_dir, baseline_dir, factor):
    pairs = [
        ("BENCH_table4.json", TABLE4_METRICS, TABLE4_LIMITS),
        ("BENCH_scale.json", SCALE_METRICS, []),
        ("BENCH_intersect.json", INTERSECT_METRICS, INTERSECT_LIMITS),
    ]
    report = []
    failures = 0
    compared = 0
    for filename, metrics, limits in pairs:
        current_path = os.path.join(build_dir, filename)
        baseline_path = os.path.join(baseline_dir, filename)
        if not os.path.exists(current_path):
            report.append(f"  skip  {filename} (no current run at {current_path})")
            continue
        with open(current_path) as f:
            current_doc = json.load(f)
        # Absolute limits only need the fresh run, so they gate even when
        # a baseline has not been checked in yet.
        failures += check_limits(filename, current_doc, limits, report)
        if not os.path.exists(baseline_path):
            report.append(f"  skip  {filename} (no baseline at {baseline_path})")
            continue
        with open(baseline_path) as f:
            baseline_doc = json.load(f)
        compared += 1
        failures += check_file(filename, current_doc, baseline_doc, metrics,
                               factor, report)
    print(f"bench regression gate (fail beyond {factor}x):")
    for line in report:
        print(line)
    if compared == 0:
        print("nothing to compare: run the benches first "
              "(./bench_table4_runtime, ./bench_scale, ./bench_intersect)")
    if failures:
        print(f"FAILED: {failures} metric(s) regressed beyond {factor}x")
        return 1
    print("passed")
    return 0


def self_test():
    """The gate must flag a synthetic 3x regression and pass identity."""
    baseline = {
        "avg_total_seconds": 0.010,
        "closure_comparison": [{"total_speedup": 12.0}],
    }
    regressed = {
        "avg_total_seconds": 0.030,  # 3x slower: must fail
        "closure_comparison": [{"total_speedup": 12.0}],
    }
    report = []
    if check_file("fixture", baseline, baseline, TABLE4_METRICS, 2.0, report) != 0:
        print("self-test FAILED: identity comparison flagged a regression")
        return 1
    if check_file("fixture", regressed, baseline, TABLE4_METRICS, 2.0, report) == 0:
        print("self-test FAILED: 3x regression not flagged")
        return 1
    # Higher-is-better direction: a collapsed speedup must fail too.
    collapsed = {
        "avg_total_seconds": 0.010,
        "closure_comparison": [{"total_speedup": 3.0}],  # 4x worse
    }
    if check_file("fixture", collapsed, baseline, TABLE4_METRICS, 2.0, report) == 0:
        print("self-test FAILED: collapsed speedup not flagged")
        return 1
    # Noise inside the band must NOT fail (1.5x slower < 2x threshold).
    noisy = {
        "avg_total_seconds": 0.015,
        "closure_comparison": [{"total_speedup": 8.5}],
    }
    if check_file("fixture", noisy, baseline, TABLE4_METRICS, 2.0, report) != 0:
        print("self-test FAILED: in-band noise flagged as regression")
        return 1
    # Absolute limits: the tracing-overhead ceiling, the attribution
    # floor and each stage ceiling must trip on its own over-budget
    # fixture, and a healthy run must pass.
    healthy = {
        "tracing": {"overhead_ratio": 1.005},
        "stages": {"attributed_fraction": 0.97, "edge_cost_ms": 0.15,
                   "search_ms": 0.34, "steiner_ms": 0.66, "subgraph_ms": 0.25,
                   "seed_realloc_ms": 0.027},
    }
    if check_limits("fixture", healthy, TABLE4_LIMITS, report) != 0:
        print("self-test FAILED: in-bound limits flagged")
        return 1
    over_budget = [
        ("tracing", "overhead_ratio", 1.10, "10% tracing overhead"),
        ("stages", "attributed_fraction", 0.5, "50% stage attribution"),
        ("stages", "edge_cost_ms", 4.5, "per-query Con counting"),
        ("stages", "search_ms", 0.9, "hash-map search with a full sort"),
        ("stages", "search_ms", 0.55, "per-posting norms, per-hit log1p"),
        ("stages", "steiner_ms", 1.5, "a solve twice as slow"),
        ("stages", "subgraph_ms", 0.6, "a subgraph build twice as slow"),
        ("stages", "seed_realloc_ms", 0.12, "a seed reallocation 4x as slow"),
    ]
    for section, key, value, what in over_budget:
        fixture = {name: dict(fields) for name, fields in healthy.items()}
        fixture[section][key] = value
        if check_limits("fixture", fixture, TABLE4_LIMITS, report) != 1:
            print(f"self-test FAILED: {what} ({section}.{key} = {value}) "
                  "not flagged")
            return 1
    # Intersect-kernel gate: a dispatcher that loses 2x to the plain
    # merge somewhere on the grid must fail its dimensionless limit.
    sane_dispatch = {"headline": {"adaptive_worst_ratio_vs_merge": 1.1}}
    bad_dispatch = {"headline": {"adaptive_worst_ratio_vs_merge": 2.0}}
    if check_limits("fixture", sane_dispatch, INTERSECT_LIMITS, report) != 0:
        print("self-test FAILED: sane kernel dispatch flagged")
        return 1
    if check_limits("fixture", bad_dispatch, INTERSECT_LIMITS, report) != 1:
        print("self-test FAILED: 2x kernel-dispatch loss not flagged")
        return 1
    print("self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build",
                        help="directory holding the fresh BENCH_*.json")
    parser.add_argument("--baseline-dir", default="bench/baselines",
                        help="directory holding the checked-in baselines")
    parser.add_argument("--factor", type=float, default=2.0,
                        help="regression threshold (default 2.0)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate catches a synthetic 3x "
                             "regression, then exit")
    args = parser.parse_args()
    if args.factor <= 1.0:
        print("--factor must be > 1", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    return run_gate(args.build_dir, args.baseline_dir, args.factor)


if __name__ == "__main__":
    sys.exit(main())
