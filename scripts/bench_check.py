#!/usr/bin/env python3
"""Bench ratchet: diff a fresh BENCH_scheduler.json against the reference.

Usage:
    scripts/bench_check.py <fresh.json> [reference.json] [--tolerance 0.20]

Compares the headline throughput rows of a fresh benchmark run against the
repo's committed reference (BENCH_scheduler.json at the repo root by
default) and exits nonzero when any headline regresses by more than the
tolerance (default 20%). Higher-is-better rows only; makespans and solver
counters are informational. Also validates completeness: the fresh run must
carry every headline row the reference does (sweep, ingest_pair, shapes,
oversubscription, million_op, multi_app, tenant_waterfill,
concurrent_ingest), so a silently skipped axis fails the gate.

Solver-scaling acceptance fact (the virtual-service re-solve): the
128-stream/1-device sweep row must clear an absolute 2.0M ops/s floor
(2x its pre-virtual-service 1,048,592). The deterministic solver bounds
live in ctest: the 128- vs 8-stream member-touches/op bound in
SolverEquivalence.MemberTouchesFlatAsFanInGrows, the tenant_waterfill
full-scan and touches/op bounds in
SolverChurn.TenantWaterfillStaysOnGroupAggregates.

Oversubscription acceptance facts (PR 7): under-capacity rows stay
eviction- and prefetch-free; oversubscribed rows must prefetch, take zero
demand faults, beat absolute ops/s floors, and meet deterministic
virtual-time makespan ceilings (roughly half the admission-path
makespans); and makespan must grow monotonically with the ratio.

The deterministic multi-app and latency-QoS bounds live in ctest, on
the same scenarios (bench/multi_app_scenario.hpp): the Jain, nonzero-work
and quota-biased eviction bounds of the multi_app rows in
TenantMultiApp.FairSharesAndQuotaBiasedEviction, the weighted {2:1} pair's
[1.8, 2.2] band in TenantFairSharing.WeightTwoTenantGetsTwiceTheThroughput,
and qos_mixed's p99 ratio <= 0.5 at >= 0.8 batch throughput in
QosController.ReweightingConvergesToTheTarget. Their ops/s rows stay
headline rows here.

The `bench-ratchet` CMake target wires this as:
    cmake --build build --target bench bench-ratchet

Throughput is host-dependent: the gate is meant for run-over-run
comparisons on one machine (CI runner, dev box), not cross-host ones.
"""

import argparse
import json
import pathlib
import sys


def headline_rows(doc):
    """Yield (label, ops_per_sec) for every ratcheted row of a bench doc."""
    yield ("contention_dag (headline)", doc["ops_per_sec"])
    for row in doc.get("sweep", []):
        label = "sweep streams={} devices={}".format(
            row["n_streams"], row["n_devices"])
        yield (label, row["ops_per_sec"])
    pair = doc.get("ingest_pair", {})
    if pair:
        yield ("ingest_pair per_call", pair["per_call"]["ops_per_sec"])
        yield ("ingest_pair batched", pair["batched"]["ops_per_sec"])
    for row in doc.get("shapes", []):
        yield (row["scenario"], row["ops_per_sec"])
    for row in doc.get("oversubscription", []):
        yield ("oversubscription {}x".format(row["ratio"]),
               row["ops_per_sec"])
    if "million_op" in doc:
        yield ("million_op", doc["million_op"]["ops_per_sec"])
    for row in doc.get("multi_app", []):
        yield ("multi_app n_tenants={}".format(row["n_tenants"]),
               row["ops_per_sec"])
    for row in doc.get("tenant_waterfill", []):
        yield ("tenant_waterfill n_tenants={}".format(row["n_tenants"]),
               row["ops_per_sec"])
    ci = doc.get("concurrent_ingest", {})
    if ci:
        yield ("concurrent_ingest single_thread",
               ci["single_thread"]["ops_per_sec"])
        yield ("concurrent_ingest concurrent",
               ci["concurrent"]["ops_per_sec"])


def check_concurrent_ingest(doc, reference):
    """The concurrent ingestion front-end acceptance fact: an 8-producer
    contended flood through the sharded MPSC queue must beat the
    single-thread per-call submission throughput of the same workload
    (the drain batches whole rounds into one engine transaction,
    amortizing the per-call bracket and coalescing class re-solves).

    The bound was 3x when per-call submission paid a full per-member
    re-solve per issued op; the virtual-service solver (PR 8) made the
    per-call path ~2.75x faster (501k -> ~1.38M ops/s), compressing the
    amortization ratio to ~1.3x without regressing the absolute
    concurrent throughput (which the headline ratchet rows keep gating).
    The gate now asserts the batching win is real, not its old size."""
    errors = []
    ci = doc.get("concurrent_ingest")
    if ci is None:
        if reference.get("concurrent_ingest"):
            errors.append("concurrent_ingest section missing")
        return errors
    if ci["speedup"] < 1.2:
        errors.append(
            "concurrent_ingest: {}-producer flood speedup {:.2f}x below "
            "1.2x single-thread submission throughput".format(
                ci["n_producers"], ci["speedup"]))
    return errors


# Deterministic (virtual-time) ceilings for the planned oversubscription
# rows, set against the pre-planner admission-path makespans of 114,221 us
# (1.5x) and 154,486 us (2.0x): schedule-time eviction with lookahead
# prefetch must roughly halve them. Virtual time is noise-free, so these
# are tight.
MAKESPAN_CEILING_US = {1.5: 70000.0, 2.0: 120000.0}
# Host-throughput floors for the planned rows (ops/s). The pre-planner
# baselines were 436,890 (1.5x) and 543,774 (2.0x); the planner lifts the
# 1.5x row to ~700k on a quiet machine (32 coalesced transfer ops instead
# of 138 per-fault/per-victim ones). The floors sit well below the
# measured values because host throughput swings with machine load —
# the deterministic makespan ceilings above carry the tight acceptance.
OPS_FLOOR = {1.5: 500000.0, 2.0: 500000.0}


def check_oversubscription(doc):
    """The paged-UM and schedule-time-planning acceptance facts."""
    rows = doc.get("oversubscription", [])
    errors = []
    if len(rows) < 4:
        errors.append("oversubscription sweep incomplete: {} rows, want 4"
                      .format(len(rows)))
        return errors
    for row in rows:
        ratio = row["ratio"]
        if ratio <= 1.0 and row["bytes_evicted"] != 0:
            errors.append(
                "ratio {}x evicted {} bytes; under-capacity runs must be "
                "eviction-free".format(ratio, row["bytes_evicted"]))
        if ratio <= 1.0 and row.get("prefetch_ops", 0) != 0:
            errors.append(
                "ratio {}x issued {} prefetch ops; under-capacity runs "
                "must be untouched by the planner".format(
                    ratio, row["prefetch_ops"]))
        if ratio > 1.0 and row["bytes_evicted"] <= 0:
            errors.append(
                "ratio {}x evicted nothing; oversubscription must page out"
                .format(ratio))
        if ratio > 1.0 and row["evict_ops"] <= 0:
            errors.append(
                "ratio {}x issued no eviction write-backs".format(ratio))
        if ratio > 1.0 and row.get("prefetch_ops", 0) <= 0:
            errors.append(
                "ratio {}x issued no prefetches; the planner must serve "
                "the announced frontier".format(ratio))
        if ratio > 1.0 and row.get("fault_ops", 0) != 0:
            errors.append(
                "ratio {}x took {} demand faults; lookahead serving must "
                "cover every launch".format(ratio, row["fault_ops"]))
        ceiling = MAKESPAN_CEILING_US.get(ratio)
        if ceiling is not None and row["makespan_us"] > ceiling:
            errors.append(
                "ratio {}x makespan {:.0f} us above the planned-path "
                "ceiling {:.0f} us".format(ratio, row["makespan_us"],
                                           ceiling))
        floor = OPS_FLOOR.get(ratio)
        if floor is not None and row["ops_per_sec"] < floor:
            errors.append(
                "ratio {}x throughput {:.0f} ops/s below the absolute "
                "floor {:.0f}".format(ratio, row["ops_per_sec"], floor))
    # Makespan must grow with the oversubscription ratio: a larger working
    # set can only add transfer work in virtual time. The pre-planner
    # sweep satisfied this on makespan while *throughput* inverted
    # (1.5x: 437k ops/s under 2.0x's 544k — see the bench's
    # oversubscription_note); the planned path must keep makespans
    # monotone AND resolve the host-side inversion.
    by_ratio = sorted(rows, key=lambda r: r["ratio"])
    for prev, cur in zip(by_ratio, by_ratio[1:]):
        if cur["makespan_us"] < prev["makespan_us"]:
            errors.append(
                "non-monotone makespan across the ratio sweep: {}x ran "
                "{:.0f} us but {}x only {:.0f} us".format(
                    prev["ratio"], prev["makespan_us"], cur["ratio"],
                    cur["makespan_us"]))
    return errors


# Solver-scaling acceptance: the 2.0M ops/s floor is 2x the
# pre-virtual-service 128/1 row (1,048,592 ops/s). Host-tied, so it stays
# here; the deterministic touches/op bound is a ctest.
SOLVER_OPS_FLOOR_128_1 = 2000000.0


def check_solver_scaling(doc, reference):
    """The virtual-service solver's host-tied throughput floor."""
    errors = []
    rows = {(r["n_streams"], r["n_devices"]): r
            for r in doc.get("sweep", [])}
    ref_rows = {(r["n_streams"], r["n_devices"]): r
                for r in reference.get("sweep", [])}
    for key in ref_rows:
        if key not in rows:
            errors.append("sweep row streams={} devices={} missing"
                          .format(*key))
    high = rows.get((128, 1))
    if high is None:
        errors.append("solver-scaling gate needs the 128/1 sweep row")
        return errors
    if high["ops_per_sec"] < SOLVER_OPS_FLOOR_128_1:
        errors.append(
            "solver scaling: 128-stream/1-device row {:.0f} ops/s below "
            "the absolute {:.0f} floor".format(
                high["ops_per_sec"], SOLVER_OPS_FLOOR_128_1))
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", help="freshly generated BENCH_scheduler.json")
    parser.add_argument("reference", nargs="?",
                        default=str(pathlib.Path(__file__).resolve()
                                    .parent.parent / "BENCH_scheduler.json"),
                        help="committed reference (default: repo root)")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional regression (default 0.20)")
    args = parser.parse_args()

    with open(args.fresh) as f:
        fresh = json.load(f)
    with open(args.reference) as f:
        ref = json.load(f)

    fresh_rows = dict(headline_rows(fresh))
    failures = []
    for label, ref_ops in headline_rows(ref):
        if label not in fresh_rows:
            failures.append("missing row: {}".format(label))
            continue
        got = fresh_rows[label]
        floor = ref_ops * (1.0 - args.tolerance)
        status = "ok" if got >= floor else "REGRESSION"
        print("{:38s} ref {:>12.0f}  got {:>12.0f}  ({:+6.1%})  {}".format(
            label, ref_ops, got, (got - ref_ops) / ref_ops, status))
        if got < floor:
            failures.append(
                "{}: {:.0f} ops/s < {:.0f} (ref {:.0f} - {:.0%})".format(
                    label, got, floor, ref_ops, args.tolerance))

    failures.extend(check_oversubscription(fresh))
    failures.extend(check_concurrent_ingest(fresh, ref))
    failures.extend(check_solver_scaling(fresh, ref))

    if failures:
        print("\nbench_check FAILED:")
        for msg in failures:
            print("  - " + msg)
        return 1
    print("\nbench_check passed: {} headline rows within {:.0%} of reference"
          .format(len(fresh_rows), args.tolerance))
    return 0


if __name__ == "__main__":
    sys.exit(main())
