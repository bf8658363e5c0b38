#!/usr/bin/env python3
"""CI gate for parallel scaling (ISSUE 6) and crypto ISA dispatch.

Parses a BENCH_micro.json produced by `bench_micro_substrates --json`
and fails loudly if the thread sweeps regress: throughput at every
measured thread count must not fall below 1-thread throughput on the
GEMM, TrainBatch and FingerprintAll rows.  Each thread count reads the
best of its repetitions (run the bench with --benchmark_repetitions),
so one run slowed by another tenant on a shared host does not decide
the gate.

It also gates the hardware crypto kernels: when the crypto_isa info
row shows an accelerated tier engaged for a family (AES, GHASH via
GCM, SHA-256), the auto rows of that family must run at >= 2x the
forced-scalar rows' byte throughput.  On machines where the hardware
lacks the extension (crypto_isa reports scalar for that family) the
check is skipped gracefully — a missing ISA is not a regression.

Third, the conv lowering: on the two 28x28 Table1Spec(16) layers a
batch-1 BM_Im2Col row (the lowering alone) must take at most 2x a
BM_Memcpy row of the bytes it writes, each the fastest of its
repetitions (skipped when the file has neither row).

Fourth, small filters: the best GF/s over the repetitions of the
batch-1 BM_ConvGemm rows of the two 28x28 Table1Spec(16) layers (8
filters each) must be >= 0.75x the best GF/s of the 128-filter
BM_ConvGemm/L2_conv128_3x3_fast_b1 row from the same file (skipped when
none of the three rows is present, FAIL when only some are).  The ratio
keeps the gate host-independent.  It runs only where the host row
reports isa_level=x86-64-v4: the x86-64-v3 and baseline clones of the
tile kernels run both shapes at a fraction of their v4 rate, and there
the ratio does not tell the two paths apart.

Rationale: the work plan is thread-count independent and the dispatch
width is clamped to the physical core count, so adding threads can
only help (more cores) or be a no-op (oversubscribed host).  Multi-
thread throughput materially below 1-thread throughput therefore
always indicates a runtime regression — the bug this gate exists to
catch — regardless of how many cores the CI runner has.  A small
tolerance absorbs run-to-run noise.

Usage: check_bench_scaling.py BENCH_micro.json [--tolerance 0.90]
Exit status 0 = pass, 1 = regression or missing rows.
"""

import argparse
import json
import sys

# op-name prefix -> JSON field holding its throughput
GATED_SWEEPS = {
    "BM_GemmFastThreads": "gflops",
    "BM_TrainBatchThreads": "items_per_s",
    "BM_FingerprintAllThreads": "items_per_s",
}


def sweep_rows(rows, prefix):
    """The (threads, best throughput over repetitions) points of one
    benchmark's sweep."""
    points = {}
    for row in rows:
        if not row.get("op", "").startswith(prefix):
            continue
        threads = int(row.get("threads", 0))
        value = float(row.get(GATED_SWEEPS[prefix], 0.0))
        if threads >= 1:
            points[threads] = max(points.get(threads, 0.0), value)
    return points


def check(rows, prefix, tolerance):
    points = sweep_rows(rows, prefix)
    if 1 not in points or len(points) < 2:
        print(f"FAIL {prefix}: thread sweep missing from bench JSON "
              f"(found thread counts {sorted(points)})")
        return False
    base = points[1]
    if base <= 0.0:
        print(f"FAIL {prefix}: 1-thread throughput is {base} "
              f"(field '{GATED_SWEEPS[prefix]}' empty? emitter regression)")
        return False
    ok = True
    for threads in sorted(points):
        value = points[threads]
        ratio = value / base
        status = "ok" if ratio >= tolerance else "FAIL"
        print(f"{status:4} {prefix:24} threads={threads:2} "
              f"throughput={value:14.1f} ({ratio:5.2f}x of 1-thread)")
        if ratio < tolerance:
            ok = False
    if not ok:
        print(f"FAIL {prefix}: multi-thread throughput fell below "
              f"{tolerance:.2f}x of 1-thread — parallel dispatch is making "
              f"the hot path slower (negative scaling).")
    return ok


# Crypto families gated on accelerated/scalar byte throughput:
# op prefix -> the crypto_isa summary key whose value must not be
# "scalar" for the check to be meaningful on this machine.
CRYPTO_GATES = {
    "BM_AesCtr": "aes",
    "BM_AesGcmSeal": "ghash",
    "BM_Sha256/": "sha256",
}
CRYPTO_MIN_SPEEDUP = 2.0


def parse_isa_summary(rows):
    """The crypto_isa info row as a dict, e.g. {'aes': 'vaes', ...}."""
    for row in rows:
        if row.get("op") == "crypto_isa":
            return dict(part.split("=", 1)
                        for part in row.get("shape", "").split()
                        if "=" in part)
    return {}


def crypto_rows(rows, prefix, tier):
    """bytes_per_s keyed by shape for one bench at one forced tier."""
    marker = f"/{tier}/"
    out = {}
    for row in rows:
        op = row.get("op", "")
        if op.startswith(prefix) and marker in op:
            value = float(row.get("bytes_per_s", 0.0))
            if value > 0.0:
                out[row.get("shape", "")] = value
    return out


def check_crypto(rows, prefix, family, isa):
    tier = isa.get(family)
    if tier is None:
        print(f"skip {prefix:24} no crypto_isa row — bench predates the "
              f"ISA dispatch, nothing to gate")
        return True
    if tier == "scalar":
        print(f"skip {prefix:24} {family}=scalar on this machine "
              f"(hardware lacks the extension)")
        return True
    scalar = crypto_rows(rows, prefix, "scalar")
    accel = crypto_rows(rows, prefix, "auto")
    shared = sorted(set(scalar) & set(accel))
    if not shared:
        print(f"FAIL {prefix}: {family}={tier} engaged but no "
              f"scalar/auto row pair found in the bench JSON")
        return False
    ok = True
    for shape in shared:
        ratio = accel[shape] / scalar[shape]
        status = "ok" if ratio >= CRYPTO_MIN_SPEEDUP else "FAIL"
        print(f"{status:4} {prefix:24} {shape:8} {family}={tier} "
              f"accelerated {accel[shape] / 1e9:6.2f} GB/s = "
              f"{ratio:5.2f}x scalar")
        if ratio < CRYPTO_MIN_SPEEDUP:
            ok = False
    if not ok:
        print(f"FAIL {prefix}: accelerated tier {tier} below "
              f"{CRYPTO_MIN_SPEEDUP:.1f}x scalar — the hardware kernel "
              f"is not engaging (dispatch regression?)")
    return ok


# Durable-ingest overhead gate (ISSUE 8): the journaled serve-ingest
# row must keep >= this fraction of the plain async row's throughput
# (<= 10% overhead for crash durability on the hot ingest path).
JOURNAL_BASE_OP = "BM_ServeIngest/async_batch32"
JOURNAL_GATED_OP = "BM_ServeIngest/journal_batch32"
JOURNAL_MIN_RATIO = 0.90


def find_value(rows, op, field="items_per_s"):
    """The positive `field` of the row named `op`, or None."""
    for row in rows:
        if row.get("op") == op:
            value = float(row.get(field, 0.0))
            if value > 0.0:
                return value
    return None


def best_value(rows, op, field, pick=max):
    """The best positive `field` over the rows named `op` (a repeated
    benchmark writes one row per repetition): `pick` is max for a rate,
    min for a time.  None when there is no such row."""
    values = [float(row.get(field, 0.0)) for row in rows
              if row.get("op") == op]
    values = [value for value in values if value > 0.0]
    return pick(values) if values else None


def check_journal_overhead(rows, require):
    base = find_value(rows, JOURNAL_BASE_OP)
    gated = find_value(rows, JOURNAL_GATED_OP)
    if base is None or gated is None:
        # The serve-ingest rows live in BENCH_serve.json, not
        # BENCH_micro.json — skip quietly when this file has neither
        # (unless --serve-only demands them), but fail if only one half
        # of the pair is present.
        if base is None and gated is None and not require:
            print("skip BM_ServeIngest journal gate: no serve-ingest rows "
                  "in this bench JSON")
            return True
        missing = JOURNAL_BASE_OP if base is None else JOURNAL_GATED_OP
        print(f"FAIL BM_ServeIngest journal gate: {missing} row missing "
              f"(emitter regression?)")
        return False
    ratio = gated / base
    status = "ok" if ratio >= JOURNAL_MIN_RATIO else "FAIL"
    print(f"{status:4} {JOURNAL_GATED_OP:32} {gated:12.0f} rec/s = "
          f"{ratio:5.2f}x of {JOURNAL_BASE_OP}")
    if ratio < JOURNAL_MIN_RATIO:
        print(f"FAIL journaled ingest runs at {ratio:.2f}x of plain async "
              f"(floor {JOURNAL_MIN_RATIO:.2f}) — the WAL is costing more "
              f"than 10% on the hot ingest path (group commit broken?)")
        return False
    return True


# Networked-ingest overhead gate (ISSUE 10): uploading through the
# wire protocol + epoll front end over loopback must keep >= this
# fraction of the in-process async API's throughput.  Framing, CRC,
# codec, and loopback syscalls are cheap next to the crypto-bound
# ingest pipeline; a bigger gap means the front end is serializing
# something it shouldn't (Nagle, per-frame allocs, event-loop stalls).
NET_BASE_OP = "BM_NetIngest/inproc_async"
NET_GATED_OP = "BM_NetIngest/tcp"
NET_MIN_RATIO = 0.75


def check_net_overhead(rows, require):
    base = find_value(rows, NET_BASE_OP)
    gated = find_value(rows, NET_GATED_OP)
    if base is None or gated is None:
        # The net-ingest rows live in BENCH_net.json — skip quietly
        # when this file has neither (unless --net-only demands them),
        # but fail if only one half of the pair is present.
        if base is None and gated is None and not require:
            print("skip BM_NetIngest gate: no net-ingest rows in this "
                  "bench JSON")
            return True
        missing = NET_BASE_OP if base is None else NET_GATED_OP
        print(f"FAIL BM_NetIngest gate: {missing} row missing "
              f"(emitter regression?)")
        return False
    ratio = gated / base
    status = "ok" if ratio >= NET_MIN_RATIO else "FAIL"
    print(f"{status:4} {NET_GATED_OP:32} {gated:12.0f} rec/s = "
          f"{ratio:5.2f}x of {NET_BASE_OP}")
    if ratio < NET_MIN_RATIO:
        print(f"FAIL networked ingest runs at {ratio:.2f}x of in-process "
              f"(floor {NET_MIN_RATIO:.2f}) — the TCP front end is costing "
              f"more than 25% on the upload path (framing/flow-control "
              f"regression?)")
        return False
    return True


# Conv-lowering gate: on the two 28x28 Table1Spec(16) layers the
# batch-1 lowering alone (BM_Im2Col) must take at most this multiple of
# a memcpy of the bytes it writes (BM_Memcpy), best of each row's
# repetitions.  The denominator is the lowering's own bytes, so a faster
# or slower GEMM cannot move the gate.  On one 4-core AVX-512 host, 10
# runs: the run-based lowering read 0.97-1.19x (L1) and 1.05-1.25x (L2);
# the per-element copy loop it replaced read 6.1-10.8x and 6.1-11.6x.
LOWERING_LAYERS = ("s16_L1_conv8_3x3", "s16_L2_conv8_3x3")
LOWERING_MAX_RATIO = 2.0


def check_lowering(rows):
    ok = True
    for layer in LOWERING_LAYERS:
        lowering_op = f"BM_Im2Col/{layer}_b1"
        memcpy_op = f"BM_Memcpy/{layer}_b1"
        lowering = best_value(rows, lowering_op, "ns_per_op", pick=min)
        memcpy = best_value(rows, memcpy_op, "ns_per_op", pick=min)
        if lowering is None and memcpy is None:
            print(f"skip {lowering_op}: no conv-lowering rows in this "
                  f"bench JSON")
            continue
        if lowering is None or memcpy is None:
            missing = lowering_op if lowering is None else memcpy_op
            print(f"FAIL conv-lowering gate: {missing} row missing "
                  f"(emitter regression?)")
            ok = False
            continue
        ratio = lowering / memcpy
        status = "ok" if ratio <= LOWERING_MAX_RATIO else "FAIL"
        print(f"{status:4} {lowering_op:36} {lowering:9.0f} ns = "
              f"{ratio:5.2f}x of a memcpy of its bytes ({memcpy:.0f} ns)")
        if ratio > LOWERING_MAX_RATIO:
            print(f"FAIL single-probe im2col costs {ratio:.2f}x a memcpy "
                  f"of its output (ceiling {LOWERING_MAX_RATIO:.1f}x) — the "
                  f"lowering is no longer running at memory speed, or it "
                  f"went back through the thread pool")
            ok = False
    return ok


# Small-filter gate: the direct kernel runs the 8-filter Table1Spec(16)
# convs at the big-filter rate.  Best of 5 repetitions, 11 runs on one
# 4-core AVX-512 host: L1 0.88-1.21x, L2 0.84-1.55x; the packed 6x16
# tile read 0.43-0.52x.  With the loader pinned to the x86-64-v3 clones
# the direct kernel reads 0.70-0.88x against 0.59-0.63x, too close to
# gate.
SMALL_FILTER_BASE_OP = "BM_ConvGemm/L2_conv128_3x3_fast_b1"
SMALL_FILTER_OPS = ("BM_ConvGemm/s16_L1_conv8_3x3_fast_b1",
                    "BM_ConvGemm/s16_L2_conv8_3x3_fast_b1")
SMALL_FILTER_MIN_RATIO = 0.75
SMALL_FILTER_ISA_LEVEL = "x86-64-v4"


def host_isa_level(rows):
    for row in rows:
        if row.get("op") == "host":
            for part in row.get("shape", "").split():
                if part.startswith("isa_level="):
                    return part.split("=", 1)[1]
    return None


def check_small_filter(rows):
    ops = (SMALL_FILTER_BASE_OP,) + SMALL_FILTER_OPS
    values = {op: best_value(rows, op, "gflops") for op in ops}
    missing = [op for op, value in values.items() if value is None]
    if len(missing) == len(ops):
        print("skip small-filter gate: no BM_ConvGemm rows in this bench "
              "JSON")
        return True
    if missing:
        print(f"FAIL small-filter gate: {', '.join(missing)} row(s) "
              f"missing (emitter regression?)")
        return False
    level = host_isa_level(rows)
    if level != SMALL_FILTER_ISA_LEVEL:
        print(f"skip small-filter gate: host isa_level={level}, the gate "
              f"needs {SMALL_FILTER_ISA_LEVEL} (the other tile clones do "
              f"not separate the paths)")
        return True
    base = values[SMALL_FILTER_BASE_OP]
    ok = True
    for op in SMALL_FILTER_OPS:
        ratio = values[op] / base
        status = "ok" if ratio >= SMALL_FILTER_MIN_RATIO else "FAIL"
        print(f"{status:4} {op:40} {values[op]:6.1f} GF/s = {ratio:4.2f}x "
              f"of the 128-filter rate ({base:.1f} GF/s), best of "
              f"repetitions")
        if ratio < SMALL_FILTER_MIN_RATIO:
            print(f"FAIL small-filter conv runs at {ratio:.2f}x of the "
                  f"128-filter rate (floor {SMALL_FILTER_MIN_RATIO:.2f}x) "
                  f"— the direct small-filter path is no longer taken")
            ok = False
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench_json")
    parser.add_argument("--tolerance", type=float, default=0.90,
                        help="minimum allowed multi-thread/1-thread "
                             "throughput ratio (default 0.90; >1 enforces "
                             "genuine speedup on multi-core runners)")
    parser.add_argument("--serve-only", action="store_true",
                        help="gate only the serve-ingest journal overhead "
                             "(for BENCH_serve.json, which has no thread "
                             "sweeps or crypto rows); the journal row pair "
                             "becomes mandatory")
    parser.add_argument("--net-only", action="store_true",
                        help="gate only the networked-ingest overhead "
                             "(for BENCH_net.json, which has no thread "
                             "sweeps, crypto, or journal rows); the net "
                             "row pair becomes mandatory")
    args = parser.parse_args()

    with open(args.bench_json, encoding="utf-8") as f:
        rows = json.load(f)

    ok = True
    if args.net_only:
        ok = check_net_overhead(rows, require=True)
    else:
        if not args.serve_only:
            for prefix in GATED_SWEEPS:
                ok = check(rows, prefix, args.tolerance) and ok
            isa = parse_isa_summary(rows)
            for prefix, family in CRYPTO_GATES.items():
                ok = check_crypto(rows, prefix, family, isa) and ok
            ok = check_lowering(rows) and ok
            ok = check_small_filter(rows) and ok
        ok = check_journal_overhead(rows, require=args.serve_only) and ok
        ok = check_net_overhead(rows, require=False) and ok
    if ok:
        print("bench gate: PASS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
