#!/usr/bin/env python3
"""Bench-delta gate: fail CI when the hot paths regress past tolerance.

Raw ns-per-run numbers are not comparable across machines, so every
check is either (a) an absolute bound on the *committed* baseline files
(measured on the machine of record and refreshed with each perf PR), or
(b) a machine-normalized ratio comparing a fresh measurement against the
committed one:

  admission  window-x100 / greedy-x100 — GREEDY is the reference kernel:
             both scale with the machine, the quotient tracks only the
             WINDOW packing path.
  store      (batch64 - wal-off) / (batch1 - wal-off) — the group-commit
             amortization: journal overhead at batch=64 as a share of
             the fsync-per-record overhead.  Both sides count the same
             fsyncs, so the quotient is machine-stable.  Skipped when
             the fresh machine's fsync is too cheap to measure (tmpfs
             runners): with no fsync cost to amortize the quotient
             degenerates to CPU noise.
  malleable  no-reshape-x10 / greedy-x100 — the water-fill solve against
             the same reference kernel (both admit the same x10/x100
             workload family, the quotient tracks only the step-profile
             solver), plus reshape-100 / greedy-x100 for the EDF
             re-solve path on its fixed 100-request storm.
  serve      loadgen throughput, normalized by the greedy-x100 speed
             factor between the two machines.

Exit 0 when every gate passes, 1 otherwise, with one line per check.
"""

import argparse
import json
import sys

WINDOW = "gridbw admission:window-x100"
GREEDY = "gridbw admission:greedy-x100"
MALLEABLE_SOLVE = "gridbw malleable:no-reshape-x10"
MALLEABLE_RESHAPE = "gridbw malleable:reshape-100"
BATCH1 = "gridbw store:greedy-wal-batch1"
BATCH64 = "gridbw store:greedy-wal-batch64"
WAL_OFF = "gridbw store:greedy-wal-off"

# Absolute targets for the committed baselines (machine of record).
WINDOW_X100_TARGET_NS = 50e6  # WINDOW-x100 < 50 ms
MALLEABLE_SOLVE_TARGET_NS = 150e6  # water-fill solve (no reshape) x10 < 150 ms
STORE_AMORTIZATION_TARGET = 0.10  # batch=64 overhead < 10% of batch=1's

# Below this overhead1/wal-off multiple, fsync is effectively free on the
# fresh machine and the store amortization quotient is meaningless.
MIN_FSYNC_SIGNAL = 20.0


def timings(path):
    with open(path) as f:
        data = json.load(f)
    return {row["name"]: row["ns_per_run"] for row in data}


def need(table, name, path):
    if name not in table or table[name] is None:
        sys.exit(f"bench-delta: {path} is missing {name!r}")
    return table[name]


class Gate:
    def __init__(self):
        self.failed = False

    def check(self, ok, label, detail):
        status = "ok  " if ok else "FAIL"
        print(f"[{status}] {label}: {detail}")
        if not ok:
            self.failed = True

    def note(self, label, detail):
        print(f"[skip] {label}: {detail}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline-admission", required=True)
    ap.add_argument("--fresh-admission", required=True)
    ap.add_argument("--baseline-store", required=True)
    ap.add_argument("--fresh-store", required=True)
    ap.add_argument("--baseline-malleable")
    ap.add_argument("--fresh-malleable")
    ap.add_argument("--baseline-serve")
    ap.add_argument("--fresh-serve")
    ap.add_argument("--tolerance", type=float, default=0.25)
    args = ap.parse_args()
    tol = args.tolerance
    g = Gate()

    base_adm = timings(args.baseline_admission)
    fresh_adm = timings(args.fresh_admission)
    base_store = timings(args.baseline_store)
    fresh_store = timings(args.fresh_store)

    # --- absolute bounds on the committed baselines ---
    w = need(base_adm, WINDOW, args.baseline_admission)
    g.check(
        w < WINDOW_X100_TARGET_NS,
        "committed window-x100",
        f"{w / 1e6:.2f} ms (target < {WINDOW_X100_TARGET_NS / 1e6:.0f} ms)",
    )

    b1 = need(base_store, BATCH1, args.baseline_store)
    b64 = need(base_store, BATCH64, args.baseline_store)
    off = need(base_store, WAL_OFF, args.baseline_store)
    base_amort = (b64 - off) / (b1 - off)
    g.check(
        0 < base_amort < STORE_AMORTIZATION_TARGET,
        "committed store amortization",
        f"batch64 overhead = {base_amort * 100:.1f}% of batch1's "
        f"(target < {STORE_AMORTIZATION_TARGET * 100:.0f}%)",
    )

    # --- machine-normalized regression checks ---
    base_greedy = need(base_adm, GREEDY, args.baseline_admission)
    fresh_greedy = need(fresh_adm, GREEDY, args.fresh_admission)
    fresh_w = need(fresh_adm, WINDOW, args.fresh_admission)
    base_ratio = w / base_greedy
    fresh_ratio = fresh_w / fresh_greedy
    g.check(
        fresh_ratio <= base_ratio * (1 + tol),
        "admission window/greedy ratio",
        f"fresh {fresh_ratio:.2f} vs committed {base_ratio:.2f} "
        f"(allowed <= {base_ratio * (1 + tol):.2f})",
    )

    f1 = need(fresh_store, BATCH1, args.fresh_store)
    f64 = need(fresh_store, BATCH64, args.fresh_store)
    foff = need(fresh_store, WAL_OFF, args.fresh_store)
    if f1 - foff < MIN_FSYNC_SIGNAL * foff:
        g.note(
            "store amortization",
            f"fsync overhead only {(f1 - foff) / foff:.1f}x wal-off on this "
            f"machine (< {MIN_FSYNC_SIGNAL:.0f}x): nothing to amortize, quotient is noise",
        )
    else:
        fresh_amort = (f64 - foff) / (f1 - foff)
        g.check(
            fresh_amort <= base_amort * (1 + tol),
            "store amortization",
            f"fresh {fresh_amort * 100:.1f}% vs committed {base_amort * 100:.1f}% "
            f"(allowed <= {base_amort * (1 + tol) * 100:.1f}%)",
        )

    if args.baseline_malleable and args.fresh_malleable:
        base_mall = timings(args.baseline_malleable)
        fresh_mall = timings(args.fresh_malleable)
        bm_solve = need(base_mall, MALLEABLE_SOLVE, args.baseline_malleable)
        g.check(
            bm_solve < MALLEABLE_SOLVE_TARGET_NS,
            "committed malleable solve",
            f"{bm_solve / 1e6:.2f} ms (target < {MALLEABLE_SOLVE_TARGET_NS / 1e6:.0f} ms)",
        )
        # The reshape kernel runs ~0.5 s per iteration, so Bechamel gets
        # few samples and the measurement is noisy (~25% swings on one
        # machine); gate it at double tolerance.
        for label, key, k_tol in (
            ("malleable solve/greedy ratio", MALLEABLE_SOLVE, tol),
            ("malleable reshape/greedy ratio", MALLEABLE_RESHAPE, 2 * tol),
        ):
            base_k = need(base_mall, key, args.baseline_malleable)
            fresh_k = need(fresh_mall, key, args.fresh_malleable)
            base_r = base_k / base_greedy
            fresh_r = fresh_k / fresh_greedy
            g.check(
                fresh_r <= base_r * (1 + k_tol),
                label,
                f"fresh {fresh_r:.2f} vs committed {base_r:.2f} "
                f"(allowed <= {base_r * (1 + k_tol):.2f})",
            )

    if args.baseline_serve and args.fresh_serve:
        with open(args.baseline_serve) as f:
            base_rps = json.load(f)["throughput_rps"]
        with open(args.fresh_serve) as f:
            fresh_rps = json.load(f)["throughput_rps"]
        # Scale the fresh throughput by the machine speed factor measured
        # on the admission reference kernel (slower machine, higher
        # greedy ns, credit the throughput accordingly).
        normalized = fresh_rps * (fresh_greedy / base_greedy)
        g.check(
            normalized >= base_rps * (1 - tol),
            "serve throughput",
            f"fresh {fresh_rps:.0f} req/s (normalized {normalized:.0f}) vs "
            f"committed {base_rps:.0f} (allowed >= {base_rps * (1 - tol):.0f})",
        )

    sys.exit(1 if g.failed else 0)


if __name__ == "__main__":
    main()
