#!/usr/bin/env python3
"""Compare the compiled linear-algebra kernel against the pure-Python twin.

The backend is chosen when :mod:`mfcat.kernel` is imported, so each
measurement runs in a fresh subprocess: once with the compiled extension
(the default) and once with ``MFCAT_PURE_PYTHON=1``.  Both backends run
identical workloads and must produce identical answers; the script prints
one row per workload with the two timings and the speedup, or n/a
when the compiled extension is missing and both runs used one backend.

Usage:  python3 benchmarks/bench_kernel.py [--repeats N] [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time


def _real_systems(quick):
    """Cocycle/boundary rows of genuine Hom systems (realistic sparsity).

    Random matrices are useless here: fraction-free elimination on dense
    random input doubles entry sizes per pivot and never finishes.  The
    kernel is tuned for the structured, sparse, small-entry systems the
    engine actually produces, so those are what we time.
    """
    from mfcat.catalog import get_catalog
    from mfcat.homcat import _System

    if quick:
        pairs = [("D5", 3, 3, 0), ("D5", 3, 4, 1), ("E6", 2, 3, 1)]
    else:
        pairs = [("E6", 2, 2, 1), ("E7", 5, 5, 1), ("E7", 5, 6, 2),
                 ("E8", 5, 4, 1), ("E8", 5, 5, 1)]
    systems = []
    for type_str, k, kp, n in pairs:
        cat = get_catalog(type_str)
        systems.append(_System(cat.object(k, 0), cat.object(kp, n)))
    return systems


def work_echelon(quick):
    """Rank + nullspace on the raw rows of real Hom systems."""
    from mfcat.kernel import nullspace, rank

    total = 0
    for sys_ in _real_systems(quick):
        total += rank(list(sys_.cocycle_rows), presort=True)
        total += len(nullspace(sys_.cocycle_rows, sys_.nvars)[1])
        total += rank(list(sys_.boundary_rows), presort=True)
    return total


def work_modp(quick):
    """Modular rank certificates on the same real systems."""
    from mfcat.kernel import rank_modp

    total = 0
    for sys_ in _real_systems(quick):
        total += rank_modp(sys_.cocycle_rows)
        total += rank_modp(sys_.boundary_rows)
    return total


def work_homgrid(quick):
    """Full Hom-multiset grid of one catalog (end-to-end engine load)."""
    from mfcat.catalog import get_catalog
    from mfcat.homcat import hom_multiset

    cat = get_catalog("D5" if quick else "E6")
    total = 0
    for k in cat.diagram.vertices:
        for kp in cat.diagram.vertices:
            for c, d in hom_multiset(cat, k, kp):
                total += d
    return total


def work_decompose(quick):
    """Split random direct sums back into catalog factors."""
    from mfcat.catalog import get_catalog
    from mfcat.homcat import decompose
    from mfcat.mf import direct_sum

    cat = get_catalog("A5" if quick else "D5")
    rng = random.Random(7)
    window = cat.objects_in_window(0, 2)
    total = 0
    for trial in range(4):
        picks = [rng.choice(window) for _ in range(3)]
        obj = None
        for _, k, n in picks:
            part = cat.object(k, n)
            obj = part if obj is None else direct_sum(obj, part)
        total += len(decompose(cat, obj))
    return total


WORKLOADS = {
    "echelon": work_echelon,
    "modp_rank": work_modp,
    "hom_grid": work_homgrid,
    "decompose": work_decompose,
}


def run_worker(quick, repeats):
    from mfcat.kernel import BACKEND

    out = {"backend": BACKEND, "results": {}, "checksums": {}}
    for name, fn in WORKLOADS.items():
        best = None
        checksum = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            checksum = fn(quick)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        out["results"][name] = best
        out["checksums"][name] = checksum
    print(json.dumps(out))


def run_backend(pure, quick, repeats):
    env = dict(os.environ)
    if pure:
        env["MFCAT_PURE_PYTHON"] = "1"
    else:
        env.pop("MFCAT_PURE_PYTHON", None)
    cmd = [sys.executable, os.path.abspath(__file__), "--worker",
           "--repeats", str(repeats)]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("worker failed")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=1,
                        help="timing repeats per workload, best is kept")
    parser.add_argument("--quick", action="store_true",
                        help="smaller sizes for a fast smoke run")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        run_worker(args.quick, args.repeats)
        return

    compiled = run_backend(False, args.quick, args.repeats)
    pure = run_backend(True, args.quick, args.repeats)
    if compiled["backend"] == pure["backend"]:
        print("note: compiled extension unavailable; both runs used the "
              "pure-Python backend")
    if compiled["checksums"] != pure["checksums"]:
        raise SystemExit("backends disagree: %r vs %r"
                         % (compiled["checksums"], pure["checksums"]))

    print("%-12s %12s %12s %9s" % ("workload", compiled["backend"] + " s",
                                   pure["backend"] + " s", "speedup"))
    for name in WORKLOADS:
        tc = compiled["results"][name]
        tp = pure["results"][name]
        # a ratio between two runs of one backend is run-to-run noise
        ratio = ("%8.2fx" % (tp / tc)
                 if compiled["backend"] != pure["backend"] else "%9s" % "n/a")
        print("%-12s %12.4f %12.4f %s" % (name, tc, tp, ratio))


if __name__ == "__main__":
    main()
