#!/usr/bin/env python3
"""mfcat benchmark: cold-cache exact workloads, timed and traced.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload hom_grid --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Each pass runs in a fresh worker process (perfbench/worker.py), one at a
time, so every pass starts with empty engine caches, as a command-line
user's does.  ``--trace 0`` runs set-up-only workers and then whole passes
until ``--seconds`` is spent, and reports the end-to-end metrics;
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics.  The last line of stdout is the result object; the line
before it, starting with ``record``, holds the run's details.  See
perfbench/README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("hom_grid", "serre_sweep", "hn_filtration")
SETUP_SAMPLES = 5  # set-up-only workers per timed run, for a steady setup_s
RUN_LIMIT_S = 170  # a run must end within 180 s: no worker may outlive this
PASS_LIMIT_S = 150  # no new pass starts that would end after this
SPANS_DIR = ".bench_out"


class BenchError(Exception):
    pass


def _worker(workload, seed, size, mode, deadline, spans_path=None):
    env = dict(os.environ, MFCAT_PURE_PYTHON="1", PYTHONHASHSEED="0",
               PYTHONPATH=os.path.abspath("src"))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), size, mode]
    if spans_path:
        cmd.append(spans_path)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("%s worker for %s exceeded the run's time limit" % (mode, workload))
    if proc.returncode:
        raise BenchError("%s worker for %s failed:\n%s" % (mode, workload, proc.stderr[-2000:]))
    return json.loads(proc.stdout)


def _pinned(workload):
    with open(os.path.join(HERE, "checksums.json")) as fh:
        return json.load(fh).get(workload)


def _verdict(passes, pin):
    """(correct, failed, notes) over the passes of one run."""
    failed = sum(p["failed"] for p in passes)
    notes = [e for p in passes for e in p["errors"]]
    sums = {p["checksum"] for p in passes}
    if len(sums) > 1:
        notes.append("checksums differ between passes: %s" % sorted(sums))
    if pin and sums != {pin}:
        notes.append("checksum %s drifted from the pinned %s" % (sorted(sums), pin))
    return failed == 0 and not notes, failed, notes


def end_to_end(setups, passes):
    latencies = [ms for p in passes for ms in p["latencies_ms"]]
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "item_p50_ms": (statistics.median(latencies), "ms"),
        "item_p90_ms": (deciles[8], "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }, len(latencies)


def per_layer(plain, traced):
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    return layers


def _units(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def timed_run(workload, seed, seconds, size="full"):
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    setups = [_worker(workload, seed, size, "setup", deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    passes = []
    while True:
        t0 = time.monotonic()
        passes.append(_worker(workload, seed, size, "time", deadline))
        now = time.monotonic()
        ends = now - start + (now - t0)
        if ends > seconds or ends > PASS_LIMIT_S:
            break
    setups += [p["setup_s"] for p in passes]
    metrics, samples = end_to_end(setups, passes)
    return metrics, passes, {"setup_samples_s": setups, "latency_samples": samples}


def traced_run(workload, seed, size="full"):
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans_path = os.path.join(SPANS_DIR, "%s-%s.spans.json" % (workload, size))
    plain = _worker(workload, seed, size, "time", deadline)
    traced = _worker(workload, seed, size, "trace", deadline, spans_path)
    layers = per_layer(plain, traced)
    metrics = {name: (value, _units(name)) for name, value in layers.items()}
    return metrics, [plain, traced], {"spans": spans_path}


def _git_sha():
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _environment(passes):
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "backend": passes[0]["backend"],
        "nproc": len(os.sched_getaffinity(0)),
    }


def smoke():
    """Tiny types: every metric name appears, and tracing changes no result."""
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    want_e2e = {m["name"] for m in spec["end_to_end"]}
    want_layers = {m["name"] for m in spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        e2e, passes, _ = timed_run(workload, 0, 0, "smoke")
        layers, pair, _ = traced_run(workload, 0, "smoke")
        ok, _, notes = _verdict(passes + pair, None)
        problems += ["%s: %s" % (workload, n) for n in notes]
        if set(e2e) != want_e2e:
            problems.append("%s: end-to-end metrics %s" % (workload, sorted(set(e2e) ^ want_e2e)))
        if set(layers) != want_layers:
            problems.append("%s: per-layer metrics %s" % (workload, sorted(set(layers) ^ want_layers)))
        print("smoke %s: %s, checksum %s" % (workload, "ok" if ok else "FAILED",
                                              pair[1]["checksum"]))
    for p in problems:
        print("smoke problem: %s" % p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="check metric names and traced checksums on tiny types")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "mfcat", "__init__.py")):
        print("perfbench: run from the root of an mfcat checkout (no src/mfcat here)",
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        if args.trace:
            metrics, passes, extra = traced_run(args.workload, args.seed)
        else:
            metrics, passes, extra = timed_run(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    correct, failed, notes = _verdict(passes, _pinned(args.workload))
    attempted = sum(p["attempted"] for p in passes)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": _environment(passes),
        "passes": [{k: p[k] for k in ("setup_s", "wall_s", "attempted", "failed",
                                       "checksum", "peak_rss_mb")} for p in passes],
        "failed_frac": failed / attempted, "notes": notes[:10], **extra,
    }
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
