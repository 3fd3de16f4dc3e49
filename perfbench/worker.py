"""One benchmark pass in a fresh process, so every engine cache starts empty.

Usage (from run.py, with PYTHONPATH naming the checkout's ``src``):
    python3 perfbench/worker.py WORKLOAD SEED SIZE MODE [SPANS_PATH]

MODE is ``setup`` (import and build the base objects, then stop), ``time``
(run every item untraced) or ``trace`` (the same with spans recorded; the
spans are written to SPANS_PATH).  The pass is printed to stdout as one
JSON object.
"""

import json
import os
import resource
import sys
import time

T_START = time.perf_counter()

import tracing  # noqa: E402
import workloads  # noqa: E402


def main():
    workload, seed, size, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
    # Importing the API modules the workloads call is part of set-up.
    import mfcat.catalog  # noqa: F401
    import mfcat.homcat  # noqa: F401
    import mfcat.kernel
    import mfcat.stability  # noqa: F401
    import mfcat.tables  # noqa: F401

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(mfcat.kernel.__file__).startswith(src + os.sep):
        sys.exit("mfcat was not imported from %s" % src)
    tracer = tracing.install(tracing.Tracer()) if mode == "trace" else None
    cats = workloads.catalogs(workload, size)
    setup_s = time.perf_counter() - T_START
    out = {"setup_s": setup_s, "backend": mfcat.kernel.BACKEND}
    if mode != "setup":
        out.update(_items(workload, cats, seed, size, tracer))
    if tracer is not None:
        out["layers"] = tracing.derive(tracer, out["wall_s"])
        with open(sys.argv[5], "w") as fh:
            json.dump(tracing.dump(tracer), fh, separators=(",", ":"))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    json.dump(out, sys.stdout)


def _items(workload, cats, seed, size, tracer):
    todo = workloads.items(workload, cats, seed, size)
    latencies, results, errors = [], [], []
    t0 = time.perf_counter()
    for i, item in enumerate(todo):
        if tracer is not None:
            tracer.item = i
        t_item = time.perf_counter()
        try:
            dt, result, error = workloads.run_item(workload, cats, item)
        except Exception as exc:  # an engine error fails the item, not the pass
            dt = time.perf_counter() - t_item
            result, error = ["raised", repr(item)], repr(exc)
        latencies.append(dt * 1000.0)
        results.append(result)
        if error is not None:
            errors.append("%r: %s" % (item, error))
    wall_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.item = -1
    return {
        "wall_s": wall_s,
        "latencies_ms": latencies,
        "attempted": len(todo),
        "failed": len(errors),
        "errors": errors[:5],
        "checksum": workloads.checksum(results),
    }


if __name__ == "__main__":
    main()
