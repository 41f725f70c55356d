"""Benchmark worker: one fresh interpreter that imports ineqlab from the
checkout's ``src``, builds a workload's inputs, and runs rounds of its job
list on request.  It uses one thread; nothing else runs while it works.

Protocol (one line each way; replies are JSON on the original stdout,
while anything the program prints goes to stderr):

  startup          -> "imported", then "ready" once the inputs are built
  round K MODE     -> {"wall": s, "times": [s per job], "failed": n, ...}
                      MODE is capture (checked round), plain or traced
  finish           -> {"peak_rss_mb": MB, "errors": [...], "checked": n}

With --probe the worker exits right after "ready": the parent times these
fresh starts to sample set-up time.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import traceback
from time import perf_counter


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    proto = os.fdopen(os.dup(1), "w", buffering=1)
    sys.stdout = sys.stderr

    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import ineqlab
    import ineqlab.cli  # noqa: F401  (part of the measured import)

    if os.path.dirname(os.path.dirname(os.path.abspath(ineqlab.__file__))) != src:
        sys.exit(f"ineqlab was imported from {ineqlab.__file__}, not from {src}")
    proto.write("imported\n")

    import workloads

    tag = "probe" if args.probe else "work"
    workdir = os.path.join(root, ".bench_out", f"{tag}-{args.workload}-{os.getpid()}")
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
    proto.write("ready\n")
    try:
        if not args.probe:
            _serve(wl, proto, root, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _serve(wl, proto, root, seed):
    import ineqlab.transport as transport
    from tracer import Tracer, rebind, restore

    tracer = Tracer()

    checked = {}
    captured = []
    for line in sys.stdin:
        cmd = line.split()
        if cmd[0] == "finish":
            break
        rnd, mode = int(cmd[1]), cmd[2]
        patches = []
        if mode == "capture" and wl.captures:
            solve = transport.w2_squared

            def recording(u, v, *more, **kw):
                res = solve(u, v, *more, **kw)
                captured.append((u, v, more[0] if more else kw.get("method", "exact"), res))
                return res

            patches = rebind({solve: recording})
        elif mode == "traced":
            tracer.install()
        gc.collect()
        first_span = tracer.span_count()
        times, failures = [], []
        t_round = perf_counter()
        for name, run in wl.jobs:
            t0 = perf_counter()
            try:
                out = run(rnd)
            except Exception:  # a failed operation is counted, the round goes on
                failures.append(f"{name}: {traceback.format_exc(limit=3)}")
                out = None
            times.append(perf_counter() - t0)
            if mode == "capture" and out is not None:
                checked[name] = out
        wall = perf_counter() - t_round
        restore(patches)
        reply = {"wall": wall, "times": times, "failed": len(failures), "failures": failures[:3]}
        if mode == "traced":
            tracer.uninstall()
            reply["layers"] = tracer.layer_totals(first_span)
            reply["counts"] = tracer.take_counts()
        proto.write(json.dumps(reply) + "\n")

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        errors = wl.check(checked, captured)
    except Exception:
        errors = [f"output check raised: {traceback.format_exc(limit=5)}"]
    if tracer.span_count():
        tracer.save(os.path.join(root, ".bench_out", f"spans-{wl.name}-seed{seed}.npz"))
    proto.write(json.dumps({"peak_rss_mb": peak_rss_mb, "errors": errors[:20],
                            "error_count": len(errors), "checked": len(checked),
                            "job_names": [name for name, _ in wl.jobs]}) + "\n")


if __name__ == "__main__":
    main()
