#!/usr/bin/env python3
"""Benchmark for ineqlab: certified W2 solves, level-set and cover
computations, and the command-line path.

    python3 benchmark/run.py --workload {w2-certify,levelset,sweep-cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; ineqlab is imported from ./src.  The run
starts one worker process (benchmark/worker.py), which imports ineqlab,
builds the workload's inputs from the seed and runs whole rounds of the
workload's fixed job list, one job at a time.  Round 0 is checked against
independent computations and is not timed; timed rounds follow until the
time is up.  Between rounds, and only while the worker is idle, fresh
interpreters are started that import ineqlab and build the inputs again;
their median is `setup_s`.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 the worker alternates untraced and
traced rounds and the JSON holds the per-layer metrics, including the
tracing overhead.  See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

from tracer import COUNTERS, LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("w2-certify", "levelset", "sweep-cli")
SETUP_SAMPLES = 5  # fresh interpreter starts per run
MIN_TIMED_ROUNDS = 2  # with --trace 0; a traced run needs one round of each mode
DEADLINE_S = 170.0
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 80.0, 75.0)

# Threads pinned to one so the run fits a shared two-core machine; no
# bytecode written, so every fresh start compiles ineqlab the same way
# whatever the caller's environment.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1", "INEQLAB_THREADS": "1",
    "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1",
}


def tail_percentile(jobs):
    """Highest percentile of the ladder with at least ten jobs beyond it."""
    for p in TAIL_LADDER:
        if jobs * (100.0 - p) >= 1000.0:
            return p
    return 50.0


class Run:
    def __init__(self, args):
        self.args = args
        self.env = dict(os.environ, **CHILD_ENV)
        self.env.pop("PYTHONPATH", None)
        self.setup = []  # (setup_s, import_s, inputs_s)
        self.procs = []

    def spawn(self, *extra):
        cmd = [sys.executable, WORKER, "--workload", self.args.workload, "--seed", str(self.args.seed)]
        if self.args.tiny:
            cmd.append("--tiny")
        proc = subprocess.Popen(cmd + list(extra), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                env=self.env, text=True, bufsize=1)
        self.procs.append(proc)
        return proc

    @staticmethod
    def expect(proc, word):
        line = proc.stdout.readline().strip()
        if line != word:
            raise RuntimeError(f"worker said {line!r}, expected {word!r}")

    def probe(self):
        """One fresh start: interpreter, imports, inputs."""
        t0 = perf_counter()
        proc = self.spawn("--probe")
        self.expect(proc, "imported")
        t1 = perf_counter()
        self.expect(proc, "ready")
        t2 = perf_counter()
        proc.stdin.close()
        if proc.wait() != 0:
            raise RuntimeError("set-up probe failed")
        self.setup.append((t2 - t0, t1 - t0, t2 - t1))

    def request(self, proc, line):
        proc.stdin.write(line + "\n")
        proc.stdin.flush()
        reply = proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"worker exited during {line!r}")
        return json.loads(reply)

    def execute(self):
        a = self.args
        start = perf_counter()
        worker = self.spawn()
        self.expect(worker, "imported")
        self.expect(worker, "ready")
        rounds = [self.request(worker, "round 0 capture")]
        self.probe()
        modes = ("plain", "traced") if a.trace else ("plain",)
        timed = {m: [] for m in modes}
        k = 1
        while True:
            mode = modes[(k - 1) % len(modes)]
            reply = self.request(worker, f"round {k} {mode}")
            rounds.append(reply)
            timed[mode].append(reply)
            k += 1
            elapsed = perf_counter() - start
            want = min(SETUP_SAMPLES, math.ceil(SETUP_SAMPLES * elapsed / a.seconds))
            while len(self.setup) < want:
                self.probe()
            enough = all(len(v) >= (1 if a.trace else MIN_TIMED_ROUNDS) for v in timed.values())
            next_round = statistics.median(r["wall"] for r in rounds[1:])
            if enough and perf_counter() - start + next_round > a.seconds:
                break
        while len(self.setup) < SETUP_SAMPLES:
            self.probe()
        final = self.request(worker, "finish")
        worker.stdin.close()
        if worker.wait() != 0:
            raise RuntimeError("worker failed")
        return rounds, timed, final

    def metrics(self, rounds, timed, final):
        jobs = len(rounds[0]["times"])
        setup = {
            "setup_s": statistics.median(s[0] for s in self.setup),
            "setup.import_s": statistics.median(s[1] for s in self.setup),
            "setup.inputs_s": statistics.median(s[2] for s in self.setup),
        }
        plain = timed["plain"]
        batch = statistics.median(r["wall"] for r in plain)
        if not self.args.trace:
            per_job = [statistics.median(r["times"][j] for r in plain) for j in range(jobs)]
            p = tail_percentile(jobs)
            return {
                "setup_s": (setup["setup_s"], "s"),
                "batch_s": (batch, "s"),
                "job_s.p50": (statistics.median(per_job), "s"),
                "job_s.tail": (percentile(per_job, p), "s"),
                "peak_rss_mb": (final["peak_rss_mb"], "MB"),
            }, {"tail_percentile": p, "jobs": jobs, "timed_rounds": len(plain),
                "round_walls_s": [r["wall"] for r in rounds],
                "setup_samples_s": [s[0] for s in self.setup],
                "job_medians_s": dict(zip(final["job_names"], per_job))}
        traced = timed["traced"]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (statistics.median(r["layers"][layer][0] for r in traced), "s")
            out[f"{layer}.calls"] = (statistics.median(r["layers"][layer][1] for r in traced), "count")
        for key, unit in COUNTERS.items():
            out[key] = (statistics.median(r["counts"][key] for r in traced), unit)
        entries, _ = out.pop("transport.plan_entries")
        columns = out["transport.lp_columns"][0]
        out["transport.plan_fill"] = (entries / columns if columns else 0.0, "ratio")
        out["setup.import_s"] = (setup["setup.import_s"], "s")
        out["setup.inputs_s"] = (setup["setup.inputs_s"], "s")
        traced_batch = statistics.median(r["wall"] for r in traced)
        out["trace.overhead_s"] = (traced_batch - batch, "s")
        out["trace.overhead_share"] = ((traced_batch - batch) / batch, "ratio")
        return out, {"jobs": jobs, "timed_rounds": len(plain), "traced_rounds": len(traced),
                     "batch_s_untraced": batch, "batch_s_traced": traced_batch}

    def close(self):
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def percentile(values, p):
    """Linear-interpolation percentile (numpy's default), without numpy."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "ineqlab", "__init__.py")):
        print("error: run from the root of an ineqlab checkout (src/ineqlab not found)", file=sys.stderr)
        return 2
    os.makedirs(".bench_out", exist_ok=True)

    run = Run(args)
    watchdog = threading.Timer(DEADLINE_S, run.close)
    watchdog.daemon = True
    watchdog.start()
    try:
        rounds, timed, final = run.execute()
    finally:
        watchdog.cancel()
        run.close()

    attempted = sum(len(r["times"]) for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for r in rounds:
        for msg in r["failures"]:
            print(f"failed: {msg}", file=sys.stderr)
    for msg in final["errors"]:
        print(f"check: {msg}", file=sys.stderr)
    metrics, info = run.metrics(rounds, timed, final)
    print(f"workload {args.workload} seed {args.seed}: attempted {attempted}, failed {failed}, "
          f"output checks {'passed' if not final['error_count'] else 'FAILED'} "
          f"({final['checked']} outputs, {final['error_count']} errors)")
    for key, value in info.items():
        if not isinstance(value, dict):
            print(f"  {key} = {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    result = {
        "correct": final["error_count"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(".bench_out", f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(dict(result, info=info), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
