#!/usr/bin/env python3
"""The toricgit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Every pass of a workload runs in a fresh interpreter
(``worker.py``), as a CLI user pays a cold start and no in-process cache may
carry over.  The run keeps starting workers, one pass each, until ``S``
seconds have passed and at least ``MIN_WORKERS`` have run.  Every output is
checked against its gate.

Times are normalised to a fixed machine speed: each worker samples how fast
its CPU runs (``worker.SpeedProbe``) while it works, and an operation's time
is scaled by ``REFERENCE_PROBE_S`` over the samples taken during it.  A busy
neighbour on a shared machine slows every process by up to 2x, for seconds to
minutes, and the raw times of ten runs in a row then drift by more than the
bounds.  Each operation's time is the median over the run's workers; a pass
takes the sum of those.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates an untraced and a traced worker and prints
the per-layer metrics of the traced passes plus the tracing overhead.  The
last stdout line is the result JSON; the line before it holds run metadata.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import METRICS, RATIOS, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5          # set-up time is the median over at least this many workers
REFERENCE_PROBE_S = 0.00113  # the worker.SpeedProbe loop on an idle 2-CPU Xeon VM
MIN_WORKERS = 2            # passes per timed run, however long one pass takes
RUN_LIMIT_S = 170          # every worker of one run must end within this
# Settings that would select something other than the shipped default.
DROPPED_ENV = ("TORICGIT_STAB_BACKEND", "DEGEN_SEED", "DEGEN_FUZZ_TRIALS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def layer_unit(metric: str) -> str:
    stat = metric.rsplit(".", 1)[-1]
    if stat.endswith("_s"):
        return "s"
    if stat in ("yield", "hit_ratio", "trace_overhead_frac"):
        return "ratio"
    if stat == "bytes_out":
        return "B"
    return "count"


LAYER_METRICS = [*METRICS, *RATIOS, "trace_overhead_frac"]


def tail_latency(samples) -> tuple[int, float]:
    """(p, value) for the highest whole percentile p with at least ten samples
    above it; (100, maximum) when that percentile would lie below the median,
    that is with fewer than 20 samples."""
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return 100, xs[-1]
    p = 100 * (n - 10) // n
    return p, xs[-(-p * n // 100) - 1]


class Runner:
    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.start = perf_counter()

    def spawn(self, mode: str) -> dict:
        """Run one worker; its result plus ``setup_s`` (spawn to ready)."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--workdir", self.workdir]
        left = RUN_LIMIT_S - (perf_counter() - self.start)
        if left <= 0:
            raise BenchError("run time limit reached")
        t0 = perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        res = json.loads(proc.stdout.splitlines()[-1])
        res["setup_s"] = res["ready"] - t0
        return res

    def elapsed(self) -> float:
        return perf_counter() - self.start


def normalised(w: dict) -> list[float]:
    """A worker's operation times at the reference machine speed."""
    return [t * REFERENCE_PROBE_S / p for t, p in zip(w["op_s"], w["op_probe_s"])]


def timed_run(r: Runner, seconds: float):
    workers = []
    while len(workers) < MIN_WORKERS or r.elapsed() < seconds:
        workers.append(r.spawn("pass"))
    setups = workers[:]
    while len(setups) < SETUP_SAMPLES:
        setups.append(r.spawn("setup"))
    # every worker runs the same operations in the same order
    op = [median(ts) for ts in zip(*map(normalised, workers))]
    pct, tail = tail_latency(op)
    metrics = {
        "setup_s": median(w["setup_s"] * REFERENCE_PROBE_S / w["setup_probe_s"]
                          for w in setups),
        "wall_s": sum(op),
        "op_p50_ms": median(op) * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb": median(w["rss_kb"] for w in workers) / 1024,
    }
    info = {"workers": len(workers), "ops_per_pass": len(op), "tail_percentile": pct,
            "setup_samples": len(setups),
            "raw_wall_s": median(sum(w["op_s"]) for w in workers),
            "raw_setup_s": median(w["setup_s"] for w in setups),
            "probe_s": median(p for w in workers for p in w["op_probe_s"])}
    return workers, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, info


def traced_run(r: Runner, seconds: float):
    plain, traced = [], []
    while True:
        plain.append(r.spawn("pass"))
        traced.append(r.spawn("trace"))
        if r.elapsed() >= seconds:
            break
    per_pass = [layer_metrics(w["trace"]) for w in traced]
    metrics = {m: median(p[m] for p in per_pass) for m in per_pass[0]}
    metrics["trace_overhead_frac"] = (median(sum(normalised(w)) for w in traced)
                                      / median(sum(normalised(w)) for w in plain) - 1)
    info = {"untraced_workers": len(plain), "traced_workers": len(traced)}
    return plain + traced, {k: (v, layer_unit(k)) for k, v in metrics.items()}, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "toricgit" / "__init__.py").is_file():
        print(f"error: no toricgit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # a terminated run still kills and waits for its worker and cleans up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        r = Runner(args.workload, args.seed, workdir)
        run = traced_run if args.trace else timed_run
        workers, metrics, info = run(r, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(w["op_s"]) for w in workers)
    failed = sum(w["failed"] for w in workers)
    failures = [f for w in workers for f in w["failures"]]
    for f in failures[:10]:
        print(f"gate failed: {f}", file=sys.stderr)
    print(json.dumps({"meta": workers[0]["meta"], **info, "failures": failures[:10]}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
