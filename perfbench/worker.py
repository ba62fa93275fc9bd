"""One fresh interpreter of the benchmark: set up a workload, then (unless
``--mode setup``) run one pass of its operations and gate every output.

Prints one JSON object on stdout:
``{"ready", "setup_probe_s", "op_s": [...], "op_probe_s": [...], "failed",
"failures": [...], "rss_kb", "meta", "trace"}``.  ``ready`` is
``perf_counter()`` after set-up, read from the system-wide monotonic clock, so
the parent can subtract its spawn time.  ``op_s`` are the operation times,
gates excluded; ``op_probe_s`` the machine-speed probe over each of them
(see ``SpeedProbe``).

Run by ``run.py``; by hand: ``PYTHONPATH=src python3 perfbench/worker.py
--workload stab-fuzz --seed 1 --mode pass --workdir <dir>``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import threading
from fractions import Fraction
from time import perf_counter, sleep, thread_time

import workloads

# The speed probe samples this often.
PROBE_EVERY_S = 0.1


def current_cpu() -> int:
    """The CPU this process last ran on (field 39 of /proc/self/stat)."""
    with open("/proc/self/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


class SpeedProbe:
    """Samples how fast this process's CPU runs, from a background thread.

    On a shared machine a busy neighbour slows every process by up to 2x,
    for seconds to minutes at a time, and ten runs in a row drift by more
    than any bound the benchmark may set.  Every ``PROBE_EVERY_S`` the thread
    times a fixed exact-rational loop by its own CPU time: that is the CPU's
    current throughput, unaffected by waiting for the interpreter lock.  The
    process is pinned to one CPU first, so the probe measures the CPU the
    operations run on.  The probe costs the operations about 1.5%.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (perf_counter, probe CPU s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(PROBE_EVERY_S):
            t0 = thread_time()
            s = Fraction(0)
            for i in range(1, 400):
                s += Fraction(1, i % 97 + 1)
            self.samples.append((perf_counter(), thread_time() - t0))

    def __enter__(self):
        self._thread.start()
        while len(self.samples) < 2:
            sleep(PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def around(self, t0: float, t1: float) -> float:
        """Mean probe time over [t0, t1], or the sample nearest to it."""
        samples = list(self.samples)
        inside = [c for t, c in samples if t0 <= t <= t1]
        if inside:
            return sum(inside) / len(inside)
        return min(samples, key=lambda s: min(abs(s[0] - t0), abs(s[0] - t1)))[1]


def run_pass(ops, speed: SpeedProbe):
    """Time each operation, then gate its output.  Returns (op times, the
    speed probe over each op, failures)."""
    times, probes, failures = [], [], []
    for label, call, gate in ops:
        t0 = perf_counter()
        try:
            output = call()
            reason = None
        except (Exception, SystemExit) as exc:
            reason = f"raised {exc!r}"
        t1 = perf_counter()
        times.append(t1 - t0)
        probes.append(speed.around(t0, t1))
        if reason is None:
            try:
                reason = gate(output)
            except (ValueError, KeyError, TypeError) as exc:
                reason = f"output unreadable: {exc!r}"
        if reason is not None:
            failures.append(f"{label}: {reason}")
    return times, probes, failures


def metadata(seed):
    import numpy
    from toricgit import stab_backends
    return {"stab_backend": stab_backends.resolve_backend(),
            "numba_importable": stab_backends.HAS_NUMBA,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "seed": seed}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    os.sched_setaffinity(0, {current_cpu()})
    ops = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    result = {"ready": perf_counter()}
    with SpeedProbe() as speed:
        result["setup_probe_s"] = speed.around(result["ready"], perf_counter())
        if args.mode != "setup":
            tracer = None
            if args.mode == "trace":
                from tracer import Tracer
                tracer = Tracer()
                tracer.install()
            times, probes, failures = run_pass(ops, speed)
            result.update(op_s=times, op_probe_s=probes, failed=len(failures),
                          failures=failures[:5],
                          rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                          meta=metadata(args.seed))
            if tracer is not None:
                result["trace"] = tracer.snapshot()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
