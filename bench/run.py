"""fano-acm benchmark: run one workload and print its metrics as JSON.

    python3 bench/run.py --workload witness_ladder|cli_mix
                         --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``, nothing is installed or built.  All load comes from one
worker process at a time (bench/worker.py, one thread), started with
``python3 -S`` so that site-packages start-up stays out of the figures.

--trace 0   end-to-end metrics.  setup_s is the median, over eleven fresh
            interpreters, of the wall time from process start to "imported,
            inputs made, warm-up done"; the last then measures for --seconds.
--trace 1   per-layer metrics from one traced pass over the same inputs, plus
            the cold-process reference figures cli.import_ms and
            cli.cold_run_ms.  Spans are written to bench/out/.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
Exits non-zero, printing no result, when the program is missing or a worker
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("witness_ladder", "cli_mix")
SETUP_SAMPLES = 11
COLD_SAMPLES = 5
DEADLINE = time.monotonic() + 170  # the whole run, workers included


class BenchError(Exception):
    pass


def _remaining():
    left = DEADLINE - time.monotonic()
    if left <= 0:
        raise BenchError("time budget exhausted")
    return left


def _finish(proc):
    try:
        out, _ = proc.communicate(timeout=_remaining())
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def worker(args, mode):
    """Start a worker; return (seconds until READY, its final JSON or None)."""
    cmd = [sys.executable, "-S", str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        if line.strip() != "READY":
            raise BenchError(f"worker did not get ready: {line.strip()!r}")
        out = _finish(proc)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return ready, json.loads(out.splitlines()[-1]) if mode != "setup" else None


def cold_ms(cmd, env=None):
    """Median wall time in ms of a fresh process running ``cmd`` to its exit."""
    times = []
    for _ in range(COLD_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              timeout=_remaining())
        times.append((time.perf_counter() - start) * 1000)
        if proc.returncode != 0:
            raise BenchError(f"{cmd} exited with {proc.returncode}")
    return statistics.median(times)


def import_ms():
    """Median in ms of ``import fano_acm.cli`` in a fresh interpreter,
    timed around the import statement alone."""
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
            "import fano_acm.cli; print(time.perf_counter() - t)")
    times = []
    for _ in range(COLD_SAMPLES):
        out = subprocess.run([sys.executable, "-S", "-c", code], cwd=ROOT, check=True,
                             capture_output=True, text=True, timeout=_remaining()).stdout
        times.append(float(out) * 1000)
    return statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description="fano-acm benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fano_acm" / "__init__.py").is_file():
        print(f"error: no fano_acm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            _, result = worker(args, "trace")
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
            result["metrics"]["cli.import_ms"] = {"value": import_ms(), "unit": "ms"}
            result["metrics"]["cli.cold_run_ms"] = {"value": cold_ms(
                [sys.executable, "-m", "fano_acm", "classify2", "--d", "3", "--c1", "0",
                 "--c2", "1"], env), "unit": "ms"}
        else:
            setups = [worker(args, "setup")[0] for _ in range(SETUP_SAMPLES - 1)]
            ready, result = worker(args, "measure")
            setups.append(ready)
            result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
