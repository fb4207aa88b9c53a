"""Run one workload in this process; started by run.py, one at a time.

    python3 -S bench/worker.py --workload W --seed N --mode setup|measure|trace
                               [--seconds S]

Every mode imports ``fano_acm`` from ``src/`` of the checkout this file sits
in, makes the seeded inputs and warms up on every sixteenth of them (in the
workload's ``order``), then
prints ``READY``.  ``setup`` stops there.  ``measure`` then times whole passes
over the inputs for ``--seconds`` and checks every output; ``trace`` runs three
untraced and three traced passes, alternating, and writes the spans under
``bench/out/``.
The last line of stdout is a JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

import spans  # noqa: E402  (bench/ is sys.path[0])
import workloads  # noqa: E402

# The percentile latency_tail_us reports.  Its samples are the operations
# of one pass (240 and 110), and each choice leaves >= 10 above it.
TAIL = {"witness_ladder": 0.95, "cli_mix": 0.9}
# Percentiles printed to stderr, from which TAIL was chosen (bench/spread.py).
PROBES = (0.9, 0.95, 0.99, 0.995, 0.9975)
TRACE_PASSES = 3


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fano_acm

    where = Path(fano_acm.__file__).resolve().parent
    if where != src / "fano_acm":
        raise SystemExit(f"fano_acm imported from {where}, not from {src}")
    return fano_acm


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def one_pass(wl, ctx, inputs, checker, problems, on_output=None):
    """Run every input once, then check the outputs.  Return each
    operation's time in ns, None where it raised; append what is wrong with
    an output to ``problems``.  Checking after the pass keeps the checker's
    work out of the operations' caches and garbage collections."""
    clock = time.perf_counter_ns
    times, outputs = [], []
    for inp in inputs:
        start = clock()
        try:
            out = wl.op(ctx, inp)
        except Exception as exc:  # a failed operation is counted; the run goes on
            times.append(None)
            print(f"{inp!r} raised {exc!r}", file=sys.stderr)
            continue
        times.append(clock() - start)
        outputs.append((inp, out))
    for inp, out in outputs:
        if on_output is not None:
            on_output(out)
        problems += [f"{inp!r}: {p}" for p in wl.check(checker, inp, out)]
    return times


def measure(wl, ctx, inputs, checker, seconds):
    """Repeat whole passes for ``seconds``.  Each operation's latency is its
    fastest time over the passes: other load on the machine only ever adds
    time, and it comes and goes over seconds, so the fastest of many
    repeats is what stays put from run to run."""
    problems = []
    best = [math.inf] * len(inputs)
    failed = passes = 0
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        times = one_pass(wl, ctx, inputs, checker, problems)
        failed += times.count(None)
        best = [b if t is None else min(b, t) for b, t in zip(best, times)]
        passes += 1
    best = sorted(b for b in best if b != math.inf)
    print(f"{passes} passes; percentiles_us " + json.dumps(
        {q: percentile(best, q) / 1000 for q in PROBES}), file=sys.stderr)
    metrics = {
        "ops_per_s": (len(best) / (sum(best) / 1e9), "1/s"),
        "latency_p50_us": (statistics.median(best) / 1000, "us"),
        "latency_tail_us": (percentile(best, TAIL[wl.name]) / 1000, "us"),
        "peak_rss_kib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "KiB"),
    }
    return passes * len(inputs), failed, problems, metrics


def run_trace(wl, ctx, inputs, checker, fano, seed):
    """Alternate untraced and traced passes; counts and self times are
    totals over the TRACE_PASSES traced passes, and the overhead compares
    each operation's fastest traced and untraced time."""
    tracer = spans.Tracer()
    stdout_bytes = getattr(wl, "stdout_bytes", None)

    def count_output(out):
        tracer.counts["cli.stdout_bytes"] += stdout_bytes(out)

    problems, untraced, traced = [], [], []
    for _ in range(TRACE_PASSES):
        untraced.append(one_pass(wl, ctx, inputs, checker, []))
        tracer.install(fano)
        try:
            traced.append(one_pass(wl, ctx, inputs, checker, problems,
                                   count_output if stdout_bytes else None))
        finally:
            tracer.uninstall()
    values = tracer.layer_metrics()
    metrics = {name: (values.get(name, 0), unit) for name, unit in spans.PER_LAYER
               if name not in ("cli.import_ms", "cli.cold_run_ms")}

    def fastest_s(passes):
        return sum(min(ts) for ts in zip(*passes) if None not in ts) / 1e9

    untraced_s, traced_s = fastest_s(untraced), fastest_s(traced)
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{wl.name}-{seed}.json", {
        "workload": wl.name, "seed": seed, "passes": TRACE_PASSES,
        "operations": len(inputs), "untraced_s": untraced_s, "traced_s": traced_s,
    })
    print(f"{wl.name}: one pass {untraced_s:.3f} s untraced, {traced_s:.3f} s traced "
          f"(overhead {traced_s / untraced_s - 1:+.0%}), {len(tracer.spans)} spans",
          file=sys.stderr)
    failed = sum(ts.count(None) for ts in traced)
    return TRACE_PASSES * len(inputs), failed, problems, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    fano = import_program()
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.make_inputs(random.Random(args.seed))
    ctx = wl.setup(fano)
    for inp in sorted(inputs, key=wl.order)[::16]:
        wl.op(ctx, inp)
    print("READY", flush=True)
    if args.mode == "setup":
        return

    checker = wl.checker()
    if args.mode == "measure":
        attempted, failed, problems, metrics = measure(wl, ctx, inputs, checker, args.seconds)
    else:
        import fano_acm.cli  # noqa: F401  (traced even where the workload never calls it)

        attempted, failed, problems, metrics = run_trace(wl, ctx, inputs, checker, fano, args.seed)
    for problem in problems[:20]:
        print(problem, file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
