"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 bench/spread.py [--workload W ...] [--seeds 1-10] [--seconds S]

Runs bench/run.py once per seed for each workload (both by default),
one run at a time, and prints the operations attempted and failed, and for
each metric its unit, the median and the interquartile distance as a share
of the median,
with quartiles from ``statistics.quantiles(values, n=4)``.  It also prints
the share of failed operations, and the same spread for the candidate tail
percentiles the worker prints to stderr (``pNN``).  Raw results go to bench/out/spread-W.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    seconds = args.seconds or json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
    (BENCH / "out").mkdir(exist_ok=True)
    for workload in args.workload or ["witness_ladder", "cli_mix"]:
        results = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                check=True, capture_output=True, text=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            for line in proc.stderr.splitlines():
                if "percentiles_us " in line:
                    for q, v in json.loads(line.split("percentiles_us ", 1)[1]).items():
                        result["metrics"][f"p{float(q) * 100:g}"] = {"value": v, "unit": "us"}
            results.append(result)
        (BENCH / "out" / f"spread-{workload}.json").write_text(json.dumps(results))
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
              f"attempted {sum(r['attempted'] for r in results)}, "
              f"failed {sum(r['failed'] for r in results)}, failed share {sorted(shares)}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            unit = results[0]["metrics"][name]["unit"]
            print(f"  {name:16} {unit:4} median {med:12.4f}  IQR/median {(q3 - q1) / med:6.2%}  "
                  f"range {min(values):.4f}..{max(values):.4f}")


if __name__ == "__main__":
    main()
