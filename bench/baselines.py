"""Re-measure the single-call reference timings listed in ROADMAP.md.

    python3 -S bench/baselines.py

Each figure is the fastest of several repeats (the machine's other load only
adds time), printed one per line.  These are reference points for the
README, not benchmark metrics.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fano_acm import (  # noqa: E402
    ChernData,
    FanoThreefold,
    classify_rank2,
    enumerate_admissible,
    euler_char,
    oracle_enumerate,
    twist,
    witness,
)


def best(fn, number, repeat=7):
    """Fastest time per call over ``repeat`` batches of ``number`` calls."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - start) / number)
    return min(times)


def main():
    X3, X5 = FanoThreefold(3), FanoThreefold(5)
    c = ChernData(3, 2, 7, 4)
    box = [(c1, c2) for c1 in range(-200, 200) for c2 in range(-200, 200)]

    def classify_box():
        for c1, c2 in box:
            classify_rank2(X3, c1, c2)

    def census_2000():
        for r in range(3, 2001):
            enumerate_admissible(X3, r)

    rows = [
        ("euler_char", best(lambda: euler_char(c, X3), 20000) * 1e6, "us"),
        ("twist", best(lambda: twist(c, X3, 2), 20000) * 1e6, "us"),
        ("classify_rank2", best(lambda: classify_rank2(X3, 3, 9), 20000) * 1e6, "us"),
        ("classify_rank2, 160k-query box", best(classify_box, 1, 3), "s"),
        ("witness(V_3, 1000, 1000)", best(lambda: witness(X3, 1000, 1000), 3) * 1e3, "ms"),
        ("enumerate_admissible, ranks 3..2000", best(census_2000, 1, 1), "s"),
        ("oracle_enumerate(V_5, 18, 10)", best(lambda: oracle_enumerate(X5, 18, 10, bound=18),
                                              20) * 1e3, "ms"),
    ]
    for name, value, unit in rows:
        print(f"{name:38} {value:10.3f} {unit}")


if __name__ == "__main__":
    main()
