"""Time subset rank and unrank at several `bitio._DIRECT_BITS` thresholds.

For each (d, n0) cell, a fixed random n0-subset of d positions is ranked
and unranked with the grouped loop running while the running binomial
coefficient is wider than each threshold; the per-coordinate loop takes
over below it.  Prints one Markdown row per cell: the code width and the
rank + unrank time in ms at each threshold.  Every threshold must give
subset_rank's rank and unrank it back to the subset.

    PYTHONPATH=src python scripts/direct_bits_grid.py
"""

import math
import sys
import timeit

import numpy as np

from gradcodec import bitio

DIMS = (1024, 2048, 4096, 8192)
FRACTIONS = (1 / 32, 0.05, 0.1, 0.3, 0.5)
THRESHOLDS = (256, 512, 1024, 2048, 4096)


def round_trip(positions, d, n0, total, direct_bits):
    rank = bitio._rank(positions, d, n0, total, direct_bits=direct_bits)
    return rank, bitio._unrank(rank, d, n0, total, direct_bits=direct_bits)


def cell_ms(positions, d, n0, number, rounds=7):
    """Rank + unrank time in ms at each threshold, the best of `rounds`
    rounds that each time every threshold in turn; checks the round trip
    and that the rank is subset_rank's."""
    total = bitio.binom(d, n0)
    rank = bitio.subset_rank(positions, d, n0)
    for t in THRESHOLDS:
        if round_trip(positions, d, n0, total, t) != (rank, positions):
            raise RuntimeError(f"threshold {t} changes the rank or subset at d={d}, n0={n0}")
    best = [math.inf] * len(THRESHOLDS)
    for _ in range(rounds):
        for i, t in enumerate(THRESHOLDS):
            seconds = timeit.timeit(lambda: round_trip(positions, d, n0, total, t), number=number)
            best[i] = min(best[i], seconds / number * 1e3)
    return best


def main():
    gen = np.random.default_rng(0)
    print("| d | n0 | width, bits | " + " | ".join(f"{t}" for t in THRESHOLDS) + " |")
    print("|---" * (3 + len(THRESHOLDS)) + "|")
    for d in DIMS:
        for f in FRACTIONS:
            n0 = round(f * d)
            positions = sorted(gen.choice(d, size=n0, replace=False).tolist())
            times = cell_ms(positions, d, n0, number=max(4, 64 * 1024 // d))
            print(f"| {d} | {n0} | {bitio.subset_code_width(d, n0)} | "
                  + " | ".join(f"{t:.2f}" for t in times) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
