"""Time C(n, k) by math.comb and by bitio's prime factorisation.

For each (n, k) cell, with k = 64, 128, 256, ... below n/2 and then
n/2, prints one Markdown row: the width ceil(log2 C(n, k)) in bits, the
width over n, the best time of each path in ms, and the path that
`bitio.binom` takes there.  Both paths must give the same integer.
Cells where math.comb takes seconds are timed once.

    PYTHONPATH=src python scripts/binom_grid.py
"""

import math
import sys
import time

from gradcodec import bitio

DIMS = (2000, 4096, 10**4, 10**5, 10**6)


def grid():
    for n in DIMS:
        k = 64
        while k < n // 2:
            yield n, k
            k *= 2
        yield n, n // 2


def best_ms(f, rounds=5, budget_s=2.0):
    """Least time of up to `rounds` calls of f, in ms; stops once the
    calls have taken `budget_s` seconds; returns (ms, f's value)."""
    best = math.inf
    spent = 0.0
    for _ in range(rounds):
        start = time.perf_counter()
        value = f()
        seconds = time.perf_counter() - start
        best = min(best, seconds)
        spent += seconds
        if spent > budget_s:
            break
    return best * 1e3, value


def cell(n, k):
    """(width in bits, math.comb ms, factorised ms) at one cell."""
    comb_ms, comb = best_ms(lambda: math.comb(n, k))
    factored_ms, factored = best_ms(lambda: bitio._factored_binom(n, k))
    if factored != comb:
        raise RuntimeError(f"the factorised C({n}, {k}) differs from math.comb")
    return (comb - 1).bit_length(), comb_ms, factored_ms


def main(cells=None):
    print("| n | k | width, bits | width / n | math.comb, ms | factorised, ms | binom takes |")
    print("|---" * 7 + "|")
    for n, k in grid() if cells is None else cells:
        width, comb_ms, factored_ms = cell(n, k)
        path = "factorised" if bitio._factored_pays(n, k) else "math.comb"
        print(f"| {n} | {k} | {width} | {width / n:.3f} | {comb_ms:.3f} | "
              f"{factored_ms:.3f} | {path} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
