"""Time the blocked subset field at several `bitio.SUBSET_BLOCK` sizes.

The (d, n0) cells are the subsets a message sends at d = 10^5 (the
wire-sparse benchmark's dimension) and d = 10^6, on one standard normal
input: the zero sets of dsd (nu = 0.1) and rsd (nu = 0.25) and the kept
set of topk with k = d/100.  For each cell and each block size B the
field is written with `bitio.write_subset` and read back with
`bitio.read_subset`.  The first table prints one Markdown row per cell:
the whole-d width ceil(log2 C(d, n0)), then for each B the write + read
time in ms (the best of `rounds`, every B timed in turn within a round)
and the field's bits over the whole-d width, which must not exceed
`bounds.subset_field_bits`.  The "whole d" column is
the single rank over C(d, n0), which the field is at d <= B; it is
timed at d = 10^5 only, since it is quadratic in d.

The second table is dsd's whole message: encode + decode in seconds
(`compress_at` and `decompress`, best of `rounds`) at each B.

    PYTHONPATH=src python scripts/subset_block_grid.py
"""

import math
import sys
import time

import numpy as np

from gradcodec import bitio, bounds
from gradcodec.bitio import BitCursor
from gradcodec.compressors import OperatorConfig, make_operator

BLOCKS = (2048, 4096, 8192, 16384)
DIMS = (10**5, 10**6)
WHOLE_D_MAX = 10**5  # the largest d whose single rank is timed


def subsets(d):
    """(name, positions) of the dsd and rsd zero sets and topk's kept set
    on one standard normal input at d."""
    x = np.random.default_rng(0).standard_normal(d)
    out = []
    for name, config in (("dsd", OperatorConfig("dsd", nu=0.1)),
                         ("rsd", OperatorConfig("rsd", nu=0.25, seed=1)),
                         ("topk", OperatorConfig("topk", k=d // 100))):
        rec = make_operator(config).compress_at(x, 0)[1].reconstructed
        out.append((name, np.flatnonzero(rec != 0.0 if name == "topk" else rec == 0.0).tolist()))
    return out


def at_block(values):
    bitio.SUBSET_BLOCK = values


def round_trip_ms(positions, d):
    """(write + read ms, field bits); checks the round trip."""
    t0 = time.perf_counter()
    field = bitio.write_subset(positions, d, len(positions))
    back = bitio.read_subset(BitCursor(field), d, len(positions))
    ms = (time.perf_counter() - t0) * 1e3
    if back != positions:
        raise RuntimeError(f"B = {bitio.SUBSET_BLOCK} does not round-trip at d={d}")
    return ms, len(field)


def cell(positions, d, rounds=3, blocks=BLOCKS):
    """([best write + read ms], [bits over the whole-d width]) per block
    size in `blocks`; a block size of d or more is the single rank.
    Checks each field against bounds.subset_field_bits."""
    default = bitio.SUBSET_BLOCK
    best = [math.inf] * len(blocks)
    extra = [0] * len(blocks)
    n0 = len(positions)
    width = bitio.subset_code_width(d, n0)
    try:
        for _ in range(rounds):
            for i, values in enumerate(blocks):
                at_block(values)
                ms, bits = round_trip_ms(positions, d)
                best[i] = min(best[i], ms)
                extra[i] = bits - width
        for values, e in zip(blocks, extra):
            at_block(values)
            if width + e > bounds.subset_field_bits(d, n0):
                raise RuntimeError(f"B = {values} exceeds the field bound at d={d}, n0={n0}")
    finally:
        at_block(default)
    return best, extra


def dsd_message_s(d, rounds=3, blocks=BLOCKS):
    """Best dsd encode + decode seconds per block size."""
    x = np.random.default_rng(0).standard_normal(d)
    op = make_operator(OperatorConfig("dsd", nu=0.1))
    default = bitio.SUBSET_BLOCK
    best = [math.inf] * len(blocks)
    try:
        for _ in range(rounds):
            for i, values in enumerate(blocks):
                at_block(values)
                t0 = time.perf_counter()
                payload, out = op.compress_at(x, 0)
                rec = op.decompress(payload, d, 0)
                best[i] = min(best[i], time.perf_counter() - t0)
                if not np.array_equal(rec, out.reconstructed):
                    raise RuntimeError(f"B = {values} changes the dsd message at d={d}")
    finally:
        at_block(default)
    return best


def main(dims=DIMS, rounds=3):
    print(f"B = bitio.SUBSET_BLOCK = {bitio.SUBSET_BLOCK}; ms write + read, "
          "then bits over the whole-d width")
    print("| d | subset | n0 | whole-d width, bits | whole d, ms | "
          + " | ".join(f"B={b}, ms | B={b}, +bits" for b in BLOCKS) + " |")
    print("|---" * (5 + 2 * len(BLOCKS)) + "|")
    for d in dims:
        for name, positions in subsets(d):
            n0 = len(positions)
            ms, extra = cell(positions, d, rounds)
            whole = (f"{cell(positions, d, 1, (d,))[0][0]:.0f}" if d <= WHOLE_D_MAX else "—")
            print(f"| {d} | {name} | {n0} | {bitio.subset_code_width(d, n0)} | {whole} | "
                  + " | ".join(f"{t:.0f} | {e}" for t, e in zip(ms, extra)) + " |", flush=True)
    print()
    print("| d | " + " | ".join(f"dsd encode + decode, B={b}, s" for b in BLOCKS) + " |")
    print("|---" * (1 + len(BLOCKS)) + "|")
    for d in dims:
        print(f"| {d} | " + " | ".join(f"{t:.2f}" for t in dsd_message_s(d, rounds)) + " |",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
