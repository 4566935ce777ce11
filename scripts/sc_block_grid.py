"""Time SC encode + decode per message at several candidate-block caps.

For each (alpha, d) cell, a fixed list of messages is encoded with
`Operator.compress_at` and decoded with `Operator.decompress` once per
value of `bitio.BLOCK`, the most Gaussian values one candidate block
holds (`compressors.sc_code`'s cache is cleared at each change).
Prints one Markdown row per cell: 1/P, the messages per round, and the
encode + decode ms per message at each cap, the best of 5 rounds that
each time every cap in turn.  Every cap must give the same payloads and
decoded vectors.

A second table isolates the cost of a block call: ns per Gaussian
value when the encoder scans 2^20 values in blocks of the cap (alpha =
0.01, where no candidate is accepted, to a trial cap) and when the
decoder replays as many, the best of 15 rounds.

    PYTHONPATH=src python scripts/sc_block_grid.py
"""

import math
import sys
import time

import numpy as np

from gradcodec import bitio, compressors
from gradcodec.compressors import GiveUpError, OperatorConfig, decode_payload, make_operator
from gradcodec.geometry import CapParams, cap_probability

CELLS = ((0.5, 3, 2000), (0.3, 10, 400), (0.5, 20, 100), (0.7, 50, 8))  # (alpha, d, messages)
CAPS = (1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18)
SCAN_DIMS = (20, 50, 200)
SCAN_VALUES = 1 << 20


def at_cap(values):
    bitio.BLOCK = values
    compressors.sc_code.cache_clear()


def messages_ms(op, xs):
    """(encode + decode ms per message, [(payload, decoded vector)])."""
    out = []
    t0 = time.perf_counter()
    for i, x in enumerate(xs):
        payload, _ = op.compress_at(x, i)
        out.append((payload, op.decompress(payload, x.size, i)))
    return (time.perf_counter() - t0) / len(xs) * 1e3, out


def cell_ms(alpha, d, messages, rounds=5):
    """Encode + decode ms per message at each cap, the best of `rounds`
    rounds; checks that every cap gives the first cap's messages."""
    gen = np.random.default_rng(0)
    xs = [gen.standard_normal(d) for _ in range(messages)]
    op = make_operator(OperatorConfig("sc", alpha=alpha, seed=1))
    default = bitio.BLOCK
    best = [math.inf] * len(CAPS)
    reference = None
    try:
        for _ in range(rounds):
            for i, values in enumerate(CAPS):
                at_cap(values)
                ms, out = messages_ms(op, xs)
                if reference is None:
                    reference = out
                elif any(p != q or not np.array_equal(u, v)
                         for (p, u), (q, v) in zip(out, reference)):
                    raise RuntimeError(f"cap {values} changes a message at ({alpha}, {d})")
                best[i] = min(best[i], ms)
    finally:
        at_cap(default)
    return best


def scan_ns(d, rounds=15):
    """(encoder, decoder) ns per Gaussian value at each cap, scanning or
    replaying SCAN_VALUES values in the largest blocks."""
    rows = SCAN_VALUES // d
    x = np.random.default_rng(0).standard_normal(d)
    config = OperatorConfig("sc", alpha=0.01, seed=1)
    payload = bitio.write_float_magnitude(1.0) + bitio.golomb_rice_encode(
        rows, compressors.sc_code(0.01, d)[0])
    default = bitio.BLOCK
    best = [[math.inf] * len(CAPS) for _ in range(2)]
    try:
        for _ in range(rounds):
            for i, values in enumerate(CAPS):
                at_cap(values)
                t0 = time.perf_counter()
                try:
                    compressors.sc_compress(x, 0.01, 1, 0, trial_cap=rows)
                except GiveUpError:
                    pass
                t1 = time.perf_counter()
                decode_payload(config, payload, d, 0)
                t2 = time.perf_counter()
                best[0][i] = min(best[0][i], (t1 - t0) / (rows * d) * 1e9)
                best[1][i] = min(best[1][i], (t2 - t1) / (rows * d) * 1e9)
    finally:
        at_cap(default)
    return best


def main():
    caps = " | ".join(f"2^{v.bit_length() - 1}" for v in CAPS)
    print(f"| (α, d) | 1/P | messages | {caps} |")
    print("|---" * (3 + len(CAPS)) + "|")
    for alpha, d, messages in CELLS:
        times = cell_ms(alpha, d, messages)
        inv_p = 1.0 / cap_probability(CapParams(alpha, d))
        print(f"| ({alpha}, {d}) | {inv_p:.4g} | {messages} | "
              + " | ".join(f"{t:.3g}" for t in times) + " |", flush=True)
    print(f"\n| d | side | {caps} |")
    print("|---" * (2 + len(CAPS)) + "|")
    for d in SCAN_DIMS:
        for side, ns in zip(("encode", "decode"), scan_ns(d)):
            print(f"| {d} | {side} | " + " | ".join(f"{t:.2f}" for t in ns) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
