"""Counter-based deterministic random streams.

Every randomized codec draws from a Philox stream keyed by
(base_seed, message_index), so an encoder and a decoder that agree on
the base seed replay identical per-message sequences without sharing
state.  Streams for distinct message indices are independent.  This is
the one module that builds a generator, and gaussian_blocks is the one
blocked Gaussian draw: SC's candidates and the cap-probability oracle's
sphere samples.
"""

import os

import numpy as np

DEFAULT_SEED = 0
SEED_ENV_VAR = "GRADCODEC_SEED"


def default_seed():
    """Toolkit default seed; the GRADCODEC_SEED env var overrides it."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    return int(raw)


def message_stream(base_seed, message_index=0) -> np.random.Generator:
    """Generator for one message, keyed by (base_seed, message_index)."""
    if message_index < 0:
        raise ValueError("message_index must be >= 0")
    key = np.array(
        [int(base_seed) & 0xFFFFFFFFFFFFFFFF, int(message_index) & 0xFFFFFFFFFFFFFFFF],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def gaussian_blocks(gen: np.random.Generator, d, rows, block):
    """The next `rows` standard normal rows of length d from `gen`, as
    (index of the first row, the next `block` rows or fewer).  Every block
    is drawn into one buffer of min(block, rows) rows (none for rows <= 0),
    so a yielded block is overwritten by the next one: a caller copies
    what it keeps.  The draws are split-invariant, so every block size
    yields the same rows."""
    buf = np.empty((max(0, min(block, rows)), d))
    for first in range(0, rows, block):
        w = buf[:rows - first]
        gen.standard_normal(out=w)
        yield first, w
