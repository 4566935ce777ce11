"""Compression operators with exact bit accounting.

Every operator is a writer/reader pair, named by its row of CODECS: the
writer maps a finite float64 vector to a BitString payload and the
reconstruction the decoder will produce; the reader maps a BitCursor
over that payload back to the identical reconstruction.  Around the
pair, Operator.compress_at validates the input, applies a contract wrap
and builds the CompressionOutcome (the exact payload bit count, and the
normalized distortion ||C(x)-x||^2 / ||x||^2); decode_payload opens the
cursor and rejects bits left after the reader is done.

Shared payload conventions:
  * scale fields are 31-bit binary32 magnitudes (sign bit dropped),
  * sign bits are 1 for negative, 0 for positive,
  * position sets are sent as a lexicographic subset rank,
  * per-coordinate levels use unary codes (k-1 ones then a zero).

Every sum that reaches a payload field, a reconstruction or a distortion
goes through _dot, numpy's einsum loop rather than BLAS, whose order
follows its thread count; so every output is a function of (x, config,
seed, message_index) and the numpy build.  The one BLAS sum left is SC's
prefilter w @ x: its slack absorbs the rounding and the exact check on
the reconstruction decides.  optim's gradient and stopping rule stay on
BLAS: perfbench's CGD check repeats that stopping rule with np.dot, and
a non-BLAS matvec would slow every d = 50 step.

Randomized operators draw from a Philox stream keyed by
(seed, message_index); a decoder configured with the same key replays
the identical sample sequence.
"""

import dataclasses
import functools
import math
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bitio, bounds
from .bitio import BitCursor, BitString
from .geometry import CapParams, cap_probability
from .rng import gaussian_blocks, message_stream


class GiveUpError(RuntimeError):
    """Rejection sampling hit its trial cap (probability <= e^-50)."""


@dataclass(frozen=True)
class CompressionOutcome:
    """Reconstruction, exact payload bits, and normalized distortion."""

    reconstructed: np.ndarray
    bits: int
    distortion: float


def _as_vector(x):
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size == 0:
        raise ValueError("cannot compress an empty vector")
    if not np.isfinite(x).all():
        raise ValueError("input vector must be finite")
    return x


def _dot(a, b):
    """<a, b> of two float64 vectors, summed in numpy's own fixed order
    (einsum's loop, not BLAS), so the result is a function of the inputs
    and the numpy build alone, whatever the BLAS thread count."""
    return float(np.einsum("i,i->", a, b))


def _norm(x):
    """||x||, from _dot."""
    return math.sqrt(_dot(x, x))


def normalized_distortion(x, reconstructed):
    """||C(x) - x||^2 / ||x||^2, defined as 0 for x = 0."""
    nx2 = _dot(x, x)
    if nx2 == 0.0:
        return 0.0
    err = reconstructed - x
    return _dot(err, err) / nx2


def _scale_field(value):
    """(the 31-bit scale field of value, the value a decoder reads back
    from it); ValueError where value overflows binary32 or a positive
    value reads back as 0, so a zero field is exactly a zero message."""
    field = bitio.write_float_magnitude(value)  # rejects what binary32 cannot hold
    back = abs(struct.unpack(">f", struct.pack(">f", value))[0])  # the field has no sign bit
    if value > 0.0 and back == 0.0:
        raise ValueError(f"scale {value} is below binary32's smallest subnormal")
    return field, back


def _direction(x):
    """(||x||, the unit direction x / ||x||); the direction of x = 0 is x."""
    norm = _norm(x)
    return norm, (x / norm if norm > 0.0 else x)


def _stochastic_levels(t, rng):
    """Round each t_i >= 0 to floor(t_i) or floor(t_i) + 1, up with
    probability t_i - floor(t_i), so the expected level is t_i.  The
    levels are float64; t is overwritten."""
    base = np.floor(t)
    t -= base
    base += rng.random(t.size) < t
    return base


def _blocks(d):
    """Slices that cut a d-vector into blocks of bitio.BLOCK coordinates."""
    return [slice(i, i + bitio.BLOCK) for i in range(0, d, bitio.BLOCK)]


def _check_end(cursor):
    """DecodeError where the payload has bits left after its fields."""
    if cursor.remaining():
        raise bitio.DecodeError(
            f"{cursor.remaining()} trailing bits after payload (offset {cursor.pos})"
        )


# --- sparse dithering ------------------------------------------------------

def _sd_vector(d, gamma, zero_positions, sign_bits, levels):
    """gamma * sign * level at each coordinate outside zero_positions, in
    ascending order; sign_bits holds one bit (1 or True = negative) per level."""
    rec = np.zeros(d)
    mask = np.ones(d, dtype=bool)
    mask[zero_positions] = False
    rec[mask] = gamma * (1.0 - 2.0 * sign_bits) * levels
    return rec


def _sd_compress(x, levels, negative, gamma):
    """The sparse-dithering layout: the wire scale gamma, the zero count,
    the zero set's rank, then a sign bit (from the boolean mask
    `negative`) and a unary level per nonzero level; with no nonzero
    level, gamma = 0.  Returns (payload, reconstruction)."""
    d = x.size
    nz = levels > 0
    gamma_field, gamma = _scale_field(gamma if nz.any() else 0.0)
    zeros = np.flatnonzero(~nz)
    sign_bits = negative[nz]
    payload = BitString.concat([
        gamma_field,
        bitio.write_fixed(zeros.size, d.bit_length()),
        bitio.write_subset(zeros.tolist(), d, zeros.size),
        BitString(sign_bits),
        bitio.write_unary_block(levels[nz]),
    ])
    return payload, _sd_vector(d, gamma, zeros, sign_bits, levels[nz])


def _sd_read(cursor, d):
    """The reconstruction of the sparse-dithering layout, for dsd and rsd."""
    gamma = bitio.read_float_magnitude(cursor)
    n0 = cursor.read_bits(d.bit_length())
    zeros = bitio.read_subset(cursor, d, n0)
    sign_bits = cursor._take(d - n0)
    return _sd_vector(d, gamma, zeros, sign_bits, bitio.read_unary_block(cursor, d - n0))


def dsd_quantize(x, nu):
    """Deterministic level selection on the unit direction of x.

    Returns (levels k_i >= 0, signs) over all d coordinates; levels
    depend only on x / ||x||, so they are scale invariant.  Exact
    midpoints round toward the smaller level.
    """
    norm, u = _direction(x)
    if norm == 0.0:
        return np.zeros(x.size, dtype=np.int64), np.zeros(x.size, dtype=np.int64)
    h = math.sqrt(nu / x.size)
    t = np.abs(u) / (2.0 * h)
    levels = np.ceil(t - 0.5).astype(np.int64)
    signs = np.where(u >= 0.0, 1, -1).astype(np.int64)
    return levels, signs


def dsd_compress(x, nu):
    """Deterministic sparse dithering: nearest dithering level per
    coordinate of the unit direction, reconstruction rescaled by the
    error-minimizing factor <x, u_hat> / ||u_hat||^2.
    """
    levels, signs = dsd_quantize(x, nu)
    gamma = 0.0
    if levels.any():
        h = math.sqrt(nu / x.size)
        u_hat = signs * (2.0 * h) * levels
        gamma = 2.0 * h * (_dot(x, u_hat) / _dot(u_hat, u_hat))
    return _sd_compress(x, levels, signs < 0, gamma)


def rsd_compress(x, nu, rng: np.random.Generator):
    """Randomized sparse dithering: each coordinate rounds to one of its
    two neighboring levels with unbiasing probabilities; the wire scale
    is 2 h ||x||, making E[C(x)] = x.
    """
    d = x.size
    norm, u = _direction(x)  # x = 0 rounds every level to 0
    h = math.sqrt(nu / d)
    levels = _stochastic_levels(np.abs(u) / (2.0 * h), rng).astype(np.int64)
    return _sd_compress(x, levels, u < 0.0, 2.0 * h * norm)


# --- spherical compression -----------------------------------------------

def _sc_vector(norm, alpha, w):
    """The candidate direction w / ||w|| at radius norm sqrt(1 - alpha)."""
    return norm * math.sqrt(1.0 - alpha) * (w / _norm(w))


@functools.lru_cache(maxsize=256)
def sc_code(alpha, d):
    """SC's constants at (alpha, d): (the Rice parameter m of T, the
    trial cap 50 ceil(1/P), the encoder's candidate block in rows).
    Exceeding the cap has probability <= e^-50.  ValueError (not
    cached) where 1/P overflows a float.

    A block call costs about as much as drawing and scanning 512/d more
    rows, and the encoder overshoots row T by half a block on average,
    so sqrt(2 (1/P) 512/d) rows balance the two; at least 8 rows, and
    at most bitio.block_rows(d), the rows of bitio.BLOCK = 2^15
    values (one row where d is longer).  The decoder draws blocks of
    that same largest size, so neither side's working memory grows with
    1/P or T.  README's cap grid measured a block call nearer 900 values
    than 512; B, which would grow about 1.3x, is left as it is."""
    p = cap_probability(CapParams(alpha, d))
    m = bitio.golomb_rice_params(p)
    try:
        cap = 50 * math.ceil(1.0 / p)
    except OverflowError:
        raise ValueError(f"no trial budget for cap probability {p}") from None
    block = math.ceil(32.0 * math.sqrt(1.0 / (p * d)))  # 1/(p d) <= 1/p, finite
    return m, cap, min(max(8, block), bitio.block_rows(d))


def sc_compress(x, alpha, seed, message_index=0, trial_cap=None):
    """Spherical compression: draw i.i.d. points of radius sqrt(1-alpha)
    from the shared keyed stream until one lands within sqrt(alpha) of
    the (rescaled) input; transmit only the 31-bit norm and the
    Golomb-Rice coded trial count.

    Strictly contractive: the accepted reconstruction satisfies
    ||C(x) - x||^2 <= alpha ||x||^2 by construction.  x is a finite
    float64 vector; returns (payload, reconstruction).
    """
    d = x.size
    norm = _norm(x)
    norm_field, norm32 = _scale_field(norm)
    if norm == 0.0:
        return norm_field, np.zeros(d)
    m, cap, block = sc_code(alpha, d)
    if trial_cap is not None:
        cap = trial_cap
    scale = norm32 * math.sqrt(1.0 - alpha)
    threshold = alpha * norm * norm
    base2 = scale * scale + norm * norm

    for first, w in gaussian_blocks(message_stream(seed, message_index), d, cap, block):
        norms = np.sqrt(np.einsum("ij,ij->i", w, w))  # no block-sized temporary
        if not (norms > 0.0).all():
            raise ArithmeticError("degenerate zero-norm Gaussian draw")
        # prefilter: ||scale w/|w| - x||^2 = scale^2 + ||x||^2 - 2 scale <w,x>/|w|.
        # w @ x is the one BLAS sum here: its rounding, the expansion's too,
        # is absorbed by the 1e-9 slack, and the exact check on the
        # reconstruction decides, so no output depends on it.
        dist2 = base2 - 2.0 * scale * (w @ x) / norms
        for i in np.flatnonzero(dist2 <= threshold * (1.0 + 1e-9)):
            rec = _sc_vector(norm32, alpha, w[i])
            err = rec - x
            if _dot(err, err) <= threshold:
                return norm_field + bitio.golomb_rice_encode(first + int(i) + 1, m), rec
    raise GiveUpError(f"no accepted point within {cap} trials (alpha={alpha}, d={d})")


def _sc_fields(cursor, d, alpha):
    """(norm, T); T = 0 for the zero message.  MalformedCodeError on what
    no encoder writes: a nonzero norm at d < 2, where sc_compress takes
    only x = 0, or T above the trial cap."""
    norm = bitio.read_float_magnitude(cursor)
    if norm == 0.0:
        return norm, 0
    if d < 2:
        raise bitio.MalformedCodeError(f"nonzero SC norm at d={d}")
    m, cap, _ = sc_code(alpha, d)
    T = bitio.golomb_rice_decode(cursor, m)
    if T > cap:
        raise bitio.MalformedCodeError(f"trial count {T} exceeds the cap {cap}")
    return norm, T


def _sc_read(cursor, d, alpha, seed, message_index):
    """Replay the encoder's keyed sample stream for T trials and rescale.
    The replay holds one block of bitio.block_rows(d) rows whatever T is;
    its time grows with T."""
    norm, T = _sc_fields(cursor, d, alpha)
    _check_end(cursor)  # before the replay, whose cost grows with T
    if norm == 0.0:
        return np.zeros(d)
    for _, w in gaussian_blocks(message_stream(seed, message_index), d, T,
                                bitio.block_rows(d)):
        pass  # the last block ends at row T
    return _sc_vector(norm, alpha, w[-1])


# --- baselines -------------------------------------------------------------

def _sparse_vector(d, sel, vals):
    """Zeros except `vals` at the positions `sel`."""
    rec = np.zeros(d)
    rec[sel] = vals
    return rec


def _sparse_compress(x, sel, vals):
    """The sparse layout: binary32 values, then the subset rank of their
    sorted positions `sel`.  Returns (payload, reconstruction)."""
    d, k = x.size, sel.size
    payload = bitio.write_float32_block(vals) + bitio.write_subset(sel.tolist(), d, k)
    return payload, _sparse_vector(d, sel, vals.astype(np.float32))


def _sparse_read(cursor, d, k):
    """The reconstruction of the sparse layout, for topk and randsparse."""
    vals = bitio.read_float32_block(cursor, k)
    return _sparse_vector(d, bitio.read_subset(cursor, d, k), vals)


def topk_compress(x, k):
    """Keep the k largest-magnitude coordinates (ties to the lower index),
    sent as binary32 values plus a subset rank for the positions.
    """
    d = x.size
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")
    order = np.lexsort((np.arange(d), -np.abs(x)))
    sel = np.sort(order[:k])
    return _sparse_compress(x, sel, x[sel])


def random_sparsify(x, k, rng: np.random.Generator):
    """Uniform k-subset, kept coordinates rescaled by d/k for unbiasedness."""
    d = x.size
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")
    sel = np.sort(rng.choice(d, size=k, replace=False))
    return _sparse_compress(x, sel, x[sel] * (d / k))


def _dither_block(out, norm, levels, s, nonzero, sign_bits):
    """Write norm * sign * level / s into `out`, from float64 levels and
    one sign bit (1 or True = negative) per index in `nonzero`, the indices
    of the nonzero levels; a zero level is +0.0."""
    np.multiply(levels, norm, out=out)
    out /= s
    out[nonzero] *= sign_bits * -2.0 + 1.0


def std_dither(x, s, rng: np.random.Generator):
    """Random dithering with s uniform levels on |u_i| of the unit
    direction: stochastic rounding of s |u_i|, encoded as a 31-bit norm,
    a block of unary levels, and one sign bit per nonzero level; s = 1
    is ternary quantization, {-1, 0, +1} times the norm.
    """
    d = x.size
    norm = _norm(x)
    norm_field, norm32 = _scale_field(norm)
    if norm == 0.0:
        return norm_field, np.zeros(d)
    codes = np.empty(d, dtype=np.int64)  # level + 1, the unary code
    rec = np.empty(d)
    signs = []
    for b in _blocks(d):
        t = np.abs(x[b])
        t /= norm  # |u_i| of the unit direction u
        t *= s
        levels = _stochastic_levels(t, rng)
        codes[b] = levels
        nonzero = np.flatnonzero(levels > 0.0)
        # u_i has the sign of x_i where the level is nonzero
        sign_bits = x[b][nonzero] < 0.0
        signs.append(sign_bits)
        _dither_block(rec[b], norm32, levels, s, nonzero, sign_bits)
    codes += 1
    payload = BitString.concat([
        norm_field,
        bitio.write_unary_block(codes),
        BitString(np.concatenate(signs)),
    ])
    return payload, rec


def _dither_read(cursor, d, s):
    """The reconstruction: the norm, d unary codes (level + 1), then one
    sign bit per nonzero level."""
    norm = bitio.read_float_magnitude(cursor)
    if norm == 0.0:
        return np.zeros(d)
    codes = bitio.read_unary_block(cursor, d)
    if codes.max(initial=0) > s + 1:
        raise bitio.MalformedCodeError(f"level above s={s}")
    rec = np.empty(d)
    for b in _blocks(d):
        levels = codes[b] - 1.0
        nonzero = np.flatnonzero(levels > 0.0)
        _dither_block(rec[b], norm, levels, s, nonzero, cursor._take(nonzero.size))
    return rec


# natural compression's 9-bit field sign << 8 | e stands for (-1)^sign
# 2^(e - 127), and for 0 where e = 0: the values of all 512 fields
_NATURAL_VALUES = np.array([math.ldexp(1.0 - 2.0 * sign, e - 127) if e else 0.0
                            for sign in (0, 1) for e in range(256)])
# eight 9-bit fields fill nine bytes: byte j ends with the high 8 - j bits
# of field j, and byte j + 1 starts with the last j + 1 bits of field j
_HIGH_SHIFT = np.arange(1, 9, dtype=np.uint16)
_LOW_SHIFT = np.arange(7, -1, -1, dtype=np.uint16)


def natural_compress(x, rng: np.random.Generator):
    """Stochastic rounding of each magnitude to a signed power of two,
    9 bits per coordinate (sign plus the 8-bit binary32 exponent field).

    The exponent field holds 2^-126 .. 2^127 and 0, so |x_i| above 2^127
    is rejected, and |x_i| below 2^-126 rounds between 0 and 2^-126.
    """
    d = x.size
    packed = np.empty(9 * -(-d // 8), dtype=np.uint8)
    rec = np.empty(d)
    for b in _blocks(d):
        ax = np.abs(x[b])
        if ax.max() > 2.0 ** 127:
            raise ValueError("natural compression needs |x_i| <= 2^127")
        # |x_i| = m 2^ex, m in [1/2, 1): it rounds up from 2^(ex-1) to 2^ex
        # with probability 2m - 1, which is exact (Sterbenz)
        m, ex = np.frexp(ax)
        u = rng.random(ax.size)
        fields = np.zeros(-(-ax.size // 8) * 8, dtype=np.uint16)
        efield = fields[:ax.size].view(np.int16)
        efield[:] = ex
        efield += 126
        m *= 2.0
        m -= 1.0
        efield += u < m
        tiny = np.flatnonzero(ax < 2.0 ** -126)
        efield[tiny] = u[tiny] < ax[tiny] * 2.0 ** 126
        efield |= np.left_shift(x[b] < 0.0, 8, dtype=np.int16)
        groups = fields.reshape(-1, 8)
        out = packed.reshape(-1, 9)[b.start // 8:][:len(groups)]
        out[:, :8] = groups >> _HIGH_SHIFT
        out[:, 8] = 0
        out[:, 1:] |= groups << _LOW_SHIFT
        _NATURAL_VALUES.take(fields[:ax.size].astype(np.intp), out=rec[b])
    return BitString.from_bytes(packed, 9 * d), rec


def _natural_read(cursor, d):
    """The reconstruction: d 9-bit fields from the payload's first bit."""
    cursor._advance(9 * d)
    rec = np.empty(d)
    for b in _blocks(d):
        n = rec[b].size
        raw = cursor._buf[b.start // 8 * 9:][:-(-n // 8) * 9]
        if raw.size % 9:  # the last group's bytes past the payload are zero
            raw = np.concatenate([raw, np.zeros(9 - raw.size % 9, dtype=np.uint8)])
        # field j of a group is the big-endian pair of its bytes j and j + 1,
        # shifted right by 7 - j, and its low 9 bits
        pairs = np.ndarray((raw.size // 9, 8), dtype=">u2", buffer=raw, strides=(9, 1))
        fields = (pairs >> _LOW_SHIFT).reshape(-1)[:n]
        fields &= 0x1FF
        if (fields & 0xFF).max() == 255:
            raise bitio.MalformedCodeError("exponent field 255 (2^128), above binary32's range")
        _NATURAL_VALUES.take(fields.astype(np.intp), out=rec[b])
    return rec


def identity_compress(x):
    """Uncompressed baseline: d binary32 values, 32 d bits."""
    payload = bitio.write_float32_block(x)
    return payload, payload._buf.view(">f4").astype(np.float64)


# --- the codec table ----------------------------------------------------------

@dataclass(frozen=True)
class CodecSpec:
    """Everything that differs between operator kinds.

    write(x, config, message_index) -> (payload, reconstruction) takes a
    finite float64 vector and reads the `params` fields of the config,
    and its seed when `randomized`; the bit count is len(payload).
    read(cursor, d, config, message_index) -> vector consumes the
    payload's fields from a BitCursor and reads only the `decode_params`
    fields and the seed.  Operator.compress_at and decode_payload do
    the rest: input checks, the outcome, the contract wrap and the
    trailing-bit gate.  claim() reads `claim`, ("unbiased", omega(config,
    d)) or ("contractive", alpha(config, d)); an unbiased kind accepts a
    contract wrap.  example(d) is the kind's configuration that
    criterion 1 and the golden digests check at dimension d, or None
    where the kind takes no nonzero input.  `predicted`, where set, maps
    (config, d) to the (column, value) that `gradcodec compress` prints
    next to the measured bits.
    """

    tag: int
    params: tuple
    decode_params: tuple
    randomized: bool
    claim: tuple
    write: Callable
    read: Callable
    example: Callable
    predicted: Callable = None


CODECS = {
    "dsd": CodecSpec(
        tag=1, params=("nu",), decode_params=(), randomized=False,
        claim=("contractive", lambda c, d: c.nu),
        write=lambda x, c, i: dsd_compress(x, c.nu),
        read=lambda cur, d, c, i: _sd_read(cur, d),
        example=lambda d: OperatorConfig("dsd", nu=0.1),
        predicted=lambda c, d: ("predicted_dsd_bits",
                                f"{bounds.dsd_predicted_bits(c.nu, d):.1f}"),
    ),
    "rsd": CodecSpec(
        tag=2, params=("nu",), decode_params=(), randomized=True,
        claim=("unbiased", lambda c, d: c.nu),
        write=lambda x, c, i: rsd_compress(x, c.nu, message_stream(c.seed, i)),
        read=lambda cur, d, c, i: _sd_read(cur, d),
        example=lambda d: OperatorConfig("rsd", nu=0.25, seed=11),
        predicted=lambda c, d: ("predicted_rsd_bits",
                                f"{bounds.rsd_predicted_bits(c.nu, d):.1f}"),
    ),
    "sc": CodecSpec(
        tag=3, params=("alpha",), decode_params=("alpha",), randomized=True,
        claim=("contractive", lambda c, d: c.alpha),
        write=lambda x, c, i: sc_compress(x, c.alpha, c.seed, i),
        read=lambda cur, d, c, i: _sc_read(cur, d, c.alpha, c.seed, i),
        # no cap exists at d = 1 (CapParams needs d >= 2), so no nonzero input
        example=lambda d: OperatorConfig("sc", alpha=1.0 - 1.0 / d, seed=16) if d > 1 else None,
        predicted=lambda c, d: ("avg_lower_bits",
                                f"{bounds.avg_lower_bound(c.alpha, d):.2f}"),
    ),
    "topk": CodecSpec(
        tag=4, params=("k",), decode_params=("k",), randomized=False,
        claim=("contractive", lambda c, d: 1.0 - c.k / d),  # an upper bound
        write=lambda x, c, i: topk_compress(x, c.k),
        read=lambda cur, d, c, i: _sparse_read(cur, d, c.k),
        example=lambda d: OperatorConfig("topk", k=max(1, d // 32)),
    ),
    "randsparse": CodecSpec(
        tag=5, params=("k",), decode_params=("k",), randomized=True,
        claim=("unbiased", lambda c, d: d / c.k - 1.0),
        write=lambda x, c, i: random_sparsify(x, c.k, message_stream(c.seed, i)),
        read=lambda cur, d, c, i: _sparse_read(cur, d, c.k),
        example=lambda d: OperatorConfig("randsparse", k=max(1, d // 32), seed=12),
    ),
    "dither": CodecSpec(
        tag=6, params=("levels",), decode_params=("levels",), randomized=True,
        # QSGD (Alistarh et al., NeurIPS 2017), Lemma 3.1
        claim=("unbiased", lambda c, d: min(d / c.levels ** 2, math.sqrt(d) / c.levels)),
        write=lambda x, c, i: std_dither(x, c.levels, message_stream(c.seed, i)),
        read=lambda cur, d, c, i: _dither_read(cur, d, c.levels),
        example=lambda d: OperatorConfig("dither", levels=max(1, round(math.sqrt(d))), seed=13),
    ),
    "ternary": CodecSpec(
        tag=7, params=(), decode_params=(), randomized=True,
        claim=("unbiased", lambda c, d: math.sqrt(d)),
        write=lambda x, c, i: std_dither(x, 1, message_stream(c.seed, i)),
        read=lambda cur, d, c, i: _dither_read(cur, d, 1),
        example=lambda d: OperatorConfig("ternary", seed=14),
    ),
    "natural": CodecSpec(
        tag=8, params=(), decode_params=(), randomized=True,
        # 1/8 holds where every |x_i| is 0 or >= 2^-126; smaller ones stay unbiased only
        claim=("unbiased", lambda c, d: 0.125),
        write=lambda x, c, i: natural_compress(x, message_stream(c.seed, i)),
        read=lambda cur, d, c, i: _natural_read(cur, d),
        example=lambda d: OperatorConfig("natural", seed=15),
    ),
    "identity": CodecSpec(
        tag=9, params=(), decode_params=(), randomized=False,
        claim=("unbiased", lambda c, d: 0.0),
        write=lambda x, c, i: identity_compress(x),
        read=lambda cur, d, c, i: bitio.read_float32_block(cur, d),
        example=lambda d: OperatorConfig("identity"),
    ),
}

OPERATOR_TAGS = {kind: spec.tag for kind, spec in CODECS.items()}


def claim(config, d):
    """The class config claims at dimension d: ("unbiased", omega), where
    E[C(x)] = x and E||C(x) - x||^2 <= omega ||x||^2, or ("contractive",
    alpha), where E||C(x) - x||^2 <= alpha ||x||^2.  A contract wrap by w
    of an unbiased omega is contractive, alpha = (omega + w^2) / (1 + w)^2."""
    kind, parameter = CODECS[config.kind].claim
    value, w = parameter(config, d), config.wrap_omega
    if w is None:
        return kind, value
    return "contractive", (value + w * w) / ((1.0 + w) * (1.0 + w))


def kind_for_tag(tag):
    """The operator kind that a GCV1 tag byte names, or None."""
    return next((kind for kind, spec in CODECS.items() if spec.tag == tag), None)


# --- configured operators ---------------------------------------------------

def _param(help, domain, rejects, label=None):
    """An operator parameter field: its CLI help, the domain every codec
    accepts (`rejects` is true outside it) and its label spelling."""
    metadata = {"help": help, "domain": domain, "rejects": rejects, "label": label}
    return dataclasses.field(default=None, metadata=metadata)


@dataclass(frozen=True)
class OperatorConfig:
    """Tagged operator description; exactly the fields for `kind` apply.
    Frozen, because its fields are checked only here, when it is made."""

    kind: str
    nu: float = _param("sparse dithering variance target", "> 0", lambda v: not v > 0.0)
    alpha: float = _param("spherical compression contraction", "in (0,1)",
                          lambda v: not 0.0 < v < 1.0)
    k: int = _param("sparsification count", ">= 1", lambda v: v < 1)
    levels: int = _param("dithering level count", ">= 1", lambda v: v < 1, label="s")
    wrap_omega: float = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in CODECS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        check_fields(self.kind, self, CODECS[self.kind].params)

    def label(self):
        parts = []
        for name, f in PARAMS.items():
            value = getattr(self, name)
            if value is not None:
                text = f"{value:g}" if f.type is float else f"{value}"
                parts.append(f"{f.metadata['label'] or name}={text}")
        name = self.kind + (f"({', '.join(parts)})" if parts else "")
        if self.wrap_omega is not None:
            name = f"wrap[{name}, omega={self.wrap_omega:g}]"
        return name


# the operator parameters, by name, in declaration order
PARAMS = {f.name: f for f in dataclasses.fields(OperatorConfig) if "domain" in f.metadata}


def check_fields(kind, fields, required):
    """The parameter rule of the writer and the reader alike.  `fields`
    has an attribute per PARAMS name and wrap_omega, None where unset.
    ValueError where a name in `required` is unset, where a parameter that
    `kind` does not take is set, where a set value is outside its domain,
    or where a contract wrap is set on a kind that is not unbiased."""
    spec = CODECS[kind]
    values = {name: getattr(fields, name) for name in PARAMS}
    for name, value in values.items():
        if name in required and value is None:
            raise ValueError(f"{kind} requires {name}")
        if name not in spec.params and value is not None:
            raise ValueError(f"{kind} does not take {name}")
    for name, value in values.items():
        meta = PARAMS[name].metadata
        if value is not None and meta["rejects"](value):
            raise ValueError(f"{name} must be {meta['domain']}, got {value}")
    if fields.wrap_omega is not None:
        if spec.claim[0] != "unbiased":
            raise ValueError(f"contract wrap requires an unbiased operator, not {kind}")
        if not fields.wrap_omega >= 0.0:
            raise ValueError("wrap omega must be >= 0")


def _check_index(message_index):
    """Every kind rejects a negative index, whether or not it draws a stream."""
    if message_index < 0:
        raise ValueError("message_index must be >= 0")


def decode_payload(config, bits, d, message_index=0):
    """Decode one payload of config.kind, undoing a contract wrap;
    DecodeError where bits are left after the kind's fields.

    `config` is an OperatorConfig or any object with kind, seed,
    wrap_omega and the kind's decode_params: a decoder needs none of
    the encoder-only parameters.
    """
    _check_index(message_index)
    cursor = BitCursor(bits)
    rec = CODECS[config.kind].read(cursor, d, config, message_index)
    _check_end(cursor)
    if config.wrap_omega is not None:
        rec /= 1.0 + config.wrap_omega
    return rec


class Operator:
    """A configured operator; the caller names each message's index."""

    def __init__(self, config: OperatorConfig):
        self.config = config

    @property
    def tag(self):
        return CODECS[self.config.kind].tag

    def compress_at(self, x, message_index):
        """(payload, CompressionOutcome) of message `message_index`."""
        c = self.config
        _check_index(message_index)
        x = _as_vector(x)
        payload, rec = CODECS[c.kind].write(x, c, message_index)
        if c.wrap_omega is not None:
            # the contract wrap: an unbiased kind scaled by 1/(1+omega) is
            # contractive, with the same payload
            rec /= 1.0 + c.wrap_omega
        return payload, CompressionOutcome(rec, len(payload), normalized_distortion(x, rec))

    def decompress(self, bits, d, message_index):
        return decode_payload(self.config, bits, d, message_index)


def make_operator(config: OperatorConfig) -> Operator:
    return Operator(config)
