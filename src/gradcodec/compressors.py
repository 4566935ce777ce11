"""Compression operators with exact bit accounting.

Every operator is an encode/decode pair: encode maps a vector to a
BitString plus a CompressionOutcome (the reconstruction the decoder
will produce, the exact payload bit count, and the normalized
distortion ||C(x)-x||^2 / ||x||^2); decode maps the BitString back to
the identical reconstruction.

Shared payload conventions:
  * scale fields are 31-bit binary32 magnitudes (sign bit dropped),
  * sign bits are 1 for negative, 0 for positive,
  * position sets are sent as a lexicographic subset rank,
  * per-coordinate levels use unary codes (k-1 ones then a zero).

Randomized operators draw from a Philox stream keyed by
(seed, message_index); a decoder configured with the same key replays
the identical sample sequence.
"""

import math
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bitio, bounds
from .bitio import BitCursor, BitString
from .geometry import CapParams, cap_probability
from .rng import message_stream


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


def normalized_distortion(x, reconstructed):
    """||C(x) - x||^2 / ||x||^2, defined as 0 for x = 0."""
    nx2 = float(np.dot(x, x))
    if nx2 == 0.0:
        return 0.0
    err = reconstructed - x
    return float(np.dot(err, err) / nx2)


def _outcome(x, reconstructed, payload):
    return CompressionOutcome(
        reconstructed=reconstructed,
        bits=len(payload),
        distortion=normalized_distortion(x, reconstructed),
    )


def _f32(value):
    """value rounded to binary32; ValueError where that overflows."""
    try:
        return struct.unpack(">f", struct.pack(">f", value))[0]
    except OverflowError as exc:
        raise ValueError(f"{value} overflows binary32") from exc


def _read_payload(bits: BitString, read, *args):
    """read(cursor, *args) over the whole payload; DecodeError on leftover bits."""
    cursor = BitCursor(bits)
    fields = read(cursor, *args)
    if cursor.remaining():
        raise bitio.DecodeError(
            f"{cursor.remaining()} trailing bits after payload (offset {cursor.pos})"
        )
    return fields


# --- sparse dithering (shared message form) ------------------------------

@dataclass
class SDMessage:
    """Decoded form of a sparse-dithering payload.

    gamma is the binary32-rounded wire value; the reconstruction is
    gamma * sign * level per nonzero coordinate, zeros elsewhere.
    """

    d: int
    gamma: float
    zero_positions: np.ndarray
    signs: np.ndarray   # +-1 per nonzero coordinate, ascending index
    levels: np.ndarray  # >= 1 per nonzero coordinate, ascending index

    @property
    def n0(self):
        return int(self.zero_positions.size)


def sd_serialize(msg: SDMessage) -> BitString:
    d, n0 = msg.d, msg.n0
    rank = bitio.subset_rank(msg.zero_positions.tolist(), d, n0)
    sign_bits = BitString((msg.signs < 0).astype(np.uint8))
    return BitString.concat([
        bitio.write_float_magnitude(msg.gamma),
        bitio.write_fixed(n0, d.bit_length()),
        bitio.write_fixed(rank, bitio.subset_code_width(d, n0)),
        sign_bits,
        bitio.write_unary_block(msg.levels),
    ])


def sd_parse(cursor: BitCursor, d) -> SDMessage:
    gamma = bitio.read_float_magnitude(cursor)
    n0 = cursor.read_bits(d.bit_length())
    if n0 > d:
        raise bitio.MalformedCodeError(f"zero count {n0} exceeds dimension {d}")
    rank = cursor.read_bits(bitio.subset_code_width(d, n0))
    zero_positions = np.asarray(bitio.subset_unrank(rank, d, n0), dtype=np.int64)
    nnz = d - n0
    sign_bits = cursor._take(nnz)
    signs = 1 - 2 * sign_bits.astype(np.int64)
    levels = bitio.read_unary_block(cursor, nnz)
    return SDMessage(d=d, gamma=gamma, zero_positions=zero_positions,
                     signs=signs, levels=levels)


def sd_reconstruct(msg: SDMessage):
    v = np.zeros(msg.d)
    if msg.n0 < msg.d:
        mask = np.ones(msg.d, dtype=bool)
        mask[msg.zero_positions] = False
        v[mask] = msg.gamma * msg.signs * msg.levels
    return v


def _sd_compress(x, levels, signs, gamma):
    """Send the nonzero levels with their signs and the wire scale gamma;
    with no nonzero level, the zero message.  Returns (payload, outcome)."""
    nz = levels > 0
    msg = SDMessage(
        d=x.size,
        gamma=_f32(gamma) if nz.any() else 0.0,
        zero_positions=np.flatnonzero(~nz).astype(np.int64),
        signs=signs[nz],
        levels=levels[nz],
    )
    payload = sd_serialize(msg)
    return payload, _outcome(x, sd_reconstruct(msg), payload)


def dsd_quantize(x, nu):
    """Deterministic level selection on the unit direction of x.

    Returns (levels k_i >= 0, signs) over all d coordinates; levels
    depend only on x / ||x||, so they are scale invariant.  Exact
    midpoints round toward the smaller level.
    """
    x = _as_vector(x)
    if nu <= 0.0:
        raise ValueError(f"nu must be positive, got {nu}")
    norm = math.sqrt(float(np.dot(x, x)))
    if norm == 0.0:
        return np.zeros(x.size, dtype=np.int64), np.zeros(x.size, dtype=np.int64)
    u = x / norm
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
    x = _as_vector(x)
    levels, signs = dsd_quantize(x, nu)
    gamma = 0.0
    if levels.any():
        h = math.sqrt(nu / x.size)
        u_hat = signs * (2.0 * h) * levels
        gamma = 2.0 * h * float(np.dot(x, u_hat) / np.dot(u_hat, u_hat))
    return _sd_compress(x, levels, signs, gamma)


def dsd_decompress(bits: BitString, d):
    """Inverse of dsd_compress; bit-identical to the encoder outcome."""
    return sd_reconstruct(_read_payload(bits, sd_parse, d))


def rsd_compress(x, nu, rng: np.random.Generator):
    """Randomized sparse dithering: each coordinate rounds to one of its
    two neighboring levels with unbiasing probabilities; the wire scale
    is 2 h ||x||, making E[C(x)] = x.
    """
    x = _as_vector(x)
    d = x.size
    if nu <= 0.0:
        raise ValueError(f"nu must be positive, got {nu}")
    norm = math.sqrt(float(np.dot(x, x)))
    u = x / norm if norm > 0.0 else x  # x = 0 rounds every level to 0
    h = math.sqrt(nu / d)
    t = np.abs(u) / (2.0 * h)
    base = np.floor(t)
    levels = (base + (rng.random(d) < (t - base))).astype(np.int64)
    signs = np.where(u >= 0.0, 1, -1).astype(np.int64)
    return _sd_compress(x, levels, signs, 2.0 * h * norm)


# --- spherical compression -----------------------------------------------

def _sc_vector(norm, alpha, w):
    """The candidate direction w / ||w|| at radius norm sqrt(1 - alpha)."""
    return norm * math.sqrt(1.0 - alpha) * (w / np.linalg.norm(w))


def sc_trial_cap(p):
    """Trial budget 50 ceil(1/p); exceeding it has probability <= e^-50."""
    return 50 * math.ceil(1.0 / p)


def sc_compress(x, alpha, seed, message_index=0, trial_cap=None):
    """Spherical compression: draw i.i.d. points of radius sqrt(1-alpha)
    from the shared keyed stream until one lands within sqrt(alpha) of
    the (rescaled) input; transmit only the 31-bit norm and the
    Golomb-Rice coded trial count.

    Strictly contractive: the accepted reconstruction satisfies
    ||C(x) - x||^2 <= alpha ||x||^2 by construction.
    """
    x = _as_vector(x)
    d = x.size
    norm = math.sqrt(float(np.dot(x, x)))
    norm_field = bitio.write_float_magnitude(norm)
    if norm == 0.0:
        return norm_field, _outcome(x, np.zeros(d), norm_field)
    params = CapParams(alpha, d)
    p = cap_probability(params)
    m = bitio.golomb_rice_params(p)
    cap = sc_trial_cap(p) if trial_cap is None else trial_cap
    norm32 = _f32(norm)
    scale = norm32 * math.sqrt(1.0 - alpha)
    threshold = alpha * norm * norm
    base2 = scale * scale + norm * norm

    rng = message_stream(seed, message_index)
    drawn = 0
    block = 8
    max_block = max(8, min(1 << 16, (1 << 22) // d))
    T = None
    while drawn < cap and T is None:
        n = min(block, cap - drawn)
        w = rng.standard_normal((n, d))
        norms = np.linalg.norm(w, axis=1)
        if not (norms > 0.0).all():
            raise ArithmeticError("degenerate zero-norm Gaussian draw")
        # prefilter: ||scale w/|w| - x||^2 = scale^2 + ||x||^2 - 2 scale <w,x>/|w|,
        # with slack for the expansion's rounding; candidates are re-verified
        # on the exact reconstruction so the contraction is guaranteed.
        dist2 = base2 - 2.0 * scale * (w @ x) / norms
        for i in np.flatnonzero(dist2 <= threshold * (1.0 + 1e-9)):
            rec = _sc_vector(norm32, alpha, w[i])
            err = rec - x
            if float(np.dot(err, err)) <= threshold:
                T = drawn + int(i) + 1
                break
        drawn += n
        block = min(block * 4, max_block)
    if T is None:
        raise GiveUpError(
            f"no accepted point within {cap} trials (alpha={alpha}, d={d})"
        )
    payload = norm_field + bitio.golomb_rice_encode(T, m)
    return payload, _outcome(x, rec, payload)


def _sc_read(cursor, d, alpha):
    """(norm, T, trial cap); T = 0 for the zero message."""
    norm = bitio.read_float_magnitude(cursor)
    if norm == 0.0:
        return norm, 0, 0
    p = cap_probability(CapParams(alpha, d))
    T = bitio.golomb_rice_decode(cursor, bitio.golomb_rice_params(p))
    return norm, T, sc_trial_cap(p)


def sc_decompress(bits: BitString, d, alpha, seed, message_index=0):
    """Replay the encoder's keyed sample stream for T trials and rescale."""
    # the payload is checked whole before the replay, whose cost grows with T
    norm, T, cap = _read_payload(bits, _sc_read, d, alpha)
    if norm == 0.0:
        return np.zeros(d)
    if T > cap:
        raise bitio.MalformedCodeError(f"trial count {T} exceeds the cap {cap}")
    rng = message_stream(seed, message_index)
    left = T
    last = None
    while left > 0:
        n = min(left, 1 << 16)
        w = rng.standard_normal((n, d))
        last = w[-1]
        left -= n
    return _sc_vector(norm, alpha, last)


# --- baselines -------------------------------------------------------------

def _sparse_vector(d, sel, vals):
    """Zeros except `vals` at the positions `sel`."""
    rec = np.zeros(d)
    rec[sel] = vals
    return rec


def _sparse_compress(x, sel, vals):
    """The sparse layout: binary32 values, then the subset rank of their
    sorted positions `sel`.  Returns (payload, outcome)."""
    d, k = x.size, sel.size
    payload = bitio.write_float32_block(vals) + bitio.write_fixed(
        bitio.subset_rank(sel.tolist(), d, k), bitio.subset_code_width(d, k)
    )
    return payload, _outcome(x, _sparse_vector(d, sel, vals.astype(np.float32)), payload)


def _sparse_read(cursor, d, k):
    return bitio.read_float32_block(cursor, k), cursor.read_bits(bitio.subset_code_width(d, k))


def topk_compress(x, k):
    """Keep the k largest-magnitude coordinates (ties to the lower index),
    sent as binary32 values plus a subset rank for the positions.
    """
    x = _as_vector(x)
    d = x.size
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")
    order = np.lexsort((np.arange(d), -np.abs(x)))
    sel = np.sort(order[:k])
    return _sparse_compress(x, sel, x[sel])


def topk_decompress(bits: BitString, d, k):
    """Decoder of the sparse layout, for topk and randsparse."""
    vals, rank = _read_payload(bits, _sparse_read, d, k)
    return _sparse_vector(d, bitio.subset_unrank(rank, d, k), vals)


def random_sparsify(x, k, rng: np.random.Generator):
    """Uniform k-subset, kept coordinates rescaled by d/k for unbiasedness."""
    x = _as_vector(x)
    d = x.size
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")
    sel = np.sort(rng.choice(d, size=k, replace=False))
    return _sparse_compress(x, sel, x[sel] * (d / k))


def _dither_vector(norm, levels, sign_bits, s):
    """norm * sign * level / s per coordinate; sign_bits holds one bit
    (1 = negative) per nonzero level, so a zero level is +0.0."""
    signs = np.ones(levels.size)
    signs[levels > 0] = 1.0 - 2.0 * sign_bits
    return norm * signs * levels / s


def std_dither(x, s, rng: np.random.Generator):
    """Random dithering with s uniform levels on |u_i| of the unit
    direction: stochastic rounding of s |u_i|, encoded as a 31-bit norm,
    a block of unary levels, and one sign bit per nonzero level.
    """
    x = _as_vector(x)
    d = x.size
    if s < 1:
        raise ValueError(f"level count must be >= 1, got {s}")
    norm = math.sqrt(float(np.dot(x, x)))
    if norm == 0.0:
        payload = bitio.write_float_magnitude(0.0)
        return payload, _outcome(x, np.zeros(d), payload)
    u = x / norm
    t = s * np.abs(u)
    base = np.floor(t)
    levels = (base + (rng.random(d) < (t - base))).astype(np.int64)
    sign_bits = (u[levels > 0] < 0.0).astype(np.uint8)
    payload = BitString.concat([
        bitio.write_float_magnitude(norm),
        bitio.write_unary_block(levels + 1),
        BitString(sign_bits),
    ])
    return payload, _outcome(x, _dither_vector(_f32(norm), levels, sign_bits, s), payload)


def _dither_read(cursor, d, s):
    norm = bitio.read_float_magnitude(cursor)
    if norm == 0.0:
        return norm, np.zeros(d, dtype=np.int64), np.empty(0)
    levels = bitio.read_unary_block(cursor, d) - 1
    if levels.max(initial=0) > s:
        raise bitio.MalformedCodeError(f"level above s={s}")
    return norm, levels, cursor._take(int(np.count_nonzero(levels)))


def std_dither_decompress(bits: BitString, d, s):
    norm, levels, sign_bits = _read_payload(bits, _dither_read, d, s)
    return _dither_vector(norm, levels, sign_bits, s)


def ternary(x, rng: np.random.Generator):
    """Single-level dithering: coordinates snap to {-1, 0, +1} scaled by the norm."""
    return std_dither(x, 1, rng)


def _natural_vector(sign_bits, efield):
    """(-1)^sign 2^(efield - 127) per coordinate, 0 where the field is 0."""
    return np.where(efield > 0, np.ldexp(1.0 - 2.0 * sign_bits, efield - 127), 0.0)


def natural_compress(x, rng: np.random.Generator):
    """Stochastic rounding of each magnitude to a signed power of two,
    9 bits per coordinate (sign plus the 8-bit binary32 exponent field).

    The exponent field holds 2^-126 .. 2^127 and 0, so |x_i| above 2^127
    is rejected, and |x_i| below 2^-126 rounds between 0 and 2^-126.
    """
    x = _as_vector(x)
    d = x.size
    ax = np.abs(x)
    if ax.max() > 2.0 ** 127:
        raise ValueError("natural compression needs |x_i| <= 2^127")
    _, ex = np.frexp(ax)
    lower = ex - 1  # 2^lower <= |x_i| < 2^(lower+1)
    a = np.ldexp(1.0, lower)
    u = rng.random(d)
    efield = np.where(ax < 2.0 ** -126, u < ax * 2.0 ** 126,
                      lower + (u < (ax - a) / a) + 127).astype(np.int64)
    sign_bits = (x < 0.0).astype(np.uint8)

    bits9 = np.empty((d, 9), dtype=np.uint8)
    bits9[:, 0] = sign_bits
    for j in range(8):
        bits9[:, 1 + j] = (efield >> (7 - j)) & 1
    payload = BitString(bits9.reshape(-1))
    return payload, _outcome(x, _natural_vector(sign_bits, efield), payload)


def natural_decompress(bits: BitString, d):
    chunk = _read_payload(bits, BitCursor._take, 9 * d).reshape(d, 9)
    efield = np.zeros(d, dtype=np.int64)
    for j in range(8):
        efield = (efield << 1) | chunk[:, 1 + j]
    return _natural_vector(chunk[:, 0], efield)


def identity_compress(x):
    """Uncompressed baseline: d binary32 values, 32 d bits."""
    x = _as_vector(x)
    payload = bitio.write_float32_block(x)
    return payload, _outcome(x, x.astype(np.float32).astype(np.float64), payload)


def identity_decompress(bits: BitString, d):
    return _read_payload(bits, bitio.read_float32_block, d)


def contract_wrap(outcome: CompressionOutcome, omega, x):
    """Embed an unbiased operator into the contractive class: scale the
    reconstruction by 1/(1+omega), keeping the payload bits."""
    if omega < 0.0:
        raise ValueError(f"omega must be >= 0, got {omega}")
    x = _as_vector(x)
    rec = outcome.reconstructed / (1.0 + omega)
    return CompressionOutcome(
        reconstructed=rec,
        bits=outcome.bits,
        distortion=normalized_distortion(x, rec),
    )


# --- the codec table ----------------------------------------------------------

@dataclass(frozen=True)
class CodecSpec:
    """Everything that differs between operator kinds.

    encode(x, config, message_index) -> (payload, outcome) reads the
    `params` fields of the config, and its seed when `randomized`;
    decode(bits, d, config, message_index) -> vector reads only the
    `decode_params` fields and the seed.  `unbiased` kinds, E[C(x)] = x,
    accept a contract wrap.  `predicted`, where set, maps (config, d) to
    the (column, value) that `gradcodec compress` prints next to the
    measured bits.
    """

    tag: int
    params: tuple
    decode_params: tuple
    randomized: bool
    unbiased: bool
    encode: Callable
    decode: Callable
    predicted: Callable = None


CODECS = {
    "dsd": CodecSpec(
        tag=1, params=("nu",), decode_params=(), randomized=False, unbiased=False,
        encode=lambda x, c, i: dsd_compress(x, c.nu),
        decode=lambda bits, d, c, i: dsd_decompress(bits, d),
        predicted=lambda c, d: ("predicted_dsd_bits",
                                f"{bounds.dsd_predicted_bits(c.nu, d):.1f}"),
    ),
    "rsd": CodecSpec(
        tag=2, params=("nu",), decode_params=(), randomized=True, unbiased=True,
        encode=lambda x, c, i: rsd_compress(x, c.nu, message_stream(c.seed, i)),
        decode=lambda bits, d, c, i: dsd_decompress(bits, d),
        predicted=lambda c, d: ("predicted_rsd_bits",
                                f"{bounds.rsd_predicted_bits(c.nu, d):.1f}"),
    ),
    "sc": CodecSpec(
        tag=3, params=("alpha",), decode_params=("alpha",), randomized=True, unbiased=False,
        encode=lambda x, c, i: sc_compress(x, c.alpha, c.seed, i),
        decode=lambda bits, d, c, i: sc_decompress(bits, d, c.alpha, c.seed, i),
        predicted=lambda c, d: ("avg_lower_bits",
                                f"{bounds.avg_lower_bound(c.alpha, d):.2f}"),
    ),
    "topk": CodecSpec(
        tag=4, params=("k",), decode_params=("k",), randomized=False, unbiased=False,
        encode=lambda x, c, i: topk_compress(x, c.k),
        decode=lambda bits, d, c, i: topk_decompress(bits, d, c.k),
    ),
    "randsparse": CodecSpec(
        tag=5, params=("k",), decode_params=("k",), randomized=True, unbiased=True,
        encode=lambda x, c, i: random_sparsify(x, c.k, message_stream(c.seed, i)),
        decode=lambda bits, d, c, i: topk_decompress(bits, d, c.k),
    ),
    "dither": CodecSpec(
        tag=6, params=("levels",), decode_params=("levels",), randomized=True, unbiased=True,
        encode=lambda x, c, i: std_dither(x, c.levels, message_stream(c.seed, i)),
        decode=lambda bits, d, c, i: std_dither_decompress(bits, d, c.levels),
    ),
    "ternary": CodecSpec(
        tag=7, params=(), decode_params=(), randomized=True, unbiased=True,
        encode=lambda x, c, i: ternary(x, message_stream(c.seed, i)),
        decode=lambda bits, d, c, i: std_dither_decompress(bits, d, 1),
    ),
    "natural": CodecSpec(
        tag=8, params=(), decode_params=(), randomized=True, unbiased=True,
        encode=lambda x, c, i: natural_compress(x, message_stream(c.seed, i)),
        decode=lambda bits, d, c, i: natural_decompress(bits, d),
    ),
    "identity": CodecSpec(
        tag=9, params=(), decode_params=(), randomized=False, unbiased=True,
        encode=lambda x, c, i: identity_compress(x),
        decode=lambda bits, d, c, i: identity_decompress(bits, d),
    ),
}

OPERATOR_TAGS = {kind: spec.tag for kind, spec in CODECS.items()}


def kind_for_tag(tag):
    """The operator kind that a GCV1 tag byte names, or None."""
    return next((kind for kind, spec in CODECS.items() if spec.tag == tag), None)


def check_wrap(kind, omega):
    """Reject a contract wrap that no encoder of `kind` can produce."""
    if not CODECS[kind].unbiased:
        raise ValueError(f"contract wrap requires an unbiased operator, not {kind}")
    if omega < 0.0:
        raise ValueError("wrap omega must be >= 0")


# --- configured operators ---------------------------------------------------

@dataclass
class OperatorConfig:
    """Tagged operator description; exactly the fields for `kind` apply."""

    kind: str
    nu: float = None
    alpha: float = None
    k: int = None
    levels: int = None
    wrap_omega: float = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in CODECS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        required = CODECS[self.kind].params
        for name in ("nu", "alpha", "k", "levels"):
            value = getattr(self, name)
            if name in required and value is None:
                raise ValueError(f"{self.kind} requires {name}")
            if name not in required and value is not None:
                raise ValueError(f"{self.kind} does not take {name}")
        if self.nu is not None and self.nu <= 0.0:
            raise ValueError(f"nu must be > 0, got {self.nu}")
        if self.alpha is not None and not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.levels is not None and self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        if self.wrap_omega is not None:
            check_wrap(self.kind, self.wrap_omega)

    def label(self):
        parts = []
        if self.nu is not None:
            parts.append(f"nu={self.nu:g}")
        if self.alpha is not None:
            parts.append(f"alpha={self.alpha:g}")
        if self.k is not None:
            parts.append(f"k={self.k}")
        if self.levels is not None:
            parts.append(f"s={self.levels}")
        name = self.kind + (f"({', '.join(parts)})" if parts else "")
        if self.wrap_omega is not None:
            name = f"wrap[{name}, omega={self.wrap_omega:g}]"
        return name


def decode_payload(config, bits, d, message_index=0):
    """Decode one payload of config.kind, undoing a contract wrap.

    `config` is an OperatorConfig or any object with kind, seed,
    wrap_omega and the kind's decode_params: a decoder needs none of
    the encoder-only parameters.
    """
    rec = CODECS[config.kind].decode(bits, d, config, message_index)
    if config.wrap_omega is not None:
        rec = rec / (1.0 + config.wrap_omega)
    return rec


class Operator:
    """A configured operator with a per-message counter for seed derivation."""

    def __init__(self, config: OperatorConfig):
        self.config = config
        self.message_index = 0

    @property
    def tag(self):
        return CODECS[self.config.kind].tag

    def compress(self, x):
        """Compress one message; advances the message counter."""
        idx = self.message_index
        self.message_index += 1
        return self.compress_at(x, idx)

    def compress_at(self, x, message_index):
        c = self.config
        payload, out = CODECS[c.kind].encode(x, c, message_index)
        if c.wrap_omega is not None:
            out = contract_wrap(out, c.wrap_omega, x)
        return payload, out

    def decompress(self, bits, d, message_index=0):
        return decode_payload(self.config, bits, d, message_index)


def make_operator(config: OperatorConfig) -> Operator:
    return Operator(config)
