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
    return float(np.float32(value))


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


def _sd_zero_message(d):
    return SDMessage(
        d=d,
        gamma=0.0,
        zero_positions=np.arange(d, dtype=np.int64),
        signs=np.empty(0, dtype=np.int64),
        levels=np.empty(0, dtype=np.int64),
    )


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
    d = x.size
    levels, signs = dsd_quantize(x, nu)
    nz = levels > 0
    if not nz.any():
        msg = _sd_zero_message(d)
    else:
        h = math.sqrt(nu / d)
        u_hat = signs * (2.0 * h) * levels
        gamma_star = float(np.dot(x, u_hat) / np.dot(u_hat, u_hat))
        msg = SDMessage(
            d=d,
            gamma=_f32(2.0 * h * gamma_star),
            zero_positions=np.flatnonzero(~nz).astype(np.int64),
            signs=signs[nz],
            levels=levels[nz],
        )
    payload = sd_serialize(msg)
    return payload, _outcome(x, sd_reconstruct(msg), payload)


def dsd_decompress(bits: BitString, d):
    """Inverse of dsd_compress; bit-identical to the encoder outcome."""
    cursor = BitCursor(bits)
    msg = sd_parse(cursor, d)
    if cursor.remaining():
        raise bitio.DecodeError(
            f"{cursor.remaining()} trailing bits after payload (offset {cursor.pos})"
        )
    return sd_reconstruct(msg)


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
    if norm == 0.0:
        msg = _sd_zero_message(d)
    else:
        u = x / norm
        h = math.sqrt(nu / d)
        t = np.abs(u) / (2.0 * h)
        base = np.floor(t)
        levels = (base + (rng.random(d) < (t - base))).astype(np.int64)
        nz = levels > 0
        if not nz.any():
            msg = _sd_zero_message(d)
        else:
            signs = np.where(u >= 0.0, 1, -1).astype(np.int64)
            msg = SDMessage(
                d=d,
                gamma=_f32(2.0 * h * norm),
                zero_positions=np.flatnonzero(~nz).astype(np.int64),
                signs=signs[nz],
                levels=levels[nz],
            )
    payload = sd_serialize(msg)
    return payload, _outcome(x, sd_reconstruct(msg), payload)


# --- spherical compression -----------------------------------------------

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
    radius = math.sqrt(1.0 - alpha)
    scale = norm32 * radius
    threshold = alpha * norm * norm
    base2 = scale * scale + norm * norm

    rng = message_stream(seed, message_index)
    drawn = 0
    block = 8
    max_block = max(8, min(1 << 16, (1 << 22) // d))
    T = None
    accepted = None
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
            v = w[int(i)] / np.linalg.norm(w[int(i)])
            err = scale * v - x
            if float(np.dot(err, err)) <= threshold:
                T = drawn + int(i) + 1
                accepted = v
                break
        drawn += n
        block = min(block * 4, max_block)
    if T is None:
        raise GiveUpError(
            f"no accepted point within {cap} trials (alpha={alpha}, d={d})"
        )
    payload = norm_field + bitio.golomb_rice_encode(T, m)
    return payload, _outcome(x, scale * accepted, payload)


def sc_decompress(bits: BitString, d, alpha, seed, message_index=0):
    """Replay the encoder's keyed sample stream for T trials and rescale."""
    cursor = BitCursor(bits)
    norm = bitio.read_float_magnitude(cursor)
    if norm == 0.0:
        if cursor.remaining():
            raise bitio.DecodeError("trailing bits after zero message")
        return np.zeros(d)
    params = CapParams(alpha, d)
    p = cap_probability(params)
    m = bitio.golomb_rice_params(p)
    T = bitio.golomb_rice_decode(cursor, m)
    if cursor.remaining():
        raise bitio.DecodeError(
            f"{cursor.remaining()} trailing bits after payload (offset {cursor.pos})"
        )
    if T > sc_trial_cap(p):
        raise bitio.MalformedCodeError(
            f"trial count {T} exceeds the cap {sc_trial_cap(p)}"
        )
    rng = message_stream(seed, message_index)
    left = T
    last = None
    while left > 0:
        n = min(left, 1 << 16)
        w = rng.standard_normal((n, d))
        last = w[-1]
        left -= n
    v = last / np.linalg.norm(last)
    return norm * math.sqrt(1.0 - alpha) * v


# --- baselines -------------------------------------------------------------

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
    vals = x[sel]
    payload = bitio.write_float32_block(vals) + bitio.write_fixed(
        bitio.subset_rank(sel.tolist(), d, k), bitio.subset_code_width(d, k)
    )
    rec = np.zeros(d)
    rec[sel] = vals.astype(np.float32)
    return payload, _outcome(x, rec, payload)


def topk_decompress(bits: BitString, d, k):
    cursor = BitCursor(bits)
    vals = bitio.read_float32_block(cursor, k)
    rank = cursor.read_bits(bitio.subset_code_width(d, k))
    if cursor.remaining():
        raise bitio.DecodeError("trailing bits after payload")
    sel = bitio.subset_unrank(rank, d, k)
    rec = np.zeros(d)
    rec[sel] = vals
    return rec


def random_sparsify(x, k, rng: np.random.Generator):
    """Uniform k-subset, kept coordinates rescaled by d/k for unbiasedness."""
    x = _as_vector(x)
    d = x.size
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")
    sel = np.sort(rng.choice(d, size=k, replace=False))
    vals = x[sel] * (d / k)
    payload = bitio.write_float32_block(vals) + bitio.write_fixed(
        bitio.subset_rank(sel.tolist(), d, k), bitio.subset_code_width(d, k)
    )
    rec = np.zeros(d)
    rec[sel] = vals.astype(np.float32)
    return payload, _outcome(x, rec, payload)


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
    nz = levels > 0
    signs = np.where(u < 0.0, 1, 0).astype(np.uint8)
    payload = BitString.concat([
        bitio.write_float_magnitude(norm),
        bitio.write_unary_block(levels + 1),
        BitString(signs[nz]),
    ])
    # a sign only on nonzero levels, as the decoder reads it: no -0.0
    rec = _f32(norm) * np.where(nz & (u < 0.0), -1.0, 1.0) * levels / s
    return payload, _outcome(x, rec, payload)


def std_dither_decompress(bits: BitString, d, s):
    cursor = BitCursor(bits)
    norm = bitio.read_float_magnitude(cursor)
    if norm == 0.0:
        if cursor.remaining():
            raise bitio.DecodeError("trailing bits after zero message")
        return np.zeros(d)
    levels = bitio.read_unary_block(cursor, d) - 1
    if levels.max(initial=0) > s:
        raise bitio.MalformedCodeError(f"level above s={s}")
    nz = levels > 0
    sign_bits = cursor._take(int(nz.sum()))
    if cursor.remaining():
        raise bitio.DecodeError("trailing bits after payload")
    signs = np.ones(d)
    signs[nz] = 1.0 - 2.0 * sign_bits.astype(np.float64)
    return norm * signs * levels / s


def ternary(x, rng: np.random.Generator):
    """Single-level dithering: coordinates snap to {-1, 0, +1} scaled by the norm."""
    return std_dither(x, 1, rng)


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

    rec = np.where(efield > 0, np.ldexp(np.where(sign_bits, -1.0, 1.0), efield - 127), 0.0)
    return payload, _outcome(x, rec, payload)


def natural_decompress(bits: BitString, d):
    cursor = BitCursor(bits)
    chunk = cursor._take(9 * d).reshape(d, 9)
    if cursor.remaining():
        raise bitio.DecodeError("trailing bits after payload")
    sign = 1.0 - 2.0 * chunk[:, 0].astype(np.float64)
    efield = np.zeros(d, dtype=np.int64)
    for j in range(8):
        efield = (efield << 1) | chunk[:, 1 + j]
    return np.where(efield > 0, np.ldexp(sign, efield - 127), 0.0)


def identity_compress(x):
    """Uncompressed baseline: d binary32 values, 32 d bits."""
    x = _as_vector(x)
    payload = bitio.write_float32_block(x)
    return payload, _outcome(x, x.astype(np.float32).astype(np.float64), payload)


def identity_decompress(bits: BitString, d):
    cursor = BitCursor(bits)
    vals = bitio.read_float32_block(cursor, d)
    if cursor.remaining():
        raise bitio.DecodeError("trailing bits after payload")
    return vals


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
    `decode_params` fields and the seed.  The operator is contractive
    ("C") or unbiased ("U") per `variance_class`, with parameter
    variance(config, d).  `predicted`, where set, maps (config, d) to
    the (column, value) that `gradcodec compress` prints next to the
    measured bits.
    """

    tag: int
    params: tuple
    decode_params: tuple
    randomized: bool
    variance_class: str
    variance: Callable
    encode: Callable
    decode: Callable
    predicted: Callable = None


CODECS = {
    "dsd": CodecSpec(
        tag=1, params=("nu",), decode_params=(), randomized=False,
        variance_class="C", variance=lambda c, d: c.nu,
        encode=lambda x, c, i: dsd_compress(x, c.nu),
        decode=lambda bits, d, c, i: dsd_decompress(bits, d),
        predicted=lambda c, d: ("predicted_dsd_bits",
                                f"{bounds.dsd_predicted_bits(c.nu, d):.1f}"),
    ),
    "rsd": CodecSpec(
        tag=2, params=("nu",), decode_params=(), randomized=True,
        variance_class="U", variance=lambda c, d: c.nu,
        encode=lambda x, c, i: rsd_compress(x, c.nu, message_stream(c.seed, i)),
        decode=lambda bits, d, c, i: dsd_decompress(bits, d),
        predicted=lambda c, d: ("predicted_rsd_bits",
                                f"{bounds.rsd_predicted_bits(c.nu, d):.1f}"),
    ),
    "sc": CodecSpec(
        tag=3, params=("alpha",), decode_params=("alpha",), randomized=True,
        variance_class="C", variance=lambda c, d: c.alpha,
        encode=lambda x, c, i: sc_compress(x, c.alpha, c.seed, i),
        decode=lambda bits, d, c, i: sc_decompress(bits, d, c.alpha, c.seed, i),
        predicted=lambda c, d: ("avg_lower_bits",
                                f"{bounds.avg_lower_bound(c.alpha, d):.2f}"),
    ),
    "topk": CodecSpec(
        tag=4, params=("k",), decode_params=("k",), randomized=False,
        variance_class="C", variance=lambda c, d: 1.0 - c.k / d,
        encode=lambda x, c, i: topk_compress(x, c.k),
        decode=lambda bits, d, c, i: topk_decompress(bits, d, c.k),
    ),
    "randsparse": CodecSpec(
        tag=5, params=("k",), decode_params=("k",), randomized=True,
        variance_class="U", variance=lambda c, d: d / c.k - 1.0,
        encode=lambda x, c, i: random_sparsify(x, c.k, message_stream(c.seed, i)),
        decode=lambda bits, d, c, i: topk_decompress(bits, d, c.k),
    ),
    "dither": CodecSpec(
        tag=6, params=("levels",), decode_params=("levels",), randomized=True,
        variance_class="U",
        variance=lambda c, d: min(d / c.levels**2, math.sqrt(d) / c.levels),
        encode=lambda x, c, i: std_dither(x, c.levels, message_stream(c.seed, i)),
        decode=lambda bits, d, c, i: std_dither_decompress(bits, d, c.levels),
    ),
    "ternary": CodecSpec(
        tag=7, params=(), decode_params=(), randomized=True,
        variance_class="U", variance=lambda c, d: math.sqrt(d),
        encode=lambda x, c, i: ternary(x, message_stream(c.seed, i)),
        decode=lambda bits, d, c, i: std_dither_decompress(bits, d, 1),
    ),
    "natural": CodecSpec(
        tag=8, params=(), decode_params=(), randomized=True,
        variance_class="U", variance=lambda c, d: 0.125,
        encode=lambda x, c, i: natural_compress(x, message_stream(c.seed, i)),
        decode=lambda bits, d, c, i: natural_decompress(bits, d),
    ),
    "identity": CodecSpec(
        tag=9, params=(), decode_params=(), randomized=False,
        variance_class="U", variance=lambda c, d: 0.0,
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
    if CODECS[kind].variance_class != "U":
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

    def variance_class(self, d):
        """(class, parameter) pair describing the operator's guarantee."""
        c = self.config
        if c.wrap_omega is not None:
            w = c.wrap_omega
            return ("B", w / (1.0 + w))
        spec = CODECS[c.kind]
        return (spec.variance_class, spec.variance(c, d))

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
