"""Bit-exact serialization primitives shared by all codecs.

Bit order: append order is transmission order, fixed-width fields are
written most-significant-bit first.  A BitString tracks its exact bit
length and holds its bits packed, with zero bits padding the last
byte; the message container sends those bytes as they are.
"""

import math
import struct

import numpy as np


class DecodeError(Exception):
    """Payload cannot be decoded."""


class TruncatedStreamError(DecodeError):
    """Decoder ran past the end of the stream."""


class MalformedCodeError(DecodeError):
    """A well-delimited code decoded to an out-of-domain value."""


class BitString:
    """Immutable-by-convention sequence of bits with exact length.

    Stored packed: ceil(len/8) bytes, MSB-first, the padding bits of the
    last byte zero, so equal bit sequences have equal bytes.
    """

    __slots__ = ("_buf", "_len")

    def __init__(self, bits=()):
        """The bits of a 0/1 sequence of any dtype; ValueError on any other
        element.  A boolean array needs no check."""
        if getattr(bits, "dtype", None) != bool:
            bits = np.asarray(bits)
            if ((bits != 0) & (bits != 1)).any():
                raise ValueError("bits must be 0 or 1")
            bits = bits == 1
        self._buf = np.packbits(bits, axis=None)
        self._len = int(bits.size)

    @classmethod
    def _wrap(cls, buf, length):
        """BitString over uint8 `buf`, which must hold exactly
        ceil(length/8) bytes with zero padding bits."""
        bs = cls.__new__(cls)
        bs._buf = buf
        bs._len = length
        return bs

    @classmethod
    def from_bytes(cls, data, length):
        """First `length` bits of `data` (MSB-first within each byte); a
        view of `data` unless bits past `length` must be cleared."""
        if length < 0 or length > 8 * len(data):
            raise ValueError("bit length out of range for buffer")
        nbytes = (length + 7) >> 3
        buf = np.frombuffer(data, dtype=np.uint8, count=nbytes)
        pad = 8 * nbytes - length
        if pad and buf[-1] & ((1 << pad) - 1):
            buf = buf.copy()
            buf[-1] &= (0xFF << pad) & 0xFF
        return cls._wrap(buf, length)

    def _int(self):
        return int.from_bytes(self._buf.tobytes(), "big") >> (8 * self._buf.size - self._len)

    @staticmethod
    def concat(parts):
        acc = total = 0
        for p in parts:
            acc = (acc << p._len) | p._int()
            total += p._len
        return write_fixed(acc, total)

    def to_bytes(self):
        """Pack to bytes, zero-padded at the end to a byte boundary."""
        return self._buf.tobytes()

    def to01(self):
        """The bits as a '0'/'1' string; the tests read bits through it."""
        return format(self._int(), f"0{self._len}b") if self._len else ""

    def __add__(self, other):
        return BitString.concat([self, other])

    def __len__(self):
        return self._len

    def __eq__(self, other):
        if not isinstance(other, BitString):
            return NotImplemented
        return self._len == other._len and np.array_equal(self._buf, other._buf)

    def __repr__(self):
        shown = self._len if self._len <= 64 else 61
        head = np.unpackbits(self._buf[:8], count=shown)
        s = "".join("1" if b else "0" for b in head)
        if shown < self._len:
            s += "..."
        return f"BitString({self._len} bits: {s})"


class BitCursor:
    """Single-consumer read position over a BitString."""

    __slots__ = ("_buf", "_len", "pos")

    def __init__(self, source: BitString):
        self._buf = source._buf
        self._len = source._len
        self.pos = 0

    def remaining(self):
        return self._len - self.pos

    def _advance(self, n):
        """Consume n bits; returns the bit offset where they start."""
        if n > self.remaining():
            raise TruncatedStreamError(
                f"need {n} bits at offset {self.pos}, {self.remaining()} left"
            )
        start = self.pos
        self.pos += n
        return start

    def _take(self, n):
        """The next n bits as a uint8 array of 0s and 1s."""
        start = self._advance(n)
        s = start & 7
        return np.unpackbits(self._buf[start >> 3:(start + n + 7) >> 3], count=s + n)[s:]

    def read_bits(self, width):
        """Read a `width`-bit MSB-first unsigned integer."""
        if width < 0:
            raise ValueError("width must be >= 0")
        start = self._advance(width)
        b0, b1 = start >> 3, (start + width + 7) >> 3
        value = int.from_bytes(self._buf[b0:b1], "big") >> (8 * b1 - start - width)
        return value & ((1 << width) - 1)

    def read_bytes(self, n):
        """The next 8n bits as n bytes (uint8 array); a view of the
        buffer when the read starts on a byte boundary."""
        start = self._advance(8 * n)
        b, s = start >> 3, start & 7
        if not s:
            return self._buf[b:b + n]
        # the last of the n + 1 bytes spanned exists: the read ends inside it
        span = self._buf[b:b + n + 1]
        return (span[:-1] << s) | (span[1:] >> (8 - s))


# The most values one blocked step holds, so that none makes a temporary
# the size of its input: coordinates of a dense codec, bits unpacked by
# the unary reader, Gaussian values of one draw (256 KiB of float64)
# unless a row is longer.  Chosen from scripts/sc_block_grid.py.
BLOCK = 1 << 15


def block_rows(d):
    """Rows of length d in one blocked draw: BLOCK // d, at least one."""
    return max(1, BLOCK // d)


def write_unary_block(values) -> BitString:
    """Concatenated unary codes for an array of values >= 1."""
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0:
        return BitString()
    if values.min() < 1:
        raise ValueError("unary code is defined for k >= 1")
    chunks = []  # packed bits; each chunk's last byte is zero-padded
    pos = 0  # bits written
    for start in range(0, values.size, BLOCK):
        # the block's bits from the start of the byte that holds bit pos,
        # with ones in the place of the bits already written there
        ends = np.cumsum(values[start:start + BLOCK])
        ends += (pos & 7) - 1
        arr = np.ones(int(ends[-1]) + 1, dtype=np.uint8)
        arr[ends] = 0
        packed = np.packbits(arr)
        if pos & 7:  # the last chunk's padded byte becomes this one's first
            packed[0] &= chunks[-1][-1] | (0xFF >> (pos & 7))
            chunks[-1] = chunks[-1][:-1]
        chunks.append(packed)
        pos += arr.size - (pos & 7)
    return BitString._wrap(np.concatenate(chunks) if len(chunks) > 1 else packed, pos)


def read_unary_block(cursor: BitCursor, count, stop=0):
    """Read `count` consecutive runs that each end in a `stop` bit, as an
    int64 array of run lengths, stop bit included: unary codes for
    stop = 0, a Golomb-Rice quotient plus one for stop = 1.  The bits are
    unpacked BLOCK at a time, up to the count-th stop bit."""
    if count > cursor.remaining():  # every run takes at least one bit
        raise TruncatedStreamError(
            f"expected {count} unary codes at offset {cursor.pos}, "
            f"{cursor.remaining()} bits left"
        )
    values = np.empty(count, dtype=np.int64)
    filled = 0
    start = cursor.pos  # the first bit not yet unpacked
    last = start - 1  # the last stop bit read
    while filled < count:
        n = min(cursor._len - start, BLOCK)
        if n <= 0:
            raise TruncatedStreamError(
                f"expected {count} unary codes at offset {cursor.pos}, found {filled}"
            )
        s = start & 7
        bits = np.unpackbits(cursor._buf[start >> 3:(start + n + 7) >> 3], count=s + n)[s:]
        ends = np.flatnonzero(bits == stop)[:count - filled]
        if ends.size:
            # each run's length: its stop bit minus the one before
            seg = values[filled:filled + ends.size]
            seg[0] = start + int(ends[0]) - last
            np.subtract(ends[1:], ends[:-1], out=seg[1:])
            last = start + int(ends[-1])
            filled += ends.size
        start += n
    cursor.pos = last + 1
    return values


def write_fixed(value, width) -> BitString:
    """Unsigned `value` as exactly `width` bits, most-significant first."""
    if width < 0:
        raise ValueError("width must be >= 0")
    if value < 0:
        raise ValueError("value must be >= 0")
    if value >> width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    nbytes = (width + 7) >> 3
    raw = (value << (8 * nbytes - width)).to_bytes(nbytes, "big")
    return BitString._wrap(np.frombuffer(raw, dtype=np.uint8), width)


def golomb_rice_params(p):
    """Rice parameter m for success probability p, from 1/(2p) <= 2^m < 1/p.

    With 2p = f*2^e, f in [1/2, 1), m = 1 - e is the smallest m with
    2^m*2p >= 1, and 2^m*p = f < 1.  Scaling by 2^m is exact, so this
    holds for every positive float, subnormals included.
    """
    if not (0.0 < p < 0.5):
        raise ValueError(f"p must be in (0, 1/2), got {p}")
    return 1 - math.frexp(2.0 * p)[1]


def golomb_rice_encode(value, m) -> BitString:
    """Golomb-Rice code: q zeros, a one, then the m-bit remainder.

    value = 2^m * q + r with 0 <= r < 2^m; total length q + 1 + m.
    """
    if value < 1:
        raise ValueError("Golomb-Rice input must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    q = value >> m
    r = value & ((1 << m) - 1)
    return write_fixed((1 << m) | r, q + 1 + m)


def golomb_rice_decode(cursor: BitCursor, m):
    """Inverse of golomb_rice_encode; the quotient is read as one
    read_unary_block run that ends in a one."""
    if m < 0:
        raise ValueError("m must be >= 0")
    q = int(read_unary_block(cursor, 1, stop=1)[0]) - 1
    r = cursor.read_bits(m)
    value = (q << m) | r
    if value < 1:
        raise MalformedCodeError(
            f"Golomb-Rice code decoded to {value} at offset {cursor.pos}"
        )
    return value


# C(n, k) by prime factorisation where its width, estimated from
# lgamma, is at least _FACTOR_MIN_BITS and n/_FACTOR_N_PER_BIT bits, and
# by math.comb below.  math.comb divides big integers, which CPython
# does in quadratic time; the factorised path sieves n numbers and only
# multiplies, so it wins once the result is wide against n.  Both are
# exact; the rule picks only the time (the grid is measured with
# scripts/binom_grid.py; README, "Wire format").  Tying the sieve to
# the width makes a decoder sieve d numbers only for a subset field of
# at least d/_FACTOR_N_PER_BIT bits, and read_subset rejects a payload
# shorter than a lower bound on that width before computing C(d, n0).
_FACTOR_MIN_BITS = 4000
_FACTOR_N_PER_BIT = 10


def binom(n, k):
    """C(n, k) for n, k >= 0 (0 when k > n), as math.comb returns it."""
    # C(n, k) < 2^n, so n below _FACTOR_MIN_BITS needs no lgamma test
    if _FACTOR_MIN_BITS <= n and 0 <= k <= n and _factored_pays(n, k):
        return _factored_binom(n, k)
    return math.comb(n, k)


def _factored_pays(n, k):
    """Whether binom(n, k), 0 <= k <= n, takes the factorised path."""
    bits = (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / math.log(2)
    return bits >= max(_FACTOR_MIN_BITS, n / _FACTOR_N_PER_BIT)


def _primes(n):
    """The primes up to n >= 2, ascending, from a sieve over odd numbers."""
    odd = np.ones((n + 1) // 2, dtype=bool)  # odd[i] stands for 2i + 1
    odd[0] = False
    for i in range(1, (math.isqrt(n) - 1) // 2 + 1):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2::p] = False
    return np.concatenate(([2], 2 * np.flatnonzero(odd) + 1))


def _factored_binom(n, k):
    """C(n, k) for 0 <= k <= n as the product of its prime powers.

    Legendre: prime p divides C(n, k) sum_j (n//p^j - k//p^j - (n-k)//p^j)
    times.  Each pass adds one power j for every prime with p^j <= n, a
    prefix of the ascending primes; past sqrt(n) only j = 1 exists, so
    there the exponent is 0 or 1."""
    if n < 2:
        return 1
    primes = _primes(n)
    exps = np.zeros(primes.size, dtype=np.int64)
    power = primes
    while power.size:
        exps[:power.size] += n // power - k // power - (n - k) // power
        power = power[power <= n // primes[:power.size]]
        power = power * primes[:power.size]
    once = primes[exps == 1].tolist()
    more = [p**e for p, e in zip(primes[exps > 1].tolist(), exps[exps > 1].tolist())]
    return _product(more + once)


def _product(factors):
    """Product of a list of ints by a balanced tree of multiplications:
    a left-to-right product multiplies a wide integer by a narrow one at
    every step, which is quadratic in the result's width."""
    while len(factors) > 1:
        if len(factors) & 1:
            factors.append(1)
        factors = [a * b for a, b in zip(factors[::2], factors[1::2])]
    return factors[0] if factors else 1


def subset_code_width(d, n0):
    """Bits needed for a subset rank: ceil(log2 C(d, n0))."""
    return (binom(d, n0) - 1).bit_length()


def subset_rank(positions, d, n0):
    """Lexicographic rank of an n0-subset of {0..d-1}.

    Combinatorial number system: subsets are ordered as sorted index
    tuples; {0,..,n0-1} has rank 0.
    """
    return _rank(positions, d, n0, binom(d, n0))


def subset_unrank(rank, d, n0):
    """Inverse of subset_rank; returns the sorted position list."""
    total = binom(d, n0)
    if rank < 0 or rank >= total:
        raise ValueError(f"rank {rank} out of range for C({d},{n0})")
    return _unrank(rank, d, n0, total)


# Above d = SUBSET_BLOCK coordinates a subset field is cut into blocks
# of SUBSET_BLOCK coordinates, the last one shorter where d is not a
# multiple, and each block sends its member count and its own rank, as
# in Cover's enumerative coding (IEEE Trans. IT, 1973).  A count takes
# ceil(log2(min(length, left) + 1)) bits with `left` members not yet
# placed, so the blocks after the last member cost nothing, and the last
# block's count is implied.  A rank costs time quadratic in its width,
# so blocks make the field's cost linear in d.  prod C(B_b, n_b) <=
# C(d, n0), so the extra bits are at most the counts' widths plus one
# bit of rounding per block (README, "Wire format").  At or below
# SUBSET_BLOCK the field is the one rank over C(d, n0).  Chosen from
# scripts/subset_block_grid.py.
SUBSET_BLOCK = 1 << 13


def write_subset(positions, d, n0) -> BitString:
    """The field of an ascending n0-subset of {0..d-1}: up to
    d = SUBSET_BLOCK, its rank in ceil(log2 C(d, n0)) bits; above it,
    for each block, its member count n_b, which the last block leaves
    implied, then the rank of its members in ceil(log2 C(B_b, n_b))
    bits."""
    if d <= SUBSET_BLOCK:
        total = binom(d, n0)
        return write_fixed(_rank(positions, d, n0, total), (total - 1).bit_length())
    pos = np.asarray(positions, dtype=np.int64)
    if pos.shape != (n0,):
        raise ValueError(f"expected {n0} positions, got {pos.size}")
    if n0 and (np.diff(pos) <= 0).any():
        raise ValueError("positions must be strictly increasing")
    if n0 and (pos[0] < 0 or pos[-1] >= d):
        raise ValueError("positions out of range")
    acc = width = 0
    left = n0
    starts = range(0, d, SUBSET_BLOCK)
    ends = np.searchsorted(pos, [*starts[1:], d]).tolist()
    lo = 0
    for start, hi in zip(starts, ends):
        if not left:
            break
        length = min(SUBSET_BLOCK, d - start)
        n = hi - lo
        if start + length < d:
            w = min(length, left).bit_length()
            acc, width = (acc << w) | n, width + w
        total = binom(length, n)
        w = (total - 1).bit_length()
        rank = _rank((pos[lo:hi] - start).tolist(), length, n, total)
        acc, width = (acc << w) | rank, width + w
        left -= n
        lo = hi
    return write_fixed(acc, width)


def read_subset(cursor: BitCursor, d, n0):
    """Read a write_subset field as the ascending position list.

    MalformedCodeError where n0 > d, where a block's count exceeds its
    length or the members left, where the last block cannot hold the
    members left, or where a rank is C(B_b, n_b) or more, which its
    field's width can hold.  Every count and rank is read and checked
    before any rank is unranked."""
    if n0 > d:
        raise MalformedCodeError(f"subset size {n0} exceeds dimension {d}")
    if d <= SUBSET_BLOCK:
        return _unrank(*_read_rank(cursor, d, n0))
    fields = []
    left = n0
    for start in range(0, d, SUBSET_BLOCK):
        if not left:
            break
        length = min(SUBSET_BLOCK, d - start)
        if start + length < d:
            most = min(length, left)
            n = cursor.read_bits(most.bit_length())
            if n > most:
                raise MalformedCodeError(
                    f"count {n} of the block at coordinate {start} exceeds "
                    f"min({length}, {left} members left)"
                )
        elif left > length:
            raise MalformedCodeError(
                f"{left} members left for the last block's {length} coordinates"
            )
        else:
            n = left
        fields.append((start, _read_rank(cursor, length, n)))
        left -= n
    positions = []
    for start, field in fields:
        positions += [start + p for p in _unrank(*field)]
    return positions


def _read_rank(cursor, d, n0):
    """(rank, d, n0, total) of one rank field over C(d, n0) = total, for
    n0 <= d; MalformedCodeError where the rank is total or more.

    C(d, k) >= (d/k)^k with k = min(n0, d - n0) bounds the width from
    below, so a payload too short for the field is rejected before the
    cost of computing C(d, n0)."""
    k = min(n0, d - n0)
    if k and cursor.remaining() < math.floor(k * math.log2(d / k)) - 1:
        raise TruncatedStreamError(
            f"subset rank over C({d},{n0}) needs more than the "
            f"{cursor.remaining()} bits left at offset {cursor.pos}"
        )
    total = binom(d, n0)
    rank = cursor.read_bits((total - 1).bit_length())
    if rank >= total:
        raise MalformedCodeError(f"subset rank {rank} out of range for C({d},{n0})")
    return rank, d, n0, total


# Both scans walk t = d-1-j down from d-1 and keep the running binomial
# coefficient c = C(t, k-1): the number of subsets, among those still
# possible, whose next index is j.  Taking j sets c <- c*k/t after k
# drops by one; skipping it adds c to the rank and sets c <- c*(t-k+1)/t.
# Every quotient is exact.
#
# The direct loop pays one bignum multiply and one single-digit bignum
# division per coordinate.  The grouped loop multiplies the steps of up
# to _GROUP_STEPS coordinates together in small ints -- den = prod t,
# num = prod of the step factors, A = the skipped coefficients' sum
# scaled by den -- and applies them with one q, r = divmod(c, den):
#     skipped sum = c*A/den = q*A + r*A//den,
#     c_next      = c*num/den = q*num + r*num//den.
# Both left-hand sides are integers, so both r*X//den are exact.  It
# runs while c is wider than _DIRECT_BITS; narrower c goes to the
# direct loop, which is faster there (the crossover was measured with
# scripts/direct_bits_grid.py; README, "Wire format").  C(d, n0) < 2^d,
# so d <= 1024 always takes the direct loop.
_GROUP_STEPS = 64
_DIRECT_BITS = 1024
# Unrank's fixed-point quotient R*2^_QUOTIENT_BITS/c has that many
# fractional bits; a group ends once its steps' coefficient has shrunk
# below 2^(_MARGIN_BITS - _QUOTIENT_BITS) of c (see _unrank).
_QUOTIENT_BITS = 256
_MARGIN_BITS = 64


def _rank(positions, d, n0, total, steps=_GROUP_STEPS, direct_bits=_DIRECT_BITS):
    """subset_rank given total = C(d, n0)."""
    positions = list(positions)
    if len(positions) != n0:
        raise ValueError(f"expected {n0} positions, got {len(positions)}")
    if n0 == 0:
        return 0
    prev = -1
    for p in positions:
        if p <= prev:
            raise ValueError("positions must be strictly increasing")
        prev = p
    if positions[0] < 0 or positions[-1] >= d:
        raise ValueError("positions out of range")

    rank = 0
    k = n0
    c = total * n0 // d  # C(d-1, n0-1)
    it = iter(positions)
    nxt = d - 1 - next(it)  # the t of the next chosen index
    t = d - 1
    while c.bit_length() > direct_bits:
        A, num, den = 0, 1, 1
        for t in range(t, max(t - steps, -1), -1):
            if t == nxt:
                k -= 1
                if k == 0:
                    q, r = divmod(c, den)
                    return rank + q * A + r * A // den
                num *= k
                A *= t
                nxt = d - 1 - next(it)
            else:
                A = (A + num) * t
                num *= t - k + 1
            den *= t
        t -= 1
        q, r = divmod(c, den)
        rank += q * A + r * A // den
        c = q * num + r * num // den
    for t in range(t, -1, -1):
        if t == nxt:
            k -= 1
            if k == 0:
                break
            c = c * k // t
            nxt = d - 1 - next(it)
        else:
            rank += c
            c = c * (t - k + 1) // t
    return rank


def _exact_below(rank, c, num, den):
    """rank < c*num/den, decided exactly."""
    return rank * den < c * num


def _unrank(rank, d, n0, total, steps=_GROUP_STEPS, direct_bits=_DIRECT_BITS):
    """subset_unrank given total = C(d, n0) and 0 <= rank < total.

    A grouped step takes j iff the rank left, R - c*A/den, is below the
    coefficient c*num/den, i.e. iff  (A+num)*2^Q - den*R*2^Q/c > 0,  with
    R and c the exact values at the group's start and Q = _QUOTIENT_BITS.
    Once per group, rho = floor(R*2^Q/c), so R*2^Q/c lies in [rho, rho+1)
    and that difference lies in (gap - den, gap] for
    gap = (A+num)*2^Q - rho*den:  gap >= den takes, gap <= 0 skips, and
    the exact test R*den < c*(A+num) decides the rest.  The loop keeps
    G = A*2^Q - rho*den and N = num*2^Q, so gap = G + N.
    Group end.  A step falls back only when R - c*A/den lies within
    c*2^-Q of its coefficient c*num/den; ending the group once
    N < den*2^_MARGIN_BITS keeps that window below 2^-_MARGIN_BITS of
    the coefficient.  The rule bounds how often the exact test runs;
    correctness never depends on it.
    """
    if n0 == 0:
        return []
    positions = []
    k = n0
    c = total * n0 // d
    t = d - 1
    while c.bit_length() > direct_bits:
        rho = (rank << _QUOTIENT_BITS) // c
        G, N, den = -rho, 1 << _QUOTIENT_BITS, 1
        for t in range(t, max(t - steps, -1), -1):
            gap = G + N
            if gap >= den:
                take = True
            elif gap <= 0:
                take = False
            else:
                take = _exact_below(rank, c, (gap + rho * den) >> _QUOTIENT_BITS, den)
            if take:
                positions.append(d - 1 - t)
                k -= 1
                if k == 0:
                    return positions
                G *= t
                N *= k
            else:
                G = gap * t
                N *= t - k + 1
            den *= t
            if N < den << _MARGIN_BITS:
                break
        t -= 1
        A = (G + rho * den) >> _QUOTIENT_BITS
        num = N >> _QUOTIENT_BITS
        q, r = divmod(c, den)
        rank -= q * A + r * A // den
        c = q * num + r * num // den
    for t in range(t, -1, -1):
        if rank < c:
            positions.append(d - 1 - t)
            k -= 1
            if k == 0:
                break
            c = c * k // t
        else:
            rank -= c
            c = c * (t - k + 1) // t
    return positions


def write_float_magnitude(value) -> BitString:
    """Nonnegative float as IEEE binary32 with the sign bit dropped (31 bits)."""
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"magnitude must be finite and >= 0, got {value}")
    try:
        raw = struct.pack(">f", value)
    except OverflowError as exc:
        raise ValueError(f"magnitude {value} overflows binary32") from exc
    word = int.from_bytes(raw, "big")
    return write_fixed(word & 0x7FFFFFFF, 31)


def read_float_magnitude(cursor: BitCursor):
    word = cursor.read_bits(31)
    if word >= 0x7F800000:  # all exponent bits set: inf or NaN, which no encoder writes
        raise MalformedCodeError(f"non-finite binary32 field {word:#x}")
    return struct.unpack(">f", word.to_bytes(4, "big"))[0]


# The least magnitude that rounds to binary32 inf: halfway between its
# largest finite value 2^128 - 2^104 and 2^128.  Exact in float64.
_FLOAT32_OVERFLOW = 2.0**128 - 2.0**103


def write_float32_block(values) -> BitString:
    """Concatenated binary32 fields for a float array; every value must
    be finite after rounding to binary32."""
    values = np.asarray(values, dtype=np.float64)
    if values.size and not np.abs(values).max() < _FLOAT32_OVERFLOW:  # NaN fails too
        raise ValueError("values must be finite in binary32")
    raw = values.astype(">f4")
    return BitString._wrap(raw.reshape(-1).view(np.uint8), 32 * raw.size)


def read_float32_block(cursor: BitCursor, count):
    """MalformedCodeError on a word with all exponent bits set: inf or
    NaN, which no encoder writes."""
    with np.errstate(invalid="ignore"):  # a signalling NaN warns in the cast
        values = cursor.read_bytes(4 * count).view(">f4").astype(np.float64)
    if not math.isfinite(values.sum()):  # no sum of finite binary32 values overflows
        raise MalformedCodeError("non-finite binary32 value")
    return values


# --- message container -------------------------------------------------

CONTAINER_MAGIC = b"GCV1"
_HEADER_LEN = 4 + 1 + 4 + 4
# Largest dimension a container may declare: 2^27 coordinates, 1 GiB of
# float64 output.  Decoders allocate their d-vector output whatever the
# payload's size, so this bounds what a forged header can make them take.
MAX_D = 1 << 27


def pack_container(tag, d, payload: BitString) -> bytes:
    """GCV1 container: magic, tag byte, LE32 dimension, LE32 bit length, payload."""
    if not 0 <= tag <= 255:
        raise ValueError("operator tag must fit in one byte")
    if not 0 <= d <= MAX_D:
        raise ValueError(f"dimension {d} outside [0, MAX_D={MAX_D}]")
    header = (
        CONTAINER_MAGIC
        + bytes([tag])
        + int(d).to_bytes(4, "little")
        + len(payload).to_bytes(4, "little")
    )
    return b"".join((header, payload._buf))


def unpack_container(blob: bytes):
    """Parse a GCV1 container; returns (tag, d, payload), the payload a
    view of `blob`.

    Only the canonical form is accepted: exactly ceil(nbits/8) payload
    bytes with zero padding bits, so one message has one encoding."""
    if len(blob) < _HEADER_LEN:
        raise DecodeError(f"container too short ({len(blob)} bytes)")
    if blob[:4] != CONTAINER_MAGIC:
        raise DecodeError(f"bad magic {blob[:4]!r}, expected {CONTAINER_MAGIC!r}")
    tag = blob[4]
    d = int.from_bytes(blob[5:9], "little")
    nbits = int.from_bytes(blob[9:13], "little")
    if d > MAX_D:
        raise DecodeError(f"dimension {d} exceeds MAX_D={MAX_D}")
    body = np.frombuffer(blob, dtype=np.uint8, offset=_HEADER_LEN)
    if nbits > 8 * body.size:
        raise DecodeError(
            f"declared {nbits} payload bits but only {8 * body.size} available"
        )
    if body.size != (nbits + 7) >> 3:
        raise DecodeError(
            f"{body.size - ((nbits + 7) >> 3)} trailing bytes after {nbits} payload bits"
        )
    pad = (-nbits) & 7
    if pad and body[-1] & ((1 << pad) - 1):
        raise DecodeError(f"nonzero padding bits after {nbits} payload bits")
    return tag, d, BitString._wrap(body, nbits)
