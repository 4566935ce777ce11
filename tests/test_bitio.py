import itertools
import math
import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradcodec import bitio
from gradcodec.bitio import (BitCursor, BitString, DecodeError,
                             MalformedCodeError, TruncatedStreamError)


class TestBitString:
    def test_concat_length_additive(self):
        a = BitString([1, 0, 1])
        b = BitString([0, 0])
        assert len(a + b) == 5
        assert (a + b).to01() == "10100"

    @given(st.lists(st.integers(0, 1), max_size=40),
           st.lists(st.integers(0, 1), max_size=40),
           st.lists(st.integers(0, 1), max_size=40))
    def test_concat_associative(self, a, b, c):
        x, y, z = BitString(a), BitString(b), BitString(c)
        assert (x + y) + z == x + (y + z)

    @given(st.lists(st.integers(0, 1), max_size=100))
    def test_bytes_round_trip(self, bits):
        bs = BitString(bits)
        assert BitString.from_bytes(bs.to_bytes(), len(bs)) == bs

    @given(st.integers(0, 2**40 - 1))
    def test_int_round_trip(self, value):
        assert int(bitio.write_fixed(value, 40).to01(), 2) == value

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BitString([0, 2])
        # out-of-range elements of any dtype, not wrapped or truncated to a bit
        for bad in (np.array([256, 1]), np.array([1.7, 0.2]), [256], np.array([-1, 0])):
            with pytest.raises(ValueError, match="bits must be 0 or 1"):
                BitString(bad)

    @given(st.lists(st.booleans(), max_size=40))
    def test_boolean_array_is_its_bits(self, flags):
        assert BitString(np.array(flags, dtype=bool)) == BitString([int(f) for f in flags])

    def test_cursor_past_end(self):
        cur = BitCursor(BitString([1, 0]))
        cur.read_bits(2)
        with pytest.raises(TruncatedStreamError):
            cur.read_bits(1)

    def test_repr_renders_only_the_shown_bits(self, monkeypatch):
        unpackbits = np.unpackbits

        def unpack_at_most_64(a, *args, **kwargs):
            count = kwargs.get("count")
            assert (8 * np.asarray(a).size if count is None else count) <= 64
            return unpackbits(a, *args, **kwargs)

        def every_bit(self):
            raise AssertionError("repr rendered every bit")

        monkeypatch.setattr(np, "unpackbits", unpack_at_most_64)
        monkeypatch.setattr(BitString, "to01", every_bit)
        monkeypatch.setattr(BitString, "_int", every_bit)
        bs = BitString.from_bytes(b"\xa5" * 1_250_000, 10**7)
        assert repr(bs) == "BitString(10000000 bits: " + "10100101" * 7 + "10100...)"
        assert repr(BitString([1, 0, 1])) == "BitString(3 bits: 101)"


def _bits(length, seed):
    return np.random.default_rng(seed).integers(0, 2, size=length, dtype=np.uint8)


# lengths of 0, a few bits, and up to 3000 bits, so parts start and end
# at every offset within a byte
_part = st.tuples(st.one_of(st.integers(0, 17), st.integers(0, 3000)),
                  st.integers(0, 2**32 - 1))


class TestPackedBuffer:
    """The packed BitString against a list of bits as the reference."""

    @given(st.lists(_part, max_size=8))
    def test_concat_matches_list_concatenation(self, specs):
        refs = [_bits(n, seed) for n, seed in specs]
        parts = [BitString(r) for r in refs]
        ref = np.concatenate(refs) if refs else np.empty(0, dtype=np.uint8)
        joined = BitString.concat(parts)
        assert len(joined) == ref.size
        assert joined.to01() == "".join(map(str, ref))
        assert joined.to_bytes() == np.packbits(ref).tobytes()
        summed = BitString()
        for part in parts:
            summed = summed + part
        assert summed == joined

    @given(st.binary(max_size=40), st.data())
    def test_from_bytes_ignores_bits_past_length(self, data, draw):
        length = draw.draw(st.integers(0, 8 * len(data)))
        ref = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=length)
        bs = BitString.from_bytes(data, length)
        assert bs == BitString(ref)
        assert bs.to_bytes() == np.packbits(ref).tobytes()

    _field = st.one_of(
        st.tuples(st.just("bits"), st.integers(0, 70).flatmap(
            lambda w: st.tuples(st.just(w), st.integers(0, 2**w - 1)))),
        st.tuples(st.just("take"), _part),
        st.tuples(st.just("float32"), st.lists(
            st.floats(width=32, allow_nan=False, allow_infinity=False), max_size=5)),
        st.tuples(st.just("unary"), st.lists(st.integers(1, 12), max_size=8)),
        st.tuples(st.just("rice"), st.tuples(st.integers(1, 5000), st.integers(0, 9))),
    )

    @given(st.integers(0, 7), st.lists(_field, max_size=8))
    def test_reads_reproduce_every_field(self, lead, fields):
        writes = {
            "bits": lambda f: bitio.write_fixed(f[1], f[0]),
            "take": lambda f: BitString(_bits(*f)),
            "float32": bitio.write_float32_block,
            "unary": bitio.write_unary_block,
            "rice": lambda f: bitio.golomb_rice_encode(*f),
        }
        parts = [BitString(_bits(lead, 0))] + [writes[k](f) for k, f in fields]
        cur = BitCursor(BitString.concat(parts))
        cur._take(lead)
        pos = lead
        for (kind, f), part in zip(fields, parts[1:]):
            assert cur.pos == pos
            if kind == "bits":
                assert cur.read_bits(f[0]) == f[1]
            elif kind == "take":
                assert np.array_equal(cur._take(f[0]), _bits(*f))
            elif kind == "float32":
                got = bitio.read_float32_block(cur, len(f))
                assert got.tolist() == [float(np.float32(v)) for v in f]
            elif kind == "unary":
                assert bitio.read_unary_block(cur, len(f)).tolist() == f
            else:
                assert bitio.golomb_rice_decode(cur, f[1]) == f[0]
            pos += len(part)
        assert cur.remaining() == 0


class TestUnary:
    @pytest.mark.parametrize("k,code", [(1, "0"), (3, "110"), (2, "10")])
    def test_examples(self, k, code):
        assert bitio.write_unary_block([k]).to01() == code

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            bitio.write_unary_block([0])
        with pytest.raises(ValueError):
            bitio.write_unary_block([2, -3])

    def test_read_consumes_exactly(self):
        cur = BitCursor(bitio.write_unary_block([3]) + BitString([1, 1]))
        assert bitio.read_unary_block(cur, 1).tolist() == [3]
        assert cur.pos == 3

    def test_read_single_zero(self):
        assert bitio.read_unary_block(BitCursor(BitString([0, 1])), 1).tolist() == [1]

    def test_all_ones_truncated(self):
        with pytest.raises(TruncatedStreamError):
            bitio.read_unary_block(BitCursor(BitString([1] * 10)), 1)

    @pytest.mark.parametrize("lead", [0, 3])
    def test_multi_block_round_trip(self, lead):
        # codes over several bitio.BLOCK-value blocks, starting mid-byte
        gen = np.random.default_rng(lead)
        values = gen.geometric(0.4, size=2 * bitio.BLOCK + 5)
        values[bitio.BLOCK - 2:bitio.BLOCK + 2] = [1, 9, 1, 17]
        ref = np.ones(int(values.sum()), dtype=np.uint8)
        ref[np.cumsum(values) - 1] = 0
        bs = bitio.write_unary_block(values)
        assert bs == BitString(ref)
        cur = BitCursor(BitString([1] * lead) + bs + BitString([1, 0]))
        cur.pos = lead
        assert np.array_equal(bitio.read_unary_block(cur, values.size), values)
        assert cur.remaining() == 2

    def test_read_stops_at_the_last_code(self):
        # 2^24 one bits after three codes: the reader unpacks no more than
        # one block of them
        cur = BitCursor(bitio.write_unary_block([2, 1, 3])
                        + BitString.from_bytes(b"\xff" * 2**21, 2**24))
        tracemalloc.start()
        try:
            values = bitio.read_unary_block(cur, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.tolist() == [2, 1, 3]
        assert cur.pos == 6
        assert peak < 2**20

    def test_count_above_bits_left_rejected_without_allocation(self):
        # a count from a forged header: its int64 output would be 1 GiB
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedStreamError):
                bitio.read_unary_block(BitCursor(BitString([0] * 5)), 2**27)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @given(st.lists(st.integers(1, 30), min_size=1, max_size=30))
    def test_block_round_trip(self, values):
        bs = bitio.write_unary_block(values)
        assert len(bs) == sum(values)
        cur = BitCursor(bs)
        out = bitio.read_unary_block(cur, len(values))
        assert out.tolist() == values
        assert cur.remaining() == 0


class TestFixed:
    @pytest.mark.parametrize("v,w,code", [(5, 4, "0101"), (0, 3, "000")])
    def test_examples(self, v, w, code):
        assert bitio.write_fixed(v, w).to01() == code

    def test_overflow(self):
        with pytest.raises(ValueError):
            bitio.write_fixed(8, 3)

    @given(st.integers(0, 255), st.integers(8, 16))
    def test_round_trip(self, v, w):
        cur = BitCursor(bitio.write_fixed(v, w))
        assert cur.read_bits(w) == v


class TestGolombRice:
    @pytest.mark.parametrize("p,m", [
        (0.4, 1),        # 1.25 <= 2 < 2.5
        (0.25, 1),       # 2 <= 2 < 4
        (0.146447, 2),   # 3.414 <= 4 < 6.828
    ])
    def test_params_examples(self, p, m):
        assert bitio.golomb_rice_params(p) == m

    @given(st.floats(1e-9, 0.499999))
    def test_params_bracket(self, p):
        m = bitio.golomb_rice_params(p)
        assert 1.0 / (2.0 * p) <= 2.0 ** m < 1.0 / p

    def test_params_closed_form_matches_search(self):
        # brute force: the smallest m with 2^m * 2p >= 1, scaled exactly
        def smallest_m(p):
            m = 0
            while math.ldexp(2.0 * p, m) < 1.0:
                m += 1
            return m

        powers = [math.ldexp(1.0, e) for e in range(-1074, -1)]
        ps = [q for x in powers
              for q in (x, math.nextafter(x, 0.0), math.nextafter(x, 1.0))
              if 0.0 < q < 0.5]
        ps += [math.nextafter(0.5, 0.0), 2.2716904329e-313, 1e-320]
        for p in ps:
            m = bitio.golomb_rice_params(p)
            assert m == smallest_m(p), p
            assert math.ldexp(p, m) < 1.0 <= math.ldexp(2.0 * p, m)

    @pytest.mark.parametrize("p", [0.0, 0.5, 0.7, -0.1, 1.0])
    def test_params_domain(self, p):
        with pytest.raises(ValueError):
            bitio.golomb_rice_params(p)

    @pytest.mark.parametrize("value,m,code", [
        (5, 2, "0101"),  # q=1, r=1
        (1, 2, "101"),   # q=0, r=1
        (1, 0, "01"),    # q=1, no remainder bits
    ])
    def test_encode_examples(self, value, m, code):
        assert bitio.golomb_rice_encode(value, m).to01() == code

    @given(st.integers(1, 5000), st.integers(0, 8))
    def test_round_trip_and_length(self, value, m):
        bs = bitio.golomb_rice_encode(value, m)
        assert len(bs) == value // (2 ** m) + 1 + m
        cur = BitCursor(bs)
        assert bitio.golomb_rice_decode(cur, m) == value
        assert cur.remaining() == 0

    def test_decode_zero_is_malformed(self):
        cur = BitCursor(BitString([1, 0, 0]))
        with pytest.raises(MalformedCodeError):
            bitio.golomb_rice_decode(cur, 2)

    def test_decode_truncated(self):
        with pytest.raises(TruncatedStreamError):
            bitio.golomb_rice_decode(BitCursor(BitString([0, 0, 0])), 1)

    def test_unterminated_quotient_scans_in_bounded_memory(self):
        # a 31-bit field of ones, then 2^24 zero bits: 2 MiB packed, 16 MiB
        # if unpacked at one byte per bit
        n = 1 << 24
        bits = BitString.from_bytes(b"\xff\xff\xff\xfe" + bytes(n // 8), 32 + n - 1)
        cur = BitCursor(bits)
        cur.read_bits(31)
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedStreamError):
                bitio.golomb_rice_decode(cur, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @given(st.integers(0, 9), st.one_of(st.integers(0, 40), st.sampled_from(
        [8 * bitio.BLOCK + j for j in (-9, -1, 0, 7, 8)] + [16 * bitio.BLOCK + 3])),
        st.integers(1, 20), st.integers(0, 3))
    def test_decode_across_bytes_and_blocks(self, lead, zeros, value, m):
        # `lead` ones, then a code whose quotient has `zeros` more zeros,
        # so its one may lie in the first byte, a later one or a later BLOCK
        q, r = value >> m, value & ((1 << m) - 1)
        width = lead + zeros + q + 1 + m
        cur = BitCursor(bitio.write_fixed(((1 << lead) - 1) << (width - lead) | 1 << m | r, width))
        cur.read_bits(lead)
        assert bitio.golomb_rice_decode(cur, m) == ((q + zeros) << m) | r
        assert cur.remaining() == 0

    def test_expected_length_near_entropy(self):
        # mean code length under Geometric(p) stays within 3 bits of -log2 p
        rng = np.random.default_rng(5)
        for p in (0.4, 0.15, 0.03):
            m = bitio.golomb_rice_params(p)
            ts = rng.geometric(p, size=100_000)
            mean_len = np.mean(ts // (2 ** m) + 1 + m)
            assert mean_len <= -math.log2(p) + 3.0


class TestSubsetCode:
    def test_rank_examples(self):
        assert bitio.subset_rank([0, 1], 4, 2) == 0
        assert bitio.subset_rank([2, 3], 4, 2) == 5

    def test_unrank_example(self):
        assert bitio.subset_unrank(5, 4, 2) == [2, 3]

    def test_bijection_all_small_dims(self):
        # exhaustive over every subset for all d <= 8
        for d in range(1, 9):
            for n0 in range(d + 1):
                for rank, subset in enumerate(itertools.combinations(range(d), n0)):
                    assert bitio.subset_rank(list(subset), d, n0) == rank
                    assert bitio.subset_unrank(rank, d, n0) == list(subset)

    def test_large_dimension_round_trip(self):
        rng = np.random.default_rng(0)
        d = 4096
        for n0 in (1, 37, 2048, 4000, 4096):
            positions = sorted(rng.choice(d, size=n0, replace=False).tolist())
            rank = bitio.subset_rank(positions, d, n0)
            assert 0 <= rank < math.comb(d, n0)
            assert bitio.subset_unrank(rank, d, n0) == positions

    def test_width(self):
        assert bitio.subset_code_width(4, 2) == 3  # C(4,2)=6
        assert bitio.subset_code_width(4, 0) == 0
        assert bitio.subset_code_width(4, 4) == 0

    def test_errors(self):
        with pytest.raises(ValueError):
            bitio.subset_rank([1, 1], 4, 2)
        with pytest.raises(ValueError):
            bitio.subset_rank([3, 1], 4, 2)
        with pytest.raises(ValueError):
            bitio.subset_rank([0, 4], 4, 2)
        with pytest.raises(ValueError):
            bitio.subset_unrank(6, 4, 2)


class TestBinom:
    """bitio.binom and its factorised path against math.comb."""

    def test_every_k_small_n(self):
        for n in range(201):
            for k in range(n + 3):
                assert bitio.binom(n, k) == math.comb(n, k)
                if k <= n:
                    assert bitio._factored_binom(n, k) == math.comb(n, k)

    @pytest.mark.parametrize("n,k,factored", [
        (4096, 1024, False), (4096, 2048, True),
        (10**4, 256, False), (10**4, 2048, True),
        (10**5, 1024, False), (10**5, 2048, True), (10**5, 61_343, True),
        (10**5, 98_976, False), (10**5, 99_999, False),
    ])
    def test_both_sides_of_the_crossover(self, n, k, factored):
        assert bitio._factored_pays(n, k) == factored
        assert bitio.binom(n, k) == math.comb(n, k)
        assert bitio._factored_binom(n, k) == math.comb(n, k)

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 9, 25, 27, 128, 243, 997, 1024, 2187,
                                   4093, 4096, 16_807, 65_536, 65_537])
    def test_prime_and_prime_power_n(self, n):
        for k in {min(j, n) for j in (1, 2, 3, n // 7, n // 3, n // 2, n - 1, n)}:
            assert bitio._factored_binom(n, k) == math.comb(n, k)

    def test_random_n(self):
        rng = np.random.default_rng(14)
        for _ in range(6):
            n = int(rng.integers(2, 2 * 10**5 + 1))
            k = int(rng.integers(0, n + 1))
            expected = math.comb(n, k)
            assert bitio.binom(n, k) == expected
            assert bitio._factored_binom(n, k) == expected

    def test_identities_at_a_million(self):
        # math.comb takes seconds here; absorption and Pascal's rule
        # check the factorised values against each other instead
        n, k = 10**6, 4 * 10**5
        assert bitio._factored_pays(n, k) and bitio._factored_pays(n - 1, k - 1)
        c, left, right = bitio.binom(n, k), bitio.binom(n - 1, k - 1), bitio.binom(n - 1, k)
        assert c * k == left * n
        assert c == left + right

    def test_factored_peak_below_decoder_output(self):
        n = 1 << 20
        assert bitio._factored_pays(n, n // 2)
        tracemalloc.start()
        try:
            bitio.binom(n, n // 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n  # the float64 vector a decoder at d = n allocates

    def test_hostile_field_stays_on_math_comb(self, monkeypatch):
        # a 4.5 KB container at MAX_D: the decoder computes no binomial over
        # more than one block of SUBSET_BLOCK numbers, so it sieves no d
        # numbers, and stops reading once every member is placed
        d, n0 = bitio.MAX_D, 2048
        calls = []
        binom = bitio.binom
        monkeypatch.setattr(bitio, "binom", lambda n, k: calls.append(n) or binom(n, k))
        field = bitio.write_subset(list(range(n0)), d, n0)
        assert len(field) < 36_000
        calls.clear()
        tracemalloc.start()
        try:
            positions = bitio.read_subset(BitCursor(field), d, n0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert positions == list(range(n0))
        assert calls == [bitio.SUBSET_BLOCK]
        assert peak < 2 << 20


def blocked_width(positions, d):
    """The width rule of the subset field, spelled out: one rank over
    C(d, n0) up to SUBSET_BLOCK; above it, per block of B_b coordinates
    with n_b of the members, a count of ceil(log2(min(B_b, r) + 1)) bits
    for r members not yet placed (none for the last block), then a rank
    of ceil(log2 C(B_b, n_b)) bits."""
    B, n0 = bitio.SUBSET_BLOCK, len(positions)
    if d <= B:
        return math.ceil(math.log2(math.comb(d, n0)))
    counts = np.bincount(np.asarray(positions, dtype=np.int64) // B, minlength=-(-d // B))
    width, left = 0, n0
    for b, n in enumerate(counts.tolist()):
        length = min(B, d - b * B)
        if b < counts.size - 1:
            width += math.ceil(math.log2(min(length, left) + 1))
        width += math.ceil(math.log2(math.comb(length, n)))
        left -= n
    return width


def _direct_rank(positions, d, n0):
    return bitio._rank(positions, d, n0, math.comb(d, n0), direct_bits=math.inf)


def _direct_unrank(rank, d, n0):
    return bitio._unrank(rank, d, n0, math.comb(d, n0), direct_bits=math.inf)


def _grouped_rank(positions, d, n0, steps=bitio._GROUP_STEPS):
    return bitio._rank(positions, d, n0, math.comb(d, n0), steps, direct_bits=0)


def _grouped_unrank(rank, d, n0, steps=bitio._GROUP_STEPS):
    return bitio._unrank(rank, d, n0, math.comb(d, n0), steps, direct_bits=0)


class TestGroupedSubsetCode:
    """The grouped rank and unrank against the direct per-coordinate loop."""

    @pytest.mark.parametrize("steps", [1, 2])
    def test_exhaustive_small_dims(self, steps):
        for d in range(1, 11):
            for n0 in range(d + 1):
                for rank, subset in enumerate(itertools.combinations(range(d), n0)):
                    subset = list(subset)
                    assert _direct_rank(subset, d, n0) == rank
                    assert _grouped_rank(subset, d, n0, steps) == rank
                    assert _direct_unrank(rank, d, n0) == subset
                    assert _grouped_unrank(rank, d, n0, steps) == subset

    def test_random_subsets_and_edge_ranks(self):
        rng = np.random.default_rng(6)
        for d in (257, 700, 1500, 3000):
            for n0 in (1, 2, d // 50, d // 3, d // 2, d - 3, d - 1):
                total = math.comb(d, n0)
                positions = sorted(rng.choice(d, size=n0, replace=False).tolist())
                rank = _direct_rank(positions, d, n0)
                assert _grouped_rank(positions, d, n0) == rank
                assert _grouped_unrank(rank, d, n0) == positions
                # the first subset without index 0 sits at rank C(d-1, n0-1)
                for edge in {0, 1, total - 1, total // 2, total * n0 // d}:
                    if edge < total:
                        assert _grouped_unrank(edge, d, n0) == _direct_unrank(edge, d, n0)

    def test_exact_fallback_runs(self, monkeypatch):
        calls = []
        exact = bitio._exact_below

        def counting(*args):
            calls.append(args)
            return exact(*args)

        monkeypatch.setattr(bitio, "_exact_below", counting)
        d, n0 = 6000, 3000
        assert bitio.subset_code_width(d, n0) > bitio._DIRECT_BITS
        # the first subset without indices 0 and 1: its rank ties the
        # second step's threshold c*(A+num)/den, which is not dyadic, so
        # the fixed-point quotient cannot decide it
        rank = math.comb(d - 1, n0 - 1) + math.comb(d - 2, n0 - 1)
        positions = bitio.subset_unrank(rank, d, n0)
        assert calls
        assert positions == list(range(2, n0 + 2))
        assert bitio.subset_rank(positions, d, n0) == rank

    def test_wire_sparse_size_round_trip(self):
        # d = 10^5 with the zero-set size of a dsd message on Gaussian input
        d, n0 = 100_000, 61_343
        positions = sorted(np.random.default_rng(7).choice(d, size=n0, replace=False).tolist())
        field = bitio.write_subset(positions, d, n0)
        assert len(field) == blocked_width(positions, d)
        cursor = BitCursor(field)
        assert bitio.read_subset(cursor, d, n0) == positions
        assert cursor.remaining() == 0

    @given(st.data())
    def test_grouped_matches_direct(self, data):
        d = data.draw(st.integers(1, 400))
        subset = sorted(data.draw(st.sets(st.integers(0, d - 1), max_size=d)))
        steps = data.draw(st.integers(1, 80))
        n0 = len(subset)
        rank = _direct_rank(subset, d, n0)
        assert _grouped_rank(subset, d, n0, steps) == rank
        assert _grouped_unrank(rank, d, n0, steps) == subset
        other = data.draw(st.integers(0, math.comb(d, n0) - 1))
        assert _grouped_unrank(other, d, n0, steps) == _direct_unrank(other, d, n0)

    def test_length_check_admits_every_full_field(self):
        # read_subset rejects a short payload from a lower bound on each
        # rank field's width; a field of exactly its width must still
        # decode.  Above SUBSET_BLOCK the members sit in the first blocks
        # or in the last ones, so the last rank read ends the field.
        cases = [(d, n0) for d in range(1, 65) for n0 in range(d + 1)]
        cases += [(10**4, n0) for n0 in (1, 2, 10, 100, 5000, 9990, 9999, 10**4)]
        for d, n0 in cases:
            if d <= bitio.SUBSET_BLOCK:
                field = bitio.write_fixed(0, bitio.subset_code_width(d, n0))
                assert bitio.read_subset(BitCursor(field), d, n0) == list(range(n0))
                continue
            for positions in (list(range(n0)), list(range(d - n0, d))):
                field = bitio.write_subset(positions, d, n0)
                assert len(field) == blocked_width(positions, d)
                assert bitio.read_subset(BitCursor(field), d, n0) == positions

    @pytest.mark.parametrize("d,n0", [(0, 1), (1, 2), (10, 11), (10, 1000)])
    def test_read_rejects_subset_larger_than_dimension(self, d, n0):
        with pytest.raises(MalformedCodeError, match="exceeds dimension"):
            bitio.read_subset(BitCursor(BitString([0] * 64)), d, n0)

    @pytest.mark.parametrize("d,n0", [(10, 5), (10, 2)])
    def test_read_rejects_out_of_range_rank(self, d, n0):
        total = math.comb(d, n0)
        width = bitio.subset_code_width(d, n0)
        last = bitio.read_subset(BitCursor(bitio.write_fixed(total - 1, width)), d, n0)
        assert last == list(range(d - n0, d))
        for rank in (total, 2 ** width - 1):
            with pytest.raises(MalformedCodeError):
                bitio.read_subset(BitCursor(bitio.write_fixed(rank, width)), d, n0)


B = bitio.SUBSET_BLOCK


def blocked_field(counts, ranks, d):
    """A subset field written field by field: each block's count (but the
    last block's) and rank, in the widths of the layout."""
    parts, left = [], sum(counts)
    for b, (n, rank) in enumerate(zip(counts, ranks)):
        length = min(B, d - b * B)
        if b < len(counts) - 1:
            parts.append(bitio.write_fixed(n, min(length, left).bit_length()))
        parts.append(bitio.write_fixed(rank, bitio.subset_code_width(length, n)))
        left -= n
    return BitString.concat(parts)


class TestBlockedSubset:
    """The subset field above d = SUBSET_BLOCK: a count and a rank per block."""

    @pytest.mark.parametrize("d", [B - 1, B, B + 1, 2 * B + 3, 10**5])
    def test_round_trip(self, d):
        rng = np.random.default_rng(d)
        edges = sorted({p for e in range(0, d + 1, B) for p in (e - 1, e) if 0 <= p < d})
        sets = [[], [0], [d - 1], list(range(d)), edges,
                list(range(B // 2, min(d, B))),  # every member in one block
                sorted(rng.choice(d, size=d // 3, replace=False).tolist()),
                sorted(rng.choice(d, size=d - 5, replace=False).tolist())]
        for positions in sets:
            n0 = len(positions)
            field = bitio.write_subset(positions, d, n0)
            assert len(field) == blocked_width(positions, d)
            cursor = BitCursor(field + BitString([1, 0]))
            assert bitio.read_subset(cursor, d, n0) == positions
            assert cursor.remaining() == 2

    @pytest.mark.parametrize("d", [1, 2, 17, 1000, B - 1, B])
    def test_single_rank_at_or_below_block(self, d):
        rng = np.random.default_rng(d)
        for n0 in {0, 1, d // 7, d // 2, d - 1, d}:
            positions = sorted(rng.choice(d, size=n0, replace=False).tolist())
            assert bitio.write_subset(positions, d, n0) == bitio.write_fixed(
                bitio.subset_rank(positions, d, n0), bitio.subset_code_width(d, n0))

    @pytest.mark.parametrize("positions,n0", [
        ([1, 1], 2), ([3, 1], 2), ([-1], 1), ([10 * B + 7], 1), ([0, 1], 3),
    ])
    def test_writer_rejects_bad_positions(self, positions, n0):
        with pytest.raises(ValueError):
            bitio.write_subset(positions, 10 * B + 7, n0)

    @pytest.mark.parametrize("n0,fields,match", [
        # (value, width) fields; block 0 holds one member at rank 0, then
        # block 1's 3-bit count is above the 4 members left
        (5, [(1, 3), (0, bitio.subset_code_width(B, 1)), (6, 3)], "exceeds"),
        # a count above its block's length
        (B + 10, [(0, B.bit_length()), (B + 1, B.bit_length())], "exceeds"),
        # after blocks 0 and 1, four members left for the last block's 3 coordinates
        (5, [(1, 3), (0, bitio.subset_code_width(B, 1)), (0, 3)], "members left"),
    ], ids=["above-left", "above-block", "last-overfull"])
    def test_bad_counts_are_malformed_before_any_unrank(self, monkeypatch, n0, fields, match):
        d = 2 * B + 3
        unranked = []
        monkeypatch.setattr(bitio, "_unrank", lambda *a: unranked.append(a) or [])
        field = BitString.concat([bitio.write_fixed(v, w) for v, w in fields]
                                 + [BitString([0] * 64)])
        with pytest.raises(MalformedCodeError, match=match):
            bitio.read_subset(BitCursor(field), d, n0)
        assert unranked == []

    def test_out_of_range_block_rank_is_malformed(self):
        d, total = 2 * B + 3, math.comb(B, 2)
        last = blocked_field([2, 0, 0], [total - 1, 0, 0], d)
        assert bitio.read_subset(BitCursor(last), d, 2) == [B - 2, B - 1]
        bad = bitio.write_fixed(2, 2) + bitio.write_fixed(total, bitio.subset_code_width(B, 2))
        with pytest.raises(MalformedCodeError, match="out of range"):
            bitio.read_subset(BitCursor(bad), d, 2)

    def test_block_length_check_runs_before_its_binomial(self, monkeypatch):
        # a count of B/2 with nothing after it: C(B, B/2) is never computed
        d = 2 * B
        calls = []
        binom = bitio.binom
        monkeypatch.setattr(bitio, "binom", lambda n, k: calls.append((n, k)) or binom(n, k))
        field = bitio.write_fixed(B // 2, (B // 2).bit_length())
        with pytest.raises(TruncatedStreamError):
            bitio.read_subset(BitCursor(field), d, B // 2)
        assert calls == []

    def test_forged_maximum_ranks_decode_in_linear_time(self):
        # every nonempty block at its largest rank, so each unrank walks its
        # whole block: about 0.2 s, where a forged rank of the same size
        # over C(2^20, 2048) took 2.9 s (README, "Wire format")
        d, n0 = 1 << 20, 2048
        blocks = d // B
        counts = [n0 // blocks] * blocks
        ranks = [math.comb(B, n) - 1 for n in counts]
        field = blocked_field(counts, ranks, d)
        expected = [b * B + p for b, n in enumerate(counts) for p in range(B - n, B)]
        assert bitio.read_subset(BitCursor(field), d, n0) == expected
        assert bitio.write_subset(expected, d, n0) == field


class TestFloatMagnitude:
    def test_zero_is_31_zero_bits(self):
        assert bitio.write_float_magnitude(0.0).to01() == "0" * 31

    def test_one_layout(self):
        # binary32 1.0: exponent 01111111, mantissa zero (sign bit dropped)
        assert bitio.write_float_magnitude(1.0).to01() == "0111111" + "1" + "0" * 23

    @given(st.floats(0.0, 1e6))
    def test_round_trip_is_binary32(self, value):
        cur = BitCursor(bitio.write_float_magnitude(value))
        assert bitio.read_float_magnitude(cur) == float(np.float32(value))

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, 1e39])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            bitio.write_float_magnitude(bad)

    def test_largest_finite_field_reads_back(self):
        cur = BitCursor(bitio.write_fixed(0x7F7FFFFF, 31))
        assert bitio.read_float_magnitude(cur) == float(np.finfo(np.float32).max)

    @pytest.mark.parametrize("word", [0x7F800000, 0x7FC00000, 0x7FFFFFFF], ids=hex)
    def test_non_finite_field_is_malformed(self, word):
        # all exponent bits set: inf or NaN, which no encoder writes
        with pytest.raises(MalformedCodeError):
            bitio.read_float_magnitude(BitCursor(bitio.write_fixed(word, 31)))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_block_overflow_edge(self, sign):
        # binary32 rounds to inf from 2^128 - 2^104 + 2^103 up; just below,
        # to its largest finite value 2^128 - 2^104
        edge = 2.0**128 - 2.0**103
        with pytest.raises(ValueError, match="finite in binary32"):
            bitio.write_float32_block([1.0, sign * edge])
        below = np.nextafter(edge, 0.0)
        cur = BitCursor(bitio.write_float32_block([1.0, sign * below]))
        got = bitio.read_float32_block(cur, 2)
        assert got.tolist() == [1.0, sign * float(np.finfo(np.float32).max)]

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_block_value_rejected(self, bad):
        with pytest.raises(ValueError, match="finite in binary32"):
            bitio.write_float32_block([1.0, bad])

    @pytest.mark.parametrize("bad", [
        math.inf, -math.inf, math.nan,
        # signalling NaNs, whose cast to float64 raises numpy's invalid flag
        pytest.param(0x7F800001, id="0x7f800001"), pytest.param(0xFF800001, id="0xff800001"),
    ])
    def test_non_finite_block_value_is_malformed(self, bad):
        middle = struct.pack(">I" if isinstance(bad, int) else ">f", bad)
        raw = struct.pack(">f", 1.0) + middle + struct.pack(">f", -2.0)
        with pytest.raises(MalformedCodeError):
            bitio.read_float32_block(BitCursor(BitString.from_bytes(raw, 96)), 3)

    @given(st.floats(-1e6, 1e6))
    def test_signed_float32_round_trip(self, value):
        cur = BitCursor(bitio.write_float32_block([value]))
        got = bitio.read_float32_block(cur, 1)[0]
        assert got == struct.unpack(">f", struct.pack(">f", value))[0]
        assert cur.remaining() == 0

    def test_block_matches_scalar(self):
        values = [0.25, -3.5, 1e-3, 7.0]
        block = bitio.write_float32_block(values)
        scalar = b"".join(struct.pack(">f", v) for v in values)
        assert block == BitString.from_bytes(scalar, 32 * len(values))
        out = bitio.read_float32_block(BitCursor(block), len(values))
        assert out.tolist() == [float(np.float32(v)) for v in values]


class TestContainer:
    def test_round_trip(self):
        payload = BitString([1, 0, 1, 1, 0])
        blob = bitio.pack_container(3, 17, payload)
        assert blob[:4] == b"GCV1"
        tag, d, got = bitio.unpack_container(blob)
        assert (tag, d) == (3, 17)
        assert got == payload

    def test_bad_magic(self):
        with pytest.raises(DecodeError):
            bitio.unpack_container(b"XXXX" + bytes(9))

    def test_too_short(self):
        with pytest.raises(DecodeError):
            bitio.unpack_container(b"GCV1")

    def test_declared_bits_exceed_payload(self):
        blob = bitio.pack_container(1, 4, BitString([1, 1]))
        broken = blob[:9] + (99).to_bytes(4, "little") + blob[13:]
        with pytest.raises(DecodeError):
            bitio.unpack_container(broken)

    def test_trailing_byte_rejected(self):
        blob = bitio.pack_container(1, 4, BitString([1, 1]))
        with pytest.raises(DecodeError, match="trailing bytes"):
            bitio.unpack_container(blob + b"\x00")

    def test_nonzero_padding_bit_rejected(self):
        blob = bitio.pack_container(1, 4, BitString([1, 1]))
        with pytest.raises(DecodeError, match="padding"):
            bitio.unpack_container(blob[:-1] + bytes([blob[-1] | 1]))

    def test_dimension_limit(self):
        payload = BitString([1])
        with pytest.raises(ValueError):
            bitio.pack_container(1, bitio.MAX_D + 1, payload)
        blob = bitio.pack_container(1, bitio.MAX_D, payload)
        assert bitio.unpack_container(blob)[1] == bitio.MAX_D

    def test_dimension_above_limit_rejected_without_allocation(self):
        # a dsd header near d = 2^32 over a zero scale and a zero count:
        # decoding it would allocate d float64 values
        payload = bitio.write_float_magnitude(0.0) + bitio.write_fixed(0, 32)
        blob = (b"GCV1" + bytes([1]) + (2**32 - 1).to_bytes(4, "little")
                + len(payload).to_bytes(4, "little") + payload.to_bytes())
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(DecodeError, match="MAX_D"):
                bitio.unpack_container(blob)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.01
        assert peak < 2**20
