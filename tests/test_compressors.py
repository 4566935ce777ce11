import dataclasses
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from gradcodec import bitio, compressors as comp
from gradcodec.bitio import BitCursor, BitString
from gradcodec.compressors import (CODECS, GiveUpError, OperatorConfig, decode_payload,
                                   make_operator)
from gradcodec.geometry import CapParams, cap_probability
from gradcodec.rng import message_stream


# one configuration per operator kind, for d = 24
CONFIGS = {c.kind: c for c in (
    OperatorConfig("dsd", nu=0.1),
    OperatorConfig("rsd", nu=0.25, seed=1),
    OperatorConfig("sc", alpha=0.7, seed=2),
    OperatorConfig("topk", k=6),
    OperatorConfig("randsparse", k=6, seed=3),
    OperatorConfig("dither", levels=5, seed=4),
    OperatorConfig("ternary", seed=5),
    OperatorConfig("natural", seed=6),
    OperatorConfig("identity"),
)}


def sd_bit_formula(d, n0, levels_sum):
    return (31 + d.bit_length() + bitio.subset_code_width(d, n0)
            + (d - n0) + levels_sum)


class TestDeterministicSparseDithering:
    def test_worked_example(self):
        # x=(3,4), nu=0.1: h=sqrt(0.05), u=(0.6,0.8), levels (1,2), C(x)=(2.2,4.4)
        x = np.array([3.0, 4.0])
        levels, signs = comp.dsd_quantize(x, 0.1)
        assert levels.tolist() == [1, 2]
        assert signs.tolist() == [1, 1]
        payload, out = make_operator(CONFIGS["dsd"]).compress_at(x, 0)
        assert out.reconstructed == pytest.approx([2.2, 4.4], abs=1e-6)
        assert out.distortion == pytest.approx(0.032, abs=1e-9)
        assert out.bits == sd_bit_formula(2, 0, 3) == 38

    def test_round_trip_matches_encoder(self):
        rng = np.random.default_rng(0)
        op = make_operator(CONFIGS["dsd"])
        for d in (1, 2, 3, 17, 120):
            for _ in range(20):
                x = rng.standard_normal(d) * rng.lognormal()
                payload, out = op.compress_at(x, 0)
                rec = decode_payload(op.config, payload, d)
                assert np.array_equal(rec, out.reconstructed)

    def test_distortion_below_nu_and_sin2(self):
        rng = np.random.default_rng(1)
        for nu in (0.05, 0.1, 0.5, 1.0, 2.0):
            for d in (1, 2, 3, 10, 64):
                x = rng.standard_normal(d) * 3
                _, out = make_operator(OperatorConfig("dsd", nu=nu)).compress_at(x, 0)
                assert out.distortion <= min(nu, 1.0) + 1e-12
                levels, signs = comp.dsd_quantize(x, nu)
                u_hat = signs * 2.0 * math.sqrt(nu / d) * levels
                if np.any(u_hat != 0.0):
                    cos = np.dot(x, u_hat) / (np.linalg.norm(x) * np.linalg.norm(u_hat))
                    sin2 = max(0.0, 1.0 - cos * cos)
                    assert out.distortion <= sin2 + 1e-12

    def test_bits_formula_exact(self):
        rng = np.random.default_rng(2)
        for d in (2, 17, 300):
            x = rng.standard_normal(d)
            levels, _ = comp.dsd_quantize(x, 0.1)
            n0 = int((levels == 0).sum())
            payload, out = make_operator(CONFIGS["dsd"]).compress_at(x, 0)
            assert out.bits == sd_bit_formula(d, n0, int(levels.sum()))

    def test_zero_vector_message(self):
        d = 9
        payload, out = make_operator(CONFIGS["dsd"]).compress_at(np.zeros(d), 0)
        assert out.bits == 31 + d.bit_length()
        assert out.distortion == 0.0
        assert np.array_equal(decode_payload(CONFIGS["dsd"], payload, d), np.zeros(d))

    def test_all_coordinates_collapse_when_nu_above_one(self):
        # every |u_i| < h is only possible for nu >= 1; spec: C(x)=0, phi=pi/2
        x = np.array([0.5, 0.5, 0.5, 0.5])
        payload, out = make_operator(OperatorConfig("dsd", nu=2.5)).compress_at(x, 0)
        assert np.array_equal(out.reconstructed, np.zeros(4))
        assert out.distortion == 1.0
        levels, _ = comp.dsd_quantize(x, 2.5)
        assert levels.tolist() == [0, 0, 0, 0]

    def test_scale_invariance_of_levels(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(40)
        l1, s1 = comp.dsd_quantize(x, 0.1)
        l2, s2 = comp.dsd_quantize(3.7 * x, 0.1)
        assert np.array_equal(l1, l2)
        assert np.array_equal(s1, s2)

    def test_midpoint_rounds_down(self):
        # d=1, nu=1/9: |u|=1 sits exactly between levels 1 (2h=2/3) and 2 (4/3)
        levels, _ = comp.dsd_quantize(np.array([5.0]), 1.0 / 9.0)
        assert levels.tolist() == [1]
        # d=1, nu=1: |u|=1 is exactly h, midway between level 0 and level 1
        levels, _ = comp.dsd_quantize(np.array([5.0]), 1.0)
        assert levels.tolist() == [0]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            make_operator(CONFIGS["dsd"]).compress_at([1.0, math.nan], 0)
        with pytest.raises(ValueError):
            OperatorConfig("dsd", nu=0.0)
        with pytest.raises(ValueError):
            OperatorConfig("rsd", nu=math.nan)

    def test_truncated_payload(self):
        payload, _ = make_operator(CONFIGS["dsd"]).compress_at(np.array([3.0, 4.0]), 0)
        cut = BitString.from_bytes(payload.to_bytes(), len(payload) - 5)
        with pytest.raises(bitio.DecodeError):
            decode_payload(CONFIGS["dsd"], cut, 2)


class TestRandomizedSparseDithering:
    def test_two_neighbor_rounding_probability(self):
        # |u_0|=0.5 with h=0.2 rounds down to 0.4 w.p. 0.75, up to 0.8 w.p. 0.25
        x = np.array([0.5, math.sqrt(0.75)])
        nu = 2 * 0.2 ** 2
        n = 20_000
        ups = 0
        op = make_operator(OperatorConfig("rsd", nu=nu, seed=17))
        for i in range(n):
            _, out = op.compress_at(x, i)
            v = float(out.reconstructed[0])
            assert min(abs(v - 0.4), abs(v - 0.8)) < 1e-6
            if v > 0.6:
                ups += 1
        p_hat = ups / n
        assert abs(p_hat - 0.25) < 4.0 * math.sqrt(0.25 * 0.75 / n)

    def test_round_trip(self):
        gen = np.random.default_rng(4)
        op = make_operator(OperatorConfig("rsd", nu=0.25, seed=31))
        for d in (2, 17, 256):
            for i in range(30):
                x = gen.standard_normal(d)
                payload, out = op.compress_at(x, i)
                assert np.array_equal(decode_payload(op.config, payload, d, i),
                                      out.reconstructed)

    def test_zero_vector(self):
        config = OperatorConfig("rsd", nu=0.25, seed=1)
        payload, out = make_operator(config).compress_at(np.zeros(5), 0)
        assert np.array_equal(decode_payload(config, payload, 5), np.zeros(5))

    def test_levels_scale_invariant(self):
        x = message_stream(9, 0).standard_normal(30)
        op = make_operator(OperatorConfig("rsd", nu=0.25, seed=5))
        p1, o1 = op.compress_at(x, 3)
        p2, o2 = op.compress_at(10.0 * x, 3)
        # same stream, same unit direction: identical levels and signs,
        # gamma differs by the norm factor only
        c1, c2 = BitCursor(p1), BitCursor(p2)
        g1 = bitio.read_float_magnitude(c1)
        g2 = bitio.read_float_magnitude(c2)
        assert g2 == pytest.approx(10.0 * g1, rel=1e-6)
        rest1 = c1._take(c1.remaining())
        rest2 = c2._take(c2.remaining())
        assert np.array_equal(rest1, rest2)


class TestSphericalCompression:
    def test_trial_count_geometric_mean(self):
        alpha, d, n = 0.5, 3, 10_000
        p = cap_probability(CapParams(alpha, d))
        gen = message_stream(40, 0)
        m = comp.sc_code(alpha, d)[0]
        ts = np.empty(n)
        op = make_operator(OperatorConfig("sc", alpha=alpha, seed=41))
        for i in range(n):
            x = gen.standard_normal(d)
            payload, _ = op.compress_at(x, i)
            cur = BitCursor(payload)
            bitio.read_float_magnitude(cur)
            ts[i] = bitio.golomb_rice_decode(cur, m)
        expect = 1.0 / p
        tol = 4.0 * math.sqrt((1 - p) / p**2 / n)
        assert abs(ts.mean() - expect) < tol

    def test_strict_contraction_every_message(self):
        gen = message_stream(42, 0)
        for alpha, d in ((0.3, 3), (0.5, 3), (0.7, 10), (0.9, 25)):
            op = make_operator(OperatorConfig("sc", alpha=alpha, seed=43))
            for i in range(200):
                x = gen.standard_normal(d) * gen.lognormal()
                _, out = op.compress_at(x, i)
                err = out.reconstructed - x
                assert float(np.dot(err, err)) <= alpha * float(np.dot(x, x))

    def test_decoder_replays_encoder(self):
        gen = message_stream(44, 0)
        op = make_operator(OperatorConfig("sc", alpha=0.3, seed=45))
        for i in range(200):
            x = gen.standard_normal(10)
            payload, out = op.compress_at(x, i)
            rec = decode_payload(op.config, payload, 10, i)
            assert np.array_equal(rec, out.reconstructed)

    def test_wrong_seed_breaks_contraction(self):
        gen = message_stream(46, 0)
        violations = 0
        op = make_operator(OperatorConfig("sc", alpha=0.3, seed=47))
        wrong = OperatorConfig("sc", alpha=0.3, seed=48)
        for i in range(50):
            x = gen.standard_normal(10)
            payload, _ = op.compress_at(x, i)
            rec = decode_payload(wrong, payload, 10, i)
            err = rec - x
            if float(np.dot(err, err)) > 0.3 * float(np.dot(x, x)):
                violations += 1
        assert violations >= 45

    def test_near_one_alpha_single_trial(self):
        m = comp.sc_code(0.999, 3)[0]
        bits = []
        gen = message_stream(49, 0)
        op = make_operator(OperatorConfig("sc", alpha=0.999, seed=50))
        for i in range(20):
            payload, out = op.compress_at(gen.standard_normal(3), i)
            bits.append(out.bits)
        assert min(bits) == 31 + 1 + m  # T=1 message

    def test_zero_vector(self):
        config = OperatorConfig("sc", alpha=0.5, seed=1)
        payload, out = make_operator(config).compress_at(np.zeros(4), 0)
        assert out.bits == 31
        assert np.array_equal(decode_payload(config, payload, 4, 0), np.zeros(4))

    def test_give_up_at_tiny_cap(self):
        x = message_stream(51, 0).standard_normal(10)
        with pytest.raises(GiveUpError):
            comp.sc_compress(x, 0.3, 52, 0, trial_cap=1)

    def test_decoder_rejects_absurd_trial_count(self):
        m, cap, _ = comp.sc_code(0.5, 3)
        fake = bitio.write_float_magnitude(1.0) + bitio.golomb_rice_encode(cap + 1, m)
        with pytest.raises(bitio.MalformedCodeError):
            decode_payload(OperatorConfig("sc", alpha=0.5, seed=1), fake, 3, 0)

    @pytest.mark.parametrize("d", [0, 1])
    def test_nonzero_norm_below_d2_is_malformed(self, d):
        # sc_compress takes only x = 0 there, whose message still decodes
        config = OperatorConfig("sc", alpha=0.5, seed=1)
        zero = bitio.write_float_magnitude(0.0)
        assert decode_payload(config, zero, d).tolist() == [0.0] * d
        if d:
            assert make_operator(config).compress_at(np.zeros(d), 0)[0] == zero
        bad = bitio.write_float_magnitude(1.0) + bitio.golomb_rice_encode(1, 1)
        with pytest.raises(bitio.MalformedCodeError, match=f"nonzero SC norm at d={d}"):
            decode_payload(config, bad, d)

    @staticmethod
    def record_draws(monkeypatch):
        """The (rows, d) shape of every Gaussian block the codec draws,
        whether it is drawn as a new array or into `out`."""
        shapes = []

        class Recording:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, shape=None, out=None):
                shapes.append(shape if out is None else out.shape)
                return self.rng.standard_normal(shape, out=out)

        monkeypatch.setattr(comp, "message_stream",
                            lambda seed, i: Recording(message_stream(seed, i)))
        return shapes

    def test_replay_draws_exactly_t_rows(self, monkeypatch):
        # at d=4096 a draw holds at most 2^15 values, 8 rows
        d, alpha, T = 4096, 0.9, 1100
        shapes = self.record_draws(monkeypatch)
        m = comp.sc_code(alpha, d)[0]
        payload = bitio.write_float_magnitude(2.0) + bitio.golomb_rice_encode(T, m)
        rec = decode_payload(OperatorConfig("sc", alpha=alpha, seed=7), payload, d, 0)
        assert shapes == [(8, d)] * 137 + [(4, d)]
        w = message_stream(7, 0).standard_normal((T, d))[-1]
        assert np.array_equal(rec, comp._sc_vector(2.0, alpha, w))

    def test_encoder_draws_under_one_block_past_t(self, monkeypatch):
        # d=20, alpha=0.5: 1/P near 5.9e3, so T often spans several blocks
        d, alpha = 20, 0.5
        block = comp.sc_code(alpha, d)[2]
        shapes = self.record_draws(monkeypatch)
        gen = message_stream(55, 0)
        op = make_operator(OperatorConfig("sc", alpha=alpha, seed=56))
        for i in range(20):
            shapes.clear()
            payload, out = op.compress_at(gen.standard_normal(d), i)
            drawn = sum(rows for rows, _ in shapes)
            T = comp._sc_fields(BitCursor(payload), d, alpha)[1]
            assert T <= drawn < T + block
            assert max(rows for rows, _ in shapes) <= block
            shapes.clear()
            assert np.array_equal(op.decompress(payload, d, i), out.reconstructed)
            assert sum(rows for rows, _ in shapes) == T
            w = message_stream(56, i).standard_normal((T, d))[-1]
            assert np.array_equal(out.reconstructed, comp._sc_vector(
                bitio.read_float_magnitude(BitCursor(payload)), alpha, w))

    def test_encoder_draws_at_most_2_15_values(self, monkeypatch):
        # (0.9, 4096): 1/P near 2.5e95, so the block is the largest, 8 rows
        d, alpha = 4096, 0.9
        shapes = self.record_draws(monkeypatch)
        x = message_stream(57, 0).standard_normal(d)
        with pytest.raises(GiveUpError):
            comp.sc_compress(x, alpha, 58, 0, trial_cap=1100)
        assert shapes == [(8, d)] * 137 + [(4, d)]

    @pytest.mark.parametrize("trial_cap", [0, -3])
    def test_give_up_at_no_trials(self, monkeypatch, trial_cap):
        shapes = self.record_draws(monkeypatch)
        with pytest.raises(GiveUpError):
            comp.sc_compress(np.ones(10), 0.3, 52, 0, trial_cap=trial_cap)
        assert shapes == []

    def test_working_memory_is_one_capped_block(self):
        # a 2^15-value block is 256 KiB; the decoder replays T near the cap
        # at (0.5, 20), 1638 rows a block, and the encoder gives up after
        # 1100 rows at (0.9, 4096), 8 rows a block.  Besides the block,
        # each side holds arrays of one value a row and the decoded vector.
        block_bytes = 8 * (1 << 15)
        d, alpha = 20, 0.5
        m, cap, _ = comp.sc_code(alpha, d)
        T = cap - 1
        payload = bitio.write_float_magnitude(2.0) + bitio.golomb_rice_encode(T, m)
        config = OperatorConfig("sc", alpha=alpha, seed=7)
        rec, decode_peak = traced_peak(lambda: decode_payload(config, payload, d, 0))
        w = message_stream(7, 0).standard_normal((T, d))[-1]
        assert np.array_equal(rec, comp._sc_vector(2.0, alpha, w))
        assert decode_peak <= block_bytes + (16 << 10)

        d = 4096
        x = message_stream(57, 0).standard_normal(d)

        def give_up():
            with pytest.raises(GiveUpError):
                comp.sc_compress(x, 0.9, 58, 0, trial_cap=1100)
        _, encode_peak = traced_peak(give_up)
        assert encode_peak <= block_bytes + (16 << 10)

    def test_trailing_bit_rejected_before_the_replay(self, monkeypatch):
        # T = the cap is a valid count, whose replay would draw cap rows
        d, alpha = 3, 0.5
        m, cap, _ = comp.sc_code(alpha, d)
        payload = bitio.write_float_magnitude(1.0) + bitio.golomb_rice_encode(cap, m)
        shapes = self.record_draws(monkeypatch)
        with pytest.raises(bitio.DecodeError, match="1 trailing bits"):
            decode_payload(OperatorConfig("sc", alpha=alpha, seed=1), payload + BitString([0]), d)
        assert sum(rows for rows, _ in shapes) == 0

    def test_payload_sandwich_high_dimension(self):
        # feasible d=50 setting: alpha=0.98 keeps 1/P small
        alpha, d, n = 0.98, 50, 400
        p = cap_probability(CapParams(alpha, d))
        gen = message_stream(53, 0)
        bits = np.empty(n)
        op = make_operator(OperatorConfig("sc", alpha=alpha, seed=54))
        for i in range(n):
            _, out = op.compress_at(gen.standard_normal(d), i)
            bits[i] = out.bits - 31
        lower = -math.log2(p)
        assert lower <= bits.mean() < lower + 3.0


class TestScaleField:
    @pytest.mark.parametrize("value", [
        0.0, -0.0, 2.0**-149, math.nextafter(2.0**-150, 1.0), 2.0**-126, 0.1,
        3.4028234663852886e38,  # the largest binary32
    ])
    def test_reads_back_as_the_decoder_does(self, value):
        field, back = comp._scale_field(value)
        assert back == bitio.read_float_magnitude(BitCursor(field))
        assert math.copysign(1.0, back) == 1.0

    @pytest.mark.parametrize("value,message", [
        (2.0**-150, "smallest subnormal"),  # the tie rounds to even, 0
        (math.nextafter(2.0**-150, 0.0), "smallest subnormal"),
        (3.4028235677973366e38, "overflows"),  # the largest binary32 + half an ulp
        (2.0**128, "overflows"),
    ])
    def test_rejects_what_reads_back_wrong(self, value, message):
        with pytest.raises(ValueError, match=message):
            comp._scale_field(value)


class TestBaselines:
    @pytest.mark.parametrize("kind", ["topk", "randsparse"])
    def test_more_kept_than_coordinates_is_malformed(self, kind):
        # a k=2 message of d=2, read at d=1 with k=2: its 0-bit rank field
        # would name 2 of 1 coordinates
        config = OperatorConfig(kind, k=2, seed=1)
        payload, _ = make_operator(config).compress_at(np.array([1.0, -2.0]), 0)
        with pytest.raises(bitio.MalformedCodeError, match="subset size 2 exceeds dimension 1"):
            decode_payload(config, payload, 1)

    def test_topk_example(self):
        config = OperatorConfig("topk", k=1)
        payload, out = make_operator(config).compress_at(np.array([1.0, -3.0, 2.0]), 0)
        assert np.array_equal(out.reconstructed, [0.0, -3.0, 0.0])
        assert out.distortion == pytest.approx(5.0 / 14.0)
        assert out.bits == 32 + bitio.subset_code_width(3, 1)
        assert np.array_equal(decode_payload(config, payload, 3), out.reconstructed)

    def test_topk_deterministic_tie_break(self):
        _, out = make_operator(OperatorConfig("topk", k=1)).compress_at(
            np.array([2.0, -2.0, 1.0]), 0)
        assert np.array_equal(out.reconstructed, [2.0, 0.0, 0.0])

    def test_topk_full_k_is_float32_identity(self):
        x = np.array([0.1, -7.25, 3.3])
        _, out = make_operator(OperatorConfig("topk", k=3)).compress_at(x, 0)
        assert np.array_equal(out.reconstructed, x.astype(np.float32))

    def test_random_sparsify_round_trip(self):
        x = message_stream(10, 0).standard_normal(12)
        config = OperatorConfig("randsparse", k=4, seed=61)
        payload, out = make_operator(config).compress_at(x, 5)
        assert np.array_equal(decode_payload(config, payload, 12, 5), out.reconstructed)
        assert out.bits == 32 * 4 + bitio.subset_code_width(12, 4)

    def test_dither_values_and_bits(self):
        x = message_stream(11, 0).standard_normal(25)
        s = 5
        config = OperatorConfig("dither", levels=s, seed=62)
        payload, out = make_operator(config).compress_at(x, 0)
        norm32 = float(np.float32(np.linalg.norm(x)))
        levels = np.rint(np.abs(out.reconstructed) / norm32 * s).astype(int)
        assert (levels <= s).all()
        nnz = int((levels > 0).sum())
        assert out.bits == 31 + 25 + int(levels.sum()) + nnz
        assert np.array_equal(decode_payload(config, payload, 25), out.reconstructed)

    def test_dither_mean_bits_under_nominal(self):
        # the nominal accounting for s=sqrt(d) dithering is ~2.8 bits/dim
        d = 10_000
        s = 100
        gen = message_stream(13, 0)
        total = 0
        n = 20
        op = make_operator(OperatorConfig("dither", levels=s, seed=64))
        for i in range(n):
            x = gen.standard_normal(d)
            _, out = op.compress_at(x, i)
            total += out.bits
        assert total / n <= 2.8 * d + 64
        assert total / n >= 1.5 * d

    def test_ternary_is_single_level(self):
        x = message_stream(14, 0).standard_normal(8)
        config = OperatorConfig("ternary", seed=65)
        payload, out = make_operator(config).compress_at(x, 0)
        norm32 = float(np.float32(np.linalg.norm(x)))
        vals = set(np.round(out.reconstructed / norm32, 9).tolist())
        assert vals <= {-1.0, 0.0, 1.0}
        assert np.array_equal(decode_payload(config, payload, 8), out.reconstructed)

    def test_natural_nine_bits_per_coordinate(self):
        gen = message_stream(15, 0)
        op = make_operator(OperatorConfig("natural", seed=66))
        for d in (1, 7, 64):
            x = gen.standard_normal(d) * 100
            payload, out = op.compress_at(x, d)
            assert out.bits == 9 * d
            assert np.array_equal(op.decompress(payload, d, d), out.reconstructed)
            nz = x != 0
            ratio = np.abs(out.reconstructed[nz]) / np.abs(x[nz])
            assert (ratio >= 0.5 - 1e-9).all() and (ratio <= 2.0 + 1e-9).all()
            exps = np.log2(np.abs(out.reconstructed[nz]))
            assert np.allclose(exps, np.round(exps))

    def test_natural_zero_coordinates(self):
        x = np.array([0.0, 2.0, 0.0])
        payload, out = make_operator(OperatorConfig("natural", seed=68)).compress_at(x, 0)
        assert out.reconstructed[0] == 0.0 and out.reconstructed[2] == 0.0
        assert out.reconstructed[1] == 2.0  # exact power of two is kept

    def test_natural_unbiased_below_normal_range(self):
        # below 2^-126 the exponent field rounds between 0 and 2^-126
        x = np.array([1e-40, -3e-39])
        n = 4000
        op = make_operator(OperatorConfig("natural", seed=69))
        recs = np.array([op.compress_at(x, i)[1].reconstructed for i in range(n)])
        assert set(np.abs(recs).ravel()) <= {0.0, 2.0 ** -126}
        se = recs.std(axis=0, ddof=1) / math.sqrt(n)
        assert (np.abs(recs.mean(axis=0) - x) <= 4.0 * se).all()

    def test_natural_exponent_range(self):
        op = make_operator(OperatorConfig("natural", seed=70))
        _, out = op.compress_at([2.0 ** 127, 2.0 ** -126], 0)
        assert list(out.reconstructed) == [2.0 ** 127, 2.0 ** -126]
        with pytest.raises(ValueError):
            op.compress_at([3e38], 1)

    def test_natural_matches_the_bit_matrix_reference(self):
        # the exponent as lower + (u < (|x| - a)/a) + 127 with a = 2^lower,
        # written out as a d x 9 bit matrix
        def reference(x, u):
            ax = np.abs(x)
            _, ex = np.frexp(ax)
            a = np.ldexp(1.0, ex - 1)
            efield = np.where(ax < 2.0 ** -126, u < ax * 2.0 ** 126,
                              ex - 1 + (u < (ax - a) / a) + 127).astype(np.int64)
            bits9 = np.empty((x.size, 9), dtype=np.uint8)
            bits9[:, 0] = x < 0.0
            for j in range(8):
                bits9[:, 1 + j] = (efield >> (7 - j)) & 1
            return BitString(bits9.reshape(-1))

        tiny = 2.0 ** -126
        edges = [0.0, -0.0, 1.0, -1.0, 2.0 ** 127, -(2.0 ** 127), tiny, -tiny,
                 np.nextafter(tiny, 0.0), np.nextafter(tiny, 1.0), 5e-324, 1e-40,
                 np.nextafter(1.0, 0.0), np.nextafter(2.0, 4.0), 3.0, 0.75]
        gen = message_stream(71, 0)
        op = make_operator(OperatorConfig("natural", seed=72))
        for d in (1, 7, 8, 9, 16, 1000):
            x = gen.standard_normal(d) * 2.0 ** gen.integers(-140, 120, size=d)
            x[:len(edges)] = edges[:d]
            payload, out = op.compress_at(x, d)
            assert payload == reference(x, message_stream(72, d).random(d))
            assert np.array_equal(op.decompress(payload, d, d), out.reconstructed)

    def test_identity(self):
        x = np.array([1.5, -2.25, 3.1])
        payload, out = make_operator(CONFIGS["identity"]).compress_at(x, 0)
        assert out.bits == 96
        assert np.array_equal(decode_payload(CONFIGS["identity"], payload, 3),
                              out.reconstructed)
        assert out.reconstructed == pytest.approx(x, rel=1e-6)


def traced_peak(step):
    """(step(), the tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        return step(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["dither", "ternary", "natural", "identity"])
def test_dense_codecs_make_no_vector_sized_temporaries(kind):
    # at d = 2^20, 16 blocks, the encoder holds its reconstruction, the
    # distortion's error vector, the levels and the payload; the decoder
    # its reconstruction and the levels
    d = 1 << 20
    config = OperatorConfig("dither", levels=1024, seed=4) if kind == "dither" else CONFIGS[kind]
    gen = message_stream(24, 0)
    x = gen.standard_normal(d) * np.exp(gen.standard_normal(d))
    op = make_operator(config)
    (payload, _), encode_peak = traced_peak(lambda: op.compress_at(x, 0))
    _, decode_peak = traced_peak(lambda: op.decompress(payload, d, 0))
    assert encode_peak <= 3.5 * 8 * d
    assert decode_peak <= 2.5 * 8 * d


# every CODECS row's example, and a wrapped rsd, whose claim is derived
CLAIM_CASES = [*CODECS, "rsd-wrapped"]


@pytest.mark.parametrize("d", [50, 1000])
@pytest.mark.parametrize("case", CLAIM_CASES)
def test_every_row_meets_its_claim(case, d):
    # contractive rows bound every message's distortion.  An unbiased
    # claim, and the wrap's, which holds in expectation, bounds the mean
    # distortion within 4 SE.  Slack for binary32 rounding of a sent value:
    # 2^-24 relative, squared 2^-48.
    n = 400
    config = CODECS[case.removesuffix("-wrapped")].example(d)
    if case == "rsd-wrapped":
        config = dataclasses.replace(config, wrap_omega=config.nu)
    kind, value = comp.claim(config, d)
    xs = message_stream(26, d).standard_normal((n, d))
    if kind == "unbiased":
        xs[:] = xs[0]  # one input, so the mean reconstruction estimates E[C(x)]
    op = make_operator(config)
    outs = [op.compress_at(x, i)[1] for i, x in enumerate(xs)]
    dists = np.array([out.distortion for out in outs])
    if kind == "contractive" and config.wrap_omega is None:
        assert dists.max() <= value + 2.0 ** -48
    else:
        assert dists.mean() <= value + 2.0 ** -48 + 4.0 * dists.std(ddof=1) / math.sqrt(n)
    if kind == "unbiased":
        # no bias: n ||mean - x||^2 has mean sum(var) and sd about
        # sqrt(2 sum(var^2)).  Pooled, because the per-coordinate t^2 of a
        # sparse law has a mean above 1 (1.21 for randsparse's example at
        # d = 1000), so a sum(t^2) <= d + 4 sqrt(2d) gate fails unbiased rows.
        # 2^-23 |x| is binary32 rounding, doubled for the float64 mean.
        recs = np.array([out.reconstructed for out in outs])
        bias = np.maximum(np.abs(recs.mean(axis=0) - xs[0]) - 2.0 ** -23 * np.abs(xs[0]), 0.0)
        var = recs.var(axis=0, ddof=1)
        assert n * (bias ** 2).sum() <= var.sum() + 4.0 * math.sqrt(2.0 * (var ** 2).sum())


class TestContractWrap:
    def test_identity_unchanged(self):
        x = np.array([1.0, 2.0])
        payload, out = make_operator(CONFIGS["identity"]).compress_at(x, 0)
        wrapped_payload, wrapped = make_operator(
            OperatorConfig("identity", wrap_omega=0.0)).compress_at(x, 0)
        assert wrapped_payload == payload
        assert np.array_equal(wrapped.reconstructed, out.reconstructed)
        assert wrapped.bits == out.bits

    def test_wrap_requires_unbiased(self):
        with pytest.raises(ValueError):
            OperatorConfig("dsd", nu=0.1, wrap_omega=0.5)

    def test_nan_omega_rejected(self):
        with pytest.raises(ValueError):
            OperatorConfig("identity", wrap_omega=math.nan)


class TestOperator:
    def test_counter_advances_streams(self):
        op = make_operator(OperatorConfig("rsd", nu=0.25, seed=3))
        x = message_stream(19, 0).standard_normal(50)
        p1, _ = op.compress_at(x, 0)
        p2, _ = op.compress_at(x, 1)
        assert p1 != p2  # different message streams
        op2 = make_operator(OperatorConfig("rsd", nu=0.25, seed=3))
        q1, _ = op2.compress_at(x, 0)
        assert p1 == q1  # same config replays identically

    def test_wrapped_decompress_matches_outcome(self):
        op = make_operator(OperatorConfig("rsd", nu=0.25, wrap_omega=0.25, seed=5))
        x = message_stream(20, 0).standard_normal(30)
        payload, out = op.compress_at(x, 4)
        assert np.array_equal(op.decompress(payload, 30, message_index=4),
                              out.reconstructed)

    def test_config_field_validation(self):
        with pytest.raises(ValueError):
            OperatorConfig("dsd")
        with pytest.raises(ValueError):
            OperatorConfig("dsd", nu=0.1, k=3)
        with pytest.raises(ValueError):
            OperatorConfig("sc", alpha=1.5)
        with pytest.raises(ValueError):
            OperatorConfig("nope")
        # the writers do not check the config again
        with pytest.raises(dataclasses.FrozenInstanceError):
            OperatorConfig("dsd", nu=0.1).nu = 0.0

    def test_labels(self):
        assert OperatorConfig("dsd", nu=0.1).label() == "dsd(nu=0.1)"
        assert OperatorConfig("sc", alpha=0.5).label() == "sc(alpha=0.5)"
        # integer parameters print in full, where a shared :g would give 1e+06
        assert OperatorConfig("topk", k=10**6).label() == "topk(k=1000000)"
        assert OperatorConfig("dither", levels=10**6).label() == "dither(s=1000000)"
        assert OperatorConfig("natural").label() == "natural"
        assert (OperatorConfig("rsd", nu=0.25, wrap_omega=0.25).label()
                == "wrap[rsd(nu=0.25), omega=0.25]")

    def test_every_kind_round_trips(self):
        d = 24
        x = message_stream(21, 0).standard_normal(d)
        assert CONFIGS.keys() == CODECS.keys()
        for kind, spec in CODECS.items():
            config = CONFIGS[kind]
            op = make_operator(config)
            payload, out = op.compress_at(x, 9)
            rec = op.decompress(payload, d, message_index=9)
            # bit for bit, so a -0.0 against a decoded +0.0 fails too
            assert rec.tobytes() == out.reconstructed.tobytes(), config.label()
            assert out.bits == len(payload)
            reseeded, _ = make_operator(
                dataclasses.replace(config, seed=config.seed + 1)
            ).compress_at(x, 9)
            assert (reseeded != payload) == spec.randomized, config.label()

    @pytest.mark.parametrize("kind", CODECS)
    def test_rejects_binary32_overflow(self, kind):
        # every coordinate is sent or scales a sent field, for every kind
        x = np.full(24, 1e39)
        with pytest.raises(ValueError):
            make_operator(CONFIGS[kind]).compress_at(x, 0)

    @pytest.mark.parametrize("kind", ["dsd", "rsd", "dither", "ternary", "sc"])
    def test_rejects_scale_below_binary32(self, kind):
        # the scale field would read 0, which decoders take for x = 0
        x = np.array([1e-100, -2e-100, 3e-100])
        op = make_operator(CONFIGS[kind])
        start = time.perf_counter()
        with pytest.raises(ValueError, match="smallest subnormal"):
            op.compress_at(x, 0)
        assert time.perf_counter() - start < 0.01

    @pytest.mark.parametrize("kind", CODECS)
    def test_rejects_appended_or_missing_bit(self, kind):
        d = 24
        x = message_stream(22, 0).standard_normal(d)
        config = CONFIGS[kind]
        payload, _ = make_operator(config).compress_at(x, 2)
        for bad in (payload + BitString([0]), payload + BitString([1]),
                    BitString.from_bytes(payload.to_bytes(), len(payload) - 1)):
            with pytest.raises(bitio.DecodeError):
                decode_payload(config, bad, d, message_index=2)

    @pytest.mark.parametrize("kind", CODECS)
    def test_rejects_negative_message_index(self, kind):
        # deterministic kinds draw no stream, so the index is checked apart from it
        x = message_stream(23, 0).standard_normal(24)
        op = make_operator(CONFIGS[kind])
        payload, _ = op.compress_at(x, 0)
        for step in (lambda: op.compress_at(x, -1), lambda: op.decompress(payload, 24, -1),
                     lambda: decode_payload(op.config, payload, 24, -5)):
            with pytest.raises(ValueError, match="message_index must be >= 0"):
                step()

    @pytest.mark.parametrize("kind", ["dsd", "rsd", "topk", "randsparse"])
    def test_out_of_range_rank_is_malformed(self, kind):
        # a rank field of width w holds up to 2^w - 1 >= C(d, n0)
        d = 10
        if kind in ("dsd", "rsd"):  # n0 = 5: C(10, 5) = 252, 8-bit field
            config = OperatorConfig(kind, nu=0.25, seed=1)
            bad = BitString.concat([
                bitio.write_float_magnitude(1.0), bitio.write_fixed(5, 4),
                bitio.write_fixed(255, 8), BitString([0] * 5),
                bitio.write_unary_block([1] * 5),
            ])
        else:  # k = 2: C(10, 2) = 45, 6-bit field
            config = OperatorConfig(kind, k=2, seed=1)
            bad = bitio.write_float32_block([1.0, 2.0]) + bitio.write_fixed(63, 6)
        with pytest.raises(bitio.MalformedCodeError):
            decode_payload(config, bad, d)


# decoder fuzz: one configuration per kind that has messages at every
# d >= 2, with 1/P small enough at alpha = 0.9 for a full SC replay
FUZZ_CONFIGS = {c.kind: c for c in (
    OperatorConfig("dsd", nu=0.5),
    OperatorConfig("rsd", nu=0.5, seed=1),
    OperatorConfig("sc", alpha=0.9, seed=2),
    OperatorConfig("topk", k=2),
    OperatorConfig("randsparse", k=2, seed=3),
    OperatorConfig("dither", levels=3, seed=4),
    OperatorConfig("ternary", seed=5),
    OperatorConfig("natural", seed=6),
    OperatorConfig("identity"),
)}
# binary32 words with all exponent bits set: inf, a quiet NaN and two
# signalling NaNs
FUZZ_WORDS = [0x7F800000, 0xFFC00000, 0x7F800001, 0xFF800001]


def fuzz_payloads(kind, d, gen):
    """Random payloads of 0-400 bits, all-zero ones among them; and, where
    `kind` has messages at d, a real message's payload with one bit
    flipped, cut short, extended, or one 32-bit word overwritten with a
    FUZZ_WORDS word."""
    for n in gen.integers(0, 401, size=24):
        yield gen.integers(0, 2, size=n, dtype=np.uint8)
    for n in (0, 31, 64, 400):
        yield np.zeros(n, dtype=np.uint8)
    if d < {"sc": 2, "topk": 2, "randsparse": 2}.get(kind, 1):
        return
    x = gen.standard_normal(d) * np.exp(gen.standard_normal(d))
    payload, _ = make_operator(FUZZ_CONFIGS[kind]).compress_at(x, 0)
    bits = np.unpackbits(payload._buf, count=len(payload))
    for i in gen.integers(0, bits.size, size=8):
        flipped = bits.copy()
        flipped[i] ^= 1
        yield flipped
    for n in gen.integers(0, bits.size, size=4):
        yield bits[:n]
    for n in gen.integers(1, 17, size=4):
        yield np.concatenate([bits, gen.integers(0, 2, size=n, dtype=np.uint8)])
    for word in FUZZ_WORDS if bits.size >= 32 else ():
        start = 32 * int(gen.integers(0, bits.size // 32))
        overwritten = bits.copy()
        overwritten[start:start + 32] = np.unpackbits(np.frombuffer(
            word.to_bytes(4, "big"), dtype=np.uint8))
        yield overwritten


def test_decoders_return_a_vector_or_raise_decode_error():
    # every decode of a fuzzed payload at d - 1, d and d + 1 returns a
    # float64 d-vector or raises DecodeError, with no warning
    gen = np.random.default_rng(2024)
    escapes = []
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind, config in FUZZ_CONFIGS.items():
            for d in (0, 1, 2, 3, 17, 64):
                for bits in fuzz_payloads(kind, d, gen):
                    for dd in range(max(d - 1, 0), d + 2):
                        try:
                            rec = decode_payload(config, BitString(bits), dd)
                        except bitio.DecodeError:
                            continue
                        except Exception as exc:  # any other escape is reported below
                            escapes.append(f"{kind} d={dd} {bits.size} bits: {exc!r}")
                            continue
                        if not (rec.dtype == np.float64 and rec.shape == (dd,)):
                            escapes.append(f"{kind} d={dd}: {rec.dtype} {rec.shape}")
    assert escapes == []
    assert time.perf_counter() - start < 5.0
