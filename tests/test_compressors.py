import dataclasses
import math

import numpy as np
import pytest

from gradcodec import bitio, compressors as comp
from gradcodec.bitio import BitCursor, BitString
from gradcodec.compressors import (CODECS, GiveUpError, OperatorConfig,
                                   contract_wrap, decode_payload, make_operator)
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
        payload, out = comp.dsd_compress(x, 0.1)
        assert out.reconstructed == pytest.approx([2.2, 4.4], abs=1e-6)
        assert out.distortion == pytest.approx(0.032, abs=1e-9)
        assert out.bits == sd_bit_formula(2, 0, 3) == 38

    def test_round_trip_matches_encoder(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 3, 17, 120):
            for _ in range(20):
                x = rng.standard_normal(d) * rng.lognormal()
                payload, out = comp.dsd_compress(x, 0.1)
                rec = comp.dsd_decompress(payload, d)
                assert np.array_equal(rec, out.reconstructed)

    def test_distortion_below_nu_and_sin2(self):
        rng = np.random.default_rng(1)
        for nu in (0.05, 0.1, 0.5, 1.0, 2.0):
            for d in (1, 2, 3, 10, 64):
                x = rng.standard_normal(d) * 3
                _, out = comp.dsd_compress(x, nu)
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
            payload, out = comp.dsd_compress(x, 0.1)
            assert out.bits == sd_bit_formula(d, n0, int(levels.sum()))

    def test_zero_vector_message(self):
        d = 9
        payload, out = comp.dsd_compress(np.zeros(d), 0.1)
        assert out.bits == 31 + d.bit_length()
        assert out.distortion == 0.0
        assert np.array_equal(comp.dsd_decompress(payload, d), np.zeros(d))

    def test_all_coordinates_collapse_when_nu_above_one(self):
        # every |u_i| < h is only possible for nu >= 1; spec: C(x)=0, phi=pi/2
        x = np.array([0.5, 0.5, 0.5, 0.5])
        payload, out = comp.dsd_compress(x, 2.5)
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
            comp.dsd_compress([1.0, math.nan], 0.1)
        with pytest.raises(ValueError):
            comp.dsd_compress([1.0], 0.0)

    def test_truncated_payload(self):
        payload, _ = comp.dsd_compress(np.array([3.0, 4.0]), 0.1)
        cut = BitString.from_bytes(payload.to_bytes(), len(payload) - 5)
        with pytest.raises(bitio.DecodeError):
            comp.dsd_decompress(cut, 2)


class TestRandomizedSparseDithering:
    def test_two_neighbor_rounding_probability(self):
        # |u_0|=0.5 with h=0.2 rounds down to 0.4 w.p. 0.75, up to 0.8 w.p. 0.25
        x = np.array([0.5, math.sqrt(0.75)])
        nu = 2 * 0.2 ** 2
        n = 20_000
        ups = 0
        for i in range(n):
            _, out = comp.rsd_compress(x, nu, message_stream(17, i))
            v = float(out.reconstructed[0])
            assert min(abs(v - 0.4), abs(v - 0.8)) < 1e-6
            if v > 0.6:
                ups += 1
        p_hat = ups / n
        assert abs(p_hat - 0.25) < 4.0 * math.sqrt(0.25 * 0.75 / n)

    def test_unbiased_and_second_moment(self):
        d, nu, n = 20, 0.25, 20_000
        x = message_stream(7, 0).standard_normal(d)
        recs = np.empty((n, d))
        sq = np.empty(n)
        for i in range(n):
            _, out = comp.rsd_compress(x, nu, message_stream(23, i))
            recs[i] = out.reconstructed
            sq[i] = np.dot(out.reconstructed, out.reconstructed)
        se = recs.std(axis=0, ddof=1) / math.sqrt(n)
        assert (np.abs(recs.mean(axis=0) - x) <= 4.0 * se).all()
        bound = (1 + nu) * np.dot(x, x)
        assert sq.mean() <= bound + 4.0 * sq.std(ddof=1) / math.sqrt(n)

    def test_round_trip(self):
        gen = np.random.default_rng(4)
        for d in (2, 17, 256):
            for i in range(30):
                x = gen.standard_normal(d)
                payload, out = comp.rsd_compress(x, 0.25, message_stream(31, i))
                assert np.array_equal(comp.dsd_decompress(payload, d),
                                      out.reconstructed)

    def test_zero_vector(self):
        payload, out = comp.rsd_compress(np.zeros(5), 0.25, message_stream(1, 0))
        assert np.array_equal(comp.dsd_decompress(payload, 5), np.zeros(5))

    def test_levels_scale_invariant(self):
        x = message_stream(9, 0).standard_normal(30)
        p1, o1 = comp.rsd_compress(x, 0.25, message_stream(5, 3))
        p2, o2 = comp.rsd_compress(10.0 * x, 0.25, message_stream(5, 3))
        # same stream, same unit direction: identical levels and signs,
        # gamma differs by the norm factor only
        c1, c2 = BitCursor(p1), BitCursor(p2)
        g1 = bitio.read_float_magnitude(c1)
        g2 = bitio.read_float_magnitude(c2)
        assert g2 == pytest.approx(10.0 * g1, rel=1e-6)
        rest1 = p1._arr[31:]
        rest2 = p2._arr[31:]
        assert np.array_equal(rest1, rest2)


class TestSphericalCompression:
    def test_trial_count_geometric_mean(self):
        alpha, d, n = 0.5, 3, 10_000
        p = cap_probability(CapParams(alpha, d))
        gen = message_stream(40, 0)
        m = bitio.golomb_rice_params(p)
        ts = np.empty(n)
        for i in range(n):
            x = gen.standard_normal(d)
            payload, _ = comp.sc_compress(x, alpha, 41, i)
            cur = BitCursor(payload)
            bitio.read_float_magnitude(cur)
            ts[i] = bitio.golomb_rice_decode(cur, m)
        expect = 1.0 / p
        tol = 4.0 * math.sqrt((1 - p) / p**2 / n)
        assert abs(ts.mean() - expect) < tol

    def test_strict_contraction_every_message(self):
        gen = message_stream(42, 0)
        for alpha, d in ((0.3, 3), (0.5, 3), (0.7, 10), (0.9, 25)):
            for i in range(200):
                x = gen.standard_normal(d) * gen.lognormal()
                _, out = comp.sc_compress(x, alpha, 43, i)
                err = out.reconstructed - x
                assert float(np.dot(err, err)) <= alpha * float(np.dot(x, x))

    def test_decoder_replays_encoder(self):
        gen = message_stream(44, 0)
        for i in range(200):
            x = gen.standard_normal(10)
            payload, out = comp.sc_compress(x, 0.3, 45, i)
            rec = comp.sc_decompress(payload, 10, 0.3, 45, i)
            assert np.array_equal(rec, out.reconstructed)

    def test_wrong_seed_breaks_contraction(self):
        gen = message_stream(46, 0)
        violations = 0
        for i in range(50):
            x = gen.standard_normal(10)
            payload, _ = comp.sc_compress(x, 0.3, 47, i)
            rec = comp.sc_decompress(payload, 10, 0.3, 48, i)
            err = rec - x
            if float(np.dot(err, err)) > 0.3 * float(np.dot(x, x)):
                violations += 1
        assert violations >= 45

    def test_near_one_alpha_single_trial(self):
        p = cap_probability(CapParams(0.999, 3))
        m = bitio.golomb_rice_params(p)
        bits = []
        gen = message_stream(49, 0)
        for i in range(20):
            payload, out = comp.sc_compress(gen.standard_normal(3), 0.999, 50, i)
            bits.append(out.bits)
        assert min(bits) == 31 + 1 + m  # T=1 message

    def test_zero_vector(self):
        payload, out = comp.sc_compress(np.zeros(4), 0.5, 1, 0)
        assert out.bits == 31
        assert np.array_equal(comp.sc_decompress(payload, 4, 0.5, 1, 0), np.zeros(4))

    def test_give_up_at_tiny_cap(self):
        x = message_stream(51, 0).standard_normal(10)
        with pytest.raises(GiveUpError):
            comp.sc_compress(x, 0.3, 52, 0, trial_cap=1)

    def test_decoder_rejects_absurd_trial_count(self):
        p = cap_probability(CapParams(0.5, 3))
        m = bitio.golomb_rice_params(p)
        fake = bitio.write_float_magnitude(1.0) + bitio.golomb_rice_encode(
            comp.sc_trial_cap(p) + 1, m)
        with pytest.raises(bitio.MalformedCodeError):
            comp.sc_decompress(fake, 3, 0.5, 1, 0)

    def test_payload_sandwich_high_dimension(self):
        # feasible d=50 setting: alpha=0.98 keeps 1/P small
        alpha, d, n = 0.98, 50, 400
        p = cap_probability(CapParams(alpha, d))
        gen = message_stream(53, 0)
        bits = np.empty(n)
        for i in range(n):
            _, out = comp.sc_compress(gen.standard_normal(d), alpha, 54, i)
            bits[i] = out.bits - 31
        lower = -math.log2(p)
        assert lower <= bits.mean() < lower + 3.0


class TestBaselines:
    def test_topk_example(self):
        payload, out = comp.topk_compress(np.array([1.0, -3.0, 2.0]), 1)
        assert np.array_equal(out.reconstructed, [0.0, -3.0, 0.0])
        assert out.distortion == pytest.approx(5.0 / 14.0)
        assert out.bits == 32 + bitio.subset_code_width(3, 1)
        assert np.array_equal(comp.topk_decompress(payload, 3, 1),
                              out.reconstructed)

    def test_topk_deterministic_tie_break(self):
        _, out = comp.topk_compress(np.array([2.0, -2.0, 1.0]), 1)
        assert np.array_equal(out.reconstructed, [2.0, 0.0, 0.0])

    def test_topk_full_k_is_float32_identity(self):
        x = np.array([0.1, -7.25, 3.3])
        _, out = comp.topk_compress(x, 3)
        assert np.array_equal(out.reconstructed, x.astype(np.float32))

    def test_random_sparsify_unbiased(self):
        d, k, n = 10, 3, 20_000
        x = message_stream(8, 0).standard_normal(d)
        recs = np.empty((n, d))
        for i in range(n):
            _, out = comp.random_sparsify(x, k, message_stream(60, i))
            recs[i] = out.reconstructed
        se = recs.std(axis=0, ddof=1) / math.sqrt(n)
        assert (np.abs(recs.mean(axis=0) - x) <= 4.0 * se).all()

    def test_random_sparsify_round_trip(self):
        x = message_stream(10, 0).standard_normal(12)
        payload, out = comp.random_sparsify(x, 4, message_stream(61, 5))
        assert np.array_equal(comp.topk_decompress(payload, 12, 4),
                              out.reconstructed)
        assert out.bits == 32 * 4 + bitio.subset_code_width(12, 4)

    def test_dither_values_and_bits(self):
        x = message_stream(11, 0).standard_normal(25)
        s = 5
        payload, out = comp.std_dither(x, s, message_stream(62, 0))
        norm32 = float(np.float32(np.linalg.norm(x)))
        levels = np.rint(np.abs(out.reconstructed) / norm32 * s).astype(int)
        assert (levels <= s).all()
        nnz = int((levels > 0).sum())
        assert out.bits == 31 + 25 + int(levels.sum()) + nnz
        assert np.array_equal(comp.std_dither_decompress(payload, 25, s),
                              out.reconstructed)

    def test_dither_unbiased(self):
        d, s, n = 10, 4, 20_000
        x = message_stream(12, 0).standard_normal(d)
        recs = np.empty((n, d))
        for i in range(n):
            _, out = comp.std_dither(x, s, message_stream(63, i))
            recs[i] = out.reconstructed
        se = recs.std(axis=0, ddof=1) / math.sqrt(n)
        assert (np.abs(recs.mean(axis=0) - x) <= 4.0 * se).all()

    def test_dither_mean_bits_under_nominal(self):
        # the nominal accounting for s=sqrt(d) dithering is ~2.8 bits/dim
        d = 10_000
        s = 100
        gen = message_stream(13, 0)
        total = 0
        n = 20
        for i in range(n):
            x = gen.standard_normal(d)
            _, out = comp.std_dither(x, s, message_stream(64, i))
            total += out.bits
        assert total / n <= 2.8 * d + 64
        assert total / n >= 1.5 * d

    def test_ternary_is_single_level(self):
        x = message_stream(14, 0).standard_normal(8)
        payload, out = comp.ternary(x, message_stream(65, 0))
        norm32 = float(np.float32(np.linalg.norm(x)))
        vals = set(np.round(out.reconstructed / norm32, 9).tolist())
        assert vals <= {-1.0, 0.0, 1.0}
        assert np.array_equal(comp.std_dither_decompress(payload, 8, 1),
                              out.reconstructed)

    def test_natural_nine_bits_per_coordinate(self):
        gen = message_stream(15, 0)
        for d in (1, 7, 64):
            x = gen.standard_normal(d) * 100
            payload, out = comp.natural_compress(x, message_stream(66, d))
            assert out.bits == 9 * d
            assert np.array_equal(comp.natural_decompress(payload, d),
                                  out.reconstructed)
            nz = x != 0
            ratio = np.abs(out.reconstructed[nz]) / np.abs(x[nz])
            assert (ratio >= 0.5 - 1e-9).all() and (ratio <= 2.0 + 1e-9).all()
            exps = np.log2(np.abs(out.reconstructed[nz]))
            assert np.allclose(exps, np.round(exps))

    def test_natural_unbiased_with_eighth_variance(self):
        d, n = 10, 20_000
        x = message_stream(16, 0).standard_normal(d)
        recs = np.empty((n, d))
        err2 = np.empty(n)
        for i in range(n):
            _, out = comp.natural_compress(x, message_stream(67, i))
            recs[i] = out.reconstructed
            e = out.reconstructed - x
            err2[i] = np.dot(e, e)
        se = recs.std(axis=0, ddof=1) / math.sqrt(n)
        assert (np.abs(recs.mean(axis=0) - x) <= 4.0 * se).all()
        bound = 0.125 * float(np.dot(x, x))
        assert err2.mean() <= bound + 4.0 * err2.std(ddof=1) / math.sqrt(n)

    def test_natural_zero_coordinates(self):
        x = np.array([0.0, 2.0, 0.0])
        payload, out = comp.natural_compress(x, message_stream(68, 0))
        assert out.reconstructed[0] == 0.0 and out.reconstructed[2] == 0.0
        assert out.reconstructed[1] == 2.0  # exact power of two is kept

    def test_natural_unbiased_below_normal_range(self):
        # below 2^-126 the exponent field rounds between 0 and 2^-126
        x = np.array([1e-40, -3e-39])
        n = 4000
        recs = np.array([comp.natural_compress(x, message_stream(69, i))[1].reconstructed
                         for i in range(n)])
        assert set(np.abs(recs).ravel()) <= {0.0, 2.0 ** -126}
        se = recs.std(axis=0, ddof=1) / math.sqrt(n)
        assert (np.abs(recs.mean(axis=0) - x) <= 4.0 * se).all()

    def test_natural_exponent_range(self):
        _, out = comp.natural_compress([2.0 ** 127, 2.0 ** -126], message_stream(70, 0))
        assert list(out.reconstructed) == [2.0 ** 127, 2.0 ** -126]
        with pytest.raises(ValueError):
            comp.natural_compress([3e38], message_stream(70, 1))

    def test_identity(self):
        x = np.array([1.5, -2.25, 3.1])
        payload, out = comp.identity_compress(x)
        assert out.bits == 96
        assert np.array_equal(comp.identity_decompress(payload, 3),
                              out.reconstructed)
        assert out.reconstructed == pytest.approx(x, rel=1e-6)


class TestContractWrap:
    def test_identity_unchanged(self):
        x = np.array([1.0, 2.0])
        _, out = comp.identity_compress(x)
        wrapped = contract_wrap(out, 0.0, x)
        assert np.array_equal(wrapped.reconstructed, out.reconstructed)
        assert wrapped.bits == out.bits

    def test_wrapped_rsd_mean_distortion(self):
        # RSD(1/4) wrapped with omega=1/4: mean distortion <= 1/5 within 4 SE
        d, nu, n = 20, 0.25, 10_000
        x = message_stream(18, 0).standard_normal(d)
        dists = np.empty(n)
        for i in range(n):
            _, out = comp.rsd_compress(x, nu, message_stream(70, i))
            dists[i] = contract_wrap(out, nu, x).distortion
        limit = nu / (1 + nu)
        assert dists.mean() <= limit + 4.0 * dists.std(ddof=1) / math.sqrt(n)

    def test_wrap_requires_unbiased(self):
        with pytest.raises(ValueError):
            OperatorConfig("dsd", nu=0.1, wrap_omega=0.5)


class TestOperator:
    def test_counter_advances_streams(self):
        op = make_operator(OperatorConfig("rsd", nu=0.25, seed=3))
        x = message_stream(19, 0).standard_normal(50)
        p1, _ = op.compress(x)
        p2, _ = op.compress(x)
        assert p1 != p2  # different message streams
        op2 = make_operator(OperatorConfig("rsd", nu=0.25, seed=3))
        q1, _ = op2.compress(x)
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

    def test_labels(self):
        assert OperatorConfig("dsd", nu=0.1).label() == "dsd(nu=0.1)"
        assert "wrap[" in OperatorConfig("rsd", nu=0.25, wrap_omega=0.25).label()

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
