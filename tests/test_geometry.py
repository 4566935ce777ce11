import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc as scipy_betainc

from gradcodec import bitio
from gradcodec.geometry import (CapParams, cap_probability,
                                log2_cap_probability, mc_cap_probability,
                                reg_inc_beta)
from gradcodec.rng import message_stream

# closed form for a = 1: I_p(1, 1/2) = 2(1 - sqrt(1-p)) / B(1, 1/2), B = 2
I_HALF_1_HALF = 1.0 - math.sqrt(0.5)


class TestRegIncBeta:
    @pytest.mark.parametrize("a,b", [(1.0, 0.5), (0.5, 0.5), (4.5, 2.0), (24.5, 0.5)])
    def test_bounds(self, a, b):
        assert reg_inc_beta(0.0, a, b) == 0.0
        assert reg_inc_beta(1.0, a, b) == 1.0

    def test_closed_form_a1(self):
        assert abs(reg_inc_beta(0.5, 1.0, 0.5) - I_HALF_1_HALF) < 1e-12

    def test_symmetry_point(self):
        assert abs(reg_inc_beta(0.5, 0.5, 0.5) - 0.5) < 1e-12

    @given(st.floats(1e-6, 1 - 1e-6), st.floats(0.1, 50.0), st.floats(0.1, 10.0))
    @settings(max_examples=300)
    def test_reflection_identity(self, p, a, b):
        lhs = reg_inc_beta(p, a, b)
        rhs = 1.0 - reg_inc_beta(1.0 - p, b, a)
        assert abs(lhs - rhs) < 1e-12

    @given(st.floats(0.0, 1.0), st.floats(0.05, 200.0), st.floats(0.05, 20.0))
    @settings(max_examples=300)
    def test_against_scipy(self, p, a, b):
        assert abs(reg_inc_beta(p, a, b) - scipy_betainc(a, b, p)) < 1e-12

    def test_monotone_in_p(self):
        grid = np.linspace(0.0, 1.0, 101)
        vals = [reg_inc_beta(p, 4.5, 0.5) for p in grid]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("p,a,b", [(-0.1, 1, 1), (1.1, 1, 1), (0.5, 0, 1),
                                       (0.5, 1, -2)])
    def test_domain(self, p, a, b):
        with pytest.raises(ValueError):
            reg_inc_beta(p, a, b)


class TestCapProbability:
    def test_closed_form_d3(self):
        assert abs(cap_probability(CapParams(0.5, 3)) - 0.5 * (1 - math.sqrt(0.5))) < 1e-12

    def test_closed_form_d2(self):
        # I_p(1/2, 1/2) = (2/pi) arcsin(sqrt(p))
        assert abs(cap_probability(CapParams(0.5, 2)) - 0.25) < 1e-12

    def test_hemisphere_limit(self):
        assert cap_probability(CapParams(1 - 1e-12, 5)) == pytest.approx(0.5, abs=1e-5)

    def test_monotone_alpha(self):
        vals = [cap_probability(CapParams(a, 7)) for a in np.linspace(0.05, 0.95, 19)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_monotone_dimension(self):
        vals = [cap_probability(CapParams(0.5, d)) for d in (2, 3, 5, 10, 50)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_below_half(self):
        for a in (0.1, 0.5, 0.9, 0.999):
            for d in (2, 3, 10, 100):
                assert cap_probability(CapParams(a, d)) < 0.5

    def test_log2_matches_linear(self):
        for a, d in ((0.3, 5), (0.5, 10), (0.7, 50)):
            p = cap_probability(CapParams(a, d))
            assert log2_cap_probability(CapParams(a, d)) == pytest.approx(
                math.log2(p), abs=1e-9)

    def test_log2_survives_underflow(self):
        val = log2_cap_probability(CapParams(0.3, 4096))
        assert math.isfinite(val)
        assert val < -3000

    def test_domain(self):
        with pytest.raises(ValueError):
            CapParams(0.0, 3)
        with pytest.raises(ValueError):
            CapParams(1.0, 3)
        with pytest.raises(ValueError):
            CapParams(0.5, 1)


class TestMonteCarloOracle:
    def test_full_grid_against_closed_form(self):
        # alpha x d grid at one million trials per cell, 4-sigma tolerance
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            for d in (2, 3, 5, 10, 50):
                params = CapParams(alpha, d)
                p = cap_probability(params)
                est, _ = mc_cap_probability(params, 10**6,
                                            message_stream(800, 10 * d + int(10 * alpha)))
                assert abs(est - p) <= 4.0 * math.sqrt(p * (1 - p) / 10**6), (
                    alpha, d, p, est)

    def test_matches_closed_form_d3(self):
        params = CapParams(0.5, 3)
        est, se = mc_cap_probability(params, 200_000, message_stream(5, 0))
        p = cap_probability(params)
        assert abs(est - p) < 4.0 * math.sqrt(p * (1 - p) / 200_000)
        assert se == pytest.approx(math.sqrt(est * (1 - est) / 200_000))

    def test_arcsin_closed_form_d2(self):
        params = CapParams(0.99, 2)
        est, _ = mc_cap_probability(params, 100_000, message_stream(6, 0))
        p = math.asin(math.sqrt(0.99)) / math.pi
        assert abs(est - p) < 4.0 * math.sqrt(p * (1 - p) / 100_000)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            mc_cap_probability(CapParams(0.5, 3), 0, message_stream(7, 0))

    def test_blocked_estimate_equals_one_draw(self):
        # 5000 trials: part of one 10922-row block at d=3, seven 655-row
        # blocks and part of an eighth at d=50
        for alpha, d in ((0.5, 3), (0.7, 50)):
            trials = 5000
            x = message_stream(9, d).standard_normal((trials, d))
            x /= np.linalg.norm(x, axis=1)[:, None]
            x[:, 0] -= math.sqrt(1.0 - alpha)
            hits = int((np.einsum("ij,ij->i", x, x) <= alpha).sum())
            assert trials % bitio.block_rows(d) != 0
            est, se = mc_cap_probability(CapParams(alpha, d), trials, message_stream(9, d))
            assert est == hits / trials
            assert se == math.sqrt(est * (1 - est) / trials)

    def test_zero_norm_row_rejected(self):
        class ZeroRow:
            """A stream whose third row is all zeros."""

            def __init__(self):
                self.rng = message_stream(10, 0)

            def standard_normal(self, shape=None, out=None):
                self.rng.standard_normal(shape, out=out)
                out[2] = 0.0

        with pytest.raises(ArithmeticError):
            mc_cap_probability(CapParams(0.5, 3), 10, ZeroRow())

    def test_working_memory_is_one_capped_block(self):
        # a block holds at most 2^15 values, 256 KiB, and its row norms
        # take one more block-sized temporary; the oracle measured 528 KiB
        # here (784 KiB when it drew a fresh block per loop)
        block_bytes = 8 * (1 << 15)
        tracemalloc.start()
        try:
            mc_cap_probability(CapParams(0.5, 50), 100_003, message_stream(11, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * block_bytes + (32 << 10)
