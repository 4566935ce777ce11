import math

import numpy as np
import pytest

from gradcodec import bitio, bounds
from gradcodec.geometry import CapParams, cap_probability


class TestUpLowerBound:
    def test_quarter_at_d100(self):
        assert bounds.up_lower_bound(0.25, 100) == pytest.approx(100.0)

    def test_vanishes_as_alpha_to_one(self):
        assert bounds.up_lower_bound(1 - 1e-12, 50) == pytest.approx(0.0, abs=1e-9)

    def test_domain(self):
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                bounds.up_lower_bound(alpha, 10)


class TestAvgLowerBound:
    def test_d3_value(self):
        expect = -math.log2(0.5 * (1 - math.sqrt(0.5)))  # 2.7716...
        assert bounds.avg_lower_bound(0.5, 3) == pytest.approx(expect, abs=1e-9)
        assert expect == pytest.approx(2.7716, abs=1e-4)

    def test_d2_exactly_two(self):
        assert bounds.avg_lower_bound(0.5, 2) == pytest.approx(2.0, abs=1e-10)

    def test_finite_at_extreme_dimension(self):
        assert math.isfinite(bounds.avg_lower_bound(0.3, 4096))


class TestBstar:
    def test_composition(self):
        est, band = bounds.bstar_estimate(0.5, 1024)
        p = cap_probability(CapParams(0.5, 1024))
        assert est == pytest.approx(-math.log2(p) + 10.0 + 0.5 * math.log2(10.0),
                                    rel=1e-9)
        assert band == pytest.approx(0.5 * math.log2(10.0))

    def test_monotone_decreasing_in_alpha(self):
        vals = [bounds.bstar_estimate(a, 64)[0] for a in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_needs_log_d_bits(self):
        # -log2 P > 1 always, so the estimate sits above log2 d on any grid
        for d in (3, 10, 100, 1000):
            for alpha in (0.1, 0.5, 0.9, 0.99):
                assert bounds.bstar_estimate(alpha, d)[0] >= math.log2(d)

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            bounds.bstar_estimate(0.5, 2)


class TestDsdPrediction:
    def test_beta_at_one_tenth(self):
        beta = bounds.dsd_beta(0.1)
        assert beta < 3.35
        assert beta == pytest.approx(3.3495, abs=5e-4)

    def test_tau_star_value(self):
        tau = bounds.dsd_tau_star(0.1)
        assert tau == pytest.approx(1.0 / (1.0 + 2.0 ** ((6 + 1 / math.sqrt(0.1)) / 4)))

    def test_beta_decreasing_in_nu(self):
        vals = [bounds.dsd_beta(nu) for nu in (0.01, 0.05, 0.1, 0.5, 1.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_predicted_bits_special_case(self):
        assert bounds.dsd_predicted_bits(0.1, 10_000) <= 30 + math.log2(10_000) + 3.35 * 10_000


class TestRsdPrediction:
    def test_per_dim_coefficient(self):
        per_dim = (bounds.rsd_predicted_bits(0.25, 10**6) - 30 - math.log2(10**6)) / 10**6
        assert per_dim == pytest.approx(math.log2(3) + 1.0, rel=1e-12)
        assert per_dim == pytest.approx(2.585, abs=1e-3)

    def test_savings_table_values(self):
        d = 10_000
        assert bounds.savings_factor(0.25, (1 + math.log2(3)) * d, d) == pytest.approx(
            9.90, abs=0.01)
        assert bounds.savings_factor(1.0, 2.8 * d, d) == pytest.approx(5.71, abs=0.01)
        assert bounds.savings_factor(0.125, 9.0 * d, d) == pytest.approx(3.16, abs=0.01)

    def test_savings_dimension_free(self):
        s1 = bounds.savings_factor(0.25, 2.585 * 100, 100)
        s2 = bounds.savings_factor(0.25, 2.585 * 10**6, 10**6)
        assert s1 == pytest.approx(s2)

    def test_domain(self):
        with pytest.raises(ValueError):
            bounds.rsd_predicted_bits(0.0, 10)
        with pytest.raises(ValueError):
            bounds.savings_factor(0.25, 0.0, 10)


class TestCoveringBoundRhs:
    def test_value_at_d1000(self):
        val = bounds.covering_bound_rhs(1000)
        assert 1.04 <= val <= 1.06
        assert val == pytest.approx(1.0481, abs=2e-4)

    def test_large_d_approaches_one(self):
        val = bounds.covering_bound_rhs(10**6)
        assert 1.0 < val < 1.001

    def test_monotone_tail(self):
        vals = [bounds.covering_bound_rhs(d) for d in (10**3, 10**4, 10**5, 10**6)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            bounds.covering_bound_rhs(2)


class TestSubsetFieldBits:
    def test_single_rank_at_or_below_block(self):
        for d, n0 in ((1, 0), (17, 5), (bitio.SUBSET_BLOCK, 100)):
            assert bounds.subset_field_bits(d, n0) == bitio.subset_code_width(d, n0)

    @pytest.mark.parametrize("d", [bitio.SUBSET_BLOCK + 1, 2 * bitio.SUBSET_BLOCK + 3,
                                   10**5, 3 * 10**5 + 7])
    def test_measured_width_within_bound(self, d):
        # the field is at most ceil(log2 C(d, n0)) + the counts' widths + one
        # bit per block, and the counts' widths are at most bound's
        B = bitio.SUBSET_BLOCK
        blocks = -(-d // B)
        rng = np.random.default_rng(d)
        for n0 in (1, 40, d // 100, d // 4, d // 2, d - 3):
            positions = np.sort(rng.choice(d, size=n0, replace=False))
            counts = np.bincount(positions // B, minlength=blocks).tolist()
            left, count_bits = n0, 0
            for n in counts[:-1]:
                count_bits += min(B, left).bit_length()
                left -= n
            width = len(bitio.write_subset(positions.tolist(), d, n0))
            whole = bitio.subset_code_width(d, n0)
            assert width <= whole + count_bits + blocks
            assert width <= bounds.subset_field_bits(d, n0)


class TestReportAndTable:
    def test_sandwich_consistency(self):
        # eq1 floor <= bstar + band + 10 across a grid
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            for d in (3, 10, 100, 1000):
                bstar, band = bounds.bstar_estimate(alpha, d)
                assert bounds.up_lower_bound(alpha, d) <= bstar + band + 10.0
                assert bounds.avg_lower_bound(alpha, d) <= bstar

    def test_savings_table_methods(self):
        rows = bounds.savings_table(1000)
        methods = [r[0] for r in rows]
        assert any("randomized sparse dithering" in m for m in methods)
        rsd_row = next(r for r in rows if "randomized sparse dithering" in r[0])
        assert rsd_row[4] == pytest.approx(9.90, abs=0.01)
        base = next(r for r in rows if r[0].startswith("none"))
        assert base[4] == pytest.approx(1.0)

    def test_binary_entropy(self):
        assert bounds.binary_entropy(0.5) == pytest.approx(1.0)
        assert bounds.binary_entropy(0.0) == 0.0
        assert bounds.binary_entropy(1.0) == 0.0
        with pytest.raises(ValueError):
            bounds.binary_entropy(1.5)
