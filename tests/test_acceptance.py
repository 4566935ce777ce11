"""Acceptance battery.

One test (or parametrized group) per row of `selftest.CHECKS`, run at
the FULL budget; each prints a `criterion N` line.  The table holds
every threshold, grid, seed and budget, and `gradcodec selftest` reads
the same rows.  The rows that carry a reason fail by design with the
measured evidence; each has a passing calibrated or feasible companion
row, so the underlying property is still verified.
"""

import pytest

from gradcodec import selftest


def _assert_check(name):
    check = selftest.CHECKS[name]
    ok, detail = check.run(selftest.FULL)
    print(f"criterion {check.number}: {detail}")
    if not ok:
        pytest.fail(f"{detail}. Fails by design: {check.reason}" if check.reason
                    else detail)


def test_criterion_1_roundtrip_exactness():
    _assert_check("round-trip exactness")


def test_criterion_2_dsd_bits_and_distortion():
    _assert_check("deterministic SD bit bound and distortion")


def test_criterion_3_rsd_bits_and_savings():
    _assert_check("randomized SD bit bound and savings")


def test_criterion_3_unbiasedness_per_coordinate_as_stated():
    _assert_check("randomized SD per-coordinate unbiasedness as stated")


def test_criterion_3_unbiasedness_calibrated_aggregate():
    _assert_check("randomized SD calibrated unbiasedness aggregate")


@pytest.mark.parametrize("alpha,d", selftest.SC_GRID)
def test_criterion_4_sc_sandwich(alpha, d):
    _assert_check(f"SC sandwich alpha={alpha} d={d}")


def test_criterion_5_geometry_oracle():
    _assert_check("geometry Monte-Carlo oracle")


def test_criterion_6_eq1_floor():
    _assert_check("uncertainty-principle floor")


def test_criterion_7_topk_ratio_as_stated():
    _assert_check("top-k ratio law as stated")


def test_criterion_7_topk_inflation_upper_bounded():
    _assert_check("top-k inflation below the law")


def test_criterion_7_wrapped_rsd_ratio():
    _assert_check("wrapped RSD ratio law")


@pytest.mark.parametrize("loss_kind", selftest.LOSSES)
# explicit ids keep these node ids stable for the lists that name them
@pytest.mark.parametrize("label", ["dsd", "rsd"], ids=["dsd-config0", "rsd-config1"])
def test_criterion_8_sd_beats_baseline(loss_kind, label):
    _assert_check(f"{label} beats the baseline on {loss_kind}")


@pytest.mark.parametrize("loss_kind", selftest.LOSSES)
def test_criterion_8_sc_leg_as_stated(loss_kind):
    _assert_check(f"sc(alpha={selftest.SC_LEG_AS_STATED.alpha}) leg on {loss_kind} as stated")


@pytest.mark.parametrize("loss_kind", selftest.LOSSES)
def test_criterion_8_sc_leg_feasible_alpha(loss_kind):
    _assert_check(f"{selftest.ORDERING['sc'].label()} leg on {loss_kind}")


def test_criterion_9_gradients_and_lipschitz():
    _assert_check("gradients and smoothness constants")


def test_criterion_10_covering_bound_value():
    _assert_check("covering-bound value at d=1000")
