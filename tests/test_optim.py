import numpy as np
import pytest

from gradcodec import optim
from gradcodec.compressors import OperatorConfig
from gradcodec.data import synth_classification, synth_regression
from gradcodec.optim import (Problem, cgd_run, gradient, loss, make_problem,
                             minimizer, r_squared, smoothness,
                             iteration_ratio_sweep, theoretical_ratio)
from gradcodec.rng import message_stream


def central_diff(problem, x, h=1e-6):
    d = x.size
    out = np.empty(d)
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        out[j] = (loss(problem, x + e) - loss(problem, x - e)) / (2 * h)
    return out


def random_problem(i, seed=0):
    gen = message_stream(seed, 100 + i)
    d = int(gen.integers(2, 10))
    n = int(gen.integers(d, 3 * d + 5))
    if i % 2 == 0:
        ds = synth_regression(d, n, 0.5, seed * 971 + i)
        return make_problem(ds, "ridge")
    ds = synth_classification(d, n, 0.2, seed * 971 + i)
    return make_problem(ds, "logistic")


class TestLossAndGradient:
    def test_ridge_zero_data(self):
        # A = I2, y = 0: f(x) = ||x||^2/(2n) + lam/2 ||x||^2
        prob = Problem(np.eye(2), np.zeros(2), lam=0.0, loss_kind="ridge")
        assert loss(prob, np.zeros(2)) == 0.0
        x = np.array([1.0, -2.0])
        assert gradient(prob, x) == pytest.approx(x / 2.0)

    def test_logistic_gradient_at_origin(self):
        ds = synth_classification(4, 12, 0.3, 5)
        prob = make_problem(ds, "logistic")
        g = gradient(prob, np.zeros(4))
        expect = -(prob.features.T @ prob.labels) / (2 * prob.n)
        assert g == pytest.approx(expect, rel=1e-12)

    def test_matches_finite_differences(self):
        for i in range(40):
            prob = random_problem(i)
            x = message_stream(3, i).standard_normal(prob.d)
            g = gradient(prob, x)
            fd = central_diff(prob, x)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-12)

    def test_dimension_mismatch(self):
        prob = random_problem(0)
        with pytest.raises(ValueError):
            gradient(prob, np.zeros(prob.d + 1))


class TestSmoothness:
    def test_ridge_identity_features(self):
        d = 6
        prob = Problem(np.eye(d), np.ones(d), lam=1.0 / d, loss_kind="ridge")
        assert smoothness(prob) == pytest.approx(2.0 / d, rel=1e-7)

    def test_logistic_identity_features(self):
        d = 6
        prob = Problem(np.eye(d), np.where(np.arange(d) % 2 == 0, 1.0, -1.0),
                       lam=1.0 / d, loss_kind="logistic")
        assert smoothness(prob) == pytest.approx(1.0 / (4 * d) + 1.0 / d, rel=1e-7)

    def test_gradient_lipschitz(self):
        for kind in ("ridge", "logistic"):
            ds = (synth_regression(15, 60, 0.5, 11) if kind == "ridge"
                  else synth_classification(15, 60, 0.2, 11))
            prob = make_problem(ds, kind)
            L = smoothness(prob)
            gen = message_stream(4, 0)
            # slack covers the power iteration's 1e-8 value tolerance
            for _ in range(300):
                x = gen.standard_normal(15)
                y = gen.standard_normal(15)
                lhs = np.linalg.norm(gradient(prob, x) - gradient(prob, y))
                assert lhs <= L * np.linalg.norm(x - y) * (1 + 1e-7)


class TestMinimizer:
    def test_ridge_scalar_solve(self):
        d = 5
        y = np.zeros(d)
        y[0] = 1.0
        prob = Problem(np.eye(d), y, lam=1.0 / d, loss_kind="ridge")
        x_star = minimizer(prob)
        expect = np.zeros(d)
        expect[0] = 0.5  # (1/d + 1/d) x = (1/d) e1
        assert x_star == pytest.approx(expect, rel=1e-10)

    def test_gradient_vanishes_at_minimizer(self):
        for i in range(6):
            prob = random_problem(i)
            x_star = minimizer(prob)
            assert np.linalg.norm(gradient(prob, x_star)) <= 1e-9

    def test_requires_strong_convexity(self):
        prob = Problem(np.eye(3), np.ones(3), lam=0.0, loss_kind="ridge")
        with pytest.raises(ValueError):
            minimizer(prob)


@pytest.fixture(scope="module")
def ridge():
    return make_problem(synth_regression(20, 80, 0.1, 7), "ridge")


class TestCgd:
    def test_identity_matches_plain_gd(self, ridge):
        trace = cgd_run(ridge, OperatorConfig("identity"))
        # reference: float64 gradient descent with the same stopping rule
        L = smoothness(ridge)
        x_star = minimizer(ridge)
        x = np.zeros(ridge.d)
        denom = float(np.dot(x_star, x_star))
        iters = 0
        while True:
            x = x - gradient(ridge, x) / L
            iters += 1
            if float(np.dot(x - x_star, x - x_star)) / denom <= 1e-4:
                break
        assert trace.total_iterations == iters
        assert trace.status == "converged"

    def test_topk_full_is_gd(self, ridge):
        base = cgd_run(ridge, OperatorConfig("identity"))
        full = cgd_run(ridge, OperatorConfig("topk", k=ridge.d))
        assert full.total_iterations == base.total_iterations

    def test_trace_invariants(self, ridge):
        trace = cgd_run(ridge, OperatorConfig("rsd", nu=0.25, seed=2))
        assert trace.rel_err[0] == 1.0
        assert trace.bits[0] == 0
        assert (np.diff(trace.bits) > 0).all()
        assert trace.rel_err[-1] <= 1e-4

    def test_deterministic_replay(self, ridge):
        t1 = cgd_run(ridge, OperatorConfig("sc", alpha=0.8, seed=5))
        t2 = cgd_run(ridge, OperatorConfig("sc", alpha=0.8, seed=5))
        assert np.array_equal(t1.rel_err, t2.rel_err)
        assert np.array_equal(t1.bits, t2.bits)

    def test_loss_decreases(self, ridge):
        x0_loss = loss(ridge, np.zeros(ridge.d))
        for config in (OperatorConfig("dsd", nu=0.1),
                       OperatorConfig("rsd", nu=0.25, seed=4),
                       OperatorConfig("sc", alpha=0.8, seed=4),
                       OperatorConfig("topk", k=5)):
            trace = cgd_run(ridge, config)
            assert trace.status == "converged"
            assert loss(ridge, trace.final_point) < x0_loss

    def test_eps_one_stops_immediately(self, ridge):
        trace = cgd_run(ridge, OperatorConfig("identity"), eps=1.0)
        assert trace.total_iterations == 0
        assert trace.status == "converged"

    def test_divergence_guard(self, ridge):
        true_L = smoothness(ridge)
        trace = cgd_run(ridge, OperatorConfig("identity"), L=true_L / 100.0,
                        max_iter=3000)
        assert trace.status == "diverged"

    def test_max_iterations(self, ridge):
        trace = cgd_run(ridge, OperatorConfig("identity"), max_iter=2)
        assert trace.status == "max-iterations"
        assert trace.total_iterations == 2

    def test_csv_format(self, ridge):
        trace = cgd_run(ridge, OperatorConfig("dsd", nu=0.1))
        text = trace.to_csv()
        lines = text.strip().splitlines()
        header_idx = lines.index("t,bits,rel_err,distortion")
        assert any(line.startswith("# operator=dsd") for line in lines[:header_idx])
        assert len(lines) - header_idx - 1 == trace.iterations.size


class TestRatioSweep:
    def test_no_compression_limit(self, ridge):
        rows, gd = iteration_ratio_sweep(ridge, "topk", [0.0])
        assert rows[0]["ratio"] == pytest.approx(1.0)

    def test_theoretical_curves(self):
        for family, param, ratio in (("topk", 0.75, 4.0), ("rsd", 0.25, 1.25),
                                     ("rsd-wrapped", 0.25, 1.25), ("sc", 0.5, 2.0),
                                     ("dsd", 0.2, 1.25)):
            config = optim.sweep_config(family, param, 100)
            assert theoretical_ratio(config, 100) == pytest.approx(ratio)

    def test_wrapped_rsd_ratio_increases(self, ridge):
        rows, _ = iteration_ratio_sweep(ridge, "rsd-wrapped", [0.1, 1.0],
                                        repeats=2, seed=3)
        assert rows[1]["iterations"] > rows[0]["iterations"]

    def test_unknown_family(self, ridge):
        with pytest.raises(ValueError):
            iteration_ratio_sweep(ridge, "what", [0.1])

    def test_r_squared(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0
        assert r_squared([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) < 0.0


class TestContractionLaw:
    def test_sc_ratio_tracks_inverse_gap(self):
        """Spherical compression realizes close to its full contraction
        per message, so its iteration inflation tracks 1/(1-alpha):
        always below it (the law is an upper bound), within a modest
        envelope, and strongly inflating as alpha approaches 1."""
        problem = make_problem(synth_regression(10, 80, 0.1, 7), "ridge")
        grid = [0.1, 0.3, 0.5, 0.7, 0.9]
        rows, _ = iteration_ratio_sweep(problem, "sc", grid, repeats=3, seed=7)
        for row in rows:
            assert row["status"] == "converged"
            assert row["ratio"] <= row["predicted_ratio"] * 1.05 + 0.1
            assert row["ratio"] >= row["predicted_ratio"] * 0.6
        ratios = [r["ratio"] for r in rows]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] >= 5.0
        assert r_squared(ratios, [r["predicted_ratio"] for r in rows]) >= 0.65


class TestSweepConfig:
    def test_topk_alpha_mapping(self):
        cfg = optim.sweep_config("topk", 0.9, 50)
        assert cfg.k == 5
        cfg = optim.sweep_config("topk", 0.0, 50)
        assert cfg.k == 50

    def test_wrapped(self):
        cfg = optim.sweep_config("rsd-wrapped", 0.25, 50)
        assert cfg.wrap_omega == 0.25 and cfg.nu == 0.25
