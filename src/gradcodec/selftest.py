"""Acceptance criteria: the measurement batteries and CHECKS, the one
table of checks that the acceptance suite and `gradcodec selftest` read.

Thresholds, grids, seeds and budgets are stated here and nowhere else.
A battery that several checks read runs once per Budget and process:
its result is cached.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bounds
from .bitio import BitCursor, read_float_magnitude
from .compressors import CODECS, OperatorConfig, _sc_fields, claim, make_operator
from .data import load_dataset, synth_classification, synth_regression
from .geometry import CapParams, cap_probability, mc_cap_probability
from .optim import (cgd_run, gradient, iteration_ratio_sweep, loss,
                    make_problem, minimizer, r_squared, smoothness)
from .rng import message_stream

# sampling budget (normal draws) above which an SC cell is not runnable
# inside the acceptance-suite time limits
SC_DRAW_BUDGET = 2.5e8


@dataclass(frozen=True)
class Budget:
    """Sample sizes of the batteries that take more than about a second.

    The cheaper batteries (ratio fits, ordering, gradient checks, the
    covering value) always run at their acceptance sizes.
    """

    roundtrip_dims: tuple
    roundtrip_messages: int
    dsd_dims: tuple
    dsd_messages: int
    rsd_d: int
    rsd_messages: int
    sc_messages: int
    geometry_trials: int


# the acceptance budgets, which `gradcodec selftest` runs by default
FULL = Budget(roundtrip_dims=(2, 3, 17, 256, 4096), roundtrip_messages=1000,
              dsd_dims=(100, 1000, 10_000), dsd_messages=200,
              rsd_d=10_000, rsd_messages=200,
              sc_messages=10_000, geometry_trials=10**6)
# `gradcodec selftest --fast`
FAST = Budget(roundtrip_dims=(2, 3, 17, 64), roundtrip_messages=20,
              dsd_dims=(100, 1000), dsd_messages=20,
              rsd_d=1000, rsd_messages=100,
              sc_messages=2000, geometry_trials=10**5)

DSD_NU = 0.1
RSD_NU = 0.25
SC_GRID = [(alpha, d) for d in (3, 10, 50) for alpha in (0.3, 0.5, 0.7)]
RATIO_GRIDS = {
    "topk": [i / 10 for i in range(10)],
    "rsd-wrapped": [0.05, 0.1, 0.25, 0.5, 1.0],
}
LOSSES = ("ridge", "logistic")
# criterion 8: cumulative bits to eps against the uncompressed "basic" run
ORDERING = {
    "basic": OperatorConfig("identity"),
    "dsd": OperatorConfig("dsd", nu=DSD_NU),
    "rsd": OperatorConfig("rsd", nu=RSD_NU, seed=8),
    "sc": OperatorConfig("sc", alpha=0.9, seed=8),
}
SC_LEG_AS_STATED = CapParams(0.5, 50)


@dataclass
class ConfigStats:
    """Per-configuration aggregate used by the lower-bound check."""

    label: str
    d: int
    mean_bits: float
    mean_distortion: float


def _config_stats(label, d, measured):
    """ConfigStats from a list of (bits, distortion) pairs."""
    bits, dists = np.mean(measured, axis=0)
    return ConfigStats(label, d, float(bits), float(dists))


# --- batteries ----------------------------------------------------------------

def roundtrip_configs(d):
    """Each CODECS row's example configuration at dimension d."""
    return [c for c in (spec.example(d) for spec in CODECS.values()) if c is not None]


@functools.cache
def roundtrip_battery(budget):
    """Encode/decode random vectors at every budget dimension with every
    roundtrip_configs operator.

    Returns (failures, stats): failures is a list of mismatch
    descriptions (empty when every decode equals the encoder-side
    reconstruction bit for bit and consumes the whole payload), and
    stats holds per-configuration aggregates.
    """
    n = budget.roundtrip_messages
    failures = []
    all_stats = []
    gen = message_stream(1, 900)
    for d in budget.roundtrip_dims:
        xs = gen.standard_normal((n, d)) * np.exp(gen.standard_normal((n, 1)))
        for config in roundtrip_configs(d):
            op = make_operator(config)
            measured = []
            for i in range(n):
                payload, out = op.compress_at(xs[i], i)
                where = f"{config.label()} d={d} msg={i}"
                if not np.array_equal(op.decompress(payload, d, message_index=i),
                                      out.reconstructed):
                    failures.append(f"{where}: decode != encoder reconstruction")
                if out.bits != len(payload):
                    failures.append(f"{where}: bits {out.bits} != payload {len(payload)}")
                measured.append((out.bits, out.distortion))
            all_stats.append(_config_stats(config.label(), d, measured))
    return failures, all_stats


@functools.cache
def dsd_battery(budget):
    """Deterministic sparse dithering on random unit vectors: one
    (d, worst bits, worst distortion, stats) row per budget dimension."""
    gen = message_stream(2, 901)
    rows = []
    for d in budget.dsd_dims:
        op = make_operator(OperatorConfig("dsd", nu=DSD_NU))
        measured = []
        for i in range(budget.dsd_messages):
            x = gen.standard_normal(d)
            _, out = op.compress_at(x / np.linalg.norm(x), i)
            measured.append((out.bits, out.distortion))
        worst_bits, worst_dist = np.max(measured, axis=0)
        rows.append((d, int(worst_bits), float(worst_dist),
                     _config_stats(f"dsd(nu={DSD_NU:g})@unit", d, measured)))
    return rows


@functools.cache
def rsd_battery(budget):
    """Randomized sparse dithering of one fixed vector over independent
    streams: returns (stats, per-coordinate |t|), where t is the mean
    reconstruction's deviation in units of its empirical standard error.
    """
    d, n = budget.rsd_d, budget.rsd_messages
    x = message_stream(3, 902).standard_normal(d)
    op = make_operator(OperatorConfig("rsd", nu=RSD_NU, seed=3))
    recs = np.empty((n, d))
    measured = []
    for i in range(n):
        _, out = op.compress_at(x, i)
        recs[i] = out.reconstructed
        measured.append((out.bits, out.distortion))
    se = recs.std(axis=0, ddof=1) / math.sqrt(n)
    t = np.abs(recs.mean(axis=0) - x) / np.where(se == 0.0, np.inf, se)
    return _config_stats(f"rsd(nu={RSD_NU:g})", d, measured), t


def geometric_cdf(k, p):
    """P(K <= k) for K ~ Geometric(p) on {1, 2, ...}: 1 - (1 - p)^floor(k)."""
    return -np.expm1(np.log1p(-p) * np.floor(k))


def geometric_quantile(q, p):
    """The least k >= 1 with geometric_cdf(k, p) >= q, for 0 < q < 1: the
    closed form ceil(log(1 - q) / log(1 - p)), one lower where rounding
    put it one too high."""
    k = np.ceil(np.log1p(-q) / np.log1p(-p))
    return np.where((geometric_cdf(k - 1, p) >= q) & (k > 0), k - 1, k)


def chi2_sf(x, dof):
    """P(X > x) for X ~ chi-square with a positive integer dof: the upper
    regularized gamma Q(dof/2, x/2), which is the sum of
    e^-y y^(a-1) / Gamma(a) over a = dof/2, dof/2 - 1, ... > 0 at y = x/2,
    plus erfc(sqrt(y)) where dof is odd."""
    y = 0.5 * x
    if dof % 2:
        total, term, a = math.erfc(math.sqrt(y)), 2.0 * math.exp(-y) * math.sqrt(y / math.pi), 1.5
    else:
        total, term, a = 0.0, math.exp(-y), 1.0
    while a <= 0.5 * dof:
        total += term
        term *= y / a
        a += 1.0
    return total


def geometric_chi2_pvalue(samples, p):
    """Chi-square goodness of fit of integer samples to Geometric(p),
    binned by geometric quantiles with expected counts >= 5."""
    samples = np.asarray(samples, dtype=np.int64)
    n = samples.size
    qs = geometric_quantile(np.linspace(0.0, 1.0, 21)[1:-1], p).astype(np.int64)
    edges = np.unique(qs[qs >= 1])
    # bins: [1, e0], (e0, e1], ..., (e_last, inf)
    uppers = list(edges) + [None]
    probs = np.diff(np.concatenate([[0.0], geometric_cdf(edges, p), [1.0]]))
    # merge each bin into the next until its expected count is large enough
    merged_probs = []
    merged_uppers = []
    acc = 0.0
    for prob, up in zip(probs, uppers):
        acc += prob
        if acc * n >= 5.0 or up is None:
            merged_probs.append(acc)
            merged_uppers.append(up)
            acc = 0.0
    if len(merged_probs) < 2:
        return 1.0
    observed = np.bincount(
        np.searchsorted(np.asarray(merged_uppers[:-1], dtype=np.int64), samples,
                        side="left"),
        minlength=len(merged_probs),
    ).astype(np.float64)
    expected = np.asarray(merged_probs) * n
    expected *= observed.sum() / expected.sum()
    return chi2_sf(float(((observed - expected) ** 2 / expected).sum()), observed.size - 1)


def sc_cell_cost(alpha, d, messages):
    """Expected normal draws to run `messages` SC messages at (alpha, d)."""
    p = cap_probability(CapParams(alpha, d))
    return messages * d / p


@functools.cache
def sc_battery(budget):
    """Spherical compression on every SC_GRID cell that fits
    SC_DRAW_BUDGET: the payload-bit sandwich inputs, per-message strict
    contraction, and the trial-count sample's geometric fit."""
    seed = 4
    cells = {}
    for alpha, d in SC_GRID:
        if sc_cell_cost(alpha, d, budget.sc_messages) > SC_DRAW_BUDGET:
            continue
        p = cap_probability(CapParams(alpha, d))
        op = make_operator(OperatorConfig("sc", alpha=alpha, seed=seed))
        gen = message_stream(seed, 903)
        measured = []
        norm_bits = 0  # the norm field's widths, read off the payloads
        trial_counts = np.empty(budget.sc_messages, dtype=np.int64)
        for i in range(budget.sc_messages):
            payload, out = op.compress_at(gen.standard_normal(d), i)
            measured.append((out.bits, out.distortion))
            cursor = BitCursor(payload)
            read_float_magnitude(cursor)
            norm_bits += cursor.pos
            trial_counts[i] = _sc_fields(BitCursor(payload), d, alpha)[1]
        cell_stats = _config_stats(op.config.label(), d, measured)
        cells[(alpha, d)] = {
            "stats": cell_stats,
            "mean_payload_bits": cell_stats.mean_bits - norm_bits / budget.sc_messages,
            "lower": bounds.avg_lower_bound(alpha, d),
            "contraction_violations": sum(dist > alpha for _, dist in measured),
            "chi2_pvalue": geometric_chi2_pvalue(trial_counts, p),
        }
    return cells


@functools.cache
def problem(loss_kind):
    """The pinned d=50, n=200 synthetic problem of criteria 7 and 8."""
    return make_problem(load_dataset(f"synth:{loss_kind}"), loss_kind)


@functools.cache
def ratio_fit(family):
    """Iteration-ratio sweep over RATIO_GRIDS[family] on the ridge
    problem; returns (rows, R^2 against the parameter-free law)."""
    rows, _ = iteration_ratio_sweep(
        problem("ridge"), family, RATIO_GRIDS[family], eps=1e-4, seed=7, repeats=3
    )
    fit = r_squared([r["ratio"] for r in rows], [r["predicted_ratio"] for r in rows])
    return rows, fit


@functools.cache
def ordering_battery(loss_kind):
    """One CGD trace to eps=1e-4 per ORDERING configuration."""
    prob = problem(loss_kind)
    L = smoothness(prob)
    x_star = minimizer(prob)
    return {label: cgd_run(prob, config, eps=1e-4, x_star=x_star, L=L)
            for label, config in ORDERING.items()}


# --- the checks ---------------------------------------------------------------
# Each takes the Budget last and returns (ok, detail).

def _roundtrip_exactness(budget):
    failures, all_stats = roundtrip_battery(budget)
    detail = (f"{len(all_stats)} configurations x {budget.roundtrip_messages} "
              f"messages, {len(failures)} mismatches")
    return not failures, detail + "".join(f"; {f}" for f in failures[:5])


def _dsd_bound(budget):
    config = OperatorConfig("dsd", nu=DSD_NU)
    rows = [(d, bits, bounds.dsd_predicted_bits(DSD_NU, d) + 2, dist, claim(config, d)[1])
            for d, bits, dist, _ in dsd_battery(budget)]
    ok = all(bits <= limit and dist <= alpha for _, bits, limit, dist, alpha in rows)
    return ok, "; ".join(f"d={d}: bits {bits} <= {limit:.0f}, dist {dist:.4f} <= {alpha}"
                         for d, bits, limit, dist, alpha in rows)


def _rsd_bits(budget):
    cs, _ = rsd_battery(budget)
    limit = bounds.rsd_predicted_bits(RSD_NU, cs.d)
    omega = claim(OperatorConfig("rsd", nu=RSD_NU), cs.d)[1]
    savings = bounds.savings_factor(omega, cs.mean_bits, cs.d)
    return cs.mean_bits <= limit and savings >= 9.5, (
        f"mean bits {cs.mean_bits:.0f} <= {limit:.0f}, savings {savings:.2f} >= 9.5")


def _rsd_per_coordinate(budget):
    _, t = rsd_battery(budget)
    return t.max() <= 4.0, (f"per-coordinate max |t| = {t.max():.2f} <= 4 "
                            f"({(t > 4.0).sum()} of {t.size} coordinates above 4 SE)")


def _rsd_aggregate(budget):
    _, t = rsd_battery(budget)
    chi2, limit = (t ** 2).sum(), t.size + 4.0 * math.sqrt(2.0 * t.size)
    return chi2 <= limit, f"aggregate sum(t^2) = {chi2:.0f} <= {limit:.0f}"


def _sc_sandwich(alpha, d, budget):
    cell = sc_battery(budget).get((alpha, d))
    if cell is None:
        p = cap_probability(CapParams(alpha, d))
        return False, (f"not runnable: P = {p:.3e}, so {budget.sc_messages} messages "
                       f"need about {sc_cell_cost(alpha, d, budget.sc_messages):.2e} "
                       f"Gaussian draws (1/P = {1 / p:.2e} trials per message)")
    bits, lower = cell["mean_payload_bits"], cell["lower"]
    ok = (lower <= bits < lower + 3.0 and cell["contraction_violations"] == 0
          and cell["chi2_pvalue"] >= 1e-3)
    return ok, (f"payload {bits:.2f} in [{lower:.2f}, {lower + 3.0:.2f}), "
                f"{cell['contraction_violations']} contraction violations, "
                f"geometric fit p = {cell['chi2_pvalue']:.3g} >= 0.001")


def _geometry(budget):
    trials = budget.geometry_trials
    worst = 0.0
    for alpha, d in SC_GRID:
        params = CapParams(alpha, d)
        exact = cap_probability(params)
        estimate, _ = mc_cap_probability(params, trials, message_stream(5, 904))
        # the tolerance uses the exact p, so cells with vanishing caps stay testable
        tolerance = 4.0 * math.sqrt(exact * (1.0 - exact) / trials)
        worst = max(worst, abs(exact - estimate) / tolerance)
    closed_forms = (
        abs(cap_probability(CapParams(0.5, 3)) - 0.5 * (1 - math.sqrt(0.5))) <= 1e-9
        and abs(cap_probability(CapParams(0.5, 2)) - 0.25) <= 1e-9
    )
    return worst <= 1.0 and closed_forms, (
        f"worst |error|/tolerance = {worst:.2f} <= 1 over {len(SC_GRID)} cells, "
        f"closed forms at d=2,3 {'match' if closed_forms else 'differ'}")


def _eq1_floor(budget):
    """Mean bits of every measured configuration against the
    uncertainty principle (d/2) log2(1/alpha_measured); distortions at
    or below `floor` (exact reconstructions in finite precision) are
    clamped to it, and alpha_measured >= 1 makes the bound vacuous."""
    floor = 2.0 ** -64
    all_stats = list(roundtrip_battery(budget)[1])
    all_stats += [row[-1] for row in dsd_battery(budget)]
    all_stats.append(rsd_battery(budget)[0])
    all_stats += [cell["stats"] for cell in sc_battery(budget).values()]
    margin, offender = math.inf, None
    for cs in all_stats:
        alpha_m = max(cs.mean_distortion, floor)
        if alpha_m < 1.0:
            required = bounds.up_lower_bound(alpha_m, cs.d)
            if cs.mean_bits - required < margin:
                margin = cs.mean_bits - required
                offender = f"{cs.label} d={cs.d}: bits {cs.mean_bits:.1f} vs required {required:.1f}"
    return margin >= 0.0, (f"worst margin {margin:.1f} bits over {len(all_stats)} "
                           f"configurations ({offender})")


def _topk_fit(budget):
    rows, fit = ratio_fit("topk")
    measured = [round(r["ratio"], 2) for r in rows]
    return fit >= 0.9, f"top-k R^2 = {fit:.3f} >= 0.9 (measured ratios {measured})"


def _topk_upper(budget):
    rows, _ = ratio_fit("topk")
    ok = (all(r["status"] == "converged"
              and r["ratio"] <= r["predicted_ratio"] * 1.1 + 0.2 for r in rows)
          and rows[-1]["ratio"] > rows[0]["ratio"])
    return ok, "top-k ratios within 1.1 x 1/(1-alpha) + 0.2 and increasing"


def _wrapped_rsd_fit(budget):
    rows, fit = ratio_fit("rsd-wrapped")
    ok = all(r["status"] == "converged" for r in rows) and fit >= 0.9
    return ok, f"wrapped RSD R^2 = {fit:.3f} >= 0.9"


def _beats_baseline(loss_kind, label, budget):
    runs = ordering_battery(loss_kind)
    base, run = runs["basic"], runs[label]
    ok = base.status == run.status == "converged" and run.total_bits < base.total_bits
    return ok, (f"{loss_kind}/{ORDERING[label].label()}: {run.total_bits} bits "
                f"({run.status}) < {base.total_bits} baseline bits")


def _sc_leg_as_stated(budget):
    per_message = 1.0 / cap_probability(SC_LEG_AS_STATED)
    return False, (f"not runnable: sc(alpha={SC_LEG_AS_STATED.alpha}) at "
                   f"d={SC_LEG_AS_STATED.d} needs 1/P = {per_message:.2e} sphere samples "
                   f"per message (about {per_message * SC_LEG_AS_STATED.d:.1e} Gaussian draws)")


def _gradients(budget):
    """Finite-difference gradient errors and the Lipschitz margin of the
    computed smoothness constant on random problems."""
    n_instances, n_pairs, seed = 100, 1000, 9
    gen = message_stream(seed, 905)
    worst_rel = 0.0
    for i in range(n_instances):
        d = int(gen.integers(2, 12))
        n = int(gen.integers(d, 3 * d + 4))
        kind = "ridge" if i % 2 == 0 else "logistic"
        if kind == "ridge":
            ds = synth_regression(d, n, 0.5, seed * 1000 + i)
        else:
            ds = synth_classification(d, n, 0.2, seed * 1000 + i)
        prob = make_problem(ds, kind)
        x = gen.standard_normal(d)
        g = gradient(prob, x)
        fd = np.empty(d)
        h = 1e-6
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fd[j] = (loss(prob, x + e) - loss(prob, x - e)) / (2.0 * h)
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
        worst_rel = max(worst_rel, float(rel))

    ds = synth_regression(20, 60, 0.5, seed + 17)
    margin = math.inf
    for kind in ("ridge", "logistic"):
        prob = make_problem(ds if kind == "ridge" else
                            synth_classification(20, 60, 0.2, seed + 18), kind)
        L = smoothness(prob)
        gen2 = message_stream(seed, 906)
        for _ in range(n_pairs // 2):
            x = gen2.standard_normal(prob.d)
            y = gen2.standard_normal(prob.d)
            lhs = np.linalg.norm(gradient(prob, x) - gradient(prob, y))
            rhs = L * np.linalg.norm(x - y)
            if rhs > 0:
                margin = min(margin, float(rhs - lhs))
    return worst_rel <= 1e-5 and margin >= 0.0, (
        f"worst finite-difference relative error {worst_rel:.2e} <= 1e-5, "
        f"Lipschitz margin {margin:.2e} >= 0")


def _covering(budget):
    val = bounds.covering_bound_rhs(1000)
    return 1.04 <= val <= 1.06, f"(1600 d^2 log d)^(2/d) at d=1000 is {val:.4f} in [1.04, 1.06]"


# --- the table ----------------------------------------------------------------

PER_COORDINATE_REASON = (
    "with a few hundred draws of discrete coordinate laws the empirical-SE "
    "t statistic is heavy tailed, so this gate rejects the exactly unbiased "
    "operator for every seed; the calibrated aggregate confirms unbiasedness."
)
SC_CELL_REASON = (
    f"a cell above {SC_DRAW_BUDGET:.1e} expected Gaussian draws cannot fit the "
    "criterion's 3-minute budget on any commodity machine; every runnable "
    "cell of the grid is checked in full."
)
TOPK_REASON = (
    "top-k contracts generic gradients far better than its worst-case label "
    "alpha = 1-k/d, so its ratios stay below 1/(1-alpha) and the fit cannot "
    "reach 0.9; the law holds as an upper bound, and the wrapped-RSD check "
    "verifies it with an operator that attains its nominal contraction."
)
SC_LEG_REASON = (
    "at 1/P sphere samples per message a CGD run of tens of iterations cannot "
    f"fit the criterion's 2-minute budget; the {ORDERING['sc'].label()} legs "
    "verify the ordering at a tractable cost."
)


@dataclass(frozen=True)
class Check:
    """One acceptance check: run(budget) -> (ok, detail).

    `reason` is set only on the checks that fail by design, because
    their stated parameters are not attainable, and says why.
    """

    number: int
    run: Callable
    reason: str = None


CHECKS = {
    "round-trip exactness": Check(1, _roundtrip_exactness),
    "deterministic SD bit bound and distortion": Check(2, _dsd_bound),
    "randomized SD bit bound and savings": Check(3, _rsd_bits),
    "randomized SD per-coordinate unbiasedness as stated":
        Check(3, _rsd_per_coordinate, PER_COORDINATE_REASON),
    "randomized SD calibrated unbiasedness aggregate": Check(3, _rsd_aggregate),
    **{f"SC sandwich alpha={alpha} d={d}":
       Check(4, functools.partial(_sc_sandwich, alpha, d),
             None if sc_cell_cost(alpha, d, FULL.sc_messages) <= SC_DRAW_BUDGET
             else SC_CELL_REASON)
       for alpha, d in SC_GRID},
    "geometry Monte-Carlo oracle": Check(5, _geometry),
    "uncertainty-principle floor": Check(6, _eq1_floor),
    "top-k ratio law as stated": Check(7, _topk_fit, TOPK_REASON),
    "top-k inflation below the law": Check(7, _topk_upper),
    "wrapped RSD ratio law": Check(7, _wrapped_rsd_fit),
    **{f"{label} beats the baseline on {loss_kind}":
       Check(8, functools.partial(_beats_baseline, loss_kind, label))
       for loss_kind in LOSSES for label in ("dsd", "rsd")},
    **{f"sc(alpha={SC_LEG_AS_STATED.alpha}) leg on {loss_kind} as stated":
       Check(8, _sc_leg_as_stated, SC_LEG_REASON) for loss_kind in LOSSES},
    **{f"{ORDERING['sc'].label()} leg on {loss_kind}":
       Check(8, functools.partial(_beats_baseline, loss_kind, "sc"))
       for loss_kind in LOSSES},
    "gradients and smoothness constants": Check(9, _gradients),
    "covering-bound value at d=1000": Check(10, _covering),
}
