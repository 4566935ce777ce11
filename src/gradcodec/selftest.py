"""Shared measurement batteries for the acceptance suite and the CLI
self-test.

Each helper measures one family of guarantees at a configurable budget
and returns plain data; callers decide what to assert.  sc_cell_cost
estimates the sampling work a spherical-compression cell needs, since
the expected trial count 1/P(alpha, d) grows exponentially in d at
fixed alpha and some nominal settings are not runnable.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from . import bounds
from .bitio import BitCursor
from .compressors import OperatorConfig, make_operator
from .data import synth_classification, synth_regression
from .geometry import CapParams, cap_probability, mc_cap_probability
from .optim import cgd_run, iteration_ratio_sweep, make_problem, r_squared
from .rng import message_stream

# sampling budget (normal draws) above which an SC cell is not runnable
# inside the acceptance-suite time limits
SC_DRAW_BUDGET = 2.5e8


@dataclass
class ConfigStats:
    """Per-configuration aggregate used by the lower-bound check."""

    label: str
    d: int
    mean_bits: float
    mean_distortion: float
    messages: int


def roundtrip_configs(d):
    """One representative configuration per operator kind at dimension d."""
    cfgs = [
        OperatorConfig("dsd", nu=0.1),
        OperatorConfig("rsd", nu=0.25, seed=11),
        OperatorConfig("topk", k=max(1, d // 32)),
        OperatorConfig("randsparse", k=max(1, d // 32), seed=12),
        OperatorConfig("dither", levels=max(1, round(math.sqrt(d))), seed=13),
        OperatorConfig("ternary", seed=14),
        OperatorConfig("natural", seed=15),
        OperatorConfig("identity"),
    ]
    if d >= 2:
        cfgs.append(OperatorConfig("sc", alpha=1.0 - 1.0 / d, seed=16))
    return cfgs


def run_roundtrips(dims, per_d, seed=0):
    """Encode/decode `per_d` random vectors per dimension per operator.

    Returns (failures, stats): failures is a list of mismatch
    descriptions (empty when every decode equals the encoder-side
    reconstruction bit for bit and consumes the whole payload), and
    stats holds per-configuration aggregates.
    """
    failures = []
    all_stats = []
    gen = message_stream(seed, 900)
    for d in dims:
        xs = gen.standard_normal((per_d, d)) * np.exp(gen.standard_normal((per_d, 1)))
        for config in roundtrip_configs(d):
            op = make_operator(config)
            bits_total = 0.0
            dist_total = 0.0
            for i in range(per_d):
                payload, out = op.compress_at(xs[i], i)
                rec = op.decompress(payload, d, message_index=i)
                if not np.array_equal(rec, out.reconstructed):
                    failures.append(
                        f"{config.label()} d={d} msg={i}: decode != encoder reconstruction"
                    )
                if out.bits != len(payload):
                    failures.append(
                        f"{config.label()} d={d} msg={i}: bits {out.bits} != payload {len(payload)}"
                    )
                bits_total += out.bits
                dist_total += out.distortion
            all_stats.append(ConfigStats(
                label=config.label(),
                d=d,
                mean_bits=bits_total / per_d,
                mean_distortion=dist_total / per_d,
                messages=per_d,
            ))
    return failures, all_stats


def run_dsd_bits(dims, per_d, nu=0.1, seed=0):
    """Worst observed bits/distortion of deterministic sparse dithering
    on random unit vectors, per dimension."""
    gen = message_stream(seed, 901)
    results = []
    op_stats = []
    for d in dims:
        worst_bits = 0
        worst_dist = 0.0
        mean_bits = 0.0
        mean_dist = 0.0
        op = make_operator(OperatorConfig("dsd", nu=nu))
        for i in range(per_d):
            x = gen.standard_normal(d)
            x /= np.linalg.norm(x)
            _, out = op.compress_at(x, i)
            worst_bits = max(worst_bits, out.bits)
            worst_dist = max(worst_dist, out.distortion)
            mean_bits += out.bits
            mean_dist += out.distortion
        bound = 30.0 + math.log2(d) + bounds.dsd_beta(nu) * d
        results.append({
            "d": d,
            "worst_bits": worst_bits,
            "worst_distortion": worst_dist,
            "bound_bits": bound,
        })
        op_stats.append(ConfigStats(
            label=f"dsd(nu={nu:g})@unit",
            d=d,
            mean_bits=mean_bits / per_d,
            mean_distortion=mean_dist / per_d,
            messages=per_d,
        ))
    return results, op_stats


def run_rsd(d, messages, nu=0.25, seed=0):
    """Mean bits, savings, and unbiasedness statistics for randomized
    sparse dithering at one dimension.

    Unbiasedness is measured on a fixed vector across `messages`
    independent streams: per-coordinate t statistics against the
    empirical standard error, plus the chi-square aggregate sum(t^2)
    (mean 1 per coordinate when the operator is unbiased).
    """
    x = message_stream(seed, 902).standard_normal(d)
    op = make_operator(OperatorConfig("rsd", nu=nu, seed=seed))
    recs = np.empty((messages, d))
    bits = np.empty(messages)
    dists = np.empty(messages)
    for i in range(messages):
        _, out = op.compress_at(x, i)
        recs[i] = out.reconstructed
        bits[i] = out.bits
        dists[i] = out.distortion
    mean = recs.mean(axis=0)
    se = recs.std(axis=0, ddof=1) / math.sqrt(messages)
    t = np.abs(mean - x) / np.where(se == 0.0, np.inf, se)
    chi2 = float((t ** 2).sum())
    mean_bits = float(bits.mean())
    return {
        "d": d,
        "mean_bits": mean_bits,
        "bound_bits": bounds.rsd_predicted_bits(nu, d),
        "savings": bounds.savings_factor(nu, mean_bits, d),
        "max_t": float(t.max()),
        "n_above_4se": int((t > 4.0).sum()),
        "chi2": chi2,
        "chi2_limit": d + 4.0 * math.sqrt(2.0 * d),
        "stats": ConfigStats(f"rsd(nu={nu:g})", d, mean_bits,
                             float(dists.mean()), messages),
    }


def geometric_chi2_pvalue(samples, p, min_expected=5.0):
    """Chi-square goodness of fit of integer samples to Geometric(p),
    binned by geometric quantiles with expected counts >= min_expected."""
    samples = np.asarray(samples, dtype=np.int64)
    n = samples.size
    qs = stats.geom.ppf(np.linspace(0.0, 1.0, 21)[1:-1], p).astype(np.int64)
    edges = np.unique(qs[qs >= 1])
    # bins: [1, e0], (e0, e1], ..., (e_last, inf)
    uppers = list(edges) + [None]
    probs = []
    lower = 0
    for up in uppers:
        if up is None:
            probs.append(1.0 - stats.geom.cdf(lower, p))
        else:
            probs.append(stats.geom.cdf(up, p) - stats.geom.cdf(lower, p))
            lower = up
    probs = np.asarray(probs)
    # merge adjacent bins until every expected count is large enough
    merged_probs = []
    merged_uppers = []
    acc = 0.0
    for prob, up in zip(probs, uppers):
        acc += prob
        if acc * n >= min_expected or up is None:
            merged_probs.append(acc)
            merged_uppers.append(up)
            acc = 0.0
    if acc > 0.0 and merged_probs:
        merged_probs[-1] += acc
    if len(merged_probs) < 2:
        return 1.0
    finite_edges = np.asarray(
        [u for u in merged_uppers if u is not None], dtype=np.int64
    )
    observed = np.bincount(
        np.searchsorted(finite_edges, samples, side="left"),
        minlength=len(merged_probs),
    ).astype(np.float64)
    expected = np.asarray(merged_probs) * n
    expected *= observed.sum() / expected.sum()
    return float(stats.chisquare(observed, expected).pvalue)


def sc_cell_cost(alpha, d, messages):
    """Expected normal draws to run `messages` SC messages at (alpha, d)."""
    p = cap_probability(CapParams(alpha, d))
    return messages * d / p


def run_sc_cell(alpha, d, messages, seed=0):
    """Full spherical-compression battery for one (alpha, d) cell:
    payload-bit sandwich inputs, per-message strict contraction, and the
    trial-count sample for the geometric fit."""
    p = cap_probability(CapParams(alpha, d))
    op = make_operator(OperatorConfig("sc", alpha=alpha, seed=seed))
    gen = message_stream(seed, 903)
    payload_bits = np.empty(messages)
    trial_counts = np.empty(messages, dtype=np.int64)
    contraction_violations = 0
    dist_total = 0.0
    m = None
    from . import bitio

    for i in range(messages):
        x = gen.standard_normal(d)
        payload, out = op.compress_at(x, i)
        payload_bits[i] = out.bits - 31
        dist_total += out.distortion
        if out.distortion > alpha:
            contraction_violations += 1
        cursor = BitCursor(payload)
        bitio.read_float_magnitude(cursor)
        if m is None:
            m = bitio.golomb_rice_params(p)
        trial_counts[i] = bitio.golomb_rice_decode(cursor, m)
    lower = -math.log2(p)
    return {
        "alpha": alpha,
        "d": d,
        "p": p,
        "mean_payload_bits": float(payload_bits.mean()),
        "lower": lower,
        "upper": lower + 3.0,
        "contraction_violations": contraction_violations,
        "chi2_pvalue": geometric_chi2_pvalue(trial_counts, p),
        "mean_trials": float(trial_counts.mean()),
        "stats": ConfigStats(f"sc(alpha={alpha:g})", d,
                             float(payload_bits.mean()) + 31.0,
                             dist_total / messages, messages),
    }


def run_geometry_cell(alpha, d, trials, seed=0):
    """Closed-form vs Monte-Carlo cap probability for one cell."""
    params = CapParams(alpha, d)
    exact = cap_probability(params)
    estimate, _ = mc_cap_probability(params, trials, message_stream(seed, 904))
    # the tolerance uses the exact p, so cells with vanishing caps stay testable
    tol = 4.0 * math.sqrt(exact * (1.0 - exact) / trials)
    return {
        "alpha": alpha,
        "d": d,
        "exact": exact,
        "estimate": estimate,
        "tolerance": tol,
        "ok": abs(exact - estimate) <= tol,
    }


def eq1_margin(stats_list, floor=2.0 ** -64):
    """Worst margin of the uncertainty-principle check across collected
    configuration aggregates.

    For each configuration, mean bits must be at least
    (d/2) log2(1 / alpha_measured); distortions at or below `floor`
    (exact reconstructions in finite precision) are clamped to the
    floor.  Returns (worst_margin, offender) where a positive margin
    means the bound held.
    """
    worst = math.inf
    offender = None
    for cs in stats_list:
        alpha_m = max(cs.mean_distortion, floor)
        if alpha_m >= 1.0:
            continue  # the bound is vacuous (nonpositive)
        required = 0.5 * cs.d * math.log2(1.0 / alpha_m)
        margin = cs.mean_bits - required
        if margin < worst:
            worst = margin
            offender = f"{cs.label} d={cs.d}: bits {cs.mean_bits:.1f} vs required {required:.1f}"
    return worst, offender


def make_ridge_problem(d=50, n=200, seed=7):
    return make_problem(synth_regression(d, n, 0.1, seed), "ridge")


def make_logistic_problem(d=50, n=200, seed=7):
    return make_problem(synth_classification(d, n, 0.5, seed), "logistic")


def run_ratio_fit(problem, family, grid, repeats=3, eps=1e-4, seed=0):
    """Iteration-ratio sweep plus its fit against the parameter-free law."""
    rows, gd_iters = iteration_ratio_sweep(
        problem, family, grid, eps=eps, seed=seed, repeats=repeats
    )
    measured = [r["ratio"] for r in rows]
    predicted = [r["predicted_ratio"] for r in rows]
    return {
        "family": family,
        "rows": rows,
        "gd_iterations": gd_iters,
        "r2": r_squared(measured, predicted),
    }


def run_ordering(problem, sc_alpha, eps=1e-4, seed=0):
    """Cumulative bits to eps for the compared operators vs the 32d/iter
    baseline; returns {label: (bits, status)}."""
    x_star = None
    out = {}
    configs = [
        ("basic", OperatorConfig("identity")),
        ("dsd", OperatorConfig("dsd", nu=0.1)),
        ("rsd", OperatorConfig("rsd", nu=0.25, seed=seed)),
        ("sc", OperatorConfig("sc", alpha=sc_alpha, seed=seed)),
    ]
    from .optim import minimizer, smoothness
    L = smoothness(problem)
    x_star = minimizer(problem)
    for label, config in configs:
        trace = cgd_run(problem, config, eps=eps, x_star=x_star, L=L)
        out[label] = (trace.total_bits, trace.status)
    return out


def run_gradient_checks(n_instances=100, n_pairs=1000, seed=0):
    """Finite-difference gradient errors and the Lipschitz margin of the
    computed smoothness constant on random problems."""
    from .optim import gradient, loss, smoothness

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
    lightest = math.inf
    for kind in ("ridge", "logistic"):
        prob = make_problem(ds if kind == "ridge" else
                            synth_classification(20, 60, 0.2, seed + 18), kind)
        L = smoothness(prob)
        from .optim import gradient as grad_fn
        gen2 = message_stream(seed, 906)
        for _ in range(n_pairs // 2):
            x = gen2.standard_normal(prob.d)
            y = gen2.standard_normal(prob.d)
            gx = grad_fn(prob, x)
            gy = grad_fn(prob, y)
            lhs = np.linalg.norm(gx - gy)
            rhs = L * np.linalg.norm(x - y)
            if rhs > 0:
                lightest = min(lightest, float(rhs - lhs))
    return {"worst_fd_rel_err": worst_rel, "lipschitz_min_margin": lightest}
