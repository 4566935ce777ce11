"""Loss models and the compressed gradient descent harness.

Problems are ridge regression or l2-regularized logistic regression
with lambda = 1/n by default.  CGD iterates
x_{t+1} = x_t - (1/L) C(grad f(x_t)) from x_0 = 0 and stops when
||x_t - x*||^2 / ||x_0 - x*||^2 <= eps.
"""

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .compressors import CODECS, OperatorConfig, make_operator
from .data import Dataset, map_binary_labels
from .rng import message_stream

DIVERGENCE_GUARD = 1e12


@dataclass
class Problem:
    features: np.ndarray
    labels: np.ndarray
    lam: float
    loss_kind: str  # "ridge" or "logistic"
    name: str = ""

    def __post_init__(self):
        if self.loss_kind not in ("ridge", "logistic"):
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("feature/label row counts differ")

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def d(self):
        return self.features.shape[1]


def make_problem(dataset: Dataset, loss_kind, lam=None):
    """Build a Problem; logistic labels are mapped onto {-1,+1}."""
    labels = dataset.labels
    if loss_kind == "logistic":
        labels = map_binary_labels(labels)
    if lam is None:
        lam = 1.0 / dataset.n
    return Problem(
        features=dataset.features,
        labels=np.asarray(labels, dtype=np.float64),
        lam=float(lam),
        loss_kind=loss_kind,
        name=dataset.name,
    )


def _check_dim(problem, x):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (problem.d,):
        raise ValueError(f"expected shape ({problem.d},), got {x.shape}")
    return x


def loss(problem: Problem, x):
    x = _check_dim(problem, x)
    A, y, n = problem.features, problem.labels, problem.n
    reg = 0.5 * problem.lam * float(np.dot(x, x))
    if problem.loss_kind == "ridge":
        r = A @ x - y
        return float(np.dot(r, r)) / (2.0 * n) + reg
    margins = y * (A @ x)
    return float(np.logaddexp(0.0, -margins).sum()) / n + reg


def gradient(problem: Problem, x):
    x = _check_dim(problem, x)
    A, y, n = problem.features, problem.labels, problem.n
    if problem.loss_kind == "ridge":
        return A.T @ (A @ x - y) / n + problem.lam * x
    margins = y * (A @ x)
    # sigma(-m) = 1/(1+e^m), computed stably via tanh
    sig = 0.5 * (1.0 - np.tanh(0.5 * margins))
    return -(A.T @ (y * sig)) / n + problem.lam * x


def _max_eigenvalue(A):
    """Largest eigenvalue of A^T A by power iteration."""
    v = message_stream(7, 7).standard_normal(A.shape[1])
    v /= np.linalg.norm(v)
    lam_prev = 0.0
    for _ in range(10_000):
        w = A.T @ (A @ v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        lam = float(v @ (A.T @ (A @ v)))
        if abs(lam - lam_prev) <= 1e-8 * abs(lam):
            return lam
        lam_prev = lam
    raise RuntimeError("power iteration did not converge in 10000 steps")


def smoothness(problem: Problem):
    """Explicit smoothness constant L of the loss.

    Ridge: lambda_max(A^T A)/n + lam.  Logistic uses the sigmoid
    curvature bound 1/4: lambda_max(A^T A)/(4 n) + lam.
    """
    lam_max = _max_eigenvalue(problem.features)
    if problem.loss_kind == "ridge":
        return lam_max / problem.n + problem.lam
    return lam_max / (4.0 * problem.n) + problem.lam


def minimizer(problem: Problem):
    """Precompute x*: a direct solve for ridge, full-precision gradient
    descent to ||grad|| <= 1e-10 for logistic."""
    if problem.lam <= 0.0:
        raise ValueError("minimizer requires lam > 0 (strong convexity)")
    A, y, n = problem.features, problem.labels, problem.n
    if problem.loss_kind == "ridge":
        H = A.T @ A / n + problem.lam * np.eye(problem.d)
        return np.linalg.solve(H, A.T @ y / n)
    L = smoothness(problem)
    x = np.zeros(problem.d)
    for _ in range(5_000_000):
        g = gradient(problem, x)
        if np.linalg.norm(g) <= 1e-10:
            return x
        x = x - g / L
    raise RuntimeError("logistic minimizer did not reach ||grad|| <= 1e-10")


@dataclass
class RunTrace:
    """Per-iteration record of one CGD run.

    Row 0 is the initial state (relative error 1, no bits, distortion
    0); row t > 0 reports the state after t compressed steps and the
    distortion of step t's compression.
    """

    iterations: np.ndarray
    bits: np.ndarray
    rel_err: np.ndarray
    distortion: np.ndarray
    status: str
    final_point: np.ndarray = None
    metadata: dict = field(default_factory=dict)

    @property
    def total_iterations(self):
        return int(self.iterations[-1])

    @property
    def total_bits(self):
        return int(self.bits[-1])

    def to_csv(self):
        lines = [f"# {k}={v}" for k, v in sorted(self.metadata.items())]
        lines.append("t,bits,rel_err,distortion")
        for t, b, r, dist in zip(self.iterations, self.bits, self.rel_err,
                                 self.distortion):
            lines.append(f"{int(t)},{int(b)},{r:.12g},{dist:.12g}")
        return "\n".join(lines) + "\n"


def cgd_run(problem: Problem, config: OperatorConfig, eps=1e-4,
            max_iter=1_000_000, x_star=None, L=None):
    """Compressed gradient descent with per-step bit accounting.

    x* and L may be passed in to amortize their computation across a
    sweep; they are recomputed otherwise.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if L is None:
        L = smoothness(problem)
    if x_star is None:
        x_star = minimizer(problem)
    op = make_operator(config)
    x = np.zeros(problem.d)
    denom = float(np.dot(x - x_star, x - x_star))

    ts = [0]
    bits = [0]
    rel = [1.0]
    dist = [0.0]
    status = "max-iterations"
    if denom == 0.0 or 1.0 <= eps:
        status = "converged"
    else:
        cum_bits = 0
        for t in range(1, max_iter + 1):
            g = gradient(problem, x)
            _, out = op.compress_at(g, t - 1)
            x = x - out.reconstructed / L
            cum_bits += out.bits
            diff = x - x_star
            r = float(np.dot(diff, diff)) / denom
            ts.append(t)
            bits.append(cum_bits)
            rel.append(r)
            dist.append(out.distortion)
            if r <= eps:
                status = "converged"
                break
            if r > DIVERGENCE_GUARD:
                status = "diverged"
                break

    return RunTrace(
        iterations=np.asarray(ts, dtype=np.int64),
        bits=np.asarray(bits, dtype=np.int64),
        rel_err=np.asarray(rel),
        distortion=np.asarray(dist),
        status=status,
        final_point=x,
        metadata={
            "problem": problem.name,
            "loss": problem.loss_kind,
            "d": problem.d,
            "n": problem.n,
            "lam": problem.lam,
            "operator": config.label(),
            "seed": config.seed,
            "eps": eps,
            "L": L,
        },
    )


@dataclass(frozen=True)
class SweepFamily:
    """One sweep family: the axis its grid values are read on, "alpha"
    (contractive, predicted ratio 1/(1-alpha)) or "omega" (unbiased,
    1+omega), and config(value, d) -> its OperatorConfig."""

    axis: str
    config: Callable


SWEEP_FAMILIES = {
    "topk": SweepFamily("alpha", lambda a, d: OperatorConfig(
        "topk", k=min(d, max(1, round((1.0 - a) * d))))),
    "sc": SweepFamily("alpha", lambda a, d: OperatorConfig("sc", alpha=a)),
    "dsd": SweepFamily("alpha", lambda a, d: OperatorConfig("dsd", nu=a)),
    "rsd": SweepFamily("omega", lambda w, d: OperatorConfig("rsd", nu=w)),
    # B(omega/(1+omega)) gives 1/(1-alpha) = 1+omega
    "rsd-wrapped": SweepFamily("omega", lambda w, d: OperatorConfig(
        "rsd", nu=w, wrap_omega=w)),
}


def _family(name):
    """The SWEEP_FAMILIES row of `name`; ValueError for an unknown family."""
    if name not in SWEEP_FAMILIES:
        raise ValueError(f"unknown sweep family {name!r}")
    return SWEEP_FAMILIES[name]


def sweep_config(family, param, d, seed=0):
    """Operator config for one sweep point of `family`."""
    return dataclasses.replace(_family(family).config(param, d), seed=seed)


def theoretical_ratio(family, param):
    """Iteration inflation predicted for the family: 1/(1-alpha) for
    contractive operators, 1+omega for unbiased ones; ValueError for
    alpha >= 1, where 1/(1-alpha) is infinite or negative."""
    if _family(family).axis == "omega":
        return 1.0 + param
    if not param < 1.0:
        raise ValueError(f"{family} sweep needs alpha < 1, got {param}")
    return 1.0 / (1.0 - param)


def iteration_ratio_sweep(problem: Problem, family, grid, eps=1e-4,
                          seed=0, repeats=1):
    """Iterations-to-eps across a parameter grid, relative to the
    uncompressed baseline.

    Randomized families may average over `repeats` independent seeds.
    Returns (rows, gd_iterations) where each row is a dict with the
    parameter, mean iterations, ratio, total bits, predicted ratio,
    and per-row status.  ValueError before the baseline runs where a
    grid point has no predicted ratio or no valid config, and before any
    grid point runs where the baseline takes no step (eps >= 1 or
    x* = 0): no ratio exists.
    """
    _family(family)
    predicted = [theoretical_ratio(family, param) for param in grid]
    configs = [sweep_config(family, param, problem.d, seed=seed) for param in grid]
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    L = smoothness(problem)
    x_star = minimizer(problem)
    base = cgd_run(problem, OperatorConfig("identity"), eps=eps, x_star=x_star, L=L)
    gd_iters = base.total_iterations
    if gd_iters == 0:
        raise ValueError(f"the uncompressed baseline meets eps={eps} at step 0")

    rows = []
    for param, predicted_ratio, first in zip(grid, predicted, configs):
        iters = []
        bits = []
        statuses = []
        for r in range(repeats if CODECS[first.kind].randomized else 1):
            config = dataclasses.replace(first, seed=seed + r)
            trace = cgd_run(problem, config, eps=eps, x_star=x_star, L=L)
            iters.append(trace.total_iterations)
            bits.append(trace.total_bits)
            statuses.append(trace.status)
        ok = all(s == "converged" for s in statuses)
        mean_iters = float(np.mean(iters))
        rows.append({
            "param": param,
            "iterations": mean_iters,
            "ratio": mean_iters / gd_iters if ok else math.nan,
            "total_bits": float(np.mean(bits)),
            "predicted_ratio": predicted_ratio,
            "status": "converged" if ok else ";".join(sorted(set(statuses))),
        })
    return rows, gd_iters


def r_squared(measured, predicted):
    """Goodness of fit against a parameter-free curve (not a regression)."""
    measured = np.asarray(measured, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    ss_res = float(np.sum((measured - predicted) ** 2))
    ss_tot = float(np.sum((measured - measured.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else -math.inf
    return 1.0 - ss_res / ss_tot
