"""Spherical-cap geometry: the regularized incomplete beta function,
cap probabilities, and uniform sphere sampling with a Monte-Carlo
oracle for cross-validation.

cap_probability(alpha, d) is the fraction of the unit sphere in R^d
lying within distance sqrt(alpha) of an optimally placed cap center
(at radius sqrt(1-alpha)); it equals (1/2) I_alpha((d-1)/2, 1/2) and is
the per-trial success probability of spherical compression.
"""

import math
from dataclasses import dataclass

import numpy as np

_BETACF_EPS = 1e-15
_BETACF_TINY = 1e-300
_BETACF_MAX_ITER = 500
_ABS_TOL = 1e-12


@dataclass(frozen=True)
class CapParams:
    """Normalized variance alpha in (0,1) and dimension d >= 2."""

    alpha: float
    d: int

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")
        if self.d < 2:
            raise ValueError(f"dimension must be >= 2, got {self.d}")


def _betacf(a, b, x):
    """Continued fraction for the incomplete beta (modified Lentz).

    Translated from the standard Numerical Recipes form; converges for
    x < (a+1)/(a+b+2), which the caller guarantees via the reflection
    identity.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETACF_TINY:
        d = _BETACF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETACF_TINY:
            d = _BETACF_TINY
        c = 1.0 + aa / c
        if abs(c) < _BETACF_TINY:
            c = _BETACF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETACF_TINY:
            d = _BETACF_TINY
        c = 1.0 + aa / c
        if abs(c) < _BETACF_TINY:
            c = _BETACF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    raise RuntimeError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})"
    )


def _log_front(p, a, b):
    return (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(p)
        + b * math.log1p(-p)
    )


def reg_inc_beta(p, a, b):
    """Regularized incomplete beta I_p(a, b) to absolute tolerance 1e-12.

    Satisfies I_p(a,b) = 1 - I_{1-p}(b,a); the gamma prefactor is
    evaluated in log space so large parameters do not overflow.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"a and b must be positive, got a={a}, b={b}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0,1], got {p}")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    if p < (a + 1.0) / (a + b + 2.0):
        return math.exp(_log_front(p, a, b)) * _betacf(a, b, p) / a
    return 1.0 - math.exp(_log_front(p, a, b)) * _betacf(b, a, 1.0 - p) / b


def log2_reg_inc_beta(p, a, b):
    """log2 I_p(a, b), accurate even when I underflows float64."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"a and b must be positive, got a={a}, b={b}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0,1], got {p}")
    if p == 1.0:
        return 0.0
    if p < (a + 1.0) / (a + b + 2.0):
        return (_log_front(p, a, b) + math.log(_betacf(a, b, p) / a)) / math.log(2.0)
    return math.log2(reg_inc_beta(p, a, b))


def cap_probability(params: CapParams):
    """P(alpha, d) = (1/2) I_alpha((d-1)/2, 1/2), strictly below 1/2."""
    return 0.5 * reg_inc_beta(params.alpha, (params.d - 1) / 2.0, 0.5)


def log2_cap_probability(params: CapParams):
    """log2 P(alpha, d); safe for caps far too small to represent linearly."""
    return log2_reg_inc_beta(params.alpha, (params.d - 1) / 2.0, 0.5) - 1.0


def sample_unit_sphere_block(d, count, rng: np.random.Generator):
    """`count` uniform unit vectors as a (count, d) array."""
    v = rng.standard_normal((count, d))
    norms = np.linalg.norm(v, axis=1)
    bad = norms == 0.0
    while bad.any():
        v[bad] = rng.standard_normal((int(bad.sum()), d))
        norms[bad] = np.linalg.norm(v[bad], axis=1)
        bad = norms == 0.0
    return v / norms[:, None]


def mc_cap_probability(params: CapParams, trials, rng: np.random.Generator):
    """Monte-Carlo estimate of cap_probability.

    Counts uniform unit samples x with ||x - c||^2 <= alpha for the
    optimal center c = sqrt(1-alpha) e1.  Returns (estimate, standard
    error) with the standard error sqrt(p_hat (1-p_hat) / trials).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    center = math.sqrt(1.0 - params.alpha)
    hits = 0
    left = trials
    while left > 0:
        n = min(1 << 15, left)
        x = sample_unit_sphere_block(params.d, n, rng)
        x[:, 0] -= center
        dist2 = np.einsum("ij,ij->i", x, x)
        hits += int((dist2 <= params.alpha).sum())
        left -= n
    p_hat = hits / trials
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return p_hat, stderr
