"""Closed-form rate-distortion formulas: lower bounds, predicted bit
counts for the sparse-dithering codecs, and bandwidth-savings
arithmetic.  All logarithms are base 2.
"""

import math

from .bitio import binom
from .geometry import CapParams, log2_cap_probability

FLOAT_BITS_PER_COORD = 32


def binary_entropy(tau):
    """H2(tau) in bits."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0,1], got {tau}")
    if tau in (0.0, 1.0):
        return 0.0
    return -tau * math.log2(tau) - (1.0 - tau) * math.log2(1.0 - tau)


def up_lower_bound(alpha, d):
    """Uncertainty-principle floor: b >= (d/2) log2(1/alpha)."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return 0.5 * d * math.log2(1.0 / alpha)


def avg_lower_bound(alpha, d):
    """Expected-bits floor for strictly contractive operators: -log2 P(alpha,d)."""
    return -log2_cap_probability(CapParams(alpha, d))


def bstar_estimate(alpha, d):
    """Central estimate of the minimal worst-case bits b*(alpha, d).

    Returns (estimate, error_band): -log2 P + log2 d + (1/2) log2 log2 d,
    with the additive error bounded by the same (1/2) log2 log2 d term.
    """
    if d < 3:
        raise ValueError(f"dimension must be >= 3, got {d}")
    band = 0.5 * math.log2(math.log2(d))
    estimate = avg_lower_bound(alpha, d) + math.log2(d) + band
    return estimate, band


def dsd_tau_star(nu):
    """Worst-case zero fraction for the deterministic codec's bit bound."""
    if nu <= 0.0:
        raise ValueError(f"nu must be positive, got {nu}")
    return 1.0 / (1.0 + 2.0 ** ((6.0 + 1.0 / math.sqrt(nu)) / 4.0))


def dsd_beta(nu):
    """Per-dimension coefficient beta(nu) of the deterministic bit bound."""
    tau = dsd_tau_star(nu)
    return (
        binary_entropy(tau)
        + 1.5 * (1.0 - tau)
        + (1.0 - tau / 2.0) / (2.0 * math.sqrt(nu))
    )


def dsd_predicted_bits(nu, d):
    """Worst-case bits for deterministic sparse dithering: 30 + log2 d + beta(nu) d."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return 30.0 + math.log2(d) + dsd_beta(nu) * d


def rsd_predicted_bits(omega, d):
    """Expected-bits bound for randomized sparse dithering."""
    if omega <= 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return 30.0 + math.log2(d) + (math.log2(3.0) + 0.5 / math.sqrt(omega)) * d


def savings_factor(omega, expected_bits, d):
    """Bandwidth savings over 32-bit floats, discounted by the (1+omega)
    iteration inflation of an unbiased operator."""
    if omega < 0.0:
        raise ValueError(f"omega must be >= 0, got {omega}")
    if expected_bits <= 0.0:
        raise ValueError("expected_bits must be positive")
    return FLOAT_BITS_PER_COORD * d / ((1.0 + omega) * expected_bits)


def covering_bound_rhs(d):
    """Right-hand side (1600 d^2 log2 d)^(2/d) of the covering-construction
    bound; about 1.048 at d = 1000 and approaching 1 as d grows."""
    if d < 3:
        raise ValueError(f"dimension must be >= 3, got {d}")
    return (1600.0 * d * d * math.log2(d)) ** (2.0 / d)


def savings_table(d):
    """Nominal per-method communication accounting at dimension d.

    Rows: (method, bits, omega, bits/(32 d), savings multiple).  Bit
    counts are the nominal per-method formulas used for the published
    comparison, not measured payloads; omega is the claim
    (compressors.claim) of the operator configuration each row names.
    """
    from .compressors import OperatorConfig, claim  # compressors imports this module

    log2_3 = math.log2(3.0)
    rows = []

    def add(method, bits, kind, **params):
        omega = claim(OperatorConfig(kind, **params), d)[1]
        beta = bits / (FLOAT_BITS_PER_COORD * d)
        rows.append((method, bits, omega, beta, savings_factor(omega, bits, d)))

    add("none (32-bit floats)", 32.0 * d, "identity")
    k = max(1, d // 10)
    add("random sparsification (k=d/10)", 32.0 * k + math.log2(binom(d, k)), "randsparse", k=k)
    add("ternary quantization", log2_3 * d, "ternary")
    add("standard dithering (s=sqrt(d))", 2.8 * d, "dither", levels=max(1, round(math.sqrt(d))))
    add("natural compression", 9.0 * d, "natural")
    add("randomized sparse dithering (omega=1/4)", (1.0 + log2_3) * d, "rsd", nu=0.25)
    return rows
