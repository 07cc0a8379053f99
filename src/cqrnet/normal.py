"""Standard-normal primitives and the benchmark noise mixture.

Everything is built from the C library's erf/erfc (double precision,
bit-stable across platforms) instead of an external statistical package.
The quantile function uses a rational initial guess refined by Newton
steps on the erfc-based CDF, solved in the tail domain so that the
round trip quantile(cdf(x)) holds to ~1e-8 out to |x| = 6.
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)
SQRT_2PI = math.sqrt(2.0 * math.pi)
LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# 0.75 N(0,1) + 0.25 N(0,2^2): the heavy-tailed benchmark noise.
MIXTURE_WEIGHT = 0.75
MIXTURE_WIDE_SD = 2.0
# Single-Gaussian stand-in scale some evaluations use for the mixture.
MIXTURE_COMPAT_SCALE = math.sqrt(0.75**2 + 0.25**2)


def normal_pdf(z):
    """Density of N(0,1); scalar or ndarray."""
    z = np.asarray(z, dtype=float)
    out = np.exp(-0.5 * z * z) / SQRT_2PI
    return float(out) if out.ndim == 0 else out


def normal_log_pdf(z):
    z = np.asarray(z, dtype=float)
    out = -0.5 * z * z - LOG_SQRT_2PI
    return float(out) if out.ndim == 0 else out


def normal_cdf(z):
    """Phi(z) via erfc; accurate in both tails. Scalar in, scalar out."""
    if np.ndim(z) == 0:
        return 0.5 * math.erfc(-float(z) / SQRT2)
    z = np.asarray(z, dtype=float)
    erfc = np.fromiter(map(math.erfc, (-z / SQRT2).ravel().tolist()), float, count=z.size)
    return 0.5 * erfc.reshape(z.shape)


def _quantile_initial(p: float) -> float:
    # Abramowitz & Stegun 26.2.23 rational approximation (|err| < 4.5e-4),
    # stated for the upper-tail argument; p here is a lower-tail probability.
    t = math.sqrt(-2.0 * math.log(p))
    num = 2.515517 + t * (0.802853 + t * 0.010328)
    den = 1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))
    return -(t - num / den)


def std_normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF, accurate to <= 1e-9 absolute.

    For p > 1/2 the reflection uses 1-p, which is exact in IEEE double
    (Sterbenz), and Newton then works in the lower tail, so no accuracy
    is lost to cancellation near 1.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if p > 0.5:
        return -std_normal_quantile(1.0 - p)
    if p == 0.5:
        return 0.0
    x = _quantile_initial(p)
    for _ in range(5):
        pdf = normal_pdf(x)
        if pdf == 0.0:
            break
        # Phi(x) for x < 0 through erfc, keeping relative accuracy
        x -= (normal_cdf(x) - p) / pdf
    return x


def mixture_cdf(z):
    """CDF of 0.75 N(0,1) + 0.25 N(0, 2^2)."""
    narrow = normal_cdf(z)
    wide = normal_cdf(np.asarray(z, dtype=float) / MIXTURE_WIDE_SD if np.ndim(z) else float(z) / MIXTURE_WIDE_SD)
    return MIXTURE_WEIGHT * narrow + (1.0 - MIXTURE_WEIGHT) * wide


def mixture_quantile(p: float) -> float:
    """Exact quantile of the benchmark mixture, by bisection on its CDF."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    lo, hi = -80.0, 80.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mixture_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
