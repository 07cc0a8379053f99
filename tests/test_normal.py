"""Normal CDF/quantile machinery against independent bisection oracles."""

import math

import numpy as np
import pytest

from cqrnet.normal import (
    MIXTURE_COMPAT_SCALE,
    mixture_cdf,
    mixture_quantile,
    normal_cdf,
    normal_pdf,
    std_normal_quantile,
)


def erf_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def bisect_quantile(p, cdf=erf_cdf, lo=-80.0, hi=80.0, iters=200):
    """Oracle: invert a CDF by pure bisection (no shared code path)."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_quantile_matches_bisection_oracle():
    for p in [1e-9, 1e-6, 0.001, 0.025, 0.05, 0.3, 0.5, 0.7, 0.95, 0.975, 0.999, 1 - 1e-6]:
        oracle = bisect_quantile(p)
        assert std_normal_quantile(p) == pytest.approx(oracle, abs=1e-9)


def test_quantile_frozen_values():
    # frozen from the bisection oracle above
    assert std_normal_quantile(0.5) == 0.0
    assert std_normal_quantile(0.95) == pytest.approx(1.6448536269514722, abs=1e-9)
    assert std_normal_quantile(0.05) == pytest.approx(-1.6448536269514722, abs=1e-9)
    width = std_normal_quantile(0.95) - std_normal_quantile(0.05)
    assert width == pytest.approx(3.28971, abs=5e-4)  # the 3.290 interval length


def test_quantile_domain():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            std_normal_quantile(bad)


def test_round_trip_through_cdf():
    for x in np.linspace(-6.0, 6.0, 121):
        assert std_normal_quantile(normal_cdf(x)) == pytest.approx(x, abs=1e-8)


def test_cdf_survival_complement():
    """The survival 1 - Phi(z) is Phi(-z): a right-censored Tobit row, mirrored, reads it so."""
    z = np.linspace(-8, 8, 101)
    assert np.allclose(normal_cdf(z) + normal_cdf(-z), 1.0, atol=1e-14)


def test_cdf_and_survival_equal_scalar_erfc_per_element():
    z = np.concatenate([[-40.0, -38.5, -8.0, -0.0, 0.0, 1e-300, 8.0, 38.5, 40.0],
                        np.random.default_rng(0).normal(scale=3.0, size=201)])
    for arr in (z, z.reshape(2, -1)):
        cdf, surv = normal_cdf(arr), normal_cdf(-arr)
        assert cdf.dtype == surv.dtype == np.float64 and cdf.shape == arr.shape
        for x, c, s in zip(arr.ravel(), cdf.ravel(), surv.ravel()):
            assert c == 0.5 * math.erfc(-x / math.sqrt(2.0))
            assert s == 0.5 * math.erfc(x / math.sqrt(2.0))
    for empty in (normal_cdf(np.array([])), normal_cdf(np.empty((0, 3)))):
        assert empty.dtype == np.float64 and empty.size == 0
    assert normal_cdf(np.empty((0, 3))).shape == (0, 3)


def test_pdf_is_cdf_derivative():
    for x in (-3.0, -0.7, 0.0, 1.2, 4.0):
        h = 1e-6
        fd = (normal_cdf(x + h) - normal_cdf(x - h)) / (2 * h)
        assert fd == pytest.approx(normal_pdf(x), rel=1e-6)


def test_mixture_quantile_inverts_mixture_cdf():
    for p in [0.01, 0.05, 0.25, 0.5, 0.9, 0.95, 0.99]:
        q = mixture_quantile(p)
        assert mixture_cdf(q) == pytest.approx(p, abs=1e-12)
    # symmetric law
    assert mixture_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert mixture_quantile(0.05) == pytest.approx(-mixture_quantile(0.95), abs=1e-10)


def test_mixture_tails_are_heavier_than_compat_gaussian():
    # the single-Gaussian stand-in understates the exact mixture tail
    exact = mixture_quantile(0.95)
    compat = MIXTURE_COMPAT_SCALE * std_normal_quantile(0.95)
    assert exact > compat
    assert MIXTURE_COMPAT_SCALE == pytest.approx(math.sqrt(0.75**2 + 0.25**2))


def test_mixture_pdf_integrates_cdf():
    h = 1e-6
    for x in (-2.5, -1.0, 0.0, 0.5, 3.0):
        fd = (mixture_cdf(x + h) - mixture_cdf(x - h)) / (2 * h)
        assert fd == pytest.approx(0.75 * normal_pdf(x) + 0.125 * normal_pdf(x / 2), rel=1e-6)
