"""Smooth-regime limit law: closed-form chi(3) CDF, sampler, and quantiles.

Two independent oracles check the closed form.  Adaptive quadrature over the
normal coordinate integrates the law from its definition s * sqrt(Z^2 + 2T),
Z standard normal and T unit exponential; scipy.stats.maxwell gives the same
law with the same scale.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, stats

from excursions import (
    C2LimitParams,
    DomainError,
    c2_limit_cdf,
    c2_limit_quantile,
    c2_limit_sample,
)

PARAMS = C2LimitParams(1.0, -2.0)
SQRT2 = math.sqrt(2.0)


def test_scale_closed_form():
    assert PARAMS.scale == pytest.approx(SQRT2, abs=1e-15)
    assert C2LimitParams(2.0, -8.0).scale == pytest.approx(4.0 / math.sqrt(8.0), abs=1e-14)


@pytest.mark.parametrize("r0,r2", [(0.0, -1.0), (-1.0, -1.0), (1.0, 0.0), (1.0, 0.5)])
def test_params_validation(r0, r2):
    with pytest.raises(DomainError):
        C2LimitParams(r0, r2)


@pytest.mark.parametrize(
    "x,expected",
    [
        (0.5, 0.01132285782420836),
        (1.0, 0.08110858834532414),
        (2.0, 0.4275932955291201),
        (3.0, 0.7877097126398673),
        (5.0, 0.9941473374066733),
    ],
)
def test_cdf_matches_frozen_maxwell_values(x, expected):
    assert c2_limit_cdf(PARAMS, x) == pytest.approx(expected, abs=1e-10)


def test_cdf_matches_maxwell_on_a_grid():
    xs = np.linspace(0.05, 9.0, 60)
    ref = stats.maxwell.cdf(xs, scale=SQRT2)
    got = np.array([c2_limit_cdf(PARAMS, float(x)) for x in xs])
    assert np.abs(got - ref).max() <= 1e-9


def _quadrature_cdf(params, x):
    """P(s * sqrt(Z^2 + 2T) <= x) by conditioning on Z = z: the integral of
    phi(z) * P(2T <= a^2 - z^2) over |z| <= a, with a = x / s."""
    a = x / params.scale
    if a <= 0.0:
        return 0.0

    def integrand(z):
        return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) * -math.expm1(-0.5 * (a * a - z * z))

    # beyond |z| = 40 the normal density underflows; clipping loses < 1e-300 mass
    hi = min(a, 40.0)
    val, _ = integrate.quad(integrand, -hi, hi, epsabs=1e-12, epsrel=1e-12, limit=200)
    return min(max(val, 0.0), 1.0)


@pytest.mark.parametrize("params", [PARAMS, C2LimitParams(3.0, -1.5)], ids=["unit", "r0-3"])
def test_cdf_matches_quadrature_of_the_definition(params):
    xs = np.linspace(0.0, 8.0 * params.scale, 201)[1:]
    got = np.array([c2_limit_cdf(params, float(x)) for x in xs])
    ref = np.array([_quadrature_cdf(params, float(x)) for x in xs])
    assert np.abs(got - ref).max() <= 1e-12


def test_cdf_respects_other_scales():
    p = C2LimitParams(3.0, -1.5)
    s = p.scale
    for x in (0.5 * s, 2.0 * s):
        assert c2_limit_cdf(p, x) == pytest.approx(
            stats.maxwell.cdf(x, scale=s), abs=1e-9
        )


def test_cdf_boundary_behaviour():
    assert c2_limit_cdf(PARAMS, 0.0) == 0.0
    assert c2_limit_cdf(PARAMS, -3.0) == 0.0
    assert c2_limit_cdf(PARAMS, 60.0) == pytest.approx(1.0, abs=1e-12)
    assert c2_limit_cdf(PARAMS, 100.0 * PARAMS.scale) >= 1.0 - 1e-10


@given(
    x1=st.floats(min_value=0.0, max_value=12.0, allow_nan=False),
    x2=st.floats(min_value=0.0, max_value=12.0, allow_nan=False),
)
def test_cdf_monotone(x1, x2):
    lo, hi = sorted((x1, x2))
    assert c2_limit_cdf(PARAMS, lo) <= c2_limit_cdf(PARAMS, hi) + 1e-12


def test_sampler_distribution_and_moments():
    draws = c2_limit_sample(PARAMS, 2718, size=100000)
    assert draws.shape == (100000,)
    assert (draws > 0.0).all()
    stat = stats.kstest(draws, stats.maxwell(scale=SQRT2).cdf).statistic
    assert stat <= 0.006
    target_mean = 2.2567583341910256  # maxwell mean at scale sqrt(2)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - target_mean) <= 4.0 * se


def test_sampler_determinism_and_scalar_mode():
    a = c2_limit_sample(PARAMS, 99, size=16)
    b = c2_limit_sample(PARAMS, 99, size=16)
    np.testing.assert_array_equal(a, b)
    single = c2_limit_sample(PARAMS, 99)
    assert isinstance(single, float)
    assert single > 0.0


def test_sampler_is_linear_in_the_scale():
    # doubling r0 doubles the scale, hence every draw, seed for seed
    base = c2_limit_sample(PARAMS, 31, size=32)
    doubled = c2_limit_sample(C2LimitParams(2.0, -2.0), 31, size=32)
    np.testing.assert_allclose(doubled, 2.0 * base, rtol=1e-12)


def test_quantile_inverts_cdf():
    qs = []
    for p in (0.05, 0.25, 0.5, 0.75, 0.95, 0.999):
        q = c2_limit_quantile(PARAMS, p)
        assert c2_limit_cdf(PARAMS, q) == pytest.approx(p, abs=1e-7)
        qs.append(q)
    assert qs == sorted(qs)  # monotone in p
    assert c2_limit_quantile(PARAMS, 0.5) == pytest.approx(
        2.1753040635163345, abs=1e-6  # maxwell median at scale sqrt(2)
    )


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
def test_quantile_domain(p):
    with pytest.raises(DomainError):
        c2_limit_quantile(PARAMS, p)
