"""Covariance kernel family, tail constants, and excursion time scale."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excursions import (
    DomainError,
    NotC2Error,
    NotHeavyTailError,
    c_alpha,
    delta_u,
    make_kernel,
    pitman_ratio,
    second_derivative_at_zero,
    spectral_tail,
)

alphas = st.floats(min_value=0.05, max_value=2.0, allow_nan=False)
lags = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_kernel_values_match_frozen_oracles():
    # literals precomputed with 64-bit math, not re-derived here
    assert make_kernel(2.0).value(1.0) == pytest.approx(
        0.36787944117144233, abs=1e-15
    )
    k = make_kernel(1.3, r0=2.0)
    assert k.value(0.5) == pytest.approx(1.332452171202588, abs=1e-15)
    k = make_kernel(0.6)
    assert k.value(1.7) == pytest.approx(0.25286628926452737, abs=1e-15)
    assert k.value(0.0) == 1.0


def test_kernel_value_vectorizes():
    k = make_kernel(1.0, r0=3.0)
    t = np.array([-2.0, 0.0, 2.0])
    v = k.value(t)
    assert v.shape == (3,)
    assert v[0] == v[2]
    assert v[1] == 3.0


@given(alpha=alphas, t=lags)
def test_kernel_symmetry_and_bounds(alpha, t):
    k = make_kernel(alpha, r0=1.5)
    v = k.value(t)
    assert k.value(-t) == v
    assert 0.0 <= v <= 1.5  # may underflow to exactly zero at huge lags
    assert k.value(0.0) == 1.5


def test_kernel_value_is_zero_without_warning_where_the_power_overflows():
    # |t|**2 overflows past about 1.3e154; R(t) is exactly 0 there, with no
    # overflow warning, which -W error::RuntimeWarning would turn into a crash
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert make_kernel(2.0).value(1e155) == 0.0
        np.testing.assert_array_equal(make_kernel(2.0, 3.0).value(np.array([-1e300, 0.0, 1e155])), [0.0, 3.0, 0.0])


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(min_value=0.2, max_value=2.0, allow_nan=False),
    times=st.lists(
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        min_size=2,
        max_size=6,
        unique=True,
    ),
)
def test_kernel_gram_matrix_is_positive_semidefinite(alpha, times):
    k = make_kernel(alpha)
    t = np.asarray(times)
    gram = k.value(t[:, None] - t[None, :])
    assert np.linalg.eigvalsh(gram).min() >= -1e-9


@pytest.mark.parametrize("alpha", [0.0, -1.0, 2.0001, math.nan])
def test_make_kernel_rejects_bad_alpha(alpha):
    with pytest.raises(DomainError):
        make_kernel(alpha)


@pytest.mark.parametrize("r0", [0.0, -2.0, float("inf"), float("nan")])
def test_make_kernel_rejects_bad_r0(r0):
    with pytest.raises(DomainError):
        make_kernel(1.0, r0=r0)


def test_second_derivative_smooth_case():
    assert second_derivative_at_zero(make_kernel(2.0)) == -2.0
    assert second_derivative_at_zero(make_kernel(2.0, r0=3.0)) == -6.0


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.999])
def test_second_derivative_requires_smooth_kernel(alpha):
    with pytest.raises(NotC2Error):
        second_derivative_at_zero(make_kernel(alpha))


def test_c_alpha_frozen_values():
    assert c_alpha(1.0) == pytest.approx(math.pi, abs=1e-15)
    assert c_alpha(0.5) == pytest.approx(2.5066282746310002, abs=1e-14)
    assert c_alpha(1.5) == pytest.approx(5.0132565492620005, abs=1e-13)


@given(alpha=st.floats(min_value=0.05, max_value=0.95, allow_nan=False))
def test_c_alpha_reflection_identity(alpha):
    # independent route via the gamma reflection formula, valid on (0, 1)
    expected = 2.0 * math.cos(math.pi * alpha / 2.0) * math.gamma(1.0 - alpha)
    assert c_alpha(alpha) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 2.0, 2.5, -0.3])
def test_c_alpha_domain(alpha):
    with pytest.raises(DomainError):
        c_alpha(alpha)


def test_spectral_tail_frozen_value():
    k = make_kernel(1.0)
    assert spectral_tail(k, 2.0) == pytest.approx(0.15915494309189535, abs=1e-15)


@given(
    alpha=st.floats(min_value=0.1, max_value=1.95, allow_nan=False),
    x=st.floats(min_value=1e-3, max_value=100.0, allow_nan=False),
)
def test_spectral_tail_halves_by_power_law(alpha, x):
    k = make_kernel(alpha)
    ratio = spectral_tail(k, 2.0 * x) / spectral_tail(k, x)
    assert ratio == pytest.approx(2.0 ** (-alpha), rel=1e-12)


def test_c_alpha_finite_positive_on_dense_grid():
    for a in np.linspace(0.05, 1.95, 39):
        v = c_alpha(float(a))
        assert math.isfinite(v) and v > 0.0


def test_spectral_tail_domain_errors():
    k = make_kernel(1.0)
    with pytest.raises(DomainError):
        spectral_tail(k, 0.0)
    with pytest.raises(DomainError):
        spectral_tail(k, -1.0)
    with pytest.raises(NotHeavyTailError):
        spectral_tail(make_kernel(2.0), 1.0)


def test_delta_u_frozen_value():
    assert delta_u(make_kernel(1.0), 10.0) == pytest.approx(math.pi / 100.0, abs=1e-14)


@given(
    alpha=st.floats(min_value=0.2, max_value=1.9, allow_nan=False),
    r0=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
)
def test_delta_u_scaling_law(alpha, r0):
    k = make_kernel(alpha, r0=r0)
    d5, d10 = delta_u(k, 5.0), delta_u(k, 10.0)
    assert d10 < d5
    # doubling u shrinks the scale by exactly 4^(1/alpha)
    assert d5 / d10 == pytest.approx(4.0 ** (1.0 / alpha), rel=1e-10)
    # variance enters through its inverse alpha-th root
    scaled = delta_u(make_kernel(alpha, r0=3.0 * r0), 5.0)
    assert scaled / d5 == pytest.approx(3.0 ** (-1.0 / alpha), rel=1e-10)


def test_delta_u_domain_errors():
    with pytest.raises(NotHeavyTailError):
        delta_u(make_kernel(2.0), 10.0)
    with pytest.raises(DomainError):
        delta_u(make_kernel(1.0), 0.0)


def test_pitman_ratio_frozen_value():
    assert pitman_ratio(make_kernel(1.0), 1.0) == pytest.approx(
        0.6321205588285577, abs=1e-15
    )
    assert pitman_ratio(make_kernel(1.0), 0.01) == pytest.approx(
        0.9950166250831946, abs=1e-13
    )


@given(
    alpha=st.floats(min_value=0.2, max_value=1.95, allow_nan=False),
    t=st.floats(min_value=1e-3, max_value=0.1, allow_nan=False),
)
def test_pitman_ratio_short_lag_error_bound(alpha, t):
    # 1 - (1 - e^{-x})/x <= x/2 <= x with x = t^alpha; keep t large enough
    # that the bound dominates cancellation noise in 1 - e^{-x}
    assert abs(pitman_ratio(make_kernel(alpha), t) - 1.0) <= t**alpha


@given(
    alpha=st.floats(min_value=0.2, max_value=1.9, allow_nan=False),
    t=st.floats(min_value=1e-4, max_value=5.0, allow_nan=False),
    r0=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
)
def test_pitman_ratio_bounded_and_r0_free(alpha, t, r0):
    k = make_kernel(alpha, r0=r0)
    ratio = pitman_ratio(k, t)
    # cancellation in r0 - R(t) costs a few ulps of headroom at short lags
    assert 0.0 < ratio <= 1.0 + 1e-6
    assert ratio == pytest.approx(pitman_ratio(make_kernel(alpha), t), rel=1e-6)


@pytest.mark.parametrize("alpha", [0.75, 1.5, 1.9])
def test_pitman_ratio_keeps_its_digits_on_the_diagnostics_curve(alpha):
    # R(0) - R(t) taken as r0 - R(t) cancels as t -> 0, to a relative error of
    # 1.6e-11 at alpha = 1.5 and 4.3e-10 at 1.9 on the diagnostics curve's 25
    # lags; -r0 expm1(-t**alpha) keeps every digit
    k = make_kernel(alpha)
    for t in np.geomspace(1.0, 1e-4, 25).tolist():
        x = t**alpha
        assert pitman_ratio(k, t) == pytest.approx(-math.expm1(-x) / x, rel=1e-14, abs=0.0), t


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_pitman_ratio_tends_to_one_at_short_lags(alpha):
    k = make_kernel(alpha)
    assert abs(pitman_ratio(k, 1e-6) - 1.0) < 1e-3
