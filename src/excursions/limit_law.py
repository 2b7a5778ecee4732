"""Limit distribution of scaled excursion lengths in the smooth regime.

The scaled length converges to s * sqrt(Z**2 + 2*T) with Z standard normal,
T unit exponential, independent, and s = 2 * r0 / sqrt(-r2) built from the
covariance value and curvature at zero.  Since Z**2 is chi-square with one
degree of freedom and 2T chi-square with two, the law is s * chi(3), the
Maxwell law, and its CDF has a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .streams import generators

__all__ = ["C2LimitParams", "c2_limit_cdf", "c2_limit_sample", "c2_limit_quantile"]

# Quantile inversion tolerances: on the CDF value and on the abscissa.
_QUANTILE_F_TOL = 1e-8
_QUANTILE_X_TOL = 1e-9


@dataclass(frozen=True)
class C2LimitParams:
    r0: float
    r2: float

    def __post_init__(self):
        if not self.r0 > 0.0:
            raise DomainError(f"r0 must be positive, got {self.r0!r}")
        if not self.r2 < 0.0:
            raise DomainError(f"r2 must be negative, got {self.r2!r}")

    @property
    def scale(self) -> float:
        return 2.0 * self.r0 / math.sqrt(-self.r2)


def c2_limit_cdf(params: C2LimitParams, x: float) -> float:
    """P(s * sqrt(Z**2 + 2T) <= x): the chi(3) CDF erf(a/sqrt(2)) - sqrt(2/pi) a exp(-a^2/2), a = x/s."""
    a = x / params.scale
    if a <= 0.0:
        return 0.0
    val = math.erf(a / math.sqrt(2.0)) - math.sqrt(2.0 / math.pi) * a * math.exp(-0.5 * a * a)
    return max(val, 0.0)


def c2_limit_sample(params: C2LimitParams, seed, size: int | None = None):
    """Direct draws of s * sqrt(Z**2 + 2T); scalar by default, vectorized via size."""
    [rng] = generators(seed)
    z = rng.standard_normal(size)
    t = rng.standard_exponential(size)
    out = params.scale * np.sqrt(z * z + 2.0 * t)
    return float(out) if size is None else out


def c2_limit_quantile(params: C2LimitParams, p: float) -> float:
    """Bisection inverse of the CDF; stops once |F(x) - p| <= 1e-8 and the
    bracket is tighter than 1e-9 * scale."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile level must lie in (0, 1), got {p!r}")
    s = params.scale
    lo, hi = 0.0, s
    while c2_limit_cdf(params, hi) < p:
        hi *= 2.0
    x_tol = _QUANTILE_X_TOL * s
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f = c2_limit_cdf(params, mid)
        if abs(f - p) <= _QUANTILE_F_TOL and hi - lo <= x_tol:
            return mid
        if f < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
