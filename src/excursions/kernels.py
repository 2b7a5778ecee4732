"""Stationary covariance kernels of the exp-power family.

R(t) = r0 * exp(-|t|**alpha) with alpha in (0, 2].  For alpha < 2 the spectral
measure has a regularly varying tail and excursions above a level u live on the
time scale ``delta_u``; at alpha = 2 paths are analytic and the relevant
constant is the curvature R''(0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotC2Error, NotHeavyTailError

__all__ = [
    "Kernel",
    "make_kernel",
    "second_derivative_at_zero",
    "c_alpha",
    "spectral_tail",
    "delta_u",
    "pitman_ratio",
]


@dataclass(frozen=True)
class Kernel:
    alpha: float
    r0: float = 1.0

    def value(self, t):
        """R(t), vectorized; symmetric in t with R(0) = r0."""
        arr = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):  # R(t) is exactly 0 where |t|**alpha overflows
            out = self.r0 * np.exp(-np.abs(arr) ** self.alpha)
        return float(out) if arr.ndim == 0 else out


def make_kernel(alpha: float, r0: float = 1.0) -> Kernel:
    """Validated constructor; alpha in (0, 2], r0 > 0."""
    if not (0.0 < alpha <= 2.0):
        raise DomainError(f"alpha must lie in (0, 2], got {alpha!r}")
    if not 0.0 < r0 < math.inf:
        raise DomainError(f"r0 must be positive and finite, got {r0!r}")
    return Kernel(float(alpha), float(r0))


def second_derivative_at_zero(k: Kernel) -> float:
    """R''(0) = -2 * r0, defined only for the twice-differentiable member alpha = 2."""
    if k.alpha < 2.0:
        raise NotC2Error(
            f"R''(0) exists only at alpha = 2; kernel has alpha = {k.alpha}"
        )
    return -2.0 * k.r0


def c_alpha(alpha: float) -> float:
    """Tail constant pi / (Gamma(alpha) * sin(pi * alpha / 2)) for alpha in (0, 2)."""
    if not (0.0 < alpha < 2.0):
        raise DomainError(f"c_alpha is defined on (0, 2), got {alpha!r}")
    return math.pi / (math.gamma(alpha) * math.sin(math.pi * alpha / 2.0))


def spectral_tail(k: Kernel, x):
    """Mass of the spectral measure (total mass r0) beyond x, to first order:
    r0 * x**-alpha / c_alpha; vectorized over x > 0."""
    if k.alpha >= 2.0:
        raise NotHeavyTailError("alpha = 2 has no power-law spectral tail")
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("tail asymptote is defined for x > 0 only")
    out = (k.r0 / c_alpha(k.alpha)) * arr ** (-k.alpha)
    return float(out) if arr.ndim == 0 else out


def delta_u(k: Kernel, u: float) -> float:
    """Excursion time scale at threshold u.

    The reciprocal of the frequency x solving spectral_tail(k, x) = u**-2, so
    delta_u = (c_alpha / (r0 * u**2))**(1/alpha).  For r0 = 1 this is
    c_alpha**(1/alpha) * u**(-2/alpha).
    """
    if k.alpha >= 2.0:
        raise NotHeavyTailError("delta_u is a heavy-tail scale; alpha must be < 2")
    if not u > 0.0:
        raise DomainError(f"threshold u must be positive, got {u!r}")
    inputs = f"alpha = {k.alpha!r}, r0 = {k.r0!r} and threshold u = {u!r}"
    try:
        scale = (c_alpha(k.alpha) / (k.r0 * u * u)) ** (1.0 / k.alpha)
    except (ZeroDivisionError, OverflowError):  # r0 * u**2 underflows to 0, or the scale overflows
        raise DomainError(f"delta_u overflows at {inputs}: raise u or alpha") from None
    if not scale > 0.0:  # r0 * u**2 overflows, or the scale underflows
        raise DomainError(f"delta_u underflows to 0 at {inputs}: lower u or raise alpha")
    return scale


def pitman_ratio(k: Kernel, t: float) -> float:
    """(R(0) - R(t)) / (c_alpha * spectral_tail(k, 1/t)); tends to 1 as t -> 0.

    A finite-t diagnostic of the increment-variance / spectral-tail matching;
    for this family it reduces to -expm1(-t**alpha) / t**alpha, free of cancellation.
    """
    if k.alpha >= 2.0:
        raise NotHeavyTailError("pitman_ratio applies to the heavy-tail members only")
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t!r}")
    denom = c_alpha(k.alpha) * spectral_tail(k, 1.0 / t)
    return -k.r0 * math.expm1(-(t**k.alpha)) / denom
