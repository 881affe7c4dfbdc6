"""Radial decay exponent k(nu, p) for p-harmonic functions in planar sectors.

A planar sector with half-aperture pi/(2*nu) supports a positive p-harmonic
function of the form r**k * f(phi) vanishing on the sector sides.  This module
computes the exponent k, both algebraic roots of its defining quadratic, its
partial derivatives, and the transcendental condition that k satisfies.

Conventions: nu >= 1/2 (aperture pi/nu <= 2*pi), p in (1, inf].  Infinity is
represented as math.inf.  For finite p != 2 the derived constants are
a = (p-1)/(p-2) and b = 1/(p-2); at p = inf, a = 1.
"""

from __future__ import annotations

import math

NU_MIN = 0.5
# below this distance from nu = 1/2 the closed form is ill conditioned
NU_HALF_EPS = 1e-8
# below this distance from p = 2 the constants a, b overflow
P_TWO_EPS = 1e-6


class DomainError(ValueError):
    """Input outside the admissible (nu, p) domain."""


def _as_nu(nu) -> float:
    nu = float(nu)
    if not nu >= NU_MIN:
        raise DomainError(f"nu must be >= 0.5, got {nu}")
    return nu


def _as_p(p) -> float:
    pv = float(p)
    if not (pv == math.inf or pv > 1.0):
        raise DomainError(f"p must be finite > 1 or inf, got {pv}")
    return pv


def _discriminant(nu: float, p: float) -> float:
    # (nu-1)^2 p^2 + 4(2nu-1)(p-1) in the form k's closed expressions use
    return (1.0 - 2.0 * nu) * (p - 2.0) ** 2 + nu * nu * p * p


def _conjugate_numerator(nu: float, p: float, s: float) -> float:
    # numerator of the conjugate root k2 = n / (2(p-1)(2nu-1)), given
    # s = sqrt(discriminant); it cancels for nu > 1 but not for nu < 1
    return (1.0 - nu) * s + (2.0 - p) * (1.0 - 2.0 * nu) + nu * nu * p


def conjugate_exponent(p: float) -> float:
    """Hoelder conjugate p/(p-1); maps (1,2) onto (2,inf) and back."""
    p = _as_p(p)
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


def radial_exponent_inf(nu: float) -> float:
    """Exponent at p = inf: 1 on nu <= 1, nu^2/(2*nu-1) on nu >= 1."""
    nu = _as_nu(nu)
    if nu <= 1.0:
        return 1.0
    return nu * nu / (2.0 * nu - 1.0)


def radial_exponent(nu, p) -> float:
    """Radial exponent k(nu, p), branch k1 of the closed form.

    Special paths: p = 2 gives k = nu exactly; nu = 1/2 gives the limit
    (p-1)/p; p = inf uses the piecewise sup-norm form.  Result is finite
    and positive.
    """
    nu = _as_nu(nu)
    p = _as_p(p)
    if p == math.inf:
        return radial_exponent_inf(nu)
    if p == 2.0:
        return nu
    if abs(2.0 * nu - 1.0) < NU_HALF_EPS:
        return (p - 1.0) / p
    return radial_exponent_roots(nu, p)[0]


def radial_exponent_roots(nu, p) -> tuple[float, float]:
    """Both roots of the exponent quadratic, for finite p != 2, nu > 1/2.

    k1 is the branch selected by continuity k1(nu, 2) = nu; k2 is the
    radical-conjugate root.  They satisfy k1 * k2 = nu^2/(2*nu - 1).
    Only k1 solves the original (unsquared) aperture condition; k2 is the
    spurious branch introduced by squaring and is exposed for testing.
    """
    nu = _as_nu(nu)
    p = _as_p(p)
    if p == math.inf:
        raise DomainError("roots are defined for finite p only")
    if abs(2.0 * nu - 1.0) < NU_HALF_EPS:
        raise DomainError("nu = 1/2 requires the limit path of radial_exponent")
    sq = math.sqrt(_discriminant(nu, p))
    den = 2.0 * (p - 1.0) * (2.0 * nu - 1.0)
    if nu < 1.0:
        # k1's numerator cancels to O(2nu - 1) here; k1 * k2 = nu^2/(2nu - 1)
        # gives k1 = 2(p-1) nu^2 / n, which does not
        n = _conjugate_numerator(nu, p, sq)
        return 2.0 * (p - 1.0) * nu * nu / n, n / den
    k1 = ((nu - 1.0) * sq + (2.0 - p) * (1.0 - 2.0 * nu) + nu * nu * p) / den
    # and for nu >= 1 it is n that cancels, so k2 comes from the product too
    return k1, nu * nu / ((2.0 * nu - 1.0) * k1)


def exponent_condition_residual(k: float, nu, p) -> float:
    """Residual of the aperture condition that defines k, for p in (1, inf].

    Returns pi/nu - pi*(1 - (1 - 1/k)*sqrt(a*k)/sqrt(a*k - 1)); zero iff k
    satisfies the defining transcendental condition.  Requires a*k > 1.
    For p < 2 the condition is that of the conjugate pair
    k' = (k - 1)(p - 1) + 1, p' = p/(p - 1); at p = 2 it is the limit
    a -> inf, pi/nu - pi/k, for k > 0.
    """
    nu = _as_nu(nu)
    p = _as_p(p)
    if p == 2.0:
        if not k > 0.0:
            raise DomainError(f"k must be positive, got {k}")
        return math.pi / nu - math.pi / k
    if p < 2.0:
        k = (k - 1.0) * (p - 1.0) + 1.0
        p = conjugate_exponent(p)
    a = 1.0 if p == math.inf else (p - 1.0) / (p - 2.0)
    ak = a * k
    if not ak > 1.0:
        raise DomainError(f"a*k must exceed 1, got a*k = {ak}")
    return math.pi / nu - math.pi * (1.0 - (1.0 - 1.0 / k) * math.sqrt(ak) / math.sqrt(ak - 1.0))


def dk_dnu(nu, p) -> float:
    """Partial derivative of k with respect to nu; nonnegative on the domain.

    Finite p uses the closed form; p = inf differentiates the piecewise
    sup-norm expression.  Raises at nu = 1/2 exactly (no limit available);
    probe nu = 1/2 + eps instead.
    """
    nu = _as_nu(nu)
    p = _as_p(p)
    if abs(2.0 * nu - 1.0) < NU_HALF_EPS:
        raise DomainError("dk/dnu is singular at nu = 1/2; evaluate at nu = 1/2 + eps")
    if p == math.inf:
        if nu <= 1.0:
            return 0.0
        return (2.0 * nu * nu - 2.0 * nu) / (2.0 * nu - 1.0) ** 2
    if p == 2.0:
        return 1.0
    s = math.sqrt(_discriminant(nu, p))
    if nu < 1.0:
        # differentiate k = 2(p-1) nu^2 / n, the form radial_exponent_roots
        # takes here: 2(p-1) nu g^2 / (n^2 s) with g = s - (1-nu)(p-2) > 0
        n = _conjugate_numerator(nu, p, s)
        g = s - (1.0 - nu) * (p - 2.0)
        return 2.0 * (p - 1.0) * nu * g * g / (n * n * s)
    # for nu >= 1 it is n that cancels, and the closed form does not
    num = p * (nu - 1.0) * s + (nu - 1.0) ** 2 * p * p + 2.0 * (2.0 * nu - 1.0) * (p - 1.0)
    return nu * num / ((p - 1.0) * (2.0 * nu - 1.0) ** 2 * s)


def dk_dp(nu, p) -> float:
    """Partial derivative of k with respect to p, finite p only.

    Positive for nu in [1/2, 1), zero at nu = 1, negative for nu > 1.
    At nu = 1/2 returns the limit value 1/p^2.
    """
    nu = _as_nu(nu)
    p = _as_p(p)
    if p == math.inf:
        raise DomainError("dk/dp is defined for finite p only")
    if abs(2.0 * nu - 1.0) < NU_HALF_EPS:
        return 1.0 / (p * p)
    if nu == 1.0:
        return 0.0
    s = math.sqrt(_discriminant(nu, p))
    num = (nu - 1.0) * s + nu * nu * p + (2.0 * nu - 1.0) * (p - 2.0)
    return (1.0 - nu) * num / (2.0 * (2.0 * nu - 1.0) * (p - 1.0) ** 2 * s)
