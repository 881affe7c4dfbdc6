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
from dataclasses import dataclass

NU_MIN = 0.5
# below this distance from nu = 1/2 the closed form is ill conditioned
NU_HALF_EPS = 1e-8
# below this distance from p = 2 the constants a, b overflow
P_TWO_EPS = 1e-6


class DomainError(ValueError):
    """Input outside the admissible (nu, p) domain."""


@dataclass(frozen=True)
class SectorSpec:
    """Planar sector: half-aperture pi/(2*nu), apex at the origin."""

    nu: float

    def __post_init__(self):
        if not (self.nu >= NU_MIN):
            raise DomainError(f"nu must be >= 0.5, got {self.nu}")

    @property
    def half_aperture(self) -> float:
        return math.pi / (2.0 * self.nu)


@dataclass(frozen=True)
class PExponent:
    """Integrability exponent p in (1, inf]; math.inf marks the sup case."""

    value: float

    def __post_init__(self):
        if not (self.value == math.inf or self.value > 1.0):
            raise DomainError(f"p must be finite > 1 or inf, got {self.value}")

    @property
    def is_inf(self) -> bool:
        return self.value == math.inf

    @property
    def a(self) -> float:
        """(p-1)/(p-2), taken as 1 at p = inf.  Undefined near p = 2."""
        if self.is_inf:
            return 1.0
        if abs(self.value - 2.0) < P_TWO_EPS:
            raise DomainError("a = (p-1)/(p-2) is undefined at p = 2")
        return (self.value - 1.0) / (self.value - 2.0)

    @property
    def b(self) -> float:
        """1/(p-2), taken as 0 at p = inf.  Undefined near p = 2."""
        if self.is_inf:
            return 0.0
        if abs(self.value - 2.0) < P_TWO_EPS:
            raise DomainError("b = 1/(p-2) is undefined at p = 2")
        return 1.0 / (self.value - 2.0)

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class RadialExponent:
    """Selected root of the exponent quadratic with its branch tag."""

    k: float
    branch: str  # "k1" or "k2"

    def __post_init__(self):
        if self.branch == "k1" and not self.k > 0:
            raise ValueError(f"branch k1 must be positive, got {self.k}")

    def __float__(self) -> float:
        return self.k


def _as_nu(sector) -> float:
    nu = sector.nu if isinstance(sector, SectorSpec) else float(sector)
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


def radial_exponent(sector, p) -> float:
    """Radial exponent k(nu, p), branch k1 of the closed form.

    Special paths: p = 2 gives k = nu exactly; nu = 1/2 gives the limit
    (p-1)/p; p = inf uses the piecewise sup-norm form.  Result is finite
    and positive.
    """
    nu = _as_nu(sector)
    p = _as_p(p)
    if p == math.inf:
        return radial_exponent_inf(nu)
    if p == 2.0:
        return nu
    if abs(2.0 * nu - 1.0) < NU_HALF_EPS:
        return (p - 1.0) / p
    return radial_exponent_roots(nu, p)[0]


def radial_exponent_full(sector, p) -> RadialExponent:
    """radial_exponent wrapped with its branch tag."""
    return RadialExponent(k=radial_exponent(sector, p), branch="k1")


def radial_exponent_roots(sector, p) -> tuple[float, float]:
    """Both roots of the exponent quadratic, for finite p != 2, nu > 1/2.

    k1 is the branch selected by continuity k1(nu, 2) = nu; k2 is the
    radical-conjugate root.  They satisfy k1 * k2 = nu^2/(2*nu - 1).
    Only k1 solves the original (unsquared) aperture condition; k2 is the
    spurious branch introduced by squaring and is exposed for testing.
    """
    nu = _as_nu(sector)
    p = _as_p(p)
    if p == math.inf:
        raise DomainError("roots are defined for finite p only")
    if abs(2.0 * nu - 1.0) < NU_HALF_EPS:
        raise DomainError("nu = 1/2 requires the limit path of radial_exponent")
    sq = math.sqrt(_discriminant(nu, p))
    den = 2.0 * (p - 1.0) * (2.0 * nu - 1.0)
    k1 = ((nu - 1.0) * sq + (2.0 - p) * (1.0 - 2.0 * nu) + nu * nu * p) / den
    k2 = ((1.0 - nu) * sq + (2.0 - p) * (1.0 - 2.0 * nu) + nu * nu * p) / den
    return k1, k2


def exponent_condition_residual(k: float, sector, p) -> float:
    """Residual of the aperture condition that defines k, for finite p != 2.

    Returns pi/nu - pi*(1 - (1 - 1/k)*sqrt(a*k)/sqrt(a*k - 1)); zero iff k
    satisfies the defining transcendental condition.  Requires a*k > 1.
    For p < 2 map the problem through the conjugate identity
    k(nu, q) = (p-1)*(k(nu, p)-1) + 1 with p = q/(q-1) before calling.
    """
    nu = _as_nu(sector)
    p = _as_p(p)
    if p == math.inf:
        a = 1.0
    else:
        if abs(p - 2.0) < 1e-300:
            raise DomainError("condition constants are undefined at p = 2")
        a = (p - 1.0) / (p - 2.0)
    ak = a * k
    if not ak > 1.0:
        raise DomainError(f"a*k must exceed 1, got a*k = {ak}")
    return math.pi / nu - math.pi * (1.0 - (1.0 - 1.0 / k) * math.sqrt(ak) / math.sqrt(ak - 1.0))


def dk_dnu(sector, p) -> float:
    """Partial derivative of k with respect to nu; nonnegative on the domain.

    Finite p uses the closed form; p = inf differentiates the piecewise
    sup-norm expression.  Raises at nu = 1/2 exactly (no limit available);
    probe nu = 1/2 + eps instead.
    """
    nu = _as_nu(sector)
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
    num = p * (nu - 1.0) * s + (nu - 1.0) ** 2 * p * p + 2.0 * (2.0 * nu - 1.0) * (p - 1.0)
    return nu * num / ((p - 1.0) * (2.0 * nu - 1.0) ** 2 * s)


def dk_dp(sector, p) -> float:
    """Partial derivative of k with respect to p, finite p only.

    Positive for nu in [1/2, 1), zero at nu = 1, negative for nu > 1.
    At nu = 1/2 returns the limit value 1/p^2.
    """
    nu = _as_nu(sector)
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
