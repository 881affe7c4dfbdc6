"""Residual checkers for the governing equations.

Certifies that constructed functions satisfy, in finite-difference sense,
the polar p-Laplace equation, the angular separation ODE, and the sup-norm
(infinity) Laplace equation.  All checks are independent of the construction
route: derivatives come from central differences, never from solving the
equation being verified.  The three field residuals sample the field as a
black box on one 9-point stencil, `_differences`; one `separation_residual`
covers the angular ODE for every p in (1, inf], with f'' differenced from
tabulated values.

Residuals are reported two ways: raw (the multiplied-out left side) and
relative, dividing by the largest individual term magnitude so that "small"
means small against the balance actually achieved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exponent import DomainError
from .profile import AngularProfile, PolarPoint

# smallest admissible relativization scale; avoids 0/0 where all terms vanish
_SCALE_FLOOR = 1e-300


@dataclass
class ResidualReport:
    """Summary of a residual sweep over sample points."""

    max_abs_residual: float
    sample_count: int
    excluded_bands: list = field(default_factory=list)

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        if self.max_abs_residual < 0:
            raise ValueError("max_abs_residual must be >= 0")


def _rel(terms) -> float:
    s = sum(terms)
    scale = max(max(abs(t) for t in terms), _SCALE_FLOOR)
    return s / scale


def _differences(fld, a: float, b: float, h: float):
    """Second-order central differences of fld at (a, b) with step h.

    Samples each point of the 9-point stencil once and returns
    (u_a, u_b, u_aa, u_bb, u_ab).
    """
    u0 = fld(a, b)
    east, west = fld(a + h, b), fld(a - h, b)
    north, south = fld(a, b + h), fld(a, b - h)
    cross = fld(a + h, b + h) - fld(a + h, b - h) - fld(a - h, b + h) + fld(a - h, b - h)
    return (
        (east - west) / (2 * h),
        (north - south) / (2 * h),
        (east - 2 * u0 + west) / (h * h),
        (north - 2 * u0 + south) / (h * h),
        cross / (4 * h * h),
    )


def separation_residual(f: float, fprime: float, fsecond: float, k: float, p: float,
                        relative: bool = False) -> float:
    """Left side of the angular separation ODE for p in (1, inf].

    [(b+1) f'^2 + b k^2 f^2] f'' + (2k + bk - 1) k f f'^2 + (bk + k - 1) k^3 f^3
    with b = 1/(p-2), which is 0 at p = inf.  At p = 2 the equation is the
    balance f'' + k^2 f.
    """
    if p == 2.0:
        terms = (fsecond, k**2 * f)
    else:
        b = 1.0 / (p - 2.0)
        terms = (
            ((b + 1.0) * fprime * fprime + b * k * k * f * f) * fsecond,
            (2.0 * k + b * k - 1.0) * k * f * fprime * fprime,
            (b * k + k - 1.0) * k**3 * f**3,
        )
    if relative:
        return _rel(terms)
    return sum(terms)


def polar_plap_residual(fld, point, p: float, step: float, relative: bool = False) -> float:
    """Finite-difference residual of the polar p-Laplace equation at a point.

    fld(r, phi) is sampled on the centered stencil of `_differences` with the
    given step.  The multiplied-out form is evaluated:

    (b+1) ur^2 urr + (b/r^2)(urr up^2 + ur^2 upp) + ((b+1)/r^4) up^2 upp
      + (b/r) ur^3 + ((b-1)/r^3) ur up^2 + (2/r^2) ur up urp,  b = 1/(p-2).

    `relative` divides by the max term.
    """
    if p == math.inf or p == 2.0:
        raise DomainError("polar_plap_residual needs finite p != 2")
    r = point.r
    if not r > 2.0 * step:
        raise DomainError("stencil requires r > 2*step")
    b = 1.0 / (p - 2.0)
    ur, up, urr, upp, urp = _differences(fld, r, point.phi, step)
    terms = (
        (b + 1.0) * ur * ur * urr,
        b / r**2 * (urr * up * up + ur * ur * upp),
        (b + 1.0) / r**4 * up * up * upp,
        b / r * ur**3,
        (b - 1.0) / r**3 * ur * up * up,
        2.0 / r**2 * ur * up * urp,
    )
    if relative:
        return _rel(terms)
    return sum(terms)


def laplace_polar_residual(fld, point, step: float, relative: bool = False) -> float:
    """Residual of the p = 2 balance u_rr + u_r/r + u_pp/r^2 at a point."""
    r = point.r
    ur, _, urr, upp, _ = _differences(fld, r, point.phi, step)
    terms = (urr, ur / r, upp / r**2)
    if relative:
        return _rel(terms)
    return sum(terms)


def inf_lap_residual(fld, point, step: float, relative: bool = False) -> float:
    """Finite-difference sup-norm Laplacian sum u_xi u_xj u_xixj at a
    Cartesian point (x, y); `relative` divides by |grad u|^2 * max|D2 u|."""
    x, y = point
    ux, uy, uxx, uyy, uxy = _differences(fld, x, y, step)
    res = ux * ux * uxx + 2.0 * ux * uy * uxy + uy * uy * uyy
    if relative:
        grad2 = ux * ux + uy * uy
        hess = max(abs(uxx), abs(uyy), abs(uxy))
        # affine fields have a numerically zero Hessian; floor the curvature
        # scale by the homogeneous one |grad u| / |x| so 0/0 reads as 0
        rr = math.hypot(x, y)
        if rr > 0.0:
            hess = max(hess, math.sqrt(grad2) / rr)
        return res / max(grad2 * hess, _SCALE_FLOOR)
    return res


# half-width of the angular bands excluded around profile corner
# points (the p = inf ridge and the plateau junctions), where the classical
# second derivative does not exist
RIDGE_BAND_EPS = 1e-3


def profile_corner_bands(prof: AngularProfile):
    """Angular intervals on which classical residuals of the profile diverge:
    one band of half-width RIDGE_BAND_EPS around each of the profile's corners.

    For p = inf with nu > 1 the profile has f'' -> -inf at phi = 0; for
    p = inf with nu < 1 the plateau joins the flanks with a jump in f''.
    Finite-p profiles are smooth and get no exclusions.
    """
    return [(x - RIDGE_BAND_EPS, x + RIDGE_BAND_EPS) for x in prof.corners]


def _in_bands(phi: float, bands, reach: float = 0.0) -> bool:
    """Whether [phi - reach, phi + reach] overlaps any (lo, hi) band."""
    return any(phi - reach <= hi and phi + reach >= lo for lo, hi in bands)


def separation_report(prof: AngularProfile, n_samples: int | None = None) -> ResidualReport:
    """Max relative separation-ODE residual over the tabulated profile.

    f'' comes from second central differences of the tabulated f column at
    the table spacing, keeping the check independent of the ODE being
    verified; the table step also dominates the root-finder noise in f.
    n_samples optionally thins the table rows checked.
    """
    bands = profile_corner_bands(prof)
    phi, f, fp = prof.phi, prof.f, prof.fprime
    h = float(phi[1] - phi[0])
    fpp = np.empty_like(f)
    fpp[1:-1] = (f[2:] - 2 * f[1:-1] + f[:-2]) / (h * h)
    idx = np.arange(1, len(phi) - 1)
    if n_samples is not None and len(idx) > n_samples:
        idx = idx[:: max(1, len(idx) // n_samples)]
    alpha = prof.half_aperture
    # only the p = inf angle map has k > 1 and a corner (its ridge at 0)
    ridge_blowup = prof.k > 1.0 and bool(prof.corners)
    worst = 0.0
    count = 0
    for i in idx:
        x = float(phi[i])
        # the difference stencil [x - h, x + h] must not straddle an excluded corner
        if _in_bands(x, bands, h):
            continue
        fpp_i = fpp[i]
        if ridge_blowup:
            # f'' ~ |phi|^(-2/3) at the ridge; proportional steps keep the
            # truncation error of the difference flat in phi (f[i] is f_exact(x))
            ha = min(max(0.02 * abs(x), 1e-7), 0.25 * abs(x), 0.25 * (alpha - abs(x)))
            fpp_i = (prof.f_exact(x + ha) - 2.0 * f[i] + prof.f_exact(x - ha)) / (ha * ha)
        r = separation_residual(f[i], fp[i], fpp_i, prof.k, prof.p, relative=True)
        worst = max(worst, abs(r))
        count += 1
    return ResidualReport(max_abs_residual=worst, sample_count=count, excluded_bands=bands)


def polar_residual_report(prof: AngularProfile, n_samples: int = 100,
                          step: float = 1e-3) -> ResidualReport:
    """Max relative polar p-Laplace residual of r**k f(phi) on the arc r = 1.

    For p = inf profiles the Cartesian sup-norm residual is used instead,
    relative to its |grad|^2 ||D2|| scale; corner bands are excluded.
    """
    alpha = prof.half_aperture
    # widen the corner exclusions so no finite-difference stencil straddles
    # a corner (Cartesian stencils reach ~1.5*step in angle at r = 1)
    margin = 3.0 * step
    bands = [(lo - margin, hi + margin) for lo, hi in profile_corner_bands(prof)]
    phis = np.linspace(-alpha + margin, alpha - margin, n_samples)
    k = prof.k

    def fld_polar(r, phi):
        return r**k * prof.f_exact(phi)

    def fld_xy(x, y):
        r = math.hypot(x, y)
        return r**k * prof.f_exact(math.atan2(y, x))

    worst = 0.0
    count = 0
    for phi in phis:
        if _in_bands(phi, bands):
            continue
        if prof.p == math.inf:
            x, y = math.cos(phi), math.sin(phi)
            r = inf_lap_residual(fld_xy, (x, y), step, relative=True)
        elif prof.p == 2.0:
            r = laplace_polar_residual(fld_polar, PolarPoint(1.0, phi), step, relative=True)
        else:
            r = polar_plap_residual(fld_polar, PolarPoint(1.0, phi), prof.p, step, relative=True)
        worst = max(worst, abs(r))
        count += 1
    return ResidualReport(max_abs_residual=worst, sample_count=count, excluded_bands=bands)
