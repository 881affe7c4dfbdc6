"""Residual checkers for the governing equations.

Certifies that constructed functions satisfy, in finite-difference sense,
the polar p-Laplace equation, the angular separation ODE, and the sup-norm
(infinity) Laplace equation.  All checks are independent of the construction
route: derivatives come from central differences, never from solving the
equation being verified.  The three field residuals sample the field as a
black box on one 9-point stencil, `_differences`; one `separation_residual`
covers the angular ODE for every p in (1, inf], with f'' differenced from
tabulated values.  Fields take arrays, and the residuals work elementwise:
each report samples the stencils of all its points in one field call.

Residuals are reported two ways: raw (the multiplied-out left side) and
relative, dividing by the largest individual term magnitude so that "small"
means small against the balance actually achieved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponent import DomainError
from .profile import AngularProfile

# smallest admissible relativization scale; avoids 0/0 where all terms vanish
_SCALE_FLOOR = 1e-300


@dataclass
class ResidualReport:
    """Summary of a residual sweep over sample points."""

    max_abs_residual: float
    sample_count: int

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        if self.max_abs_residual < 0:
            raise ValueError("max_abs_residual must be >= 0")


def _rel(terms):
    """Sum of the terms over the largest term magnitude, elementwise."""
    scale = _SCALE_FLOOR
    for t in terms:
        scale = np.maximum(scale, np.abs(t))
    return sum(terms) / scale


def _combine(terms, relative: bool):
    return _rel(terms) if relative else sum(terms)


def _differences(fld, a, b, h: float):
    """Second-order central differences of fld at (a, b) with step h.

    a and b are floats or arrays.  fld is called once, on the 9-point
    stencils of all points stacked along a new first axis, and may return
    anything that broadcasts to that shape.  Returns (u_a, u_b, u_aa, u_bb,
    u_ab).
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    ap, am, bp, bm = a + h, a - h, b + h, b - h
    stencil_a = np.stack([a, ap, am, a, a, ap, ap, am, am])
    stencil_b = np.stack([b, b, b, bp, bm, bp, bm, bp, bm])
    u = np.broadcast_to(fld(stencil_a, stencil_b), stencil_a.shape)
    u0, east, west, north, south, ne, se, nw, sw = u
    cross = ne - se - nw + sw
    return (
        (east - west) / (2 * h),
        (north - south) / (2 * h),
        (east - 2 * u0 + west) / (h * h),
        (north - 2 * u0 + south) / (h * h),
        cross / (4 * h * h),
    )


def separation_residual(f, fprime, fsecond, k: float, p: float, relative: bool = False):
    """Left side of the angular separation ODE for p in (1, inf], elementwise.

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
    return _combine(terms, relative)


def _polar_terms(fld, r, phi, p: float, step: float):
    """Terms of the polar residual of fld at (r, phi), arrays allowed: the
    balance u_rr + u_r/r + u_pp/r^2 at p = 2, else the p-Laplace form of
    polar_plap_residual."""
    ur, up, urr, upp, urp = _differences(fld, r, phi, step)
    if p == 2.0:
        return (urr, ur / r, upp / r**2)
    b = 1.0 / (p - 2.0)
    return (
        (b + 1.0) * ur * ur * urr,
        b / r**2 * (urr * up * up + ur * ur * upp),
        (b + 1.0) / r**4 * up * up * upp,
        b / r * ur**3,
        (b - 1.0) / r**3 * ur * up * up,
        2.0 / r**2 * ur * up * urp,
    )


def polar_plap_residual(fld, point, p: float, step: float, relative: bool = False):
    """Finite-difference residual of the polar p-Laplace equation at a point,
    for finite p > 1.

    fld(r, phi) is sampled on the centered stencil of `_differences` with the
    given step.  The multiplied-out form is evaluated:

    (b+1) ur^2 urr + (b/r^2)(urr up^2 + ur^2 upp) + ((b+1)/r^4) up^2 upp
      + (b/r) ur^3 + ((b-1)/r^3) ur up^2 + (2/r^2) ur up urp,  b = 1/(p-2);

    at p = 2 the balance u_rr + u_r/r + u_pp/r^2.  `relative` divides by the
    max term.
    """
    if p == math.inf:
        raise DomainError("polar_plap_residual needs finite p")
    if not point.r > 2.0 * step:
        raise DomainError("stencil requires r > 2*step")
    return _combine(_polar_terms(fld, point.r, point.phi, p, step), relative)


def inf_lap_residual(fld, point, step: float, relative: bool = False):
    """Finite-difference sup-norm Laplacian sum u_xi u_xj u_xixj at Cartesian
    points (x, y), floats or arrays; `relative` divides by
    |grad u|^2 * max|D2 u|."""
    x, y = point
    ux, uy, uxx, uyy, uxy = _differences(fld, x, y, step)
    res = ux * ux * uxx + 2.0 * ux * uy * uxy + uy * uy * uyy
    if relative:
        grad2 = ux * ux + uy * uy
        hess = np.maximum(np.maximum(np.abs(uxx), np.abs(uyy)), np.abs(uxy))
        # affine fields have a numerically zero Hessian; floor the curvature
        # scale by the homogeneous one |grad u| / |x| so 0/0 reads as 0
        rr = np.hypot(x, y)
        hess = np.maximum(hess, np.sqrt(grad2) / np.where(rr > 0.0, rr, np.inf))
        return res / np.maximum(grad2 * hess, _SCALE_FLOOR)
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


def _in_bands(phi, bands, reach: float = 0.0):
    """Whether each [phi - reach, phi + reach] overlaps any (lo, hi) band."""
    hit = np.zeros(np.shape(phi), dtype=bool)
    for lo, hi in bands:
        hit |= (phi - reach <= hi) & (phi + reach >= lo)
    return hit


def _worst(res) -> float:
    return float(np.max(np.abs(res), initial=0.0))


def separation_report(prof: AngularProfile, n_samples: int | None = None) -> ResidualReport:
    """Max relative separation-ODE residual over the tabulated profile.

    f'' comes from second central differences of the tabulated f column at
    the table spacing, keeping the check independent of the ODE being
    verified; the table step also dominates the root-finder noise in f.
    n_samples optionally thins the table rows checked.
    """
    bands = profile_corner_bands(prof)
    phi, f = prof.phi, prof.f
    h = float(phi[1] - phi[0])
    idx = np.arange(1, len(phi) - 1)
    if n_samples is not None and len(idx) > n_samples:
        idx = idx[:: max(1, len(idx) // n_samples)]
    # the difference stencil [x - h, x + h] must not straddle an excluded corner
    idx = idx[~_in_bands(phi[idx], bands, h)]
    x, fi = phi[idx], f[idx]
    fpp = (f[idx + 1] - 2 * fi + f[idx - 1]) / (h * h)
    # only the p = inf angle map has k > 1 and a corner (its ridge at 0)
    if prof.k > 1.0 and prof.corners:
        # f'' ~ |phi|^(-2/3) at the ridge; proportional steps keep the
        # truncation error of the difference flat in phi (f[i] is f_exact(x))
        ax = np.abs(x)
        ha = np.minimum(np.minimum(np.maximum(0.02 * ax, 1e-7), 0.25 * ax),
                        0.25 * (prof.half_aperture - ax))
        f_right, f_left = prof.f_exact(np.stack([x + ha, x - ha]))
        fpp = (f_right - 2.0 * fi + f_left) / (ha * ha)
    res = separation_residual(fi, prof.fprime[idx], fpp, prof.k, prof.p, relative=True)
    return ResidualReport(max_abs_residual=_worst(res), sample_count=len(idx))


def polar_residual_report(prof: AngularProfile, n_samples: int = 100,
                          step: float = 1e-3) -> ResidualReport:
    """Max relative polar p-Laplace residual of r**k f(phi) on the arc r = 1.

    For p = inf profiles the Cartesian sup-norm residual is used instead,
    relative to its |grad|^2 ||D2|| scale; corner bands are excluded.  The
    stencils of all kept angles go to the evaluator in one call.
    """
    alpha = prof.half_aperture
    # widen the corner exclusions so no finite-difference stencil straddles
    # a corner (Cartesian stencils reach ~1.5*step in angle at r = 1)
    margin = 3.0 * step
    bands = [(lo - margin, hi + margin) for lo, hi in profile_corner_bands(prof)]
    phis = np.linspace(-alpha + margin, alpha - margin, n_samples)
    phis = phis[~_in_bands(phis, bands)]
    k = prof.k

    if prof.p == math.inf:
        def fld_xy(x, y):
            return np.power(np.hypot(x, y), k) * prof.f_exact(np.arctan2(y, x))

        res = inf_lap_residual(fld_xy, (np.cos(phis), np.sin(phis)), step, relative=True)
    else:
        def fld_polar(r, phi):
            return np.power(r, k) * prof.f_exact(phi)

        res = _rel(_polar_terms(fld_polar, 1.0, phis, prof.p, step))
    return ResidualReport(max_abs_residual=_worst(res), sample_count=len(phis))
