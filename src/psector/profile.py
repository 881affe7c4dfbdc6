"""Angular profiles f(phi) of separable p-harmonic functions r**k * f(phi).

Each of the paper's four constructions of f is one evaluator:

* ClosedFormEvaluator, p = 2: f = cos(nu*phi), theta = nu*phi.
* AngleMapEvaluator, 2 < p <= inf (nu >= 1 at p = inf): an implicit monotone
  angle map theta(phi), defined through an arctan formula, with f and f'
  explicit in theta.  theta_of_phi inverts it by bisection on [0, pi], the
  same BISECT_STEPS halvings for every angle.
* PlateauEvaluator, p = inf with nu < 1 (aperture beyond pi): a flat plateau
  around phi = 0 with sinusoidal flanks.
* StreamEvaluator, 1 < p < 2: the stream function of the conjugate-exponent
  profile built on an extended angular domain, rotated back and renormalized.

Every evaluator exposes `case`, `k`, `c`, `corners` (the angles where f''
does not exist), `amap` (the AngleMap whose inverse theta_of_phi it calls,
None for the closed form and the plateau) and `eval(phi) -> (f, f', theta)`.
build_profile picks the evaluator and tabulates (phi, theta, f, f') through
it on a uniform phi grid, in one call, normalized to f(0) = 1, with the
realized band constants.

The evaluators, the angle map and its inverse take a float or an array of
any shape and work elementwise.  A float runs through the same array code,
so its result equals the matching element of an array call bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _output
from .exponent import (
    P_TWO_EPS,
    DomainError,
    _as_nu,
    _as_p,
    conjugate_exponent,
    radial_exponent,
)

CASE_P2 = "P2_CLOSED"
CASE_GT2 = "P_GT2_ANGLEMAP"
CASE_INF = "P_INF_ANGLEMAP"
CASE_LT2 = "P_LT2_STREAM"

# near theta = +-pi the tan(theta/2) substitution degenerates; the map value
# there is the full extended-domain boundary +-pi/nu
THETA_PI_EPS = 1e-9
# bisection steps of the inverse map: the pi-wide bracket halves to
# pi * 2**-64 ~ 1.7e-19, float resolution for every theta >= 7.7e-4; kept
# there because downstream second differences amplify any f noise by 1/h^2
BISECT_STEPS = 64


class ProfileInvariantError(RuntimeError):
    """A built profile violated one of its structural invariants."""


@dataclass(frozen=True)
class PolarPoint:
    r: float
    phi: float

    def __post_init__(self):
        if not self.r > 0:
            raise DomainError(f"r must be positive, got {self.r}")
        if not abs(self.phi) <= math.pi:
            raise DomainError(f"|phi| must not exceed pi, got {self.phi}")


@dataclass(frozen=True)
class AngleMap:
    """Monotone reparametrization theta -> phi for the 2 < p <= inf profiles.

    phi(theta) = theta - (1 - 1/k) * sqrt(ak)/sqrt(ak - 1)
                 * [arctan(lam*tan(theta/2)) + arctan(tan(theta/2)/lam)]
    with lam = sqrt(ak - 1)/(sqrt(ak) + 1).  Strictly increasing on
    (-pi, pi) since dphi/dtheta = (a - cos^2)/(ak - cos^2) > 0, mapping
    [-pi/2, pi/2] onto [-pi/(2 nu), pi/(2 nu)] and (+-pi) to +-pi/nu.
    Degenerates to the identity when k = 1 (half-plane profiles).
    """

    nu: float
    p: float
    a: float
    k: float
    lam: float

    @classmethod
    def for_params(cls, nu: float, p: float) -> "AngleMap":
        if p == math.inf and nu < 1.0 - 1e-12:
            raise DomainError(
                "the angle map does not represent the p = inf profile for nu < 1"
            )
        a = 1.0 if p == math.inf else (p - 1.0) / (p - 2.0)
        k = radial_exponent(nu, p)
        ak = a * k
        if ak <= 1.0 and not math.isclose(k, 1.0, abs_tol=1e-12):
            raise DomainError(f"angle map requires a*k > 1, got {ak}")
        lam = math.sqrt(max(ak - 1.0, 0.0)) / (math.sqrt(ak) + 1.0)
        return cls(nu=nu, p=p, a=a, k=k, lam=lam)

    @property
    def ak(self) -> float:
        return self.a * self.k

    @property
    def degenerate(self) -> bool:
        # k = 1 kills the arctan term; happens for nu = 1 (and p = inf, nu <= 1)
        return math.isclose(self.k, 1.0, abs_tol=1e-12)

    @property
    def normalization(self) -> float:
        """c such that f(0) = 1."""
        if self.degenerate:
            return 1.0
        return ((self.ak - 1.0) / self.ak) ** (-(self.k - 1.0) / 2.0)


def _flat(x):
    """x as a flat float64 array, with the shape to give results back in."""
    a = np.asarray(x, dtype=float)
    return a.reshape(-1), a.shape


def _shaped(shape, *cols):
    """Columns computed on a flat array, back in the input's shape; a scalar
    input gets numpy float64 scalars, computed by the same array loops."""
    out = tuple(c.reshape(shape) if shape else c[0] for c in cols)
    return out if len(out) > 1 else out[0]


def _check_bound(x, bound: float, what: str) -> None:
    bad = ~(np.abs(x) <= bound + 1e-12)
    if bad.any():
        raise DomainError(f"{what} = {bound}, got {x[bad][0]}")


def _phi_map(amap: AngleMap):
    """The map theta -> phi on flat arrays in [-pi, pi], its constants bound
    once."""
    if amap.degenerate:
        return np.copy
    ak = amap.ak
    if ak <= 1.0:
        raise DomainError(f"angle map requires a*k > 1, got {ak}")
    lam, end = amap.lam, math.pi / amap.nu
    scale = (1.0 - 1.0 / amap.k) * math.sqrt(ak) / math.sqrt(ak - 1.0)

    def phi(theta):
        t = np.tan(0.5 * theta)
        out = theta - scale * (np.arctan(lam * t) + np.arctan(t / lam))
        return np.where(np.abs(theta) >= math.pi - THETA_PI_EPS, np.copysign(end, theta), out)

    return phi


def phi_of_theta(theta, amap: AngleMap):
    """Image of theta (a float or an array) under the angle map; +-pi maps
    to +-pi/nu."""
    th, shape = _flat(theta)
    _check_bound(th, math.pi, "|theta| must not exceed pi")
    return _shaped(shape, _phi_map(amap)(th))


def theta_of_phi(phi, amap: AngleMap):
    """Inverse of the angle map, elementwise, by bisection on [0, pi].

    Every bracket starts pi wide and halves BISECT_STEPS times, so all
    elements run the same steps and each result depends on its own element
    only.  Odd symmetry is applied exactly: theta(-phi) = -theta(phi) to the
    bit.
    """
    x, shape = _flat(phi)
    bound = math.pi / amap.nu
    _check_bound(x, bound, "|phi| must not exceed pi/nu")
    if amap.degenerate:
        return _shaped(shape, x.copy())
    phi_map = _phi_map(amap)
    target = np.minimum(np.abs(x), bound)
    # extended-domain endpoint: the map is flat there, snap exactly
    snap = target >= bound - 1e-13 * max(1.0, bound)
    lo, hi = np.zeros_like(target), np.full_like(target, math.pi)
    for _ in range(BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        below = phi_map(mid) <= target
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    theta = np.where(snap, math.pi, np.where(target == 0.0, 0.0, 0.5 * (lo + hi)))
    return _shaped(shape, np.copysign(theta, x))


def _f_from_theta(theta, amap: AngleMap):
    """(f, f') at mapped angles: c*w^((k-1)/2)*cos(theta) and its
    phi-derivative -k*c*w^((k-1)/2)*sin(theta), with w = 1 - cos^2(theta)/(ak).

    Evaluated as w^e / w0^e with e = (k-1)/2 and w0 = w(0), which folds in
    the normalization c and makes f(0) = 1 exact.  The two powers are taken
    separately: the power of the rounded ratio w/w0 would carry its rounding
    e times, which put the stream profile's peak g_max one ulp off at nu = 4.
    """
    k = amap.k
    cos = np.cos(theta)
    if amap.degenerate:
        return cos, -np.sin(theta)
    w = 1.0 - cos * cos / amap.ak
    e = (k - 1.0) / 2.0
    wp = np.power(w, e) / np.power(1.0 - 1.0 / amap.ak, e)
    return wp * cos, -k * wp * np.sin(theta)


class ClosedFormEvaluator:
    """p = 2: f = cos(nu*phi), theta = nu*phi, k = nu; defined for every phi."""

    case, c, corners, amap = CASE_P2, 1.0, (), None

    def __init__(self, nu: float):
        self.nu = self.k = nu

    def eval(self, phi):
        x, shape = _flat(phi)
        th = self.nu * x
        return _shaped(shape, np.cos(th), -self.nu * np.sin(th), th)


class AngleMapEvaluator:
    """2 < p <= inf: f and f' explicit in theta(phi), on the extended domain
    |phi| <= pi/nu.  At p = inf the corner is the ridge phi = 0, where
    f'' -> -inf for nu > 1; at nu = 1 (f = cos) it is listed too, so the
    residual reports exclude the same band for every p = inf angle map."""

    def __init__(self, nu: float, p: float):
        self.amap = AngleMap.for_params(nu, p)
        self.case = CASE_INF if p == math.inf else CASE_GT2
        self.k, self.c = self.amap.k, self.amap.normalization
        self.corners = (0.0,) if p == math.inf else ()

    def eval(self, phi):
        x, shape = _flat(phi)
        th = theta_of_phi(x, self.amap)
        return _shaped(shape, *_f_from_theta(th, self.amap), th)


class PlateauEvaluator:
    """p = inf, nu < 1: f = 1 on |phi| <= pj = pi/(2 nu) - pi/2 and
    cos(|phi| - pj) on the flanks, with theta = sign(phi) (|phi| - pj); f''
    jumps at the junctions +-pj."""

    case, k, c, amap = CASE_INF, 1.0, 1.0, None

    def __init__(self, nu: float):
        self.alpha = math.pi / (2.0 * nu)
        self.pj = self.alpha - math.pi / 2.0
        self.corners = (-self.pj, self.pj)

    def eval(self, phi):
        x, shape = _flat(phi)
        _check_bound(x, self.alpha, "|phi| must not exceed the sector bound")
        flank = np.abs(x) > self.pj
        th = np.where(flank, np.abs(x) - self.pj, 0.0)
        return _shaped(shape, np.where(flank, np.cos(th), 1.0),
                       np.where(flank, -np.copysign(np.sin(th), x), 0.0),
                       np.where(flank, np.copysign(th, x), 0.0))


class StreamEvaluator:
    """1 < p < 2: the stream function g of the conjugate-exponent profile
    (exponent p' = p/(p-1) > 2, angle map `amap`, radial exponent k'),
    rotated by the half-aperture and divided by its peak g_max.  Its radial
    exponent is lam = (p' - 1)(k' - 1) + 1 = k(nu, p)."""

    case, c, corners = CASE_LT2, 1.0, ()

    def __init__(self, nu: float, p: float):
        self.amap = AngleMap.for_params(nu, conjugate_exponent(p))
        self.alpha = math.pi / (2.0 * nu)
        self.k = self.lam = (self.amap.p - 1.0) * (self.amap.k - 1.0) + 1.0
        # g peaks at theta = pi/2, the rotated origin; normalizing by its
        # computed value there makes f(0) = 1 exact
        self.g_max = self.pair(self.alpha)[3]

    def pair(self, psi):
        """(theta, f, f', g, g') at extended angles psi in [-pi/(2 nu), pi/nu],
        unnormalized: f, f' of the conjugate profile and, with
        m = (k'^2 f^2 + f'^2)^((p'-2)/2), g = -(1/lam) f' m and g' = k' f m."""
        amap = self.amap
        x, shape = _flat(psi)
        th = theta_of_phi(x, amap)
        f, fp = _f_from_theta(th, amap)
        mod = (amap.k * amap.k * f * f + fp * fp) ** ((amap.p - 2.0) / 2.0)
        return _shaped(shape, th, f, fp, -(1.0 / self.lam) * fp * mod, amap.k * f * mod)

    def eval(self, phi):
        x, shape = _flat(phi)
        _check_bound(x, self.alpha, "|phi| must not exceed the sector bound")
        th, _, _, g, gp = self.pair(x + self.alpha)
        return _shaped(shape, g / self.g_max, gp / self.g_max, th)


@dataclass
class AngularProfile:
    """Tabulated angular profile with the exact evaluator behind the table.

    The table spans [-pi/(2 nu), pi/(2 nu)]; the angle-map evaluator also
    covers the extended domain up to pi/nu.
    """

    nu: float
    p: float
    evaluator: ClosedFormEvaluator | AngleMapEvaluator | PlateauEvaluator | StreamEvaluator
    phi: np.ndarray
    theta: np.ndarray
    f: np.ndarray
    fprime: np.ndarray
    band_inner_min_f: float
    band_outer_min_fprime: float
    boundary_residual: float

    @property
    def case(self) -> str:
        return self.evaluator.case

    @property
    def k(self) -> float:
        return self.evaluator.k

    @property
    def c(self) -> float:
        return self.evaluator.c

    @property
    def corners(self) -> tuple:
        return self.evaluator.corners

    @property
    def half_aperture(self) -> float:
        return math.pi / (2.0 * self.nu)

    def f_exact(self, phi):
        return self.evaluator.eval(phi)[0]


def _check_invariants(prof: AngularProfile) -> list[str]:
    bad = []
    f, fp, phi = prof.f, prof.fprime, prof.phi
    i0 = len(phi) // 2
    if abs(f[i0] - 1.0) > 1e-12:
        bad.append(f"f(0) = {f[i0]!r}, expected 1")
    if abs(fp[i0]) > 1e-9:
        bad.append(f"f'(0) = {fp[i0]!r}, expected 0")
    if prof.boundary_residual > 1e-9:
        bad.append(f"boundary residual {prof.boundary_residual!r} > 1e-9")
    if f.min() < -1e-12 or f.max() > 1.0 + 1e-12:
        bad.append(f"f range [{f.min()!r}, {f.max()!r}] outside [0, 1]")
    if np.max(np.abs(f - f[::-1])) > 1e-10:
        bad.append("f is not even in phi")
    if np.max(np.abs(fp + fp[::-1])) > 1e-10:
        bad.append("f' is not odd in phi")
    right = f[i0:]
    if np.max(np.diff(right)) > 1e-12:
        bad.append("f is not nonincreasing on [0, pi/(2 nu)]")
    if prof.band_inner_min_f <= 0.0:
        bad.append("min f on the inner quarter band is not positive")
    if prof.band_outer_min_fprime <= 0.0:
        bad.append("min |f'| on the outer band is not positive")
    return bad


def build_profile(nu, p, n_samples: int = 129) -> AngularProfile:
    """Construct and validate the angular profile for the sector and exponent.

    n_samples is rounded up to an odd count so phi = 0 is a node.  The
    evaluator: p = 2 closed form; p in (2, inf] angle map (plateau for
    p = inf, nu < 1); p in (1, 2) stream conjugation of the p/(p-1) profile.
    The table is the evaluator's values at the nodes.
    """
    nu = _as_nu(nu)
    p = _as_p(p)
    if n_samples < 16:
        raise DomainError(f"n_samples must be >= 16, got {n_samples}")
    if n_samples % 2 == 0:
        n_samples += 1
    alpha = math.pi / (2.0 * nu)
    phi = np.linspace(-alpha, alpha, n_samples)

    if p != math.inf and abs(p - 2.0) < P_TWO_EPS:
        p = 2.0
        ev = ClosedFormEvaluator(nu)
    elif p == math.inf and nu < 1.0:
        ev = PlateauEvaluator(nu)
    elif p == math.inf or p > 2.0:
        ev = AngleMapEvaluator(nu, p)
    else:
        ev = StreamEvaluator(nu, p)
    f, fp, theta = ev.eval(phi)
    prof = AngularProfile(
        nu=nu, p=p, evaluator=ev,
        phi=phi, theta=theta, f=f, fprime=fp,
        band_inner_min_f=_band_inner(phi, f, alpha),
        band_outer_min_fprime=_band_outer(phi, fp, alpha),
        boundary_residual=max(abs(f[0]), abs(f[-1])),
    )
    bad = _check_invariants(prof)
    if bad:
        raise ProfileInvariantError(
            f"profile(nu={nu}, p={p}) failed invariants: " + "; ".join(bad)
        )
    return prof


def _band_inner(phi, f, alpha):
    mask = np.abs(phi) <= alpha / 2.0 + 1e-14
    return float(np.min(f[mask]))


def _band_outer(phi, fp, alpha):
    # open complement: strictly between the quarter band and the boundary,
    # where f' vanishes only at isolated construction corners
    mask = (np.abs(phi) > alpha / 2.0 + 1e-14) & (np.abs(phi) < alpha - 1e-14)
    if not mask.any():
        return 0.0
    return float(np.min(np.abs(fp[mask])))


def eval_u(point: PolarPoint, prof: AngularProfile) -> float:
    """r**k * f(phi) through the exact evaluator (no table interpolation)."""
    alpha = prof.half_aperture
    if not abs(point.phi) <= alpha + 1e-12:
        raise DomainError(f"point at phi = {point.phi} lies outside the sector")
    return point.r**prof.k * prof.f_exact(point.phi)


def write_profile_csv(prof: AngularProfile, path) -> None:
    """CSV table with '#'-prefixed header comments (phi, theta, f, fprime)."""
    _output.write_table(
        path,
        [("nu", repr(prof.nu)), ("p", "inf" if prof.p == math.inf else repr(prof.p)),
         ("k", repr(prof.k)), ("case", prof.case), ("c", repr(prof.c))],
        ["phi", "theta", "f", "fprime"],
        [f"{a!r},{b!r},{c!r},{d!r}\n" for a, b, c, d in zip(
            prof.phi.tolist(), prof.theta.tolist(), prof.f.tolist(), prof.fprime.tolist())],
    )


def read_profile_csv(path):
    """Inverse of write_profile_csv: (meta dict, column arrays by name)."""
    meta, columns, rows = _output.read_table(path)
    cols = np.array([[float(x) for x in row] for row in rows])
    return meta, {name: cols[:, i] for i, name in enumerate(columns)}
