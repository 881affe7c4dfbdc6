"""p-harmonic measure of the arc of a sector-ball intersection.

solve_measure computes the discrete minimizer of the regularized p-Dirichlet
energy on a polar grid over B(0, R) in the sector, with Dirichlet data 1 on
the outer arc (or on the inner sub-arc variant), 0 on the radial sides and on
a small truncation ring near the apex.  The energy is one cell quadrature
(_cell_energy), and its gradient is the 5-point operator with the nonlinear
coefficient (|grad u|^2 + eps^2)^((p-2)/2) frozen at u.  The iteration is
lagged diffusivity (Kacanov): each cycle freezes the coefficient at the
current iterate and solves the linear equation.  At p = 2 the coefficient is
1, the frozen system is the 5-point Laplacian of the log-polar grid, separable
in r and phi, and one direct solve (_multigrid.sine_solve) converges the stage
in one cycle.  At p != 2 the solve is warm-started conjugate gradients
preconditioned with one geometric-multigrid V-cycle per step (_multigrid), to
CG_RTOL times the cycle's starting residual.  For p <= 2 the frozen quadratic
majorizes the energy, so no cycle raises it.  The sector and the arc data
are even in phi, and so is the strictly convex energy's unique minimizer:
every p != 2 stage runs on the mirror half of the grid (_fold), from the
axis to one wall, and the field is reflected back at return (_unfold).
Around the plain Picard loop: continuation in p from the linear problem
(steps of at most 1, warm-started); in p > 2 stages, adaptive damping of the
Picard step triggered by the one observed instability signature, period-2
update flips at data-jump nodes; in p < 2 stages, where plain Picard
converges only linearly, Anderson mixing of the last ANDERSON_DEPTH steps,
each mixed iterate taken only if its energy is at most that of the plain
Picard result, so the energy still never rises.  A stage stops on the
relative residual its cycle's linear solve starts from, or after CAPPED_STOP
consecutive capped CG solves.  Each cycle appends one Cycle record: the stage
p, the discrete energy of the stage being solved (its own p), the number of
CG iterations (0 for the direct p = 2 solve) and whether a mixed iterate was
taken, as convergence diagnostics.

mc_harmonic_measure is an independent walk-on-spheres Monte Carlo oracle for
the p = 2 case.  fit_slope extracts the radial decay exponent from a solved
field; comparability_constants bounds the ratio omega / (r/R)**k.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _multigrid, _output
from .exponent import DomainError, _as_nu

FULL_ARC = "full_arc"
INNER_ARC = "inner_arc"
REGION_S2NU = "S_2nu"
REGION_SNU = "S_nu"

# relative residual at which a p != 2 Picard cycle's CG solve stops; on the
# six 256^2 acceptance cases 1e-3 took 71 Picard cycles against 75, with 20%
# more CG iterations (159 against 132), and 0.64-0.92 s against 0.60-0.70 s
# (eight alternated runs each, slower in 7 of 8, 2-core VM)
CG_RTOL = 1e-2
# Anderson mixing depth of the p < 2 Picard stages, two fields per unit:
# depths 1 to 5 took 14, 11, 10, 10 and 10 final-stage cycles on (1, 1.5) at
# 256^2 (21 unmixed), and 39, 37, 38, 36 and 35 on (1, 1.1) at 128^2 (105)
ANDERSON_DEPTH = 3
# a solve stops after this many consecutive capped CG solves (stop_reason
# "cg_capped"); the converging cases have none
CAPPED_STOP = 5
# the radial window of the slope fit, in fractions of R: away from the apex
# truncation ring and from the arc's boundary layer
SLOPE_WINDOW = (0.05, 0.4)
# the walk-on-spheres oracle absorbs a walker within MC_SHELL of the boundary
# in w = log(z / R), stops every walk after MC_MAX_STEPS steps, and takes the
# exact half-disk exit up to a height of HALF_DISK_MAX radii
MC_SHELL = 1e-5
MC_MAX_STEPS = 100000
HALF_DISK_MAX = 0.5
# the innermost grid radius, the truncation ring, in fractions of R
RMIN_FRAC = 1e-3


@dataclass(frozen=True)
class MeasureProblem:
    """Discrete p-harmonic measure problem on a polar grid whose n_r radii
    are logarithmically spaced from RMIN_FRAC * R to R.

    arc_target selects the Dirichlet data: FULL_ARC puts 1 on the whole arc,
    INNER_ARC on the sub-arc |phi| <= pi/(4 nu) only (data jumps get 1/2).
    tol is the relative residual at which the solve stops (solve_measure).
    """

    nu: float
    p: float
    R: float = 1.0
    n_r: int = 256
    n_phi: int = 256
    eps_reg: float = 1e-6
    tol: float = 1e-9
    max_iter: int = 4000
    arc_target: str = FULL_ARC

    def __post_init__(self):
        _as_nu(self.nu)
        if not (1.0 < self.p < math.inf):
            raise DomainError(f"measure solver requires finite p > 1, got {self.p}")
        for name in ("R", "eps_reg", "tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be finite and positive, got {value}")
        if self.n_r < 8 or self.n_phi < 8:
            raise DomainError("grid must be at least 8 x 8")
        if self.max_iter < 1:
            raise DomainError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.arc_target not in (FULL_ARC, INNER_ARC):
            raise DomainError(f"unknown arc target {self.arc_target!r}")

    @property
    def half_aperture(self) -> float:
        return math.pi / (2.0 * self.nu)


class Cycle(NamedTuple):
    """One Picard cycle: its stage p, the energy of the field it starts from
    at that p, the CG iterations of its inner solve (0 at p = 2, whose solve
    is direct), and whether it took the Anderson-mixed iterate (None where
    none was tried: p >= 2 stages and the first cycle of a p < 2 stage)."""

    p: float
    energy: float
    cg: int
    anderson: bool | None


@dataclass
class MeasureSolution:
    problem: MeasureProblem
    r: np.ndarray
    phi: np.ndarray
    omega: np.ndarray  # shape (n_r, n_phi), values in [0, 1]
    # "converged", "max_iter" or "cg_capped"; None on a hand-built solution
    stop_reason: str | None = None
    cycles: list = field(default_factory=list)  # one Cycle per Picard cycle
    # ||A(u) u - b||_2 / ||b||_2 at the returned field, the coefficients
    # frozen at it with the problem's p; None on a hand-built solution
    final_residual: float | None = None

    @property
    def iterations(self) -> int:
        """Picard cycles run, over all continuation stages."""
        return len(self.cycles)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def cg_capped(self) -> int:
        """Cycles whose CG solve ran all _multigrid.MAX_CG iterations, which
        is where pcg stops when it does not reach CG_RTOL."""
        return sum(c.cg >= _multigrid.MAX_CG for c in self.cycles)

    def ray_values(self, ray_angle: float) -> np.ndarray:
        """Field along a ray, linearly interpolated in phi between columns."""
        phi = self.phi
        if not phi[0] <= ray_angle <= phi[-1]:
            raise DomainError(f"ray angle {ray_angle} outside the sector")
        j = int(np.searchsorted(phi, ray_angle))
        if j == 0:
            return self.omega[:, 0].copy()
        t = (ray_angle - phi[j - 1]) / (phi[j] - phi[j - 1])
        return (1.0 - t) * self.omega[:, j - 1] + t * self.omega[:, j]

    def to_csv(self, path) -> None:
        """r, phi, omega triples with '#' header comments, one row per node.

        The reprs of r and phi are formatted once per grid line, and each
        radius's rows are formatted from that radius's own floats and go to
        the file as one chunk, so neither a whole-file string nor a
        whole-field list of floats is built; every value is the repr of a
        Python float.
        """
        pr = self.problem
        heads = [repr(v) + "," for v in self.r.tolist()]
        phis = [repr(v) for v in self.phi.tolist()]
        _output.write_table(
            path,
            [("nu", repr(pr.nu)), ("p", repr(pr.p)), ("R", repr(pr.R)),
             ("arc_target", pr.arc_target)],
            ["r", "phi", "omega"],
            ("".join(f"{head}{ph},{om!r}\n" for ph, om in zip(phis, row.tolist()))
             for head, row in zip(heads, self.omega)),
        )

    def summary(self) -> dict:
        pr = self.problem
        anderson = [c.anderson for c in self.cycles]
        return {
            "nu": pr.nu,
            "p": pr.p,
            "R": pr.R,
            "grid": [pr.n_r, pr.n_phi],
            "radial_spacing": "logarithmic",  # every grid is; the key stays for readers
            "eps_reg": pr.eps_reg,
            "tolerance": pr.tol,
            "max_iter": pr.max_iter,
            "arc_target": pr.arc_target,
            "rmin_frac": RMIN_FRAC,
            "iterations": self.iterations,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "cg_iterations_max": max((c.cg for c in self.cycles), default=0),
            "cg_capped": self.cg_capped,
            "anderson_taken": anderson.count(True),
            "anderson_refused": anderson.count(False),
            "final_residual": self.final_residual,
        }


@dataclass(frozen=True)
class SlopeFit:
    exponent: float
    rms: float


def _grids(problem: MeasureProblem):
    pr = problem
    rmin = RMIN_FRAC * pr.R
    r = rmin * (pr.R / rmin) ** np.linspace(0.0, 1.0, pr.n_r)
    r[-1] = pr.R
    alpha = pr.half_aperture
    phi = np.linspace(-alpha, alpha, pr.n_phi)
    return r, phi


def _boundary_data(problem: MeasureProblem, phi: np.ndarray) -> np.ndarray:
    arc = np.zeros_like(phi)
    if problem.arc_target == FULL_ARC:
        arc[:] = 1.0
        arc[0] = arc[-1] = 0.5  # data jump at the corners
    else:
        quarter = math.pi / (4.0 * problem.nu)
        dphi = phi[1] - phi[0]
        inside = np.abs(phi) < quarter - 1e-12
        arc[inside] = 1.0
        jump = np.isclose(np.abs(phi), quarter, atol=0.5 * dphi)
        arc[jump] = 0.5
    return arc


def _cell_energy(u, r, dphi, p, eps2, coefficients=True, mirror=None):
    """Energy E of u at exponent p and the edge coefficients frozen at u.

    Cell c lies between radii i, i + 1 and angles j, j + 1 and has area
    A_c = rmid hr dphi.  Its g_c = |grad u|^2 is the mean of (du / hr)^2 over
    its two radial edges plus the mean of (du / (r dphi))^2 over its two
    angular edges, each at its own r, and E = (1/p) sum_c A_c (g_c + eps2)^(p/2).
    An edge's coefficient is half the sum of A_c (g_c + eps2)^((p-2)/2) over
    its one or two cells, divided by its squared length, hr^2 or (r dphi)^2:
    the frozen operator (_multigrid.apply) is the gradient of E at u.
    Returns (E, cE, cN) in the shapes hierarchy takes, or E without coefficients.

    mirror is None on the full grid.  On the mirror half (_fold) it is the
    full grid's n_phi % 2, and column 0 of u holds the mirror image of column
    1 + mirror.  The cells between columns 0 and 1 then weigh 1/2 in the
    energy and 1 in the coefficients for even n_phi, where each lies across
    the axis and is its own mirror image, and 0 in both for odd n_phi, where
    they mirror the cells between columns 1 and 2.  cN[:, 0] is 0, and E is
    doubled: the full grid's energy.  The frozen system's equations are then
    the full grid's on columns 1 and on, but for odd n_phi on column 1, the
    axis, where they are halved (_multigrid.residual's axis_weight).
    """
    hr, ha = np.diff(r), r * dphi
    dr2 = (np.diff(u, axis=0) / hr[:, None]) ** 2
    da2 = (np.diff(u, axis=1) / ha[:, None]) ** 2
    g = 0.5 * (dr2[:, 1:] + dr2[:, :-1] + da2[1:] + da2[:-1]) + eps2
    del dr2, da2
    area = 0.5 * (r[1:] + r[:-1]) * hr * dphi
    w = g ** (0.5 * (p - 2.0))
    if mirror == 1:
        w[:, 0] = 0.0
    g *= w
    if mirror == 0:
        g[:, 0] *= 0.5
    energy = float(np.einsum("i,ij->", area, g)) / p
    if mirror is not None:
        energy *= 2.0
    if not coefficients:
        return energy
    del g  # not held through the coefficients or the solve
    w *= 0.5 * area[:, None]
    cE = np.zeros((len(r) - 1, u.shape[1]))
    cE[:, 1:] = w
    cE[:, :-1] += w
    cE /= (hr * hr)[:, None]
    cN = np.zeros((len(r), u.shape[1] - 1))
    cN[1:] = w
    cN[:-1] += w
    cN /= (ha * ha)[:, None]
    if mirror is not None:
        cN[:, 0] = 0.0
    return energy, cE, cN


def _fold(u):
    """The mirror half of a field even in phi: column 0 the mirror column, a
    copy of column 1 + n_phi % 2, then the columns from the axis, or from
    the first column past it, to the wall."""
    n_phi = u.shape[1]
    half = u[:, n_phi // 2 - 1:].copy()
    half[:, 0] = half[:, 1 + n_phi % 2]
    return half


def _unfold(half, n_phi):
    """The full field of n_phi columns whose mirror half is half."""
    return np.concatenate([half[:, :n_phi % 2:-1], half[:, 1:]], axis=1)


def _anderson_mix(g, f, dF, dG):
    """g - dG gamma, with gamma the least-squares fit of the residual f = g - u
    by the columns of dF: one Anderson step of the fixed-point map u -> g
    (Walker & Ni, SIAM J. Numer. Anal. 49 (2011)).  The Gram system of the
    at most ANDERSON_DEPTH columns is formed from einsum dots."""
    gram = np.einsum("kij,lij->kl", dF, dF)
    gamma = np.linalg.lstsq(gram, np.einsum("kij,ij->k", dF, f), rcond=None)[0]
    mixed = np.einsum("k,kij->ij", gamma, dG)
    return np.subtract(g, mixed, out=mixed)


def solve_measure(problem: MeasureProblem) -> MeasureSolution:
    """Lagged-diffusivity solve of the regularized p-Dirichlet minimizer.

    At the top of each Picard cycle a stage checks ||A(u) u - b||_2 / ||b||_2,
    A(u) frozen at the iterate with the stage's p and b from the Dirichlet
    data: the residual the cycle's linear solve starts from (_multigrid.residual).
    It stops when that falls to problem.tol (final stage) or max(100 tol,
    1e-7) (earlier stages), stop_reason "converged", after CAPPED_STOP
    consecutive capped CG solves ("cg_capped"), or after max_iter cycles in
    all ("max_iter").  Non-convergence is reported, not raised.

    Each stage forms the frozen system (energy, cE, cN) at its first iterate,
    and each cycle forms it again at the iterate it ends on, for the next
    cycle's check.  A p < 2 stage mixes each cycle's clipped Picard result g
    with the last ANDERSON_DEPTH differences (_anderson_mix) and takes the
    mixed iterate only if its energy is at most g's; otherwise it takes g and
    restarts the history.  The mixing test forms the system of both
    candidates, so a mixing cycle costs one extra _cell_energy call.

    At p = 2 the coefficient (g + eps^2)^0 is exactly 1, so the frozen system
    depends on the grid alone and its edge coefficients are constant along
    phi: the p = 2 stage solves it directly (_multigrid.sine_solve, a cycle
    with cg = 0), from the Dirichlet data and a zero interior, since a
    direct solve returns the same discrete field from any start.  That
    leaves a residual at the rounding floor, so at any tol above that floor
    the stage converges in one cycle; the check after it forms only the
    energy.  Every other stage hands pcg a hierarchy of the
    cycle's system that is freed when pcg returns, and one workspace
    (_multigrid) for all its cycles, so the CG and V-cycle work arrays are
    allocated once per stage.

    The p = 2 stage runs on the full grid.  Before the first p != 2 stage
    the iterate is folded once onto the mirror half (_fold), and every p != 2
    stage runs there, on _cell_energy's half-grid system: after each linear
    solve the mirror column copies its image again, and the returned field is
    reflected back (_unfold), so it equals its mirror image bit for bit.  The
    half grid's residual is the full grid's: its equations are the full
    grid's, but for odd n_phi on the axis column, which carries half of each
    and whose squares the check weighs 2 (_multigrid.residual's axis_weight).

    final_residual is that residual at the returned field with the problem's
    p: the last check's, evaluated once more if the solve stops in an earlier
    stage.  converged holds exactly when it is at most tol.
    """
    pr = problem
    r, phi = _grids(pr)
    dphi = phi[1] - phi[0]
    u = np.zeros((pr.n_r, pr.n_phi))
    u[-1, :] = _boundary_data(pr, phi)
    eps2 = pr.eps_reg**2
    cycles = []
    # None while u is the full grid, n_phi % 2 once it is the mirror half
    mirror, axis_weight = None, 1.0
    # continuation in p from the linear case, stepping by at most 1, so the
    # strongly nonlinear stages start from a nearby solution and the
    # coefficient spikes of a cold p > 2 start never form
    stages = [2.0]
    if pr.p != 2.0:
        stages += [float(q) for q in range(3, math.ceil(pr.p - 1e-12))] + [pr.p]
    for stage in stages:
        # the last stage's step and frozen system are dropped before this
        # stage assembles its own
        du_prev = state = res = uold = du = None
        if stage != 2.0 and mirror is None:
            mirror = pr.n_phi % 2
            axis_weight = 2.0 if mirror else 1.0
            u = _fold(u)
        tol = pr.tol if stage == pr.p else max(100.0 * pr.tol, 1e-7)
        tau = 1.0
        capped_run = 0
        mixing = stage < 2.0
        work = {}  # the stage's pcg workspace
        if mixing:
            # Anderson history: column k holds f (and g) of a cycle minus
            # that of the cycle before, where g is the clipped Picard result
            # and f = g - u; slot `head` holds -f, -g of the last cycle until
            # the next cycle completes it
            dF = np.empty((ANDERSON_DEPTH,) + u.shape)
            dG = np.empty_like(dF)
            cols = head = 0
        # the frozen system (energy, cE, cN) at the current iterate
        state = _cell_energy(u, r, dphi, stage, eps2, mirror=mirror)
        for it in itertools.count():
            res, resid = _multigrid.residual(*state[1:], u, axis_weight)
            stop = None
            if resid <= tol:
                stop = "converged"
            elif capped_run == CAPPED_STOP:
                stop = "cg_capped"
            elif len(cycles) == pr.max_iter:
                stop = "max_iter"
            if stop:
                break
            energy = state[0]
            uold = u.copy()
            if stage == 2.0:
                _multigrid.sine_solve(u, *state[1:], res)
                cg = 0
            else:
                # the cycle's levels are freed when pcg returns, and their
                # finest cE and cN with state
                cg = _multigrid.pcg(u, _multigrid.hierarchy(*state[1:]), CG_RTOL, res, work)
                u[:, 0] = u[:, 1 + mirror]  # the mirror column follows its image
                del state
            np.clip(u, 0.0, 1.0, out=u)
            du = u - uold
            taken = None
            if mixing:
                if it > 0:
                    dF[head] += du
                    dG[head] += u
                    head = (head + 1) % ANDERSON_DEPTH
                    cols = min(cols + 1, ANDERSON_DEPTH)
                g = u
                if cols:
                    # taken only if it does not raise the energy above g's
                    mixed = _anderson_mix(g, du, dF[:cols], dG[:cols])
                    np.clip(mixed, 0.0, 1.0, out=mixed)
                    trial = _cell_energy(mixed, r, dphi, stage, eps2, mirror=mirror)
                    state = _cell_energy(g, r, dphi, stage, eps2, mirror=mirror)
                    taken = trial[0] <= state[0]
                    if taken:
                        u, state = mixed, trial
                    else:
                        cols = head = 0
                    del mixed, trial
                np.negative(du, out=dF[head])
                np.negative(g, out=dG[head])
                del g, du  # not held through the next cycle's solve
            elif stage > 2.0:
                # damp the Picard step where it flips with period 2 (the
                # update direction reverses)
                flip = 0.0
                if du_prev is not None:
                    nn = math.sqrt(_multigrid.dot(du, du) * _multigrid.dot(du_prev, du_prev))
                    flip = _multigrid.dot(du, du_prev) / nn if nn > 0.0 else 0.0
                if flip < -0.3:
                    tau = max(0.5 * tau, 0.05)
                else:
                    tau = min(1.15 * tau, 1.0)
                if tau < 1.0:
                    u = uold + tau * du
                du_prev = du
            cycles.append(Cycle(stage, energy, cg, taken))
            capped_run = capped_run + 1 if cg >= _multigrid.MAX_CG else 0
            if stage == 2.0:  # the coefficients depend on the grid alone
                state = (_cell_energy(u, r, dphi, stage, eps2, False),) + state[1:]
            elif taken is None:  # else the mixing test formed it
                state = _cell_energy(u, r, dphi, stage, eps2, mirror=mirror)
        if stop != "converged":
            break
    if stage != pr.p:
        # stopped in an intermediate stage: the residual of the problem's p
        state = _cell_energy(u, r, dphi, pr.p, eps2, mirror=mirror)
        resid = _multigrid.residual(*state[1:], u, axis_weight)[1]
    return MeasureSolution(
        problem=pr,
        r=r,
        phi=phi,
        omega=u if mirror is None else _unfold(u, pr.n_phi),
        stop_reason=stop,
        cycles=cycles,
        final_residual=resid,
    )


def _window(r, R, r_window):
    """Mask of the radii r inside r_window, in fractions of R."""
    if not 0.0 < r_window[0] < r_window[1] < 1.0:
        raise DomainError(f"window {r_window} must lie strictly inside (0, 1)")
    return (r >= r_window[0] * R) & (r <= r_window[1] * R)


def require_slope_window(problem: MeasureProblem) -> None:
    """Raise DomainError unless SLOPE_WINDOW holds at least 8 of the
    problem's grid radii: a fit that must fail is refused unsolved."""
    n = int(_window(_grids(problem)[0], problem.R, SLOPE_WINDOW).sum())
    if n < 8:
        raise DomainError(f"slope window {SLOPE_WINDOW} of R holds {n} grid radii, fewer than 8")


def fit_slope(solution: MeasureSolution) -> SlopeFit:
    """Least-squares slope of log omega against log r along the axis phi = 0,
    over the radii in SLOPE_WINDOW where omega is positive; there must be at
    least 8.
    """
    vals = solution.ray_values(0.0)
    m = _window(solution.r, solution.problem.R, SLOPE_WINDOW) & (vals > 0.0)
    if int(m.sum()) < 8:
        raise DomainError("slope window must contain at least 8 usable radii")
    x = np.log(solution.r[m])
    y = np.log(vals[m])
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    return SlopeFit(exponent=float(coef[0]), rms=float(np.sqrt(np.mean(resid**2))))


def comparability_constants(solution: MeasureSolution, k: float,
                            region: str = REGION_S2NU,
                            r_window: tuple = (0.02, 0.9)):
    """(ratio_min, ratio_max) of omega(x) / (|x|/R)**k over a sector region.

    region selects the angular range: REGION_S2NU keeps |phi| <= pi/(4 nu),
    REGION_SNU the full sector.  A margin of 2 grid cells is dropped at every
    boundary, and r_window (fractions of R, as SLOPE_WINDOW) keeps the
    certificate away from the apex truncation ring and the arc layer, where
    the discrete field is boundary-layer rather than power-law.
    """
    if not k > 0:
        raise DomainError("k must be positive")
    pr = solution.problem
    rr, pp = solution.r[2:-2], solution.phi[2:-2]
    om = solution.omega[2:-2, 2:-2]
    if region == REGION_S2NU:
        jm = np.abs(pp) <= math.pi / (4.0 * pr.nu) + 1e-12
    elif region == REGION_SNU:
        jm = np.ones_like(pp, bool)
    else:
        raise DomainError(f"unknown region {region!r}")
    im = _window(rr, pr.R, r_window)
    ratio = om[np.ix_(im, jm)] / (rr[im, None] / pr.R) ** k
    return float(ratio.min()), float(ratio.max())


def _circle_point(s, out):
    """(s^2 - 1, 2 s) / (s^2 + 1), the point at angle pi - 2 arctan s on the
    unit circle: uniform on it for s = tan(pi (U - 1/2)), U uniform.

    out holds three arrays of s's shape: the first two receive the point's
    coordinates, which are returned, and the third is scratch.
    """
    x, y, den = out
    np.multiply(s, s, out=x)
    np.add(x, np.float32(1.0), out=den)
    x -= np.float32(1.0)
    x /= den
    np.add(s, s, out=y)
    y /= den
    return x, y


def _half_disk_exit(a, tau, out):
    """s with _circle_point(s) where a Brownian path from i a (0 <= a < 1)
    leaves the unit upper half-disk, given tau = tan(pi (U - 1/2)), U uniform.

    ((1 + z)/(1 - z))^2 maps the half-disk onto the upper half-plane, the
    diameter onto the positive and the semicircle onto the negative reals,
    and i a onto e^(i beta), beta = 4 arctan a, so the exit point is the
    Cauchy t = cos beta + tau sin beta, rational in a.  t >= 0, chance
    1 - beta / pi, is an exit through the diameter: s = 0, its end (-1, 0).
    Otherwise s = sqrt(-t) = cot(theta / 2) at the exit point e^(i theta).

    out holds four arrays of a's shape: the first receives s, which is
    returned, and the others are scratch.
    """
    t, b, c, w = out
    # t = c^2 - 4 b + 4 a c tau with b = a^2 and c = 1 - b
    np.multiply(a, a, out=b)
    np.subtract(np.float32(1.0), b, out=c)
    np.multiply(c, c, out=t)
    t -= np.multiply(np.float32(4.0), b, out=w)
    np.multiply(np.float32(4.0), a, out=w)
    w *= c
    w *= tau
    t += w
    np.negative(t, out=t)
    np.maximum(t, np.float32(0.0), out=t)
    np.sqrt(t, out=t)
    b += np.float32(1.0)
    t /= b
    return t


def mc_harmonic_measure(nu: float, R: float, points, n_walks: int, seed: int):
    """Walk-on-spheres estimate of harmonic (p = 2) measure of the arc.

    From each interior start point (r, phi), n_walks Brownian paths walk in
    w = log(z / R) = u + i v, a conformal map of the sector in B(0, R) onto
    the half-strip u < 0, |v| < alpha = pi / (2 nu) that takes the arc to
    u = 0 and the sides to v = +-alpha; Brownian motion is conformally
    invariant, so the chance of leaving through the arc is the same.  The
    walk is folded to v >= 0.  Each step stands a half-disk on the nearer
    line at the walker's foot, radius rho = min(max(d_arc, d_side), 2 alpha),
    the walker at height h = min(d_arc, d_side), a = h / rho.  Up to a =
    HALF_DISK_MAX it samples the exact half-disk exit (_half_disk_exit): a
    path leaving through the diameter is absorbed, a hit exactly when that
    line is the arc.  Above, it is a disk step of radius h in the direction
    _circle_point of the same Cauchy draw.  A walker within MC_SHELL of a
    line in w is absorbed (near the arc the z-shell MC_SHELL * R, near a side
    a narrower one); one still live after MC_MAX_STEPS steps counts as no
    hit.  Positions are float32, as is each step's uniform: u <= 0 and
    0 <= v <= alpha, so the shell is at least 40 ulp wide.  Every start point
    is checked before the first walk.  Returns a list of (estimate, binomial
    stderr), deterministic for a fixed seed >= 0.

    The work arrays are made once per call, each n_walks long: two copies of
    the walkers' state (u, v, d_arc, d_side, h and on_arc), ten float32 rows
    and two bool rows.  A step works on their first n entries, n the
    walkers still live, and writes every result into them in place;
    absorbed walkers are dropped by copying the live ones, in order, from
    one state copy into the other.  So the loop allocates only the index
    array of each such copy.
    """
    nu = _as_nu(nu)
    if n_walks < 1:
        raise DomainError(f"n_walks must be >= 1, got {n_walks}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    alpha = math.pi / (2.0 * nu)
    points = list(points)
    for r0, phi0 in points:  # all checked before the first walk
        if not (0 < r0 < R and abs(phi0) < alpha):
            raise DomainError(f"start point ({r0}, {phi0}) is not interior")
    one, shell, alpha = np.float32(1.0), np.float32(MC_SHELL), np.float32(alpha)
    pi, half_pi = np.float32(math.pi), np.float32(0.5 * math.pi)
    rng = np.random.default_rng(seed)
    # each state copy: the rows u, v, d_arc, d_side, h, then on_arc
    states = [(*np.empty((5, n_walks), np.float32), np.empty(n_walks, bool)) for _ in range(2)]
    rows = np.empty((10, n_walks), np.float32)
    flags = np.empty((2, n_walks), bool)
    out = []
    for r0, phi0 in points:
        src, dst = states
        src[0].fill(math.log(r0 / R))
        src[1].fill(abs(phi0))
        n, hits = n_walks, 0
        for _ in range(MC_MAX_STEPS):
            u, v, d_arc, d_side, h, on_arc = (row[:n] for row in src)
            np.negative(u, out=d_arc)
            np.subtract(alpha, v, out=d_side)
            np.minimum(d_arc, d_side, out=h)
            np.less_equal(d_arc, d_side, out=on_arc)
            done, hit = flags[:, :n]
            np.less(h, shell, out=done)
            if done.any():
                hits += int(np.count_nonzero(np.logical_and(done, on_arc, out=hit)))
                keep = np.flatnonzero(np.logical_not(done, out=done))  # in order
                n = keep.size
                # mode "clip" writes straight into out; keep is in range
                for row, copy in zip(src, dst):
                    np.take(row, keep, out=copy[:n], mode="clip")
                src, dst = dst, src
                u, v, d_arc, d_side, h, on_arc = (row[:n] for row in src)
            if n == 0:
                break
            tau, rho, a, disk, half, lift, s, x, y, scale = rows[:, :n]
            rng.random(n, dtype=np.float32, out=tau)
            tau *= pi
            tau -= half_pi
            np.tan(tau, out=tau)
            np.maximum(d_arc, d_side, out=rho)
            np.minimum(rho, alpha + alpha, out=rho)
            np.divide(h, rho, out=a)
            # each step's kind and line are chosen by 0/1 factors, which
            # select exactly and cost less than np.where on a mixed mask
            np.greater(a, HALF_DISK_MAX, out=disk)
            np.subtract(one, disk, out=half)
            np.multiply(disk, h, out=lift)
            # s = disk tau + half _half_disk_exit(a, tau), with x, y and
            # scale as the exit's scratch
            _half_disk_exit(a, tau, (s, x, y, scale))
            s *= half
            s += np.multiply(disk, tau, out=tau)
            _circle_point(s, (x, y, scale))
            np.multiply(half, rho, out=scale)
            scale += lift
            x *= scale  # along the line
            y *= scale  # above it
            y += lift
            # u, v = side (u + x) - arc y, |arc (v + x) + side (alpha - y)|,
            # arc = on_arc as 0/1 and side = 1 - arc in the rows of a and
            # half, and t in scale's
            arc, side, t = a, half, scale
            np.copyto(arc, on_arc)
            np.subtract(one, arc, out=side)
            v += x
            v *= arc
            v += np.multiply(np.subtract(alpha, y, out=t), side, out=t)
            np.abs(v, out=v)
            u += x
            u *= side
            u -= np.multiply(arc, y, out=t)
        est = hits / n_walks
        stderr = math.sqrt(max(est * (1.0 - est), 1e-12) / n_walks)
        out.append((est, stderr))
    return out


def write_summary_json(solution: MeasureSolution, path, extra: dict | None = None) -> None:
    data = solution.summary()
    if extra:
        data.update(extra)
    _output.write_json(path, data)
