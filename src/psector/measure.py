"""p-harmonic measure of the arc of a sector-ball intersection.

solve_measure computes the discrete minimizer of the regularized p-Dirichlet
energy on a polar grid over B(0, R) in the sector, with Dirichlet data 1 on
the outer arc (or on the inner sub-arc variant), 0 on the radial sides and on
a small truncation ring near the apex.  The energy is one cell quadrature
(_cell_energy), and its gradient is the 5-point operator with the nonlinear
coefficient (|grad u|^2 + eps^2)^((p-2)/2) frozen at u.  The iteration is
lagged diffusivity (Kacanov): each cycle freezes the coefficient at the
current iterate and solves the linear equation, warm-started, by conjugate
gradients preconditioned with one geometric-multigrid V-cycle per step
(_multigrid), to CG_RTOL times the cycle's starting residual.  For p <= 2 the
frozen quadratic majorizes the energy, so no cycle raises it.
Around the plain Picard loop: continuation in p from the linear problem
(steps of at most 1, warm-started); in p > 2 stages, adaptive damping of the
Picard step triggered by the one observed instability signature, period-2
update flips at data-jump nodes; in p < 2 stages, where plain Picard
converges only linearly, Anderson mixing of the last ANDERSON_DEPTH steps,
each mixed iterate taken only if its energy is at most that of the plain
Picard result, so the energy still never rises.  A solve gives up after
CAPPED_STOP consecutive capped CG solves.  Each cycle records the discrete
energy of the stage being solved (its own p), the stage p, the number of CG
iterations and whether a mixed iterate was taken, as convergence diagnostics.

mc_harmonic_measure is an independent walk-on-spheres Monte Carlo oracle for
the p = 2 case.  fit_slope extracts the radial decay exponent from a solved
field; comparability_constants bounds the ratio omega / (r/R)**k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _multigrid, _output
from .exponent import DomainError, _as_nu

FULL_ARC = "full_arc"
INNER_ARC = "inner_arc"
REGION_S2NU = "S_2nu"
REGION_SNU = "S_nu"

# relative residual at which a Picard cycle's CG solve stops; on the six 256^2
# acceptance cases 1e-3 took 93 Picard cycles instead of 96, with 27% more CG
# iterations (334 against 263) and 12% more time
CG_RTOL = 1e-2
# Anderson mixing depth of the p < 2 Picard stages, two fields per unit:
# depths 1 to 5 took 15, 12, 11, 10 and 10 final-stage cycles on (1, 1.5) at
# 256^2 (22 unmixed), and 40, 40, 38, 39 and 38 on (1, 1.1) at 128^2 (126)
ANDERSON_DEPTH = 3
# a solve stops after this many consecutive capped CG solves (stop_reason
# "cg_capped"); the converging cases have none
CAPPED_STOP = 5


@dataclass(frozen=True)
class MeasureProblem:
    """Discrete p-harmonic measure problem on a polar grid whose n_r radii
    are logarithmically spaced from rmin_frac * R to R.

    arc_target selects the Dirichlet data: FULL_ARC puts 1 on the whole arc,
    INNER_ARC on the sub-arc |phi| <= pi/(4 nu) only (data jumps get 1/2).
    """

    nu: float
    p: float
    R: float = 1.0
    n_r: int = 256
    n_phi: int = 256
    eps_reg: float = 1e-6
    tol: float = 1e-8
    max_iter: int = 4000
    arc_target: str = FULL_ARC
    rmin_frac: float = 1e-3

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
        if not 0.0 < self.rmin_frac < 1.0:
            raise DomainError(f"rmin_frac must lie in (0, 1), got {self.rmin_frac}")
        if self.arc_target not in (FULL_ARC, INNER_ARC):
            raise DomainError(f"unknown arc target {self.arc_target!r}")

    @property
    def half_aperture(self) -> float:
        return math.pi / (2.0 * self.nu)


@dataclass
class MeasureSolution:
    problem: MeasureProblem
    r: np.ndarray
    phi: np.ndarray
    omega: np.ndarray  # shape (n_r, n_phi), values in [0, 1]
    iterations: int
    final_update: float
    converged: bool
    # "converged", "max_iter" or "cg_capped"; None on a hand-built solution
    stop_reason: str | None = None
    energy_history: list = field(default_factory=list)
    # per Picard cycle, parallel to energy_history: the stage p and the CG
    # iterations of the cycle's inner solve
    p_history: list = field(default_factory=list)
    cg_history: list = field(default_factory=list)
    # per cycle: True where the Anderson-mixed iterate was taken, False where
    # the energy test refused it, None where none was tried (p >= 2 stages
    # and the first cycle of a p < 2 stage)
    anderson_history: list = field(default_factory=list)
    # cycles whose CG solve ran all _multigrid.MAX_CG iterations, which is
    # where pcg stops when it does not reach CG_RTOL
    cg_capped: int = 0
    # ||A(u) u - b||_2 / ||b||_2 at the returned field, the coefficients
    # frozen at it with the problem's p; None on a hand-built solution
    final_residual: float | None = None

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
            "rmin_frac": pr.rmin_frac,
            "iterations": self.iterations,
            "final_update": self.final_update,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "cg_iterations_max": max(self.cg_history, default=0),
            "cg_capped": self.cg_capped,
            "anderson_taken": self.anderson_history.count(True),
            "anderson_refused": self.anderson_history.count(False),
            "final_residual": self.final_residual,
        }


@dataclass(frozen=True)
class SlopeFit:
    exponent: float
    intercept: float
    rms: float
    r_window: tuple
    ray_angle: float

    def __post_init__(self):
        if not self.r_window[0] < self.r_window[1]:
            raise DomainError("slope window must satisfy r_min < r_max")
        if self.rms < 0:
            raise ValueError("rms must be >= 0")


def _grids(problem: MeasureProblem):
    pr = problem
    rmin = pr.rmin_frac * pr.R
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


def _cell_energy(u, r, dphi, p, eps2):
    """Energy E of u at exponent p and the edge coefficients frozen at u.

    Cell c lies between radii i, i + 1 and angles j, j + 1 and has area
    A_c = rmid hr dphi.  Its g_c = |grad u|^2 is the mean of (du / hr)^2 over
    its two radial edges plus the mean of (du / (r dphi))^2 over its two
    angular edges, each at its own r, and E = (1/p) sum_c A_c (g_c + eps2)^(p/2).
    An edge's coefficient is half the sum of A_c (g_c + eps2)^((p-2)/2) over
    its one or two cells, divided by its squared length, hr^2 or (r dphi)^2:
    the frozen operator (_multigrid.apply) is the gradient of E at u.
    Returns (E, cE, cN) in the shapes hierarchy takes.
    """
    hr, ha = np.diff(r), r * dphi
    dr2 = (np.diff(u, axis=0) / hr[:, None]) ** 2
    da2 = (np.diff(u, axis=1) / ha[:, None]) ** 2
    g = 0.5 * (dr2[:, 1:] + dr2[:, :-1] + da2[1:] + da2[:-1]) + eps2
    del dr2, da2
    area = 0.5 * (r[1:] + r[:-1]) * hr * dphi
    w = g ** (0.5 * (p - 2.0))
    g *= w
    energy = float(np.einsum("i,ij->", area, g)) / p
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
    return energy, cE, cN


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

    Stops when the max plain Picard update of a cycle, max|g - u| before any
    mixing, drops below problem.tol and that cycle's CG solve was not capped
    (stop_reason "converged"), after CAPPED_STOP consecutive capped CG solves
    ("cg_capped"), or after max_iter cycles ("max_iter").  Non-convergence is
    reported on the returned solution rather than raised.

    A p < 2 stage mixes each cycle's clipped Picard result g with the last
    ANDERSON_DEPTH differences (_anderson_mix) and takes the mixed iterate
    only if its energy is at most g's; otherwise it takes g and restarts the
    history.  The taken iterate's energy and frozen coefficients carry into
    the next cycle, so a mixing cycle costs one extra _cell_energy call.

    At p = 2 the coefficient (g + eps^2)^0 is exactly 1, so the frozen system
    depends on the grid alone: the p = 2 stage builds its multigrid hierarchy
    once and reuses it on every cycle.  Every other stage builds one per
    cycle, dropping the last before the next build.

    final_residual is ||A(u) u - b||_2 / ||b||_2 at the returned field, with
    A(u) the operator frozen at u with the problem's p and b from the
    Dirichlet data.  It is recorded, not a stop test: one _cell_energy and
    two operator applications, no hierarchy.
    """
    pr = problem
    r, phi = _grids(pr)
    dphi = phi[1] - phi[0]
    u = np.zeros((pr.n_r, pr.n_phi))
    u[-1, :] = _boundary_data(pr, phi)

    # initial iterate: harmonic-sector shape matching the arc data
    shape = np.cos(pr.nu * phi[None, 1:-1]).clip(0.0, 1.0)
    u[1:-1, 1:-1] = (r[1:-1, None] / pr.R) ** pr.nu * shape * u[-1, 1:-1].clip(0.0, 1.0)

    eps2 = pr.eps_reg**2
    history, p_history, cg_history, anderson_history = [], [], [], []

    def picard(p_stage: float, tol: float, budget: int):
        """Lagged-diffusivity cycles at one exponent; updates u.  Returns the
        cycles run, the last plain update and the stop reason."""
        nonlocal u
        tau = 1.0
        delta = math.inf
        du_prev = None
        capped_run = 0
        mixing = p_stage < 2.0 and ANDERSON_DEPTH > 0
        if mixing:
            # Anderson history: column k holds f (and g) of a cycle minus
            # that of the cycle before, where g is the clipped Picard result
            # and f = g - u; slot `head` holds -f, -g of the last cycle until
            # the next cycle completes it
            dF = np.empty((ANDERSON_DEPTH,) + u.shape)
            dG = np.empty_like(dF)
            cols = head = 0
        carried = levels = None
        for it in range(1, budget + 1):
            if carried is None:
                carried = _cell_energy(u, r, dphi, p_stage, eps2)
            history.append(carried[0])
            if levels is None:
                levels = _multigrid.hierarchy(*carried[1:])
            carried = None
            uold = u.copy()
            cg_history.append(_multigrid.pcg(u, levels, CG_RTOL))
            p_history.append(p_stage)
            if p_stage != 2.0:
                # the next cycle builds its own levels; holding these while
                # it does would keep two sets of packed coefficients alive
                levels = None
            np.clip(u, 0.0, 1.0, out=u)
            du = u - uold
            step = float(np.max(np.abs(du)))
            taken = None
            if mixing:
                if it > 1:
                    dF[head] += du
                    dG[head] += u
                    head = (head + 1) % ANDERSON_DEPTH
                    cols = min(cols + 1, ANDERSON_DEPTH)
                g = u
                if cols:
                    # taken only if it does not raise the energy above g's
                    mixed = _anderson_mix(g, du, dF[:cols], dG[:cols])
                    np.clip(mixed, 0.0, 1.0, out=mixed)
                    trial = _cell_energy(mixed, r, dphi, p_stage, eps2)
                    carried = _cell_energy(g, r, dphi, p_stage, eps2)
                    taken = trial[0] <= carried[0]
                    if taken:
                        u, carried = mixed, trial
                    else:
                        cols = head = 0
                    del mixed, trial
                np.negative(du, out=dF[head])
                np.negative(g, out=dG[head])
                del g, du  # not held through the next cycle's solve
            elif p_stage > 2.0:
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
            anderson_history.append(taken)
            delta = tau * step
            # a capped or broken-down CG solve can leave u unmoved, so a small
            # update after one says nothing about convergence
            capped = cg_history[-1] >= _multigrid.MAX_CG
            capped_run = capped_run + 1 if capped else 0
            if delta < tol and not capped:
                return it, delta, "converged"
            if capped_run == CAPPED_STOP:
                return it, delta, "cg_capped"
        return budget, delta, "max_iter"

    # continuation in p from the linear case, stepping by at most 1, so the
    # strongly nonlinear stages start from a nearby solution and the
    # coefficient spikes of a cold p > 2 start never form
    stages = [2.0]
    if pr.p > 2.0:
        q = 3.0
        while q < pr.p - 1e-12:
            stages.append(q)
            q += 1.0
        stages.append(pr.p)
    elif pr.p < 2.0:
        stages.append(pr.p)
    total = 0
    delta = math.inf
    for stage in stages:
        final = stage == stages[-1]
        tol = pr.tol if final else max(100.0 * pr.tol, 1e-7)
        left = pr.max_iter - total
        if left <= 0:
            stop = "max_iter"
            break
        it, delta, stop = picard(stage, tol, left)
        total += it
        if stop != "converged":
            break
    _, cE, cN = _cell_energy(u, r, dphi, pr.p, eps2)
    return MeasureSolution(
        problem=pr,
        r=r,
        phi=phi,
        omega=u,
        iterations=total,
        final_update=delta,
        converged=stop == "converged",
        stop_reason=stop,
        energy_history=history,
        p_history=p_history,
        cg_history=cg_history,
        anderson_history=anderson_history,
        cg_capped=sum(its >= _multigrid.MAX_CG for its in cg_history),
        final_residual=_multigrid.relative_residual(cE, cN, u),
    )


def _window(r, R, r_window):
    """Mask of the radii r inside r_window, in fractions of R."""
    if not 0.0 < r_window[0] < r_window[1] < 1.0:
        raise DomainError(f"window {r_window} must lie strictly inside (0, 1)")
    return (r >= r_window[0] * R) & (r <= r_window[1] * R)


def require_slope_window(problem: MeasureProblem, r_window: tuple = (0.05, 0.4)) -> None:
    """Raise DomainError unless r_window, as for fit_slope, holds at least 8
    of the problem's grid radii: a fit that must fail is refused unsolved."""
    n = int(_window(_grids(problem)[0], problem.R, r_window).sum())
    if n < 8:
        raise DomainError(f"slope window {r_window} of R holds {n} grid radii, fewer than 8")


def fit_slope(solution: MeasureSolution, ray_angle: float = 0.0,
              r_window: tuple = (0.05, 0.4)) -> SlopeFit:
    """Least-squares slope of log omega against log r along a ray.

    The window is in fractions of R, strictly inside (0, 1), and must contain
    at least 8 grid radii; the returned fit's r_window is in units of r.
    """
    R = solution.problem.R
    vals = solution.ray_values(ray_angle)
    m = _window(solution.r, R, r_window) & (vals > 0.0)
    if int(m.sum()) < 8:
        raise DomainError("slope window must contain at least 8 usable radii")
    x = np.log(solution.r[m])
    y = np.log(vals[m])
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    return SlopeFit(
        exponent=float(coef[0]),
        intercept=float(coef[1]),
        rms=float(np.sqrt(np.mean(resid**2))),
        r_window=(r_window[0] * R, r_window[1] * R),
        ray_angle=ray_angle,
    )


def comparability_constants(solution: MeasureSolution, k: float,
                            region: str = REGION_S2NU,
                            r_window: tuple | None = (0.02, 0.9)):
    """(ratio_min, ratio_max) of omega(x) / (|x|/R)**k over a sector region.

    region selects the angular range: REGION_S2NU keeps |phi| <= pi/(4 nu),
    REGION_SNU the full sector.  A margin of 2 grid cells is dropped at every
    boundary, and r_window (fractions of R, None to disable) keeps the
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
    im = np.ones_like(rr, bool)
    if r_window is not None:
        im &= (rr >= r_window[0] * pr.R) & (rr <= r_window[1] * pr.R)
    ratio = om[np.ix_(im, jm)] / (rr[im, None] / pr.R) ** k
    return float(ratio.min()), float(ratio.max())


def _side_distance(x, y, r, c, s):
    """Distance from interior points (x, y), |(x, y)| = r, to the nearer of
    the two side rays at angles +-alpha, given c = cos(alpha), s = sin(alpha).

    The sector is symmetric about the x axis, and the nearer side is the one
    on the point's own side of it, so the point is reflected to y >= 0 and
    measured against the +alpha ray only.  A point whose projection onto that
    ray's direction is negative is nearest to it at the apex, at distance r;
    where the projection is nonnegative the angular gap alpha - phi is at most
    pi / 2, so the cross product r sin(alpha - phi) needs no abs."""
    y = np.abs(y)
    return np.where(x * c + y * s >= 0.0, x * s - y * c, r)


def mc_harmonic_measure(nu: float, R: float, points, n_walks: int, seed: int,
                        shell: float = 1e-5, max_steps: int = 100000):
    """Walk-on-spheres estimate of harmonic (p = 2) measure of the arc.

    For each interior start point, n_walks Brownian paths are simulated by
    jumping to a uniform point on the largest centered disk inside the
    domain, absorbing within a shell*R boundary layer, 0 < shell < 1.
    Returns a list of (estimate, stderr); stderr is the binomial standard
    error.  Deterministic for a fixed seed >= 0.

    Only the live walkers are kept: each step drops the absorbed ones by one
    order-preserving compaction and counts the arc hits among them, so the
    step's uniform angles, one per live walker, reach the same walkers in the
    same order as when every walker keeps its slot; the random stream, and
    hence the estimate, does not depend on the compaction.  The step angles
    are drawn and evaluated in float32, which costs a tenth of the float64
    draw, cos and sin: each component of the step direction is within 7.2e-8
    of the float64 cos and sin of the same angle, and the step length within
    6e-8 of d (worst over 1e7 draws).  Positions, distances and the
    absorption test stay float64.
    """
    nu = _as_nu(nu)
    if n_walks < 1:
        raise DomainError(f"n_walks must be >= 1, got {n_walks}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if not 0.0 < shell < 1.0:
        raise DomainError(f"shell must lie in (0, 1), got {shell}")
    alpha = math.pi / (2.0 * nu)
    c, s = math.cos(alpha), math.sin(alpha)
    two_pi = np.float32(2.0 * math.pi)
    rng = np.random.default_rng(seed)
    out = []
    for pt in points:
        r0, phi0 = (pt.r, pt.phi) if hasattr(pt, "r") else (pt[0], pt[1])
        if not (0 < r0 < R and abs(phi0) < alpha):
            raise DomainError(f"start point ({r0}, {phi0}) is not interior")
        x = np.full(n_walks, r0 * math.cos(phi0))
        y = np.full(n_walks, r0 * math.sin(phi0))
        hits = 0
        for _ in range(max_steps):
            r = np.sqrt(x * x + y * y)
            d_arc = R - r
            d_side = _side_distance(x, y, r, c, s)
            d = np.minimum(d_arc, d_side)
            done = d < shell * R
            if done.any():
                hits += int(np.count_nonzero(d_arc[done] <= d_side[done]))
                live = ~done
                x, y, d = x[live], y[live], d[live]
            if x.size == 0:
                break
            ang = rng.random(x.size, dtype=np.float32) * two_pi
            x += d * np.cos(ang)
            y += d * np.sin(ang)
        est = hits / n_walks
        stderr = math.sqrt(max(est * (1.0 - est), 1e-12) / n_walks)
        out.append((est, stderr))
    return out


def write_summary_json(solution: MeasureSolution, path, extra: dict | None = None) -> None:
    data = solution.summary()
    if extra:
        data.update(extra)
    _output.write_json(path, data)
