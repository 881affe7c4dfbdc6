"""Acceptance experiments tying the explicit machinery to the estimates.

Each experiment returns an ExperimentReport: a parameter block, a result
table, and named pass/fail criteria with details.  Reports are deterministic
for fixed parameters and seed (no timestamps, stable key order) and serialize
to JSON (machine checks) and CSV (plotting).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _output
from .exponent import (
    DomainError,
    dk_dp,
    radial_exponent,
    radial_exponent_inf,
)
from .measure import (
    FULL_ARC,
    REGION_S2NU,
    REGION_SNU,
    SLOPE_WINDOW,
    MeasureProblem,
    MeasureSolution,
    comparability_constants,
    fit_slope,
    mc_harmonic_measure,
    require_slope_window,
    solve_measure,
)
from .profile import StreamEvaluator, build_profile

# walks per probe of the walk-on-spheres cross-check
MC_WALKS = 100000
# the radii and the samples per arc of the Phragmen-Lindelof check
PHRAGMEN_RADII = (1.0, 10.0, 100.0, 1000.0)
PHRAGMEN_ARC = 501


@dataclass
class ExperimentReport:
    experiment_id: str
    parameters: dict
    rows: list = field(default_factory=list)
    criteria: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.criteria)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.criteria.append({"name": name, "passed": bool(passed), "detail": detail})

    def first_failure(self):
        for c in self.criteria:
            if not c["passed"]:
                return c
        return None

    def write_json(self, path) -> None:
        _output.write_json(path, {
            "experiment_id": self.experiment_id,
            "parameters": self.parameters,
            "rows": self.rows,
            "criteria": self.criteria,
            "provenance": self.provenance,
            "passed": self.passed,
        })

    def write_csv(self, path) -> None:
        # every row's keys, in first-seen order: rows need not share columns
        cols = list(dict.fromkeys(key for row in self.rows for key in row))
        _output.write_table(
            path,
            [("experiment", self.experiment_id)]
            + [(key, repr(self.parameters[key])) for key in sorted(self.parameters)],
            cols,
            (",".join(_csv_cell(row.get(c)) for c in cols) + "\n" for row in self.rows),
        )


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _p_label(p: float) -> str:
    return "inf" if p == math.inf else f"{p:g}"


# --------------------------------------------------------------------------
# exponent table


# the (nu, p) grid of the exponent table and of verify's exponent suite
NU_GRID = [0.5, 0.6, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0]
P_GRID = [1.1, 1.5, 2.0, 3.0, 4.0, 10.0, 100.0]


def run_exponent_table(nu_grid=NU_GRID, p_grid=(*P_GRID, math.inf)) -> ExperimentReport:
    """k(nu, p) over a grid plus the qualitative shape assertions:
    harmonic and half-plane anchor values, monotonicity in nu, the p -> 1
    and p -> inf limit behaviors, the slit-plane limit, and the large-nu
    asymptote k ~ p*nu/(2(p-1))."""
    rep = ExperimentReport(
        "exponent_table",
        {"nu_grid": list(nu_grid), "p_grid": [_p_label(p) for p in p_grid]},
    )
    table = {}
    for nu in nu_grid:
        for p in p_grid:
            k = radial_exponent(nu, p)
            table[(nu, p)] = k
            rep.rows.append({"nu": nu, "p": _p_label(p), "k": k})

    if 1.0 in nu_grid:
        err_halfplane = max(abs(table[(1.0, p)] - 1.0) for p in p_grid)
        rep.check("k(1, p) = 1", err_halfplane <= 1e-12, f"max err {err_halfplane:.2e}")
    if 2.0 in p_grid:
        err_harm = max(abs(table[(nu, 2.0)] - nu) for nu in nu_grid)
        rep.check("k(nu, 2) = nu", err_harm <= 1e-12, f"max err {err_harm:.2e}")
    mono_ok = True
    for p in p_grid:
        ks = [table[(nu, p)] for nu in sorted(nu_grid)]
        if any(b - a < -1e-12 for a, b in zip(ks, ks[1:])):
            mono_ok = False
    rep.check("k nondecreasing in nu", mono_ok)

    small = [nu for nu in nu_grid if nu < 1.0]
    large = [nu for nu in nu_grid if nu > 1.0]
    if small:
        v = max(radial_exponent(nu, 1.0005) for nu in small)
        rep.check("nu < 1 curves vanish as p -> 1", v < 0.05, f"max k(nu, 1.0005) = {v:.4f}")
    if large:
        v = min(radial_exponent(nu, 1.0005) for nu in large)
        rep.check("nu > 1 curves blow up as p -> 1", v > 50.0, f"min k(nu, 1.0005) = {v:.1f}")
    lim_err = max(
        abs(radial_exponent(nu, 1e6) - radial_exponent_inf(nu)) for nu in nu_grid
    )
    rep.check("p -> inf limit", lim_err <= 1e-4, f"max |k(nu,1e6) - k(nu,inf)| = {lim_err:.2e}")
    slit = abs(radial_exponent(0.5, 3.0) - 2.0 / 3.0)
    rep.check("slit-plane limit k(1/2, p) = (p-1)/p", slit <= 1e-12, f"err {slit:.2e}")
    asym_ok = True
    details = []
    for p in p_grid:
        if p == math.inf:
            continue
        ratio = radial_exponent(100.0, p) / (p * 100.0 / (2.0 * (p - 1.0)))
        details.append(f"p={_p_label(p)}: {ratio:.4f}")
        if not 0.9 <= ratio <= 1.1:
            asym_ok = False
    rep.check("large-nu asymptote k ~ p nu/(2(p-1))", asym_ok, "; ".join(details))

    sign_ok = True
    for p in (1.5, 3.0, 10.0):
        if not (dk_dp(0.75, p) > 0 and dk_dp(1.0, p) == 0 and dk_dp(2.0, p) < 0):
            sign_ok = False
    rep.check("dk/dp sign regimes (nu<1, nu=1, nu>1)", sign_ok)
    return rep


# --------------------------------------------------------------------------
# measure experiments


def require_mc_applicable(problem: MeasureProblem) -> None:
    """Raise DomainError unless the walk-on-spheres oracle models the problem:
    it estimates harmonic (p = 2) measure of the full arc."""
    if problem.p != 2.0:
        raise DomainError("walk-on-spheres oracle applies to p = 2 only")
    if problem.arc_target != FULL_ARC:
        raise DomainError("walk-on-spheres oracle counts hits on the full arc only")


def mc_agreement(sol: MeasureSolution, n_walks: int = MC_WALKS, seed: int = 0):
    """Compare a solved p = 2 field with walk-on-spheres at five probes.

    The probes sit at fixed fractions of R.  Returns (rows, ok): one row per
    probe, and whether every probe agrees within 3 standard errors.
    """
    pr = sol.problem
    require_mc_applicable(pr)
    alpha = pr.half_aperture
    probes = [(0.3 * pr.R, 0.0), (0.5 * pr.R, 0.0), (0.7 * pr.R, 0.0),
              (0.45 * pr.R, alpha / 3.0), (0.6 * pr.R, -alpha / 3.0)]
    mc = mc_harmonic_measure(pr.nu, pr.R, probes, n_walks, seed)
    rows = []
    for (r0, phi0), (est, se) in zip(probes, mc):
        num = float(np.interp(r0, sol.r, sol.ray_values(phi0)))
        rows.append({"nu": pr.nu, "p": pr.p, "probe_r": r0, "probe_phi": phi0,
                     "solver": num, "mc": est, "mc_stderr": se,
                     "deviation_sigma": abs(num - est) / se})
    return rows, all(row["deviation_sigma"] <= 3.0 for row in rows)


def measure_report(sol: MeasureSolution, slope_tol: float = 0.10, mc_check: bool = False,
                   seed: int = 0, n_walks: int = MC_WALKS) -> ExperimentReport:
    """The measure report of a solved field.  Rows, in order: the decay fitted
    on SLOPE_WINDOW against k, the comparability certificate on S_2nu and, with
    mc_check, one walk-on-spheres row per probe at p = 2, whose criterion is last."""
    pr = sol.problem
    rep = ExperimentReport(
        "measure",
        {"nu": pr.nu, "p": pr.p, "n_r": pr.n_r, "n_phi": pr.n_phi, "eps_reg": pr.eps_reg,
         "slope_tol": slope_tol, "r_window": list(SLOPE_WINDOW)},
        provenance={"seed": seed, "tolerance": pr.tol},
    )
    # a hand-built solution has no final residual
    resid = "" if sol.final_residual is None else f", final residual {sol.final_residual:.2e}"
    rep.check("solver converged", sol.converged, f"iterations {sol.iterations}{resid}")
    k = radial_exponent(pr.nu, pr.p)
    fit = fit_slope(sol)
    rel = abs(fit.exponent - k) / k
    rep.rows.append({"nu": pr.nu, "p": pr.p, "k": k, "fitted": fit.exponent,
                     "rel_err": rel, "fit_rms": fit.rms,
                     "iterations": sol.iterations})
    rep.check("fitted slope matches k", rel <= slope_tol,
              f"fitted {fit.exponent:.4f} vs k {k:.4f} ({100 * rel:.2f}%)")
    lo, hi = comparability_constants(sol, k, REGION_S2NU)
    finite = math.isfinite(lo) and math.isfinite(hi) and lo > 0
    rep.check("comparability certificate finite on S_2nu", finite,
              f"ratio in [{lo:.4f}, {hi:.4f}]")
    # a field that is 0 somewhere on S_2nu has no finite certificate
    rep.rows.append({"nu": pr.nu, "p": pr.p, "k": k, "ratio_min": lo, "ratio_max": hi,
                     "certificate": hi / lo if lo > 0 else math.inf})
    if mc_check:
        rows, ok = mc_agreement(sol, n_walks, seed)
        rep.rows.extend(rows)
        rep.check("walk-on-spheres agreement within 3 sigma", ok)
    return rep


def run_measure_experiment(nu: float, p: float, n_r: int = MeasureProblem.n_r,
                           n_phi: int = MeasureProblem.n_phi,
                           slope_tol: float = 0.10) -> ExperimentReport:
    """Solve the measure and return its measure_report; a grid too coarse
    for the slope fit is refused before solving."""
    problem = MeasureProblem(nu=nu, p=p, n_r=n_r, n_phi=n_phi)
    require_slope_window(problem)
    return measure_report(solve_measure(problem), slope_tol)


def growth_bounds_report(full: MeasureSolution, inner: MeasureSolution) -> ExperimentReport:
    """Certificates for the sub/superharmonic growth bounds near the apex,
    from the full-arc and inner-arc solutions of one problem.

    The full-arc measure is the extremal comparison for the upper bound
    (valid on the whole sector); the inner-arc variant bounds superharmonic
    decay from below on the half-radius double-aperture region.  The decay
    exponent fitted on SLOPE_WINDOW doubles as the cusp-rate observation and
    must match k within 15%.
    """
    pr = full.problem
    slope_tol = 0.15
    rep = ExperimentReport(
        "growth_bounds",
        {"nu": pr.nu, "p": pr.p, "n_r": pr.n_r, "n_phi": pr.n_phi,
         "slope_tol": slope_tol, "r_window": list(SLOPE_WINDOW)},
    )
    k = radial_exponent(pr.nu, pr.p)
    rep.check("full-arc solve converged", full.converged, f"iterations {full.iterations}")
    lo_u, hi_u = comparability_constants(full, k, REGION_SNU)
    rep.check("upper growth certificate finite on S_nu",
              math.isfinite(hi_u) and hi_u > 0, f"sup ratio {hi_u:.4f}")
    fit = fit_slope(full)
    rel = abs(fit.exponent - k) / k
    rep.check("decay rate matches k", rel <= slope_tol,
              f"fitted {fit.exponent:.4f} vs k {k:.4f} ({100 * rel:.2f}%)")
    rep.rows.append({"nu": pr.nu, "p": pr.p, "k": k, "fitted": fit.exponent,
                     "upper_ratio": hi_u})

    rep.check("inner-arc solve converged", inner.converged, f"iterations {inner.iterations}")
    lo_b, hi_b = comparability_constants(inner, k, REGION_S2NU, r_window=(0.02, 0.5))
    rep.check("lower growth certificate positive on S_2nu up to R/2",
              lo_b > 0 and math.isfinite(hi_b),
              f"ratio in [{lo_b:.4f}, {hi_b:.4f}]")
    rep.rows.append({"nu": pr.nu, "p": pr.p, "k": k, "inner_ratio_min": lo_b,
                     "inner_ratio_max": hi_b})
    return rep


def run_phragmen_check(nu: float, p: float) -> ExperimentReport:
    """Sharpness of the minimal-growth rate: for the explicit solution,
    M(R) = sup over the arc of r**k f(phi) scales exactly like R**k.

    M(R) is the maximum of the field sampled at the Cartesian points
    R (cos phi, sin phi) of PHRAGMEN_ARC samples on each arc of PHRAGMEN_RADII,
    and is divided by R**k with the closed-form k(nu, p)."""
    rep = ExperimentReport(
        "phragmen",
        {"nu": nu, "p": _p_label(p), "R_list": list(PHRAGMEN_RADII), "n_arc": PHRAGMEN_ARC},
    )
    prof = build_profile(nu, p, 257)
    alpha = prof.half_aperture
    phis = np.linspace(-alpha, alpha, PHRAGMEN_ARC)
    radii = np.asarray(PHRAGMEN_RADII)
    x, y = np.outer(radii, np.cos(phis)), np.outer(radii, np.sin(phis))
    # one evaluator call on all arcs stacked
    m_of_r = np.max(np.hypot(x, y) ** prof.k * prof.f_exact(np.arctan2(y, x)), axis=1)
    ratios = (m_of_r / radii ** radial_exponent(nu, p)).tolist()
    for R, m, ratio in zip(PHRAGMEN_RADII, m_of_r.tolist(), ratios):
        rep.rows.append({"R": R, "M": m, "M_over_Rk": ratio})
    spread = max(ratios) - min(ratios)
    rep.check("M(R)/R^k constant across decades", spread <= 1e-9,
              f"spread {spread:.2e}, value {ratios[0]!r}")
    rep.check("rate attained with unit constant", abs(ratios[0] - 1.0) <= 1e-9,
              f"M(R)/R^k = {ratios[0]!r}")
    return rep


def run_stream_consistency(nu: float, q: float, n_samples: int = 64) -> ExperimentReport:
    """Conjugate-pair checks for the stream construction on the extended
    domain: the three structural identities, the exponent identity
    lam = k(nu, q), gradient-modulus duality, the kappa window, and the
    independent check that g' is the actual derivative of g."""
    if not (1.0 < q < 2.0):
        raise DomainError(f"q must lie in (1, 2), got {q}")
    rep = ExperimentReport("stream_consistency", {"nu": nu, "q": q, "n_samples": n_samples})
    stream = StreamEvaluator(nu, q)
    amap, lam = stream.amap, stream.lam
    p, k = amap.p, amap.k
    kq = radial_exponent(nu, q)
    rep.check("stream exponent equals k(nu, q)", abs(lam - kq) <= 1e-10,
              f"lam = {lam!r}, k(nu, q) = {kq!r}")

    alpha = math.pi / (2.0 * nu)
    # interior extended-domain samples, offset to avoid the theta = pi/2 node
    psis = np.linspace(-alpha, math.pi / nu, n_samples + 2)[1:-1] + 1e-4
    h = 1e-6
    # one evaluator call: the samples, and their neighbours for the g' check
    stacked = stream.pair(np.stack([psis, psis - h, psis + h]))
    g_left, g_right = stacked[3][1:]
    th, f, fp, g, gp = (col[0] for col in stacked)
    mod2 = k * k * f * f + fp * fp
    id1 = np.abs(lam * lam * g * g + gp * gp - mod2 ** (p - 1.0)) / mod2 ** (p - 1.0)
    id2 = np.abs(lam * g + fp * mod2 ** ((p - 2.0) / 2.0)) / mod2 ** ((p - 1.0) / 2.0)
    id3 = np.abs(gp - k * f * mod2 ** ((p - 2.0) / 2.0)) / mod2 ** ((p - 1.0) / 2.0)
    # |grad v| = |grad u|^(p-1) at r = 2
    r0 = 2.0
    gv = r0 ** (lam - 1.0) * np.sqrt(lam * lam * g * g + gp * gp)
    gu = (r0 ** (k - 1.0) * np.sqrt(mod2)) ** (p - 1.0)
    grad = np.abs(gv - gu) / gu
    # independent derivative check of g
    gp_num = (g_right - g_left) / (2.0 * h)
    gp_err = np.abs(gp_num - gp) / np.maximum(np.abs(gp), 1e-12)
    w = 1.0 - np.cos(th) ** 2 / ((q - 1.0) * kq / (2.0 - q) + 1.0)
    kappa_ok = bool(np.all((0.0 < w) & (w <= 1.0)))
    worst = {name: float(np.max(v, initial=0.0)) for name, v in
             (("id1", id1), ("id2", id2), ("id3", id3), ("grad", grad), ("gp", gp_err))}
    cols = {"psi": psis, "theta": th, "f": f, "g": g,
            "id1": id1, "id2": id2, "id3": id3, "kappa_arg": w}
    # tolist() gives Python floats, which every writer takes
    rep.rows = [dict(zip(cols, row)) for row in zip(*(v.tolist() for v in cols.values()))]
    rep.check("identity 1 (modulus)", worst["id1"] <= 1e-7, f"max rel {worst['id1']:.2e}")
    rep.check("identity 2 (g from f')", worst["id2"] <= 1e-7, f"max rel {worst['id2']:.2e}")
    rep.check("identity 3 (g' from f)", worst["id3"] <= 1e-7, f"max rel {worst['id3']:.2e}")
    rep.check("gradient modulus duality", worst["grad"] <= 1e-7, f"max rel {worst['grad']:.2e}")
    rep.check("g' is the derivative of g", worst["gp"] <= 1e-5, f"max rel {worst['gp']:.2e}")
    wmin = 1.0 - 1.0 / (amap.ak)
    rep.check("kappa window inside (0, 1)", kappa_ok and wmin > 0.0,
              f"lower bound {wmin:.4f}")
    return rep
