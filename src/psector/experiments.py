"""Acceptance experiments tying the explicit machinery to the estimates.

Each experiment returns an ExperimentReport: a parameter block, a result
table, and named pass/fail criteria with details.  Reports are deterministic
for fixed parameters and seed (no timestamps, stable key order) and serialize
to JSON (machine checks) and CSV (plotting).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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
    INNER_ARC,
    REGION_S2NU,
    REGION_SNU,
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
        cols = list(self.rows[0].keys()) if self.rows else []
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


def run_exponent_table(nu_grid=None, p_grid=None) -> ExperimentReport:
    """k(nu, p) over a grid plus the qualitative shape assertions:
    harmonic and half-plane anchor values, monotonicity in nu, the p -> 1
    and p -> inf limit behaviors, the slit-plane limit, and the large-nu
    asymptote k ~ p*nu/(2(p-1))."""
    if nu_grid is None:
        nu_grid = [0.5, 0.6, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0]
    if p_grid is None:
        p_grid = [1.1, 1.5, 2.0, 3.0, 4.0, 10.0, 100.0, math.inf]
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


def run_measure_experiment(nu: float, p: float, n_r: int = 256, n_phi: int = 256,
                           slope_tol: float = 0.10, r_window=(0.05, 0.4),
                           eps_reg: float = 1e-6, mc_check: bool = False,
                           seed: int = 0, n_walks: int = MC_WALKS) -> ExperimentReport:
    """Solve the measure, fit the radial decay, extract the comparability
    certificate; optionally cross-check against walk-on-spheres at p = 2."""
    rep = ExperimentReport(
        "measure",
        {"nu": nu, "p": p, "n_r": n_r, "n_phi": n_phi, "eps_reg": eps_reg,
         "slope_tol": slope_tol, "r_window": list(r_window)},
        provenance={"seed": seed, "tolerance": 1e-8},
    )
    problem = MeasureProblem(nu=nu, p=p, n_r=n_r, n_phi=n_phi, eps_reg=eps_reg)
    require_slope_window(problem, r_window)
    if mc_check:
        require_mc_applicable(problem)
    sol = solve_measure(problem)
    rep.check("solver converged", sol.converged,
              f"iterations {sol.iterations}, final update {sol.final_update:.2e}")
    k = radial_exponent(nu, p)
    fit = fit_slope(sol, 0.0, r_window)
    rel = abs(fit.exponent - k) / k
    rep.rows.append({"nu": nu, "p": p, "k": k, "fitted": fit.exponent,
                     "rel_err": rel, "fit_rms": fit.rms,
                     "iterations": sol.iterations})
    rep.check("fitted slope matches k", rel <= slope_tol,
              f"fitted {fit.exponent:.4f} vs k {k:.4f} ({100 * rel:.2f}%)")
    lo, hi = comparability_constants(sol, k, REGION_S2NU)
    finite = math.isfinite(lo) and math.isfinite(hi) and lo > 0
    rep.check("comparability certificate finite on S_2nu", finite,
              f"ratio in [{lo:.4f}, {hi:.4f}]")
    rep.rows.append({"nu": nu, "p": p, "k": k, "ratio_min": lo, "ratio_max": hi,
                     "certificate": hi / lo})
    if mc_check:
        rows, ok = mc_agreement(sol, n_walks, seed)
        rep.rows.extend(rows)
        rep.check("walk-on-spheres agreement within 3 sigma", ok)
    return rep


def run_growth_bounds(nu: float, p: float, n_r: int = 256, n_phi: int = 256,
                      slope_tol: float = 0.15, r_window=(0.05, 0.4)) -> ExperimentReport:
    """Certificates for the sub/superharmonic growth bounds near the apex.

    The full-arc measure is the extremal comparison for the upper bound
    (valid on the whole sector); the inner-arc variant bounds superharmonic
    decay from below on the half-radius double-aperture region.  The fitted
    decay exponent doubles as the cusp-rate observation.
    """
    rep = ExperimentReport(
        "growth_bounds",
        {"nu": nu, "p": p, "n_r": n_r, "n_phi": n_phi,
         "slope_tol": slope_tol, "r_window": list(r_window)},
    )
    problem = MeasureProblem(nu=nu, p=p, n_r=n_r, n_phi=n_phi)
    require_slope_window(problem, r_window)
    k = radial_exponent(nu, p)
    sol = solve_measure(problem)
    rep.check("full-arc solve converged", sol.converged, f"iterations {sol.iterations}")
    lo_u, hi_u = comparability_constants(sol, k, REGION_SNU)
    rep.check("upper growth certificate finite on S_nu",
              math.isfinite(hi_u) and hi_u > 0, f"sup ratio {hi_u:.4f}")
    fit = fit_slope(sol, 0.0, r_window)
    rel = abs(fit.exponent - k) / k
    rep.check("decay rate matches k", rel <= slope_tol,
              f"fitted {fit.exponent:.4f} vs k {k:.4f} ({100 * rel:.2f}%)")
    rep.rows.append({"nu": nu, "p": p, "k": k, "fitted": fit.exponent,
                     "upper_ratio": hi_u})

    bar = solve_measure(replace(problem, arc_target=INNER_ARC))
    rep.check("inner-arc solve converged", bar.converged, f"iterations {bar.iterations}")
    lo_b, hi_b = comparability_constants(bar, k, REGION_S2NU, r_window=(0.02, 0.5))
    rep.check("lower growth certificate positive on S_2nu up to R/2",
              lo_b > 0 and math.isfinite(hi_b),
              f"ratio in [{lo_b:.4f}, {hi_b:.4f}]")
    rep.rows.append({"nu": nu, "p": p, "k": k, "inner_ratio_min": lo_b,
                     "inner_ratio_max": hi_b})
    return rep


def run_phragmen_check(nu: float, p: float, R_list=(1.0, 10.0, 100.0, 1000.0),
                       n_arc: int = 501) -> ExperimentReport:
    """Sharpness of the minimal-growth rate: for the explicit solution,
    M(R) = sup over the arc of r**k f(phi) scales exactly like R**k."""
    rep = ExperimentReport(
        "phragmen", {"nu": nu, "p": _p_label(p), "R_list": list(R_list), "n_arc": n_arc}
    )
    prof = build_profile(nu, p, 257)
    alpha = prof.half_aperture
    phis = np.linspace(-alpha, alpha, n_arc)
    fmax = max(prof.f_exact(x) for x in phis)
    ratios = []
    for R in R_list:
        m_of_r = (R**prof.k) * fmax
        ratios.append(m_of_r / R**prof.k)
        rep.rows.append({"R": R, "M": m_of_r, "M_over_Rk": ratios[-1]})
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
    rows = []
    worst = {"id1": 0.0, "id2": 0.0, "id3": 0.0, "grad": 0.0, "gp": 0.0}
    kappa_ok = True
    h = 1e-6
    for psi in psis:
        th, f, fp, g, gp = stream.pair(psi)
        mod2 = k * k * f * f + fp * fp
        id1 = abs(lam * lam * g * g + gp * gp - mod2 ** (p - 1.0)) / mod2 ** (p - 1.0)
        id2 = abs(lam * g + fp * mod2 ** ((p - 2.0) / 2.0)) / mod2 ** ((p - 1.0) / 2.0)
        id3 = abs(gp - k * f * mod2 ** ((p - 2.0) / 2.0)) / mod2 ** ((p - 1.0) / 2.0)
        # |grad v| = |grad u|^(p-1) at r = 2
        r0 = 2.0
        gv = r0 ** (lam - 1.0) * math.sqrt(lam * lam * g * g + gp * gp)
        gu = (r0 ** (k - 1.0) * math.sqrt(mod2)) ** (p - 1.0)
        grad = abs(gv - gu) / gu
        # independent derivative check of g
        gm = stream.pair(psi - h)[3]
        gpl = stream.pair(psi + h)[3]
        gp_num = (gpl - gm) / (2.0 * h)
        gp_err = abs(gp_num - gp) / max(abs(gp), 1e-12)
        w = 1.0 - math.cos(th) ** 2 / ((q - 1.0) * kq / (2.0 - q) + 1.0)
        if not 0.0 < w <= 1.0:
            kappa_ok = False
        worst["id1"] = max(worst["id1"], id1)
        worst["id2"] = max(worst["id2"], id2)
        worst["id3"] = max(worst["id3"], id3)
        worst["grad"] = max(worst["grad"], grad)
        worst["gp"] = max(worst["gp"], gp_err)
        rows.append({"psi": float(psi), "theta": th, "f": f, "g": g,
                     "id1": id1, "id2": id2, "id3": id3, "kappa_arg": w})
    rep.rows = rows
    rep.check("identity 1 (modulus)", worst["id1"] <= 1e-7, f"max rel {worst['id1']:.2e}")
    rep.check("identity 2 (g from f')", worst["id2"] <= 1e-7, f"max rel {worst['id2']:.2e}")
    rep.check("identity 3 (g' from f)", worst["id3"] <= 1e-7, f"max rel {worst['id3']:.2e}")
    rep.check("gradient modulus duality", worst["grad"] <= 1e-7, f"max rel {worst['grad']:.2e}")
    rep.check("g' is the derivative of g", worst["gp"] <= 1e-5, f"max rel {worst['gp']:.2e}")
    wmin = 1.0 - 1.0 / (amap.ak)
    rep.check("kappa window inside (0, 1)", kappa_ok and wmin > 0.0,
              f"lower bound {wmin:.4f}")
    return rep
