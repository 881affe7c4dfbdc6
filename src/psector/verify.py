"""Named verification suites behind `psector verify`.

Each suite assembles ExperimentReports; quick mode shrinks the measure grids
and case lists so the full battery stays under a few minutes.
"""

from __future__ import annotations

import math
import os
from dataclasses import replace

import numpy as np

from .exponent import DomainError, dk_dnu, dk_dp, exponent_condition_residual, radial_exponent
from .experiments import (
    MC_WALKS,
    NU_GRID,
    P_GRID,
    ExperimentReport,
    growth_bounds_report,
    measure_report,
    run_exponent_table,
    run_phragmen_check,
    run_stream_consistency,
)
from .measure import INNER_ARC, MeasureProblem, solve_measure
from .pde import polar_residual_report, separation_report
from .profile import build_profile, phi_of_theta, theta_of_phi

PROFILE_CASES = [(nu, p) for nu in (0.5, 1.0, 2.0, 4.0)
                 for p in (1.5, 2.0, 3.0, 4.0, math.inf)]
# bound on the max relative residual of both pde_suite residual reports
RESIDUAL_TOL = 1e-3


def _richardson(fn, x: float) -> float:
    """One Richardson step on central differences, (4 D(h/2) - D(h)) / 3 with
    h = 1e-3: truncation O(h^4) and rounding about eps/h, both far below the
    derivative errors the check looks for."""
    h = 1e-3

    def central(s):
        return (fn(x + s) - fn(x - s)) / (2 * s)
    return (4.0 * central(h / 2) - central(h)) / 3.0


def exponent_suite() -> list[ExperimentReport]:
    rep = ExperimentReport("exponent_invariants", {"nu_grid": NU_GRID, "p_grid": P_GRID})
    worst = 0.0
    for nu in NU_GRID:
        for p in P_GRID:
            res = exponent_condition_residual(radial_exponent(nu, p), nu, p)
            worst = max(worst, abs(res))
    rep.check("aperture condition residual on the grid", worst <= 1e-9,
              f"max |residual| = {worst:.2e}")

    fd_worst = 0.0
    for nu in (0.75, 1.5, 2.0, 4.0):
        for p in (1.5, 3.0, 10.0):
            num = _richardson(lambda x: radial_exponent(x, p), nu)
            rel = abs(dk_dnu(nu, p) - num) / max(abs(num), 1e-12)
            fd_worst = max(fd_worst, rel)
            num = _richardson(lambda x: radial_exponent(nu, x), p)
            den = max(abs(num), 1e-9)
            rel = abs(dk_dp(nu, p) - num) / den
            fd_worst = max(fd_worst, rel)
    rep.check("derivatives match central differences", fd_worst <= 1e-5,
              f"max rel dev {fd_worst:.2e}")
    return [rep, run_exponent_table()]


def profile_suite() -> list[ExperimentReport]:
    rep = ExperimentReport("profile_invariants", {"cases": [
        [nu, "inf" if p == math.inf else p] for nu, p in PROFILE_CASES]})
    rng = np.random.default_rng(12345)
    worst_rt = 0.0
    for nu, p in PROFILE_CASES:
        prof = build_profile(nu, p, 129)  # raises ProfileInvariantError on violation
        rep.rows.append({
            "nu": nu, "p": "inf" if p == math.inf else p, "k": prof.k,
            "case": prof.case, "boundary_residual": prof.boundary_residual,
            "band_inner_min_f": prof.band_inner_min_f,
            "band_outer_min_fprime": prof.band_outer_min_fprime,
        })
        amap = prof.evaluator.amap
        if amap is not None:
            # the map's whole range, the image of the bisection bracket [-pi, pi]
            bound = math.pi / amap.nu
            xs = rng.uniform(-bound, bound, 200)
            back = phi_of_theta(theta_of_phi(xs, amap), amap)
            worst_rt = max(worst_rt, float(np.max(np.abs(back - xs))))
    rep.check("profiles build with all invariants", True, f"{len(PROFILE_CASES)} cases")
    rep.check("angle-map round trip", worst_rt <= 1e-10, f"max |phi - phi'| = {worst_rt:.2e}")
    return [rep]


def pde_suite(quick: bool = False) -> list[ExperimentReport]:
    cases = [(1.0, 3.0), (2.0, 3.0), (2.0, 4.0), (0.75, 3.0),
             (2.0, 1.5), (1.0, math.inf), (2.0, math.inf), (0.5, math.inf)]
    if quick:
        cases = [(2.0, 3.0), (2.0, 1.5), (2.0, math.inf)]
    n = 50 if quick else 100
    rep = ExperimentReport("pde_residuals", {"n_samples": n, "cases": [
        [nu, "inf" if p == math.inf else p] for nu, p in cases]})
    worst_sep, worst_pol = 0.0, 0.0
    for nu, p in cases:
        prof = build_profile(nu, p, 257)
        worst_sep = max(worst_sep, separation_report(prof, n).max_abs_residual)
        pol = polar_residual_report(prof, n)
        worst_pol = max(worst_pol, pol.max_abs_residual)
        rep.rows.append({
            "nu": nu, "p": "inf" if p == math.inf else p,
            "polar_residual": pol.max_abs_residual,
        })
    rep.check("separation residuals", worst_sep <= RESIDUAL_TOL, f"max {worst_sep:.2e}")
    rep.check("field residuals (polar / sup-norm)", worst_pol <= RESIDUAL_TOL,
              f"max {worst_pol:.2e}")

    # discretization-order check: residual must shrink ~4x per step halving
    prof = build_profile(2.0, 3.0, 257)
    r1 = polar_residual_report(prof, 20, step=1e-3).max_abs_residual
    r2 = polar_residual_report(prof, 20, step=5e-4).max_abs_residual
    ratio = r1 / max(r2, 1e-300)
    rep.check("O(step^2) residual decay", 3.0 <= ratio <= 5.0, f"ratio {ratio:.2f}")
    return [rep]


MEASURE_CASES = [
    # (nu, p, slope tolerance)
    (1.0, 2.0, 0.05),
    (2.0, 2.0, 0.05),
    (1.0, 4.0, 0.10),
    (2.0, 3.0, 0.10),
    (1.0, 1.5, 0.10),
    (0.75, 3.0, 0.10),
]


def measure_suite(quick: bool = False, seed: int = 0) -> list[ExperimentReport]:
    """Measure reports of the cases and the (2, 3) growth bounds, one solve per problem."""
    cases = MEASURE_CASES
    grid = 256
    if quick:
        cases = [case for case in MEASURE_CASES if case[:2] in ((1.0, 2.0), (2.0, 3.0))]
        grid = 128
    reports, solved = [], {}
    for nu, p, tol in cases:
        solved[nu, p] = sol = solve_measure(MeasureProblem(nu=nu, p=p, n_r=grid, n_phi=grid))
        reports.append(measure_report(
            sol, slope_tol=tol, mc_check=(p == 2.0), seed=seed,
            n_walks=20000 if quick else MC_WALKS,
        ))
    full = solved[2.0, 3.0]
    inner = solve_measure(replace(full.problem, arc_target=INNER_ARC))
    reports.append(growth_bounds_report(full, inner))
    return reports


# (nu, q) of the stream-function consistency reports
STREAM_CASES = [(1.0, 1.5), (2.0, 1.2), (2.0, 1.5), (0.75, 1.5)]
# (nu, p) of the Phragmen-Lindelof sharpness reports
PHRAGMEN_CASES = [(1.0, 2.0), (2.0, 3.0), (1.0, math.inf), (2.0, math.inf)]


def stream_suite() -> list[ExperimentReport]:
    return [run_stream_consistency(nu, q) for nu, q in STREAM_CASES]


def phragmen_suite() -> list[ExperimentReport]:
    return [run_phragmen_check(nu, p) for nu, p in PHRAGMEN_CASES]


# each suite's reports from (quick, seed), in the order `all` runs and numbers them
_RUNS = {
    "exponent": lambda quick, seed: exponent_suite(),
    "profile": lambda quick, seed: profile_suite(),
    "pde": lambda quick, seed: pde_suite(quick),
    "stream": lambda quick, seed: stream_suite(),
    "phragmen": lambda quick, seed: phragmen_suite(),
    "measure": lambda quick, seed: measure_suite(quick, seed),
}
SUITES = (*_RUNS, "all")


def run_suites(suite: str, quick: bool = False, out_dir: str = ".",
               seed: int = 0) -> list[ExperimentReport]:
    """Run one suite of SUITES, or all of them, and write report i's files as
    <experiment_id>_<ii>.json and .csv; an unknown name raises DomainError."""
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    reports = []
    for name, run in _RUNS.items():
        if suite in (name, "all"):
            reports += run(quick, seed)
    for i, rep in enumerate(reports):
        stem = f"{rep.experiment_id}_{i:02d}"
        rep.write_json(os.path.join(out_dir, stem + ".json"))
        if rep.rows:
            rep.write_csv(os.path.join(out_dir, stem + ".csv"))
    return reports
