"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here and match the package's documented
contracts; see README for the overview.
"""

import math
import time

import numpy as np

from psector.exponent import (
    dk_dnu,
    dk_dp,
    exponent_condition_residual,
    radial_exponent,
)
from psector.experiments import run_phragmen_check, run_stream_consistency
from psector.measure import (
    REGION_S2NU,
    MeasureProblem,
    comparability_constants,
    fit_slope,
    mc_harmonic_measure,
    solve_measure,
)
from psector.pde import polar_residual_report, separation_report
from psector.profile import build_profile, phi_of_theta, theta_of_phi
from psector.verify import (
    MEASURE_CASES,
    NU_GRID,
    P_GRID,
    PHRAGMEN_CASES,
    PROFILE_CASES,
    RESIDUAL_TOL,
    STREAM_CASES,
)

_solve_cache = {}


def solved(nu, p, n=256, **kw):
    key = (nu, p, n, tuple(sorted(kw.items())))
    if key not in _solve_cache:
        t0 = time.time()
        _solve_cache[key] = solve_measure(
            MeasureProblem(nu=nu, p=p, n_r=n, n_phi=n, **kw)
        )
        _solve_cache[key + ("elapsed",)] = time.time() - t0
    return _solve_cache[key], _solve_cache[key + ("elapsed",)]


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_1_exponent_closed_form():
    for nu in (0.5, 0.75, 1.0, 1.5, 2.0, 4.0):
        assert abs(radial_exponent(nu, 2.0) - nu) <= 1e-12
    for p in (1.1, 1.5, 2.0, 3.0, 10.0):
        assert abs(radial_exponent(1.0, p) - 1.0) <= 1e-12
    for p in (1.1, 1.5, 2.0, 3.0, 10.0):
        assert abs(radial_exponent(0.5, p) - (p - 1.0) / p) <= 1e-12
    for nu in (0.5, 0.8, 1.0, 1.5, 2.0, 4.0):
        piecewise = 1.0 if nu <= 1.0 else nu * nu / (2.0 * nu - 1.0)
        assert abs(radial_exponent(nu, math.inf) - piecewise) <= 1e-12
    report(1, "closed-form exponent anchors (harmonic, half-plane, slit, sup) to 1e-12")


def test_criterion_2_transcendental_self_consistency():
    t0 = time.time()
    worst = 0.0
    for nu in NU_GRID:
        for p in P_GRID:
            res = exponent_condition_residual(radial_exponent(nu, p), nu, p)
            worst = max(worst, abs(res))
    dt = time.time() - t0
    assert worst <= 1e-9
    assert dt < 1.0
    report(2, f"aperture-condition residual <= 1e-9 on the full grid (max {worst:.1e}, {dt:.2f} s)")


def test_criterion_3_monotonicity_and_signs():
    t0 = time.time()
    for p in P_GRID + [math.inf]:
        ks = [radial_exponent(nu, p) for nu in NU_GRID]
        assert all(b - a >= -1e-12 for a, b in zip(ks, ks[1:]))
    h = 1e-6
    worst = 0.0
    for p in (1.5, 3.0, 10.0):
        assert dk_dp(0.75, p) > 0.0
        assert dk_dp(1.0, p) == 0.0
        assert dk_dp(2.0, p) < 0.0
        for nu in (0.75, 1.5, 2.0, 4.0):
            num = (radial_exponent(nu, p + h) - radial_exponent(nu, p - h)) / (2 * h)
            if num != 0.0:
                worst = max(worst, abs(dk_dp(nu, p) - num) / abs(num))
            num = (radial_exponent(nu + h, p) - radial_exponent(nu - h, p)) / (2 * h)
            worst = max(worst, abs(dk_dnu(nu, p) - num) / abs(num))
    dt = time.time() - t0
    assert worst <= 1e-5
    assert dt < 1.0
    report(3, f"monotone in nu; dk/dp signs by regime; derivatives vs differences "
              f"(max rel {worst:.1e}, {dt:.2f} s)")


def test_criterion_4_profile_invariants():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst_rt = 0.0
    for nu, p in PROFILE_CASES:
        prof = build_profile(nu, p, 129)
        i0 = len(prof.phi) // 2
        assert prof.f[i0] == 1.0
        assert prof.boundary_residual <= 1e-9
        assert abs(prof.fprime[i0]) <= 1e-9
        assert prof.f.min() >= -1e-12 and prof.f.max() <= 1.0 + 1e-12
        assert np.max(np.abs(prof.f - prof.f[::-1])) <= 1e-10
        assert np.max(np.abs(prof.fprime + prof.fprime[::-1])) <= 1e-10
        amap = prof.evaluator.amap
        if amap is not None:
            # the map's whole range, the image of the bisection bracket
            bound = math.pi / amap.nu
            xs = rng.uniform(-bound, bound, 200)
            back = phi_of_theta(theta_of_phi(xs, amap), amap)
            worst_rt = max(worst_rt, float(np.max(np.abs(back - xs))))
    dt = time.time() - t0
    assert worst_rt <= 1e-10
    assert dt < 10.0
    report(4, f"profile invariants on the 4x5 grid; round trip <= 1e-10 "
              f"(max {worst_rt:.1e}, {dt:.1f} s)")


def test_criterion_5_equation_residuals():
    t0 = time.time()
    worst_sep = worst_field = 0.0
    for nu, p in PROFILE_CASES:
        prof = build_profile(nu, p, 257)
        worst_sep = max(worst_sep, separation_report(prof).max_abs_residual)
        worst_field = max(worst_field,
                          polar_residual_report(prof, 100).max_abs_residual)
    prof = build_profile(2.0, 3.0, 257)
    r1 = polar_residual_report(prof, 20, step=1e-3).max_abs_residual
    r2 = polar_residual_report(prof, 20, step=5e-4).max_abs_residual
    ratio = r1 / r2
    dt = time.time() - t0
    assert worst_sep <= RESIDUAL_TOL
    assert worst_field <= RESIDUAL_TOL
    assert 3.0 <= ratio <= 5.0
    assert dt < 30.0
    report(5, f"separation <= {RESIDUAL_TOL:g} (max {worst_sep:.1e}); field residuals <= "
              f"{RESIDUAL_TOL:g} (max {worst_field:.1e}); halving ratio {ratio:.2f} "
              f"in [3, 5] ({dt:.1f} s)")


def test_criterion_6_stream_consistency():
    t0 = time.time()
    for nu, q in STREAM_CASES:
        rep = run_stream_consistency(nu, q)
        assert rep.passed, (nu, q, rep.first_failure())
    dt = time.time() - t0
    assert dt < 10.0
    report(6, f"stream identities <= 1e-7, exponent identity <= 1e-10, gradient "
              f"duality <= 1e-7, kappa window strict ({dt:.1f} s)")


def test_criterion_7_measure_slopes():
    details = []
    for nu, p, tol in MEASURE_CASES:
        sol, dt = solved(nu, p)
        assert sol.converged
        assert dt < 60.0, (nu, p, dt)
        k = radial_exponent(nu, p)
        fit = fit_slope(sol)
        rel = abs(fit.exponent - k) / k
        assert rel <= tol, (nu, p, fit.exponent, k)
        lo, hi = comparability_constants(sol, k, REGION_S2NU)
        assert 0.0 < lo <= hi < math.inf
        details.append(f"({nu:g},{p:g}): {100 * rel:.2f}%")
    # mesh stability of slope and comparability certificate under doubling
    for nu, p in [(1.0, 2.0), (2.0, 3.0)]:
        k = radial_exponent(nu, p)
        certs = []
        slopes = []
        for n in (256, 512):
            sol, _ = solved(nu, p, n)
            lo, hi = comparability_constants(sol, k, REGION_S2NU)
            certs.append(hi / lo)
            slopes.append(fit_slope(sol).exponent)
        assert abs(certs[1] - certs[0]) / certs[0] <= 0.02, (nu, p, certs)
        assert abs(slopes[1] - slopes[0]) / abs(slopes[0]) <= 0.02, (nu, p, slopes)
    report(7, "fitted slopes vs k at 256^2 [" + "; ".join(details)
           + "]; certificates finite, < 2% drift under doubling")


def test_criterion_8_walk_on_spheres_oracle():
    t0 = time.time()
    worst = 0.0
    for nu in (1.0, 2.0):
        sol, _ = solved(nu, 2.0)
        alpha = math.pi / (2.0 * nu)
        probes = [(0.3, 0.0), (0.5, 0.0), (0.7, 0.0),
                  (0.45, alpha / 3.0), (0.6, -alpha / 3.0)]
        mc = mc_harmonic_measure(nu, 1.0, probes, 100000, seed=0)
        for (r0, phi0), (est, se) in zip(probes, mc):
            num = float(np.interp(r0, sol.r, sol.ray_values(phi0)))
            worst = max(worst, abs(num - est) / se)
    dt = time.time() - t0
    assert worst <= 3.0
    assert dt < 60.0
    report(8, f"solver vs walk-on-spheres within 3 sigma at 10 probes "
              f"(worst {worst:.2f} sigma, {dt:.1f} s)")


def test_criterion_9_phragmen_sharpness():
    for nu, p in PHRAGMEN_CASES:
        rep = run_phragmen_check(nu, p)
        assert [row["R"] for row in rep.rows] == [1.0, 10.0, 100.0, 1000.0]
        assert rep.passed, (nu, p, rep.first_failure())
        vals = [row["M_over_Rk"] for row in rep.rows]
        assert max(vals) - min(vals) <= 1e-9
    report(9, "M(R)/R^k constant to 1e-9 across R in {1, 10, 100, 1000}")


def test_criterion_10_cusp_witnesses():
    sol, dt = solved(8.0, 2.0)
    assert dt < 120.0
    fit = fit_slope(sol)
    assert fit.exponent >= 5.0
    sol2, dt2 = solved(0.51, 3.0)
    assert dt2 < 120.0
    fit2 = fit_slope(sol2)
    target = 2.0 / 3.0
    rel = abs(fit2.exponent - target) / target
    assert rel <= 0.15
    report(10, f"cusp witnesses: slope(nu=8, p=2) = {fit.exponent:.2f} >= 5; "
               f"slope(0.51, 3) = {fit2.exponent:.4f} within 15% of 2/3 "
               f"({100 * rel:.2f}%)")
