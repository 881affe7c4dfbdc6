import dataclasses
import functools
import itertools
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from psector import _multigrid, measure
from psector.exponent import DomainError
from psector.measure import (
    CAPPED_STOP,
    FULL_ARC,
    INNER_ARC,
    REGION_S2NU,
    REGION_SNU,
    SLOPE_WINDOW,
    MeasureProblem,
    MeasureSolution,
    _cell_energy,
    _circle_point,
    _fold,
    _grids,
    _half_disk_exit,
    comparability_constants,
    fit_slope,
    mc_harmonic_measure,
    solve_measure,
    write_summary_json,
)
from psector.verify import MEASURE_CASES


def exact_half_disk(r, phi=0.0, nu=1.0, terms=400):
    """Series solution of the p = 2 measure on a sector of half-aperture
    pi/(2 nu): sum over odd n of 4/(n pi) (-1)^((n-1)/2) r^(n nu) cos(n nu phi)."""
    s = 0.0
    for m in range(terms):
        n = 2 * m + 1
        s += 4.0 / (n * math.pi) * (-1) ** m * r ** (n * nu) * math.cos(n * nu * phi)
    return s


def reference_sector_distance(x, y, alpha, R):
    # the original distance, through the polar angle and two sines
    r = np.hypot(x, y)
    ang = np.arctan2(y, x)
    d_arc = R - r
    dp = alpha - ang  # angular gap to the +alpha side
    dm = ang + alpha
    d1 = np.where(dp <= math.pi / 2.0, r * np.sin(dp), r)
    d2 = np.where(dm <= math.pi / 2.0, r * np.sin(dm), r)
    d_side = np.minimum(d1, d2)
    return np.minimum(d_arc, d_side), d_arc, d_side


def reference_mc(nu, R, points, n_walks, seed, shell=1e-5, max_steps=100000):
    # the original walk-on-spheres loop: every walker keeps its slot, the
    # live ones are gathered and scattered back by index each step, and the
    # step angles and their cos and sin are float64
    alpha = math.pi / (2.0 * nu)
    rng = np.random.default_rng(seed)
    out = []
    for r0, phi0 in points:
        x = np.full(n_walks, r0 * math.cos(phi0))
        y = np.full(n_walks, r0 * math.sin(phi0))
        alive = np.arange(n_walks)
        hit = np.zeros(n_walks, dtype=bool)
        for _ in range(max_steps):
            if alive.size == 0:
                break
            xa, ya = x[alive], y[alive]
            d, d_arc, d_side = reference_sector_distance(xa, ya, alpha, R)
            done = d < shell * R
            if done.any():
                absorbed = alive[done]
                hit[absorbed] = d_arc[done] <= d_side[done]
                alive = alive[~done]
                xa, ya, d = xa[~done], ya[~done], d[~done]
            if alive.size == 0:
                break
            ang = rng.random(alive.size) * (2.0 * math.pi)
            x[alive] = xa + d * np.cos(ang)
            y[alive] = ya + d * np.sin(ang)
        est = float(hit.mean())
        stderr = math.sqrt(max(est * (1.0 - est), 1e-12) / n_walks)
        out.append((est, stderr))
    return out


def reference_walk(nu, R, points, n_walks, seed):
    # the walk of mc_harmonic_measure as it was before its work arrays were
    # made once per call: every step allocates its arrays and compacts the
    # walkers with take, and the half-disk exit and circle point are written
    # out as expressions; the reference the oracle must match bitwise
    f32 = np.float32
    alpha = math.pi / (2.0 * nu)
    one, shell, alpha = f32(1.0), f32(measure.MC_SHELL), f32(alpha)
    pi, half_pi = f32(math.pi), f32(0.5 * math.pi)
    rng = np.random.default_rng(seed)
    out = []
    for r0, phi0 in points:
        u = np.full(n_walks, math.log(r0 / R), f32)
        v = np.full(n_walks, abs(phi0), f32)
        hits = 0
        for _ in range(measure.MC_MAX_STEPS):
            d_arc, d_side = -u, alpha - v
            h = np.minimum(d_arc, d_side)
            on_arc = d_arc <= d_side
            done = h < shell
            if done.any():
                hits += int(np.count_nonzero(done & on_arc))
                keep = np.flatnonzero(~done)
                u, v, d_arc, d_side, h, on_arc = (
                    x.take(keep) for x in (u, v, d_arc, d_side, h, on_arc))
            if u.size == 0:
                break
            tau = np.tan(rng.random(u.size, dtype=f32) * pi - half_pi)
            rho = np.minimum(np.maximum(d_arc, d_side), alpha + alpha)
            a = h / rho
            disk = (a > measure.HALF_DISK_MAX).astype(f32)
            half, lift = one - disk, disk * h
            b = a * a
            c = one - b
            t = c * c - f32(4.0) * b + f32(4.0) * a * c * tau
            s = disk * tau + half * (np.sqrt(np.maximum(-t, f32(0.0))) / (one + b))
            s2 = s * s
            den = s2 + one
            x, y = (s2 - one) / den, (s + s) / den
            scale = half * rho + lift
            x, y = x * scale, y * scale + lift
            arc = on_arc.astype(f32)
            side = one - arc
            u, v = side * (u + x) - arc * y, np.abs(arc * (v + x) + side * (alpha - y))
        est = hits / n_walks
        out.append((est, math.sqrt(max(est * (1.0 - est), 1e-12) / n_walks)))
    return out


def reference_to_csv(sol, path):
    # the original writer: one formatted line per node, joined, written once
    pr = sol.problem
    lines = [
        f"# nu = {pr.nu!r}",
        f"# p = {pr.p!r}",
        f"# R = {pr.R!r}",
        f"# arc_target = {pr.arc_target}",
        "r,phi,omega",
    ]
    for i in range(len(sol.r)):
        for j in range(len(sol.phi)):
            lines.append(
                f"{float(sol.r[i])!r},{float(sol.phi[j])!r},{float(sol.omega[i, j])!r}"
            )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_relative_residual(sol):
    # ||b - A u||_2 / ||b||_2 node by node, A frozen at the returned field
    # with the problem's p and b what the Dirichlet data contribute
    pr = sol.problem
    r, phi = _grids(pr)
    _, cE, cN = _cell_energy(sol.omega, r, phi[1] - phi[0], pr.p, pr.eps_reg**2)

    def b_minus_Au(u):
        out = np.zeros_like(u)
        for i in range(1, u.shape[0] - 1):
            for j in range(1, u.shape[1] - 1):
                out[i, j] = (cE[i - 1, j] * (u[i - 1, j] - u[i, j])
                             + cE[i, j] * (u[i + 1, j] - u[i, j])
                             + cN[i, j - 1] * (u[i, j - 1] - u[i, j])
                             + cN[i, j] * (u[i, j + 1] - u[i, j]))
        return out

    data = sol.omega.copy()
    data[1:-1, 1:-1] = 0.0
    return np.linalg.norm(b_minus_Au(sol.omega)) / np.linalg.norm(b_minus_Au(data))


@pytest.fixture(scope="module")
def harmonic_sol():
    return solve_measure(MeasureProblem(nu=1.0, p=2.0, n_r=128, n_phi=129))


class TestSolveMeasure:
    def test_boundary_data(self, harmonic_sol):
        om = harmonic_sol.omega
        assert np.all(om[-1, 1:-1] == 1.0)
        # corners where the arc data jumps to the sides carry the 1/2 value
        assert om[-1, 0] == 0.5 and om[-1, -1] == 0.5
        assert np.all(om[:-1, 0] == 0.0)
        assert np.all(om[:-1, -1] == 0.0)
        assert np.all(om[0, :] == 0.0)

    def test_maximum_principle(self, harmonic_sol):
        om = harmonic_sol.omega
        assert om.min() >= 0.0 and om.max() <= 1.0
        interior = om[1:-1, 1:-1]
        assert interior.min() > 0.0 and interior.max() < 1.0

    def test_symmetry(self, harmonic_sol):
        om = harmonic_sol.omega
        assert np.max(np.abs(om - om[:, ::-1])) <= 1e-7

    def test_monotone_along_axis(self, harmonic_sol):
        ray = harmonic_sol.ray_values(0.0)
        assert np.all(np.diff(ray) >= -1e-12)

    def test_matches_exact_series(self, harmonic_sol):
        ray = harmonic_sol.ray_values(0.0)
        r = harmonic_sol.r
        m = (r >= 0.4) & (r <= 0.6)
        exact = np.array([exact_half_disk(x) for x in r[m]])
        assert np.max(np.abs(ray[m] - exact) / exact) <= 0.01

    def test_converged_flag(self, harmonic_sol):
        assert harmonic_sol.converged
        assert harmonic_sol.final_residual <= harmonic_sol.problem.tol
        assert len([c.energy for c in harmonic_sol.cycles]) >= harmonic_sol.iterations

    def test_energy_settles(self, harmonic_sol):
        # solving the same problem to a residual a thousand times smaller
        # moves the energy of the solved field by at most 1e-6 of it
        def energy(sol):
            r, phi = _grids(sol.problem)
            return _cell_energy(sol.omega, r, phi[1] - phi[0], sol.problem.p,
                                sol.problem.eps_reg**2, False)

        tight = solve_measure(dataclasses.replace(harmonic_sol.problem,
                                                  tol=1e-3 * harmonic_sol.problem.tol))
        assert tight.converged
        settled = energy(tight)
        assert abs(energy(harmonic_sol) - settled) <= 1e-6 * abs(settled)

    @pytest.mark.parametrize("nu, p", [case[:2] for case in MEASURE_CASES if case[1] == 2.0])
    def test_p2_field_minimizes_the_energy(self, nu, p):
        # the p = 2 stage is one direct solve, with no sequence of cycle
        # energies to settle: the solved field is the energy's minimizer, so
        # each +-h perturbation of the interior by a smooth sine mode raises
        # it, by about 3e-12 at h = 1e-6.  On a field whose relative residual
        # is 3e-5 some of these lower it
        pr = MeasureProblem(nu=nu, p=p, n_r=128, n_phi=128)
        sol = solve_measure(pr)
        assert sol.converged and sol.iterations == 1
        r, phi = _grids(pr)

        def energy(u):
            return _cell_energy(u, r, phi[1] - phi[0], p, pr.eps_reg**2, False)

        base, h = energy(sol.omega), 1e-6
        x, y = np.linspace(0.0, math.pi, pr.n_r), np.linspace(0.0, math.pi, pr.n_phi)
        for m, n in itertools.product((1, 2, 3), repeat=2):
            mode = np.zeros_like(sol.omega)
            mode[1:-1, 1:-1] = np.outer(np.sin(m * x[1:-1]), np.sin(n * y[1:-1]))
            for step in (h, -h):
                assert energy(sol.omega + step * mode) > base, (m, n, step)

    def test_energy_is_the_stage_energy(self):
        # a p = 3 solve starts with a p = 2 stage running the same cycles as
        # the p = 2 solve, so the energies it tags p = 2 are the p = 2
        # energies, and the first p = 3 cycle records the p = 3 energy of
        # the p = 2 solution: the doubled sum over its mirror half, which
        # the stage forms, at even and odd sizes
        for n, nu in itertools.product((32, 48, 65, 96, 128), (1.0, 2.0)):
            lin = solve_measure(MeasureProblem(nu=nu, p=2.0, n_r=n, n_phi=n))
            cont = solve_measure(MeasureProblem(nu=nu, p=3.0, n_r=n, n_phi=n))
            stage_p = [c.p for c in cont.cycles]
            energy = [c.energy for c in cont.cycles]
            lin_energy = [c.energy for c in lin.cycles]
            assert len(stage_p) == len(energy) == cont.iterations
            first = stage_p.index(3.0)
            assert first > 0 and set(stage_p[:first]) == {2.0}
            assert energy[:first] == lin_energy
            r, phi = _grids(lin.problem)
            at = functools.partial(_cell_energy, r=r, dphi=phi[1] - phi[0],
                                   eps2=lin.problem.eps_reg**2, coefficients=False)
            half = at(_fold(lin.omega), p=3.0, mirror=n % 2)
            assert energy[first] == half != at(lin.omega, p=2.0), (n, nu)

    def test_p2_coefficients_assembled_once(self, monkeypatch):
        # at p = 2 the frozen coefficients do not depend on the field: the
        # first cycle assembles them, and every later check forms the energy
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[5] if len(args) > 5 else True)
            return _cell_energy(*args, **kwargs)

        monkeypatch.setattr(measure, "_cell_energy", counted)
        sol = solve_measure(MeasureProblem(nu=1.0, p=2.0, n_r=48, n_phi=48))
        assert sol.converged and sol.iterations == 1
        assert calls == [True] + [False] * sol.iterations

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_each_cycle_releases_its_levels(self, monkeypatch, p):
        # a p != 2 cycle's levels are freed when its CG solve returns: no
        # p != 2 system is assembled while an earlier hierarchy's packed
        # coefficients live
        build, energy, refs, checked = _multigrid.hierarchy, _cell_energy, [], []

        def recorded(cE, cN):
            levels = build(cE, cN)
            refs.append(weakref.ref(levels[0].system[0][0][5]))
            return levels

        def released(u, r, dphi, q, eps2, coefficients=True, mirror=None):
            if q != 2.0:
                assert all(ref() is None for ref in refs), [ref() is None for ref in refs]
                checked.append(len(refs))
            return energy(u, r, dphi, q, eps2, coefficients, mirror)

        monkeypatch.setattr(_multigrid, "hierarchy", recorded)
        monkeypatch.setattr(measure, "_cell_energy", released)
        sol = solve_measure(MeasureProblem(nu=1.0, p=p, n_r=48, n_phi=48))
        assert sol.converged
        # the p = 2 stage builds no levels, and later checks follow at least
        # one p != 2 cycle's
        assert checked[0] == 0 and max(checked) == len(refs) > 2

    @pytest.mark.parametrize("nu, p", [case[:2] for case in MEASURE_CASES] + [(1.0, 1.1)])
    def test_final_stage_energy_never_rises(self, nu, p):
        # the energies each final-stage cycle starts from, then that of the
        # solved field: a p = 2 solve's one direct cycle lowers it too
        pr = MeasureProblem(nu=nu, p=p, n_r=128, n_phi=128)
        sol = solve_measure(pr)
        assert sol.converged
        r, phi = _grids(pr)
        energy = [c.energy for c in sol.cycles if c.p == p]
        energy.append(_cell_energy(sol.omega, r, phi[1] - phi[0], p, pr.eps_reg**2, False))
        assert len(energy) > 1
        for before, after in zip(energy, energy[1:]):
            assert after - before <= 1e-12 * abs(before)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_operator_is_the_energy_gradient(self, p):
        # at the coefficients frozen at u, the 5-point operator applied to u
        # is the gradient of the energy at u: central differences of E
        r, phi = _grids(MeasureProblem(nu=1.0, p=p, n_r=16, n_phi=16))
        dphi = phi[1] - phi[0]
        eps2 = 1e-4
        u = np.random.default_rng(7).random((16, 16))
        _, cE, cN = _cell_energy(u, r, dphi, p, eps2)
        grad = _multigrid.apply(cE, cN, u)
        h = 1e-6
        fd = np.zeros_like(u)
        for i in range(1, 15):
            for j in range(1, 15):
                up, um = u.copy(), u.copy()
                up[i, j] += h
                um[i, j] -= h
                fd[i, j] = (_cell_energy(up, r, dphi, p, eps2)[0]
                            - _cell_energy(um, r, dphi, p, eps2)[0]) / (2 * h)
        assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(grad))

    def test_final_residual_is_the_final_stage_residual(self):
        # max_iter 3 stops in the p = 3 stage of a p = 4 solve; the recorded
        # residual is still that of the p = 4 operator frozen at the field
        pr = MeasureProblem(nu=2.0, p=4.0, n_r=24, n_phi=25, max_iter=3)
        sol = solve_measure(pr)
        assert [c.p for c in sol.cycles] == [2.0, 3.0, 3.0]
        want = reference_relative_residual(sol)
        assert sol.final_residual == pytest.approx(want, rel=1e-9)
        assert sol.summary()["final_residual"] == sol.final_residual
        done = solve_measure(dataclasses.replace(pr, max_iter=4000))
        assert done.converged and done.final_residual < 1e-4 * sol.final_residual

    @pytest.mark.parametrize("nu, p", [(1.0, 2.0), (2.0, 3.0), (1.0, 1.5)])
    def test_converged_exactly_when_the_residual_is_within_tol(self, nu, p):
        # one stop test: a solve converges exactly when final_residual <= tol,
        # and a max_iter stop, in the final stage or before it, reports the
        # residual of the field it returns, with the problem's p
        pr = MeasureProblem(nu=nu, p=p, n_r=32, n_phi=33)
        done = solve_measure(pr)
        assert done.converged and done.final_residual <= pr.tol
        assert done.final_residual == pytest.approx(reference_relative_residual(done), rel=1e-9)
        # the p = 2 solve converges in one cycle: a tol below the rounding
        # floor makes its max_iter stop
        cut_tol = 1e-20 if p == 2.0 else pr.tol
        for max_iter in sorted({1, done.iterations - 1} - {0}):
            cut = solve_measure(dataclasses.replace(pr, max_iter=max_iter, tol=cut_tol))
            assert cut.stop_reason == "max_iter" and cut.iterations == max_iter
            assert not cut.converged and cut.final_residual > cut_tol
            assert cut.final_residual == pytest.approx(reference_relative_residual(cut),
                                                       rel=1e-9)

    def test_cg_breakdown_is_a_capped_cycle(self, monkeypatch):
        # the frozen coefficients of a large p can break the CG recurrence
        # down in rounding (r . z or p . A p not positive); the solve reports
        # it as a capped cycle instead of raising ZeroDivisionError.  Here
        # every cycle's hierarchy is one hand-built level whose dense
        # "inverse" is minus the identity, so r . z < 0 at the first step
        def negated(cE, cN):
            n = (cN.shape[0] - 2) * (cE.shape[1] - 2)
            return [_multigrid.Level(cE, cN, None, -np.eye(n))]

        monkeypatch.setattr(_multigrid, "hierarchy", negated)
        sol = solve_measure(MeasureProblem(nu=1.0, p=20.0, n_r=24, n_phi=24, max_iter=400))
        assert not sol.converged
        assert sol.stop_reason == sol.summary()["stop_reason"] == "cg_capped"
        # the p = 2 stage's direct solve, then the p = 3 stage's broken ones
        assert [c.p for c in sol.cycles] == [2.0] + [3.0] * CAPPED_STOP
        assert [c.cg for c in sol.cycles] == [0] + [_multigrid.MAX_CG] * CAPPED_STOP
        assert sol.cg_capped == CAPPED_STOP
        assert np.all(np.isfinite(sol.omega))
        assert math.isfinite(sol.final_residual) and sol.final_residual > sol.problem.tol

    def test_capped_cycle_never_ends_a_stage(self, monkeypatch):
        # a CG solve that breaks down in its first iteration returns MAX_CG
        # with u unmoved; the unchanged residual does not end the stage, and
        # CAPPED_STOP such solves in a row end the solve, still in the p = 3
        # stage of a p = 4 solve, before max_iter
        def stalled(u, levels, rtol, r, work):
            return _multigrid.MAX_CG

        monkeypatch.setattr(_multigrid, "pcg", stalled)
        sol = solve_measure(MeasureProblem(nu=1.0, p=4.0, n_r=24, n_phi=24, max_iter=7))
        assert not sol.converged and sol.stop_reason == "cg_capped"
        assert sol.iterations - 1 == sol.cg_capped == CAPPED_STOP == 5
        assert [c.p for c in sol.cycles] == [2.0] + [3.0] * 5
        assert sol.summary()["stop_reason"] == "cg_capped"

    def test_capped_stop_counts_consecutive_solves(self, monkeypatch):
        # CAPPED_STOP - 1 stalled solves in a row neither stop the solve nor
        # end the p = 3 stage of a p = 4 solve; the solves after them
        # converge it
        pcg = _multigrid.pcg
        calls = []

        def stalled_first(u, levels, rtol, r, work):
            calls.append(None)
            return _multigrid.MAX_CG if len(calls) < CAPPED_STOP else pcg(u, levels, rtol, r, work)

        monkeypatch.setattr(_multigrid, "pcg", stalled_first)
        sol = solve_measure(MeasureProblem(nu=1.0, p=4.0, n_r=24, n_phi=24))
        assert sol.converged and sol.stop_reason == "converged"
        assert sol.cg_capped == CAPPED_STOP - 1
        assert [c.p for c in sol.cycles[:CAPPED_STOP + 1]] == [2.0] + [3.0] * CAPPED_STOP

    def test_one_cycle_record_per_picard_cycle(self, monkeypatch):
        # each p != 2 Cycle's cg is what its cycle's pcg returned, the p = 2
        # stage's one direct solve records 0, its p runs through the
        # continuation stages in order, and the summary's counts are counts
        # over the records
        pcg, returned = _multigrid.pcg, []

        def logged(u, levels, rtol, r, work):
            returned.append(pcg(u, levels, rtol, r, work))
            return returned[-1]

        monkeypatch.setattr(_multigrid, "pcg", logged)
        sol = solve_measure(MeasureProblem(nu=1.0, p=4.0, n_r=32, n_phi=32))
        assert sol.converged
        assert [c.cg for c in sol.cycles] == [0] + returned
        assert [p for p, _ in itertools.groupby(c.p for c in sol.cycles)] == [2.0, 3.0, 4.0]
        summary = sol.summary()
        assert summary["cg_iterations_max"] == max(c.cg for c in sol.cycles)
        assert summary["anderson_taken"] == sum(c.anderson is True for c in sol.cycles)
        assert summary["anderson_refused"] == sum(c.anderson is False for c in sol.cycles)

    def test_capped_cg_is_reported(self, monkeypatch):
        sol = solve_measure(MeasureProblem(nu=2.0, p=3.0, n_r=64, n_phi=64))
        assert sol.cg_capped == 0
        summary = sol.summary()
        assert summary["cg_capped"] == 0
        assert summary["cg_iterations_max"] == max(c.cg for c in sol.cycles) > 0
        monkeypatch.setattr(_multigrid, "MAX_CG", 1)
        starved = solve_measure(MeasureProblem(nu=2.0, p=3.0, n_r=32, n_phi=32))
        assert starved.cg_capped > 0
        assert starved.cg_capped == [c.cg for c in starved.cycles].count(1)
        assert starved.summary()["cg_capped"] == starved.cg_capped
        assert starved.summary()["cg_iterations_max"] == 1

    def test_summary_describes_the_problem(self):
        pr = MeasureProblem(nu=2.0, p=3.0, R=1.5, n_r=24, n_phi=25, eps_reg=1e-5,
                            tol=1e-7, max_iter=5, arc_target=INNER_ARC, rmin_frac=1e-2)
        data = solve_measure(pr).summary()
        want = dataclasses.asdict(pr)
        want["grid"] = [want.pop("n_r"), want.pop("n_phi")]
        want["tolerance"] = want.pop("tol")
        assert {key: data.get(key) for key in want} == want

    def test_nonconvergence_reported_not_raised(self):
        sol = solve_measure(MeasureProblem(nu=1.0, p=3.0, n_r=32, n_phi=32, max_iter=3))
        assert not sol.converged
        assert sol.iterations == 3
        assert sol.stop_reason == sol.summary()["stop_reason"] == "max_iter"

    def test_problem_validation(self):
        with pytest.raises(DomainError):
            MeasureProblem(nu=0.4, p=2.0)
        with pytest.raises(DomainError, match="got nan"):
            MeasureProblem(nu=math.nan, p=2.0)
        with pytest.raises(DomainError):
            MeasureProblem(nu=1.0, p=math.inf)
        with pytest.raises(DomainError):
            MeasureProblem(nu=1.0, p=2.0, n_r=4)
        with pytest.raises(DomainError):
            MeasureProblem(nu=1.0, p=2.0, eps_reg=0.0)
        for bad in (dict(R=math.nan), dict(R=math.inf), dict(R=-1.0),
                    dict(eps_reg=math.nan), dict(eps_reg=math.inf),
                    dict(tol=0.0), dict(tol=math.nan), dict(tol=-1e-8),
                    dict(max_iter=0), dict(rmin_frac=0.0), dict(rmin_frac=1.0),
                    dict(rmin_frac=1.5), dict(rmin_frac=math.nan)):
            with pytest.raises(DomainError):
                MeasureProblem(nu=1.0, p=2.0, **bad)

    def test_eps_reg_insensitivity(self):
        # fitted exponent must move < 1% when the regularization drops 10x
        fits = []
        for eps in (1e-6, 1e-7):
            sol = solve_measure(MeasureProblem(nu=2.0, p=3.0, n_r=128,
                                               n_phi=129, eps_reg=eps))
            assert sol.converged
            fits.append(fit_slope(sol).exponent)
        assert abs(fits[1] - fits[0]) / abs(fits[0]) <= 0.01

    @pytest.mark.parametrize("nu, p", [(2.0, 10.0), (3.0, 8.0), (4.0, 6.0)])
    def test_large_p_converges_without_capped_cg(self, nu, p):
        # 194, 134 and 82 cycles at 64^2, at most 4 CG iterations each.  With
        # full coarsening in place of the anisotropy rule (3, 8) and (4, 6)
        # have capped solves; with COARSEST 12, (4, 6) at 128^2 does
        sol = solve_measure(MeasureProblem(nu=nu, p=p, n_r=64, n_phi=64))
        assert sol.converged and sol.cg_capped == 0

    def test_mesh_refinement_slope_stability(self):
        # fitted exponent must move < 2% when both grid dimensions double
        fits = []
        for n in (64, 128):
            sol = solve_measure(MeasureProblem(nu=2.0, p=3.0, n_r=n, n_phi=n + 1))
            assert sol.converged
            fits.append(fit_slope(sol).exponent)
        assert abs(fits[1] - fits[0]) / abs(fits[0]) <= 0.02


FOLD_CASES = [(2.0, 3.0, 64, 64), (2.0, 3.0, 64, 65), (1.0, 1.5, 64, 64), (1.0, 1.5, 64, 65)]
FOLD_IDS = [f"{nu:g}-{p:g}-{n_r}x{n_phi}" for nu, p, n_r, n_phi in FOLD_CASES]


class TestMirrorHalf:
    """Every p != 2 stage runs on the mirror half of the grid (_fold): for
    even n_phi the axis lies between two columns, for odd n_phi on one."""

    @pytest.fixture(scope="class", params=FOLD_CASES, ids=FOLD_IDS)
    def folded_sol(self, request):
        nu, p, n_r, n_phi = request.param
        return solve_measure(MeasureProblem(nu=nu, p=p, n_r=n_r, n_phi=n_phi))

    def test_field_is_its_mirror_image(self, folded_sol):
        assert folded_sol.converged
        assert np.array_equal(folded_sol.omega, folded_sol.omega[:, ::-1])

    def test_final_residual_is_the_full_grid_residual(self, folded_sol):
        # the stop test's residual, on the half grid with an odd grid's axis
        # column weighted, is that of the full grid's system at omega
        want = reference_relative_residual(folded_sol)
        assert folded_sol.final_residual == pytest.approx(want, rel=1e-12)
        assert folded_sol.final_residual <= folded_sol.problem.tol

    @pytest.mark.parametrize("nu, p, n_r, n_phi", FOLD_CASES, ids=FOLD_IDS)
    def test_half_system_is_the_full_system(self, nu, p, n_r, n_phi):
        # at a random even field the doubled half-grid energy is the full
        # grid's, and the half-grid operator is the full grid's on columns 1
        # and on, halved on an odd grid's axis column
        pr = MeasureProblem(nu=nu, p=p, n_r=n_r, n_phi=n_phi)
        r, phi = _grids(pr)
        dphi, eps2 = phi[1] - phi[0], pr.eps_reg**2
        u = np.random.default_rng(16).random((n_r, n_phi))
        u = 0.5 * (u + u[:, ::-1])
        full, cE, cN = _cell_energy(u, r, dphi, p, eps2)
        half = measure._fold(u)
        energy, hE, hN = _cell_energy(half, r, dphi, p, eps2, mirror=n_phi % 2)
        assert energy == pytest.approx(full, rel=1e-12)
        assert energy == _cell_energy(half, r, dphi, p, eps2, False, n_phi % 2)
        want = _multigrid.apply(cE, cN, u)[:, n_phi // 2:]
        if n_phi % 2:
            want[:, 0] *= 0.5
        got = _multigrid.apply(hE, hN, half)[:, 1:]
        assert np.allclose(got[1:-1, :-1], want[1:-1, :-1], rtol=1e-12,
                           atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("n_phi", [64, 65])
    def test_unfold_inverts_fold(self, n_phi):
        u = np.random.default_rng(17).random((8, n_phi))
        u = 0.5 * (u + u[:, ::-1])
        assert np.array_equal(measure._unfold(measure._fold(u), n_phi), u)


def plain_picard(problem, monkeypatch):
    # a mix that returns the Picard result g is taken, having g's energy, and
    # leaves every iterate plain Picard to the last bit: omega, the energies
    # and the cycle count equal those of a solve with the mixing removed
    monkeypatch.setattr(measure, "_anderson_mix", lambda g, f, dF, dG: g)
    return solve_measure(problem)


class TestAndersonMixing:
    def test_overshooting_mix_keeps_descent(self, monkeypatch):
        # u_old + 2 (g - u_old) = g + f overshoots the Picard step.  Where it
        # raises the energy above g's the energy test refuses it; where plain
        # Picard contracts slowly it lands nearer the fixed point than g and
        # is taken.  Either way the final-stage energy never rises
        monkeypatch.setattr(measure, "_anderson_mix", lambda g, f, dF, dG: g + f)
        sol = solve_measure(MeasureProblem(nu=1.0, p=1.5, n_r=64, n_phi=64))
        assert sol.converged
        final = [c.anderson for c in sol.cycles if c.p == 1.5]
        assert final[0] is None and False in final[1:]
        assert sol.summary()["anderson_refused"] == final.count(False)
        energy = [c.energy for c in sol.cycles if c.p == 1.5]
        for before, after in zip(energy, energy[1:]):
            assert after - before <= 1e-12 * abs(before)

    def test_energy_raising_mix_is_refused_every_time(self, monkeypatch):
        # a checkerboard of amplitude 0.1 on the interior raises the energy
        # of every iterate: each mix is refused, and the solve is plain
        # Picard to the last bit
        pr = MeasureProblem(nu=1.0, p=1.5, n_r=64, n_phi=64)

        def rough(g, f, dF, dG):
            out = g.copy()
            out[1:-1, 1:-1] += 0.1 * (np.indices(g.shape).sum(axis=0) % 2)[1:-1, 1:-1]
            return out

        monkeypatch.setattr(measure, "_anderson_mix", rough)
        refused = solve_measure(pr)
        final = [c.anderson for c in refused.cycles if c.p == 1.5]
        assert final[0] is None and set(final[1:]) == {False}
        assert refused.summary()["anderson_taken"] == 0
        plain = plain_picard(pr, monkeypatch)
        assert refused.converged and plain.converged
        assert refused.iterations == plain.iterations
        assert np.array_equal(refused.omega, plain.omega)
        assert [c.energy for c in refused.cycles] == [c.energy for c in plain.cycles]

    def test_mixing_moves_cycles_not_the_field(self, monkeypatch):
        pr = MeasureProblem(nu=1.0, p=1.5, n_r=64, n_phi=64)
        mixed = solve_measure(pr)
        plain = plain_picard(pr, monkeypatch)
        assert mixed.converged and plain.converged
        assert {c.anderson for c in plain.cycles} == {None, True}
        assert True in [c.anderson for c in mixed.cycles]
        assert np.max(np.abs(mixed.omega - plain.omega)) <= 1e-6
        assert mixed.iterations < plain.iterations

    def test_hard_p_below_2_case(self):
        # ROADMAP's hard case: 130 cycles without mixing
        sol = solve_measure(MeasureProblem(nu=1.0, p=1.1, n_r=128, n_phi=128))
        assert sol.converged and sol.iterations <= 60

    @pytest.mark.parametrize("nu, p", [case[:2] for case in MEASURE_CASES if case[1] >= 2.0])
    def test_no_mixing_at_p_2_and_above(self, nu, p):
        sol = solve_measure(MeasureProblem(nu=nu, p=p, n_r=64, n_phi=64))
        assert sol.converged
        assert [c.anderson for c in sol.cycles] == [None] * sol.iterations
        assert sol.summary()["anderson_taken"] == sol.summary()["anderson_refused"] == 0


class TestFitSlope:
    def test_planted_power_law(self, harmonic_sol):
        sol = MeasureSolution(
            problem=harmonic_sol.problem,
            r=harmonic_sol.r,
            phi=harmonic_sol.phi,
            omega=(harmonic_sol.r[:, None] / 1.0) ** 1.75
            * np.ones_like(harmonic_sol.phi)[None, :],
        )
        fit = fit_slope(sol)
        assert fit.exponent == pytest.approx(1.75, abs=1e-10)
        assert fit.rms <= 1e-12

    def test_harmonic_slope(self, harmonic_sol):
        fit = fit_slope(sol := harmonic_sol)
        assert fit.exponent == pytest.approx(1.0, rel=0.05)
        del sol

    def test_window_validation(self, harmonic_sol):
        # a planted power law positive at only 7 of the radii in SLOPE_WINDOW
        # is refused; at 8 it is fitted
        r = harmonic_sol.r
        inside = np.flatnonzero((r >= SLOPE_WINDOW[0]) & (r <= SLOPE_WINDOW[1]))

        def planted(n):
            ray = np.zeros_like(r)
            ray[inside[:n]] = r[inside[:n]] ** 1.75
            return dataclasses.replace(harmonic_sol, omega=np.repeat(
                ray[:, None], len(harmonic_sol.phi), axis=1))

        with pytest.raises(DomainError, match="at least 8"):
            fit_slope(planted(7))
        assert fit_slope(planted(8)).exponent == pytest.approx(1.75, abs=1e-10)


class TestComparability:
    def test_planted_ratio_is_one(self, harmonic_sol):
        sol = MeasureSolution(
            problem=harmonic_sol.problem,
            r=harmonic_sol.r,
            phi=harmonic_sol.phi,
            omega=(harmonic_sol.r[:, None]) ** 2.0
            * np.ones_like(harmonic_sol.phi)[None, :],
        )
        lo, hi = comparability_constants(sol, 2.0, REGION_S2NU)
        assert lo == pytest.approx(1.0, rel=1e-12)
        assert hi == pytest.approx(1.0, rel=1e-12)

    def test_certificate_finite(self, harmonic_sol):
        lo, hi = comparability_constants(harmonic_sol, 1.0, REGION_S2NU)
        assert 0.0 < lo <= hi < math.inf
        lo2, hi2 = comparability_constants(harmonic_sol, 1.0, REGION_SNU)
        assert 0.0 < lo2 <= hi2 < math.inf
        assert hi2 >= hi  # larger region can only widen the range

    def test_region_validation(self, harmonic_sol):
        with pytest.raises(DomainError):
            comparability_constants(harmonic_sol, 0.0)
        with pytest.raises(DomainError):
            comparability_constants(harmonic_sol, 1.0, region="S_half")

    @pytest.mark.parametrize("r_window", [(0.0, 0.5), (0.5, 0.2), (0.2, 1.5)])
    def test_window_validation(self, harmonic_sol, r_window):
        # the same window rule as fit_slope: strictly inside (0, 1), increasing
        with pytest.raises(DomainError, match="strictly inside"):
            comparability_constants(harmonic_sol, 1.0, r_window=r_window)


class TestInnerArc:
    def test_lower_certificate_on_half_ball(self):
        sol = solve_measure(MeasureProblem(nu=1.0, p=2.0, n_r=128, n_phi=129,
                                           arc_target=INNER_ARC))
        assert sol.converged
        lo, hi = comparability_constants(sol, 1.0, REGION_S2NU, r_window=(0.02, 0.5))
        assert 0.0 < lo <= hi < math.inf

    def test_data_jump_node(self):
        pr = MeasureProblem(nu=1.0, p=2.0, n_r=16, n_phi=17, arc_target=INNER_ARC)
        sol = solve_measure(pr)
        arc = sol.omega[-1, :]
        quarter = math.pi / 4
        inside = np.abs(sol.phi) < quarter - 1e-9
        outside = np.abs(sol.phi) > quarter + 1e-9
        assert np.all(arc[inside] == 1.0)
        assert np.all(arc[outside & (np.abs(sol.phi) < sol.phi[-1] - 1e-9)] == 0.0)
        jump = np.isclose(np.abs(sol.phi), quarter)
        assert np.all(arc[jump] == 0.5)


ORACLE_NUS = (0.5, 0.6, 0.75, 1.0, 2.0, 5.0)


@functools.lru_cache(maxsize=None)
def oracle_z(nu):
    """Pooled z of the oracle against reference_mc at three probes and four
    seeds, 20 000 walks each: (est - est_ref) / sqrt(2 pbar (1 - pbar) / n),
    with pbar the mean of the two estimates; 0 where pbar is 0 or 1 and the
    two agree."""
    n_walks = 20000
    alpha = math.pi / (2.0 * nu)
    pts = [(0.5, 0.0), (0.3, 0.95 * alpha), (0.8, -0.95 * alpha)]
    zs = []
    for seed in (0, 1, 7, 11):
        got = mc_harmonic_measure(nu, 1.0, pts, n_walks, seed)
        want = reference_mc(nu, 1.0, pts, n_walks, seed)
        for (est, _), (ref, _) in zip(got, want):
            pbar = 0.5 * (est + ref)
            var = 2.0 * pbar * (1.0 - pbar) / n_walks
            zs.append((est - ref) / math.sqrt(var) if var > 0.0 else 0.0)
    return tuple(zs)


class TestWalkOnSpheres:
    def test_matches_exact_harmonic_measure(self):
        pts = [(0.5, 0.0), (0.3, 0.5), (0.7, -0.3)]
        out = mc_harmonic_measure(1.0, 1.0, pts, 40000, seed=7)
        for (r0, f0), (est, se) in zip(pts, out):
            assert abs(est - exact_half_disk(r0, f0)) <= 3.0 * se

    def test_deterministic_for_seed(self):
        a = mc_harmonic_measure(2.0, 1.0, [(0.5, 0.1)], 5000, seed=11)
        b = mc_harmonic_measure(2.0, 1.0, [(0.5, 0.1)], 5000, seed=11)
        assert a == b

    def test_limits(self):
        near_apex = mc_harmonic_measure(1.0, 1.0, [(1e-3, 0.0)], 4000, seed=1)[0][0]
        assert near_apex <= 0.01
        near_arc = mc_harmonic_measure(1.0, 1.0, [(1.0 - 1e-3, 0.0)], 4000, seed=2)[0][0]
        assert near_arc >= 0.95

    def test_rejects_exterior_start(self):
        with pytest.raises(DomainError):
            mc_harmonic_measure(1.0, 1.0, [(1.5, 0.0)], 100, seed=0)
        with pytest.raises(DomainError, match="nu must be >= 0.5, got 0.4"):
            mc_harmonic_measure(0.4, 1.0, [(0.5, 0.0)], 100, seed=0)
        with pytest.raises(DomainError, match="nu must be >= 0.5, got nan"):
            mc_harmonic_measure(math.nan, 1.0, [(0.5, 0.0)], 100, seed=0)

    def test_every_start_point_checked_before_walking(self, monkeypatch):
        def no_walk(*args):
            raise AssertionError("walked before every start point was checked")

        monkeypatch.setattr(measure, "_half_disk_exit", no_walk)
        with pytest.raises(DomainError, match=r"start point \(1.5, 0.0\) is not interior"):
            mc_harmonic_measure(1.0, 1.0, [(0.5, 0.0), (1.5, 0.0)], 100, seed=0)

    @pytest.mark.parametrize("kwargs, match", [
        ({"n_walks": 0}, "n_walks must be >= 1, got 0"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ], ids=["n_walks_0", "seed_negative"])
    def test_rejects_bad_walk_parameters(self, kwargs, match):
        args = {"n_walks": 10, "seed": 0} | kwargs
        with pytest.raises(DomainError, match=match):
            mc_harmonic_measure(1.0, 1.0, [(0.5, 0.0)], **args)

    @pytest.mark.parametrize("nu", ORACLE_NUS)
    def test_matches_reference_oracle(self, nu):
        # the oracle walks in log(z / R) with half-disk steps, so its random
        # stream is not reference_mc's and the two agree in distribution
        # only: every probe within 4.5 pooled standard errors
        assert max(abs(z) for z in oracle_z(nu)) <= 4.5

    def test_reference_oracle_chi_square(self):
        # the 72 pooled z of test_matches_reference_oracle together: sum of
        # squares within the 0.999 quantile of chi^2 with 72 degrees of freedom
        assert sum(z * z for nu in ORACLE_NUS for z in oracle_z(nu)) <= 114.8

    def test_half_disk_exit(self):
        # from height a = 0.3 a path leaves the unit half-disk through its
        # diameter with probability 1 - (4/pi) arctan 0.3: the share within
        # 4.5 binomial standard errors; every other exit on the unit
        # semicircle to 1e-6
        n, a = 200000, 0.3
        u = np.random.default_rng(3).random(n, dtype=np.float32)
        tau = np.tan(u * np.float32(math.pi) - np.float32(0.5 * math.pi))
        s = _half_disk_exit(np.full(n, a, np.float32), tau, np.empty((4, n), np.float32))
        x, y = _circle_point(s, np.empty((3, n), np.float32))
        want = 1.0 - 4.0 / math.pi * math.atan(a)
        share = np.count_nonzero(y == 0.0) / n
        assert abs(share - want) <= 4.5 * math.sqrt(want * (1.0 - want) / n)
        out = y != 0.0
        assert np.all(y[out] > 0.0)
        assert np.max(np.abs(np.hypot(x[out], y[out]) - 1.0)) <= 1e-6

    def test_exact_series_near_the_boundary(self):
        # probes at 0.95 alpha, next to a side, at r = 0.98, next to the arc,
        # and at r = 0.02, where the half-disks on the sides reach across the
        # sector for nu >= 1; two seeds of 20 000 walks each: the 48 z against
        # the exact series, sum of squares within the 0.999 quantile of chi^2
        # with 48 degrees of freedom (84.04)
        n_walks, chi2 = 20000, 0.0
        for nu in ORACLE_NUS:
            alpha = math.pi / (2.0 * nu)
            pts = [(0.5, 0.95 * alpha), (0.98, 0.0), (0.98, -0.95 * alpha), (0.02, 0.0)]
            for seed in (2, 5):
                for (r0, f0), (est, _) in zip(pts, mc_harmonic_measure(nu, 1.0, pts, n_walks, seed)):
                    want = exact_half_disk(r0, f0, nu)
                    chi2 += (est - want) ** 2 / (want * (1.0 - want) / n_walks)
        assert chi2 <= 84.04

    @pytest.mark.parametrize("nu", ORACLE_NUS + (8.0,))
    def test_walk_matches_reference_walk_bitwise(self, nu):
        # the same float32 arithmetic and random draws as reference_walk:
        # equal estimates at a side (0.95 alpha), next to the arc (r = 0.999)
        # and the apex (r = 1e-3), and from a start inside the arc's shell
        alpha = math.pi / (2.0 * nu)
        pts = [(0.5, 0.0), (0.4, 0.95 * alpha), (0.999, -0.3 * alpha), (1e-3, 0.5 * alpha),
               (1.0 - 0.5 * measure.MC_SHELL, 0.0)]
        for seed in (0, 1, 7, 11):
            got = mc_harmonic_measure(nu, 1.0, pts, 3000, seed)
            assert got == reference_walk(nu, 1.0, pts, 3000, seed), seed
            assert got[-1][0] == 1.0 and 0.0 < got[0][0] < 1.0

    def test_calls_do_not_share_state(self):
        # a call between two equal calls changes neither result
        pts = [(0.5, 0.0), (0.7, 0.4)]
        first = mc_harmonic_measure(1.0, 1.0, pts, 4000, seed=3)
        mc_harmonic_measure(2.0, 1.0, [(0.3, 0.1)] * 3, 9000, seed=4)
        assert mc_harmonic_measure(1.0, 1.0, pts, 4000, seed=3) == first

    def test_steps_allocate_no_walker_rows(self, monkeypatch):
        # once a call has made its arrays, no step allocates a float32 row
        # of the live walkers.  The traced peak is read and reset at every
        # uniform draw and every compaction index: each span between two of
        # them allocates less than 4 bytes per live walker, the index itself
        # left out (it is made inside the reset of its span)
        default_rng, flatnonzero, spans = np.random.default_rng, np.flatnonzero, []

        def span(live):
            # the record is made before the reset, so neither span counts it
            spans.append((live, tracemalloc.get_traced_memory()[1] - base[0]))
            tracemalloc.reset_peak()
            base[0] = tracemalloc.get_traced_memory()[0]

        class Drawn:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def random(self, n, dtype, out):
                span(n)
                return self.rng.random(n, dtype=dtype, out=out)

        def indexed(mask):
            span(mask.size)
            keep = flatnonzero(mask)
            tracemalloc.reset_peak()
            base[0] = tracemalloc.get_traced_memory()[0]
            return keep

        monkeypatch.setattr(np.random, "default_rng", Drawn)
        monkeypatch.setattr(np, "flatnonzero", indexed)
        base = [0]
        tracemalloc.start()
        try:
            base[0] = tracemalloc.get_traced_memory()[0]
            mc_harmonic_measure(1.0, 1.0, [(0.5, 0.0), (0.1, 0.5)], 200000, seed=5)
        finally:
            tracemalloc.stop()
        # the first span holds the set-up; spans of fewer than 8192 live
        # walkers are left out, where a row is as small as numpy's casting
        # buffer (8192 elements) and the interpreter's own objects
        checked = [(live, extra) for live, extra in spans[1:] if live >= 8192]
        assert len(checked) >= 20
        assert all(extra < 4 * live for live, extra in checked), max(
            checked, key=lambda c: c[1] / c[0])

    @pytest.mark.parametrize("nu", [0.5, 1.0, 5.0])
    def test_estimates_do_not_depend_on_R(self, nu):
        # the walk runs in log(z / R), so probes scaled with R walk the same
        # float32 paths: equal estimates, not merely close ones
        alpha = math.pi / (2.0 * nu)
        fracs = [(0.3, 0.0), (0.45, alpha / 3.0), (0.6, -0.9 * alpha)]
        at_1 = mc_harmonic_measure(nu, 1.0, fracs, 5000, seed=8)
        at_r = mc_harmonic_measure(nu, 2.5, [(2.5 * f, ph) for f, ph in fracs], 5000, seed=8)
        assert at_r == at_1


class TestFieldCsv:
    @pytest.mark.parametrize("problem", [
        MeasureProblem(nu=1.0, p=2.0, R=2.5, n_r=17, n_phi=23, arc_target=INNER_ARC),
        MeasureProblem(nu=2.0, p=3.0, n_r=24, n_phi=19),
    ])
    def test_bytes_match_reference_writer(self, tmp_path, problem):
        sol = solve_measure(problem)
        sol.to_csv(tmp_path / "new.csv")
        reference_to_csv(sol, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestExports:
    def test_csv_and_summary(self, tmp_path, harmonic_sol):
        csv = tmp_path / "field.csv"
        harmonic_sol.to_csv(csv)
        lines = csv.read_text().splitlines()
        assert lines[0].startswith("# nu = ")
        assert "r,phi,omega" in lines
        js = tmp_path / "summary.json"
        write_summary_json(harmonic_sol, js, {"slope": 1.0})
        data = json.loads(js.read_text())
        assert data["converged"] is True
        assert data["slope"] == 1.0
        assert data["arc_target"] == FULL_ARC
