import json
import math
from dataclasses import replace

import numpy as np
import pytest

from psector import experiments, measure, verify
from psector.exponent import DomainError
from psector.experiments import (
    ExperimentReport,
    growth_bounds_report,
    mc_agreement,
    measure_report,
    run_exponent_table,
    run_measure_experiment,
    run_phragmen_check,
    run_stream_consistency,
)
from psector.measure import MeasureProblem, MeasureSolution, solve_measure


class TestExponentTable:
    def test_default_grid_passes(self):
        rep = run_exponent_table()
        assert rep.passed, rep.first_failure()
        # the default grid is verify's
        assert rep.parameters == {
            "nu_grid": verify.NU_GRID,
            "p_grid": [f"{p:g}" for p in verify.P_GRID] + ["inf"],
        }

    def test_rows_cover_grid(self):
        rep = run_exponent_table([1.0, 2.0], [2.0, 3.0])
        ks = {(r["nu"], r["p"]): r["k"] for r in rep.rows}
        assert ks[(1.0, "2")] == pytest.approx(1.0)
        assert ks[(2.0, "2")] == pytest.approx(2.0)


class TestMeasureExperiment:
    def test_small_harmonic_case(self):
        rep = run_measure_experiment(1.0, 2.0, n_r=96, n_phi=97, slope_tol=0.05)
        assert rep.passed, rep.first_failure()

    def test_zero_ratio_fails_the_certificate(self, tmp_path):
        # a converged-looking field of exact decay k = 8 that is 0 at one node
        # of S_2nu inside the certificate's window but outside the slope's:
        # ratio_min is 0, the certificate is infinite, its criterion is the
        # first that fails, and the JSON holds null for it
        pr = MeasureProblem(nu=8.0, p=2.0, n_r=64, n_phi=64)
        r, phi = measure._grids(pr)
        omega = np.repeat(r[:, None] ** 8.0, pr.n_phi, axis=1)
        i = int(np.searchsorted(r, 0.6))
        omega[i, pr.n_phi // 2] = 0.0
        sol = MeasureSolution(pr, r, phi, omega, stop_reason="converged", final_residual=0.0)
        rep = measure_report(sol)
        assert rep.first_failure()["name"] == "comparability certificate finite on S_2nu"
        cert = rep.rows[1]
        assert cert["ratio_min"] == 0.0 and cert["certificate"] == math.inf
        rep.write_json(tmp_path / "r.json")
        assert json.loads((tmp_path / "r.json").read_text())["rows"][1]["certificate"] is None

    def test_hand_built_solution_fails_convergence(self):
        # a planted field of exact decay k = 1 has no solve behind it, so no
        # final residual: its report fails "solver converged" and nothing else
        pr = MeasureProblem(nu=1.0, p=2.0, n_r=64, n_phi=64)
        r, phi = measure._grids(pr)
        sol = MeasureSolution(pr, r, phi, (r[:, None] / pr.R) * np.cos(phi)[None, :])
        rep = measure_report(sol)
        assert [c["name"] for c in rep.criteria if not c["passed"]] == ["solver converged"]
        assert rep.criteria[0]["detail"] == "iterations 0"
        assert rep.rows[0]["fitted"] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("n", [64, 128])
    def test_narrowest_sector_field_is_positive(self, n):
        # at nu = 8 the field spans 1 to about (r/R)^8 = 1e-24; the p = 2
        # stage's direct solve keeps it positive at every interior node, and
        # the certificate on S_2nu finite: widths 2.95 and 1.70
        sol = solve_measure(MeasureProblem(nu=8.0, p=2.0, n_r=n, n_phi=n))
        assert sol.converged and np.all(sol.omega[1:-1, 1:-1] > 0.0)
        rep = measure_report(sol)
        cert = rep.rows[1]
        assert 0.0 < cert["ratio_min"] and math.isfinite(cert["certificate"])
        assert rep.passed, rep.first_failure()

    def test_mc_block(self):
        sol = solve_measure(MeasureProblem(nu=1.0, p=2.0, n_r=96, n_phi=97))
        rep = measure_report(sol, 0.05, mc_check=True, seed=5, n_walks=20000)
        assert rep.passed, rep.first_failure()
        assert any("mc" in row for row in rep.rows)

    def test_mc_probes_scale_with_R(self):
        rows = {}
        for R in (1.0, 2.0):
            sol = solve_measure(MeasureProblem(nu=1.0, p=2.0, R=R, n_r=48, n_phi=49))
            rows[R], ok = mc_agreement(sol, n_walks=2000, seed=4)
            assert ok
        assert [r["probe_r"] for r in rows[2.0]] == [2.0 * r["probe_r"] for r in rows[1.0]]
        for a, b in zip(rows[1.0], rows[2.0]):
            assert b["solver"] == pytest.approx(a["solver"], rel=1e-9)

    def test_slope_window_checked_before_solving(self, monkeypatch):
        def no_solve(problem):
            raise AssertionError("solved a grid whose slope fit must fail")

        monkeypatch.setattr(experiments, "solve_measure", no_solve)
        with pytest.raises(DomainError, match="fewer than 8"):
            # 16 radii from 1e-3 R to R put 5 inside the slope window
            run_measure_experiment(1.0, 2.0, n_r=16, n_phi=97)

    def test_settings_come_from_measure(self):
        # the report states the window and solver settings actually used
        rep = run_measure_experiment(1.0, 2.0, n_r=48, n_phi=49)
        defaults = MeasureProblem(nu=1.0, p=2.0)
        assert rep.parameters["r_window"] == list(measure.SLOPE_WINDOW)
        assert rep.parameters["eps_reg"] == defaults.eps_reg
        assert rep.provenance["tolerance"] == defaults.tol

    def test_nonlinear_case(self):
        rep = run_measure_experiment(2.0, 3.0, n_r=96, n_phi=97, slope_tol=0.10)
        assert rep.passed, rep.first_failure()


class TestGrowthBounds:
    def test_certificates(self):
        pr = MeasureProblem(nu=2.0, p=3.0, n_r=96, n_phi=97)
        rep = growth_bounds_report(solve_measure(pr),
                                   solve_measure(replace(pr, arc_target=measure.INNER_ARC)))
        assert rep.passed, rep.first_failure()


class TestMeasureSuite:
    def test_each_problem_solved_once(self, monkeypatch):
        solved = []

        def solve_and_count(problem):
            solved.append(problem)
            return solve_measure(problem)

        for module in (experiments, verify):
            monkeypatch.setattr(module, "solve_measure", solve_and_count, raising=False)
        reports = verify.measure_suite(quick=True)
        assert len(solved) == len(set(solved)) == 3
        monkeypatch.undo()
        # the same reports as from a fresh solve of each problem
        want = [measure_report(solve_measure(MeasureProblem(nu=nu, p=p, n_r=128, n_phi=128)),
                               tol, mc_check=p == 2.0, n_walks=20000)
                for nu, p, tol in verify.MEASURE_CASES if (nu, p) in ((1.0, 2.0), (2.0, 3.0))]
        pr = MeasureProblem(nu=2.0, p=3.0, n_r=128, n_phi=128)
        want.append(growth_bounds_report(
            solve_measure(pr), solve_measure(replace(pr, arc_target=measure.INNER_ARC))))
        assert [r.__dict__ for r in reports] == [r.__dict__ for r in want]


class TestPhragmen:
    def test_sharpness_pairs(self):
        for nu, p in [(1.0, 2.0), (2.0, 3.0), (1.0, math.inf), (2.0, math.inf)]:
            rep = run_phragmen_check(nu, p)
            assert rep.passed, (nu, p, rep.first_failure())
            vals = [row["M_over_Rk"] for row in rep.rows]
            assert max(vals) - min(vals) <= 1e-9

    def test_detects_a_wrong_exponent(self, monkeypatch):
        # M(R) is sampled from the field, so dividing by R**k with k off by a
        # relative 1e-6 must break the constancy across decades
        k_exact = experiments.radial_exponent
        monkeypatch.setattr(experiments, "radial_exponent",
                            lambda nu, p: k_exact(nu, p) * (1.0 + 1e-6))
        for nu, p in [(1.0, 2.0), (2.0, 3.0), (1.0, math.inf), (2.0, math.inf)]:
            crit = {c["name"]: c["passed"] for c in run_phragmen_check(nu, p).criteria}
            assert crit["M(R)/R^k constant across decades"] is False, (nu, p)

    def test_growth_across_decades(self):
        rep = run_phragmen_check(2.0, 3.0)
        assert [row["R"] for row in rep.rows] == [1.0, 10.0, 100.0, 1000.0]
        ms = [row["M"] for row in rep.rows]
        assert ms[1] / ms[0] == pytest.approx(10.0**1.7287135538781686, rel=1e-9)


class TestStreamConsistency:
    def test_cases(self):
        for nu, q in [(1.0, 1.5), (2.0, 1.2), (2.0, 1.5), (0.75, 1.5)]:
            rep = run_stream_consistency(nu, q)
            assert rep.passed, (nu, q, rep.first_failure())

    def test_exponent_identity_detail(self):
        rep = run_stream_consistency(1.0, 1.5)
        lam_check = [c for c in rep.criteria if "stream exponent" in c["name"]][0]
        assert lam_check["passed"]

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            run_stream_consistency(1.0, 2.5)


class TestReportSerialization:
    def test_json_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_phragmen_check(2.0, 3.0).write_json(a)
        run_phragmen_check(2.0, 3.0).write_json(b)
        assert a.read_bytes() == b.read_bytes()
        data = json.loads(a.read_text())
        assert data["passed"] is True
        assert data["experiment_id"] == "phragmen"

    @pytest.mark.parametrize("run, args", [(run_stream_consistency, (2.0, 1.5)),
                                           (run_phragmen_check, (2.0, math.inf))])
    def test_rows_hold_plain_values(self, tmp_path, run, args):
        # the rows come from array evaluations; a numpy array left in a cell
        # would make write_json refuse the report
        rep = run(*args)
        rep.write_json(tmp_path / "rep.json")
        kinds = {type(v) for row in rep.rows for v in row.values()}
        assert kinds <= {float, int, str}, kinds
        assert json.loads((tmp_path / "rep.json").read_text())["rows"] == rep.rows

    def test_csv_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_exponent_table([1.0, 2.0], [2.0, 3.0]).write_csv(a)
        run_exponent_table([1.0, 2.0], [2.0, 3.0]).write_csv(b)
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0].startswith("# experiment = ")
        assert "nu,p,k" in lines

    def test_csv_carries_every_rows_columns(self, tmp_path):
        # the columns are the union of the row keys in first-seen order, so a
        # key missing from the first row still gets its column
        rep = ExperimentReport("mixed", {"nu": 1.0}, rows=[
            {"nu": 1.0, "k": 1.0}, {"nu": 2.0, "ratio_min": 0.5},
            {"certificate": "ok", "nu": 3.0}])
        rep.write_csv(tmp_path / "mixed.csv")
        lines = [ln for ln in (tmp_path / "mixed.csv").read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines == ["nu,k,ratio_min,certificate", "1.0,1.0,,", "2.0,,0.5,", "3.0,,,ok"]

    def test_mc_experiment_deterministic(self):
        r1, r2 = (measure_report(solve_measure(MeasureProblem(nu=1.0, p=2.0, n_r=48, n_phi=49)),
                                 mc_check=True, seed=9, n_walks=5000) for _ in range(2))
        assert r1.rows == r2.rows
