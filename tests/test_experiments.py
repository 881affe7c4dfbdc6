import json
import math

import pytest

from psector import experiments
from psector.exponent import DomainError
from psector.experiments import (
    mc_agreement,
    run_exponent_table,
    run_growth_bounds,
    run_measure_experiment,
    run_phragmen_check,
    run_stream_consistency,
)
from psector.measure import MeasureProblem, solve_measure


class TestExponentTable:
    def test_default_grid_passes(self):
        rep = run_exponent_table()
        assert rep.passed, rep.first_failure()

    def test_rows_cover_grid(self):
        rep = run_exponent_table([1.0, 2.0], [2.0, 3.0])
        ks = {(r["nu"], r["p"]): r["k"] for r in rep.rows}
        assert ks[(1.0, "2")] == pytest.approx(1.0)
        assert ks[(2.0, "2")] == pytest.approx(2.0)


class TestMeasureExperiment:
    def test_small_harmonic_case(self):
        rep = run_measure_experiment(1.0, 2.0, n_r=96, n_phi=97, slope_tol=0.05)
        assert rep.passed, rep.first_failure()

    def test_mc_block(self):
        rep = run_measure_experiment(1.0, 2.0, n_r=96, n_phi=97, slope_tol=0.05,
                                     mc_check=True, seed=5, n_walks=20000)
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

    def test_mc_check_rejects_p_before_solving(self, monkeypatch):
        def no_solve(problem):
            raise AssertionError("solved before the p check")

        monkeypatch.setattr(experiments, "solve_measure", no_solve)
        with pytest.raises(DomainError, match="p = 2 only"):
            run_measure_experiment(1.0, 3.0, n_r=48, n_phi=49, mc_check=True)

    @pytest.mark.parametrize("run", [run_measure_experiment, run_growth_bounds])
    def test_slope_window_checked_before_solving(self, monkeypatch, run):
        def no_solve(problem):
            raise AssertionError("solved a grid whose slope fit must fail")

        monkeypatch.setattr(experiments, "solve_measure", no_solve)
        with pytest.raises(DomainError, match="fewer than 8"):
            run(1.0, 2.0, n_r=96, n_phi=97, r_window=(0.3, 0.4))

    def test_nonlinear_case(self):
        rep = run_measure_experiment(2.0, 3.0, n_r=96, n_phi=97, slope_tol=0.10)
        assert rep.passed, rep.first_failure()


class TestGrowthBounds:
    def test_certificates(self):
        rep = run_growth_bounds(2.0, 3.0, n_r=96, n_phi=97)
        assert rep.passed, rep.first_failure()


class TestPhragmen:
    def test_sharpness_pairs(self):
        for nu, p in [(1.0, 2.0), (2.0, 3.0), (1.0, math.inf), (2.0, math.inf)]:
            rep = run_phragmen_check(nu, p)
            assert rep.passed, (nu, p, rep.first_failure())
            vals = [row["M_over_Rk"] for row in rep.rows]
            assert max(vals) - min(vals) <= 1e-9

    def test_growth_across_decades(self):
        rep = run_phragmen_check(2.0, 3.0, R_list=(1.0, 10.0, 100.0, 1000.0))
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

    def test_csv_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_exponent_table([1.0, 2.0], [2.0, 3.0]).write_csv(a)
        run_exponent_table([1.0, 2.0], [2.0, 3.0]).write_csv(b)
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0].startswith("# experiment = ")
        assert "nu,p,k" in lines

    def test_mc_experiment_deterministic(self):
        r1 = run_measure_experiment(1.0, 2.0, n_r=48, n_phi=49, mc_check=True,
                                    seed=9, n_walks=5000)
        r2 = run_measure_experiment(1.0, 2.0, n_r=48, n_phi=49, mc_check=True,
                                    seed=9, n_walks=5000)
        assert r1.rows == r2.rows
