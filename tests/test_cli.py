import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import psector
from psector import measure
from psector.cli import CliConfig, main
from psector.exponent import DomainError
from psector.experiments import MC_WALKS, run_measure_experiment
from psector.profile import read_profile_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExponentCommand:
    def test_harmonic(self, capsys):
        code, out, _ = run_cli(capsys, "exponent", "--nu", "1", "--p", "2")
        assert code == 0
        assert out.splitlines()[0] == "k = 1"

    def test_slit_limit(self, capsys):
        code, out, _ = run_cli(capsys, "exponent", "--nu", "0.5", "--p", "3")
        assert code == 0
        assert out.splitlines()[0] == "k = 0.6666666667"

    def test_inf_parsing(self, capsys):
        code, out, _ = run_cli(capsys, "exponent", "--nu", "2", "--p", "inf")
        assert code == 0
        assert out.splitlines()[0] == "k = 1.333333333"

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "exponent", "--nu", "0.4", "--p", "3")
        assert code == 2
        assert "nu must be >= 0.5" in err

    def test_derivs_and_roots(self, capsys):
        code, out, _ = run_cli(capsys, "exponent", "--nu", "2", "--p", "3",
                               "--derivs", "--roots")
        assert code == 0
        assert "dk/dnu = " in out and "dk/dp = " in out
        assert "k1 = 1.728713554" in out and "k2 = " in out

    def test_table_mode(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "exponent", "--table",
                               "--out-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "exponent_table.csv").exists()
        assert (tmp_path / "exponent_table.json").exists()


class TestProfileCommand:
    def test_angle_map_case(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "profile", "--nu", "2", "--p", "3",
                               "--samples", "128", "--out-dir", str(tmp_path))
        assert code == 0
        meta, cols = read_profile_csv(tmp_path / "profile_2_3.csv")
        assert abs(cols["f"][0]) <= 1e-9  # first row is phi = -pi/4
        assert meta["case"] == "P_GT2_ANGLEMAP"

    def test_harmonic_profile_cosine(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "profile", "--nu", "1", "--p", "2",
                             "--out-dir", str(tmp_path))
        assert code == 0
        _, cols = read_profile_csv(tmp_path / "profile_1_2.csv")
        assert np.max(np.abs(cols["f"] - np.cos(cols["phi"]))) <= 1e-12

    def test_stream_tag(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "profile", "--nu", "1", "--p", "1.5",
                             "--out-dir", str(tmp_path))
        assert code == 0
        meta, _ = read_profile_csv(tmp_path / "profile_1_1.5.csv")
        assert meta["case"] == "P_LT2_STREAM"

    def test_sup_case_profile(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "profile", "--nu", "0.5", "--p", "inf",
                             "--out-dir", str(tmp_path))
        assert code == 0
        meta, _ = read_profile_csv(tmp_path / "profile_0.5_inf.csv")
        assert meta["p"] == "inf" and float(meta["k"]) == 1.0


class TestMeasureCommand:
    def test_summary_written(self, capsys, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("n_r = 64\nn_phi = 65\n")
        code, out, _ = run_cli(capsys, "measure", "--nu", "1", "--p", "2",
                               "--config", str(cfg), "--out-dir", str(tmp_path))
        assert code == 0
        data = json.loads((tmp_path / "measure_1_2.json").read_text())
        assert data["converged"] is True
        assert data["stop_reason"] == "converged"
        assert data["anderson_taken"] == data["anderson_refused"] == 0
        assert data["slope"] == pytest.approx(1.0, rel=0.08)
        assert (tmp_path / "measure_1_2.csv").exists()

    def test_inner_arc_variant(self, capsys, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("n_r = 64\nn_phi = 65\n")
        code, _, _ = run_cli(capsys, "measure", "--nu", "2", "--p", "3",
                             "--inner-arc", "--config", str(cfg),
                             "--out-dir", str(tmp_path))
        assert code == 0
        data = json.loads((tmp_path / "measure_2_3_inner.json").read_text())
        assert data["arc_target"] == "inner_arc"

    def test_nonconvergence_exit_4(self, capsys, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("n_r = 32\nn_phi = 33\nmax_iter = 2\n")
        code, out, err = run_cli(capsys, "measure", "--nu", "1", "--p", "3",
                                 "--config", str(cfg), "--out-dir", str(tmp_path))
        assert code == 4
        # summary is still written, flagged unconverged
        data = json.loads((tmp_path / "measure_1_3.json").read_text())
        assert data["converged"] is False
        assert data["stop_reason"] == "max_iter"
        # stdout marks the fit and the certificate; the JSON keeps their values
        lines = out.splitlines()
        assert lines[0] == "k = 1"
        for line, key in zip(lines[1:4], ("slope", "ratio_min", "ratio_max")):
            assert line == f"{key} = {data[key]:.10g} (unconverged field)"
        assert "unconverged" not in "".join(lines[4:])
        assert "stopped on max_iter after 2 of 2 cycles" in err
        assert f"final residual {data['final_residual']:.2e}" in err

    def test_mc_check_block(self, capsys, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("n_r = 96\nn_phi = 97\nseed = 0\n")
        code, out, _ = run_cli(capsys, "measure", "--nu", "1", "--p", "2",
                               "--mc-check", "--config", str(cfg),
                               "--out-dir", str(tmp_path))
        assert code == 0
        data = json.loads((tmp_path / "measure_1_2.json").read_text())
        assert data["mc_within_3_sigma"] is True
        # the verdict is printed, not only written to the summary
        assert "mc_within_3_sigma = True" in out.splitlines()

    def test_mc_check_verdict_printed_when_it_fails(self, capsys, tmp_path):
        # at nu = 8 the 64^2 field is 4.5 to 11.4 sigma off the oracle at
        # four probes: stdout says so, and the exit code stays that of the solve
        code, out, _ = run_cli(capsys, "measure", "--nu", "8", "--p", "2",
                               "--n-r", "64", "--n-phi", "64", "--mc-check",
                               "--out-dir", str(tmp_path))
        assert code == 0
        data = json.loads((tmp_path / "measure_8_2.json").read_text())
        assert data["mc_within_3_sigma"] is False
        assert "mc_within_3_sigma = False" in out.splitlines()

    def test_mc_check_verdict_marks_an_unconverged_field(self, capsys, tmp_path):
        # a p = 2 solve converges in one cycle: a tol below the rounding floor
        # leaves it unconverged
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("n_r = 32\nn_phi = 33\nmax_iter = 1\ntol = 1e-20\n")
        code, out, _ = run_cli(capsys, "measure", "--nu", "1", "--p", "2", "--mc-check",
                               "--config", str(cfg), "--out-dir", str(tmp_path))
        assert code == 4
        data = json.loads((tmp_path / "measure_1_2.json").read_text())
        verdict = f"mc_within_3_sigma = {data['mc_within_3_sigma']} (unconverged field)"
        assert verdict in out.splitlines()

    def test_mc_check_rows_match_experiment(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "measure", "--nu", "1", "--p", "2",
                             "--n-r", "48", "--n-phi", "49", "--seed", "9",
                             "--mc-check", "--out-dir", str(tmp_path))
        assert code == 0
        data = json.loads((tmp_path / "measure_1_2.json").read_text())
        rep = run_measure_experiment(1.0, 2.0, n_r=48, n_phi=49, mc_check=True, seed=9)
        assert data["mc_agreement"] == [r for r in rep.rows if "mc" in r]
        # the fit and the certificate are the report's, as exact floats
        fit = next(r for r in rep.rows if "fitted" in r)
        cert = next(r for r in rep.rows if "certificate" in r)
        assert (data["slope"], data["slope_rms"], data["ratio_min"], data["ratio_max"]) == (
            fit["fitted"], fit["fit_rms"], cert["ratio_min"], cert["ratio_max"])
        # the summary names the oracle run it compared against
        assert (data["mc_seed"], data["mc_walks"]) == (9, MC_WALKS)

    def test_certificate_window_scales_with_R(self, capsys, tmp_path, monkeypatch):
        solve, solved = measure.solve_measure, []

        def solve_and_keep(problem):
            solved.append(solve(problem))
            return solved[-1]

        monkeypatch.setattr(measure, "solve_measure", solve_and_keep)
        code, _, _ = run_cli(capsys, "measure", "--nu", "1", "--p", "2", "--R", "2",
                             "--n-r", "48", "--n-phi", "49", "--out-dir", str(tmp_path))
        assert code == 0
        data = json.loads((tmp_path / "measure_1_2.json").read_text())
        # both windows are fractions of R; the summary states the slope's in r
        lo, hi = measure.comparability_constants(solved[0], data["k"], measure.REGION_S2NU,
                                                 (0.02, 0.9))
        assert (data["ratio_min"], data["ratio_max"]) == (lo, hi)
        assert data["slope_window"] == [0.1, 0.8]

    @pytest.mark.parametrize("flags", [["--p", "3"], ["--p", "2", "--inner-arc"]])
    def test_mc_check_refused_before_solving(self, capsys, tmp_path, monkeypatch, flags):
        def no_solve(problem):
            raise AssertionError("solved before the --mc-check checks")

        monkeypatch.setattr(measure, "solve_measure", no_solve)
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "measure", "--nu", "1", *flags, "--mc-check",
                               "--out-dir", str(out))
        assert code == 2
        assert "walk-on-spheres" in err
        assert not out.exists()

    @pytest.mark.parametrize("n_r", ["8", "16"])
    def test_grid_too_coarse_for_the_slope_window_refused_before_solving(
            self, capsys, tmp_path, monkeypatch, n_r):
        def no_solve(problem):
            raise AssertionError("solved a grid whose slope fit must fail")

        monkeypatch.setattr(measure, "solve_measure", no_solve)
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "measure", "--nu", "1", "--p", "2", "--n-r", n_r,
                               "--n-phi", "16", "--out-dir", str(out))
        assert code == 2
        assert "fewer than 8" in err
        assert not out.exists()

    @pytest.mark.parametrize("from_config", [False, True])
    def test_negative_seed_refused_before_solving(self, capsys, tmp_path, monkeypatch,
                                                  from_config):
        def no_solve(problem):
            raise AssertionError("solved before the seed was checked")

        monkeypatch.setattr(measure, "solve_measure", no_solve)
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed = -1\n")
        seed = ["--config", str(cfg)] if from_config else ["--seed", "-1"]
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "measure", "--nu", "1", "--p", "2", "--mc-check",
                               *seed, "--out-dir", str(out))
        assert code == 2
        assert "seed must be >= 0, got -1" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, config, message", [
        (["--tol", "0"], "", "tol must be finite and positive, got 0.0"),
        (["--R", "nan"], "", "R must be finite and positive, got nan"),
        (["--R", "inf"], "", "R must be finite and positive, got inf"),
        ([], "max_iter = 0\n", "max_iter must be >= 1, got 0"),
        ([], "eps_reg = nan\n", "eps_reg must be finite and positive, got nan"),
    ], ids=["tol-0", "R-nan", "R-inf", "max_iter-0", "eps_reg-nan"])
    def test_unsolvable_problem_refused_before_writing(self, capsys, tmp_path,
                                                       monkeypatch, flags, config,
                                                       message):
        def no_solve(problem):
            raise AssertionError("solved an unsolvable problem")

        monkeypatch.setattr(measure, "solve_measure", no_solve)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "measure", "--nu", "1", "--p", "2", *flags,
                               "--config", str(cfg), "--out-dir", str(out))
        assert code == 2
        assert message in err
        assert not out.exists()


class TestVerifyCommand:
    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "bogus")
        assert code == 2
        assert "unknown suite" in err

    def test_exponent_suite(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "verify", "exponent",
                               "--out-dir", str(tmp_path))
        assert code == 0
        assert "[PASS]" in out
        assert any(f.suffix == ".json" for f in tmp_path.iterdir())

    def test_phragmen_suite(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "verify", "phragmen", "--out-dir", str(tmp_path))
        assert code == 0

    def test_all_quick_writes_one_json_per_report(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "verify", "all", "--quick",
                               "--out-dir", str(tmp_path))
        assert code == 0
        ids = [line.split("] ", 1)[1] for line in out.splitlines()
               if line.startswith("[PASS] ")]
        assert len(ids) == len(out.splitlines()) > 0
        # run_suites names report i's files <experiment_id>_<ii>
        want = {f"{rid}_{i:02d}.json" for i, rid in enumerate(ids)}
        assert want == {f.name for f in tmp_path.glob("*.json")}

    def test_runs_without_scipy(self, tmp_path):
        # scipy is a test dependency only.  A None entry in sys.modules makes
        # every scipy import fail; it takes a fresh interpreter, since this one
        # has imported scipy for other tests
        code = (
            "import sys; sys.modules['scipy'] = None\n"
            "from psector.cli import main\n"
            "from psector.profile import PolarPoint, build_profile, eval_u\n"
            "assert eval_u(PolarPoint(0.5, 0.3), build_profile(2.0, 3.0)) > 0\n"
            "sys.exit(main(['verify', 'all', '--quick', '--out-dir', sys.argv[1]]))\n"
        )
        src = str(Path(psector.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestConfig:
    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_rr = 64\n")
        code, _, err = run_cli(capsys, "profile", "--nu", "1", "--p", "2",
                               "--config", str(cfg), "--out-dir", str(tmp_path))
        assert code == 2
        assert "unknown config key" in err

    def test_bad_value_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_phi = 64\nn_r = abc\n")
        code, _, err = run_cli(capsys, "measure", "--nu", "1", "--p", "2",
                               "--config", str(cfg), "--out-dir", str(tmp_path))
        assert code == 2
        assert f"{cfg}:2: n_r must be int, got 'abc'" in err

    def test_every_field_is_a_typed_key(self, tmp_path):
        cfg = tmp_path / "all.cfg"
        cfg.write_text("n_r = 64\nn_phi = 65\nsamples = 33\ntol = 1e-9\n"
                       "eps_reg = 1e-7\nmax_iter = 10\nseed = 3\nout_dir = out\n")
        assert CliConfig.from_file(cfg) == CliConfig(64, 65, 33, 1e-9, 1e-7, 10, 3, "out")
        cfg.write_text("tol = abc\n")
        with pytest.raises(DomainError, match=r"all\.cfg:1: tol must be float, got 'abc'$"):
            CliConfig.from_file(cfg)

    def test_solver_defaults_are_the_problem_defaults(self):
        cfg, problem = CliConfig(), measure.MeasureProblem(nu=1.0, p=2.0)
        for name in ("n_r", "n_phi", "tol", "eps_reg", "max_iter"):
            assert getattr(cfg, name) == getattr(problem, name), name

    def test_missing_file_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "absent.cfg"
        code, _, err = run_cli(capsys, "measure", "--nu", "1", "--p", "2",
                               "--config", str(cfg), "--out-dir", str(tmp_path))
        assert code == 2
        assert f"{cfg}: cannot read config file" in err

    def test_flag_overrides_file(self, capsys, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("samples = 33\n")
        code, _, _ = run_cli(capsys, "profile", "--nu", "1", "--p", "2",
                             "--samples", "65", "--config", str(cfg),
                             "--out-dir", str(tmp_path))
        assert code == 0
        _, cols = read_profile_csv(tmp_path / "profile_1_2.csv")
        assert len(cols["phi"]) == 65

    def test_env_out_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PSECTOR_OUTDIR", str(tmp_path / "envdir"))
        code, _, _ = run_cli(capsys, "profile", "--nu", "1", "--p", "2")
        assert code == 0
        assert (tmp_path / "envdir" / "profile_1_2.csv").exists()

    def test_out_dir_precedence(self, capsys, tmp_path, monkeypatch):
        # flag, then $PSECTOR_OUTDIR, then the config file; an empty flag or
        # variable counts as unset
        cfg = tmp_path / "o.cfg"
        cfg.write_text(f"out_dir = {tmp_path / 'cfgdir'}\n")
        for flag, env, where in [(None, "", "cfgdir"), (None, "envdir", "envdir"),
                                 ("", "envdir", "envdir"), ("flagdir", "envdir", "flagdir")]:
            monkeypatch.setenv("PSECTOR_OUTDIR", env and str(tmp_path / env))
            out = [] if flag is None else ["--out-dir", flag and str(tmp_path / flag)]
            code, _, _ = run_cli(capsys, "profile", "--nu", "1", "--p", "2",
                                 "--config", str(cfg), *out)
            assert code == 0
            path = tmp_path / where / "profile_1_2.csv"
            assert path.exists(), (flag, env)
            path.unlink()

    def test_comments_and_blanks_in_config(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# a comment\n\nsamples = 33  # trailing\n")
        code, _, _ = run_cli(capsys, "profile", "--nu", "1", "--p", "2",
                             "--config", str(cfg), "--out-dir", str(tmp_path))
        assert code == 0
        _, cols = read_profile_csv(tmp_path / "profile_1_2.csv")
        assert len(cols["phi"]) == 33

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        cfg = tmp_path / "h.cfg"
        cfg.write_text("out_dir = cfgt/run#1\nseed = 4 #trailing\n\t# indented comment\n")
        cfg_read = CliConfig.from_file(cfg)
        assert (cfg_read.out_dir, cfg_read.seed) == ("cfgt/run#1", 4)


class TestDeterminism:
    def test_profile_csv_byte_identical(self, capsys, tmp_path):
        for sub in ("a", "b"):
            code, _, _ = run_cli(capsys, "profile", "--nu", "2", "--p", "1.5",
                                 "--out-dir", str(tmp_path / sub))
            assert code == 0
        a = (tmp_path / "a" / "profile_2_1.5.csv").read_bytes()
        b = (tmp_path / "b" / "profile_2_1.5.csv").read_bytes()
        assert a == b
