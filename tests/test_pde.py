import math

import numpy as np
import pytest

from psector import verify
from psector.exponent import DomainError
from psector.pde import (
    RIDGE_BAND_EPS,
    ResidualReport,
    inf_lap_residual,
    polar_plap_residual,
    polar_residual_report,
    profile_corner_bands,
    separation_report,
    separation_residual,
)
from psector.profile import PolarPoint, build_profile
from psector.verify import PROFILE_CASES


class TestSeparationResidual:
    def test_zero_state(self):
        assert separation_residual(0.0, 0.0, 0.0, 1.5, 3.0) == 0.0

    def test_built_profile_satisfies_ode(self):
        # spec-level spot check: tabulated (f, f', numeric f'') of a built
        # profile solves its own separation equation
        prof = build_profile(1.0, 4.0, 257)
        h = float(prof.phi[1] - prof.phi[0])
        i = len(prof.phi) // 3
        fpp = (prof.f[i + 1] - 2 * prof.f[i] + prof.f[i - 1]) / (h * h)
        r = separation_residual(prof.f[i], prof.fprime[i], fpp, prof.k, 4.0,
                                relative=True)
        assert abs(r) <= 1e-4

    def test_inf_is_b0_form(self):
        # p = inf takes b = 1/(p-2) = 0, bitwise the sup-norm equation
        # f'^2 f'' + (2k - 1) k f f'^2 + (k - 1) k^3 f^3
        for f, fp, fpp, k in ((0.8, -0.3, -1.7, 1.4), (-0.2, 1.1, 0.6, 1.0),
                              (0.5, 0.0, -2.0, 2.5)):
            terms = (fp * fp * fpp, (2.0 * k - 1.0) * k * f * fp * fp,
                     (k - 1.0) * k**3 * f**3)
            assert separation_residual(f, fp, fpp, k, math.inf) == sum(terms)
            scale = max(max(abs(t) for t in terms), 1e-300)
            assert separation_residual(f, fp, fpp, k, math.inf, relative=True) == sum(terms) / scale

    def test_p2_is_harmonic_balance(self):
        # f'' is 10% off the balance, so the residual is not zero
        nu, phi = 2.0, 0.35
        f, fp, fpp = math.cos(nu * phi), -nu * math.sin(nu * phi), -0.9 * nu * nu * math.cos(nu * phi)
        assert separation_residual(f, fp, fpp, nu, 2.0) == fpp + nu**2 * f
        assert separation_residual(f, fp, fpp, nu, 2.0, relative=True) == (
            (fpp + nu**2 * f) / max(abs(fpp), abs(nu**2 * f)))


class TestInfSeparationResidual:
    def test_zero_state(self):
        assert separation_residual(0.0, 0.0, 0.0, 1.0, math.inf) == 0.0

    def test_half_plane_profile(self):
        # k = 1 reduces the equation to f'^2 (f'' + f); cosine is exact
        phi = 0.7
        f, fp, fpp = math.cos(phi), -math.sin(phi), -math.cos(phi)
        assert separation_residual(f, fp, fpp, 1.0, math.inf) == pytest.approx(0.0, abs=1e-16)

    def test_built_sup_profiles(self):
        for nu in (1.0, 2.0):
            prof = build_profile(nu, math.inf, 257)
            rep = separation_report(prof)
            assert rep.max_abs_residual <= 1e-4, (nu, rep.max_abs_residual)


class TestPolarResidual:
    def test_constant_field(self):
        res = polar_plap_residual(lambda r, f: 5.0, PolarPoint(1.0, 0.1), 3.0, 1e-3)
        assert res == 0.0

    def test_harmonic_field_laplace_form(self):
        nu = 2.0
        fld = lambda r, f: r**nu * np.cos(nu * f)  # noqa: E731
        res = polar_plap_residual(fld, PolarPoint(1.0, 0.2), 2.0, 1e-4, relative=True)
        assert abs(res) <= 1e-6

    def test_constructed_solution(self):
        prof = build_profile(2.0, 3.0, 257)
        fld = lambda r, f: r**prof.k * prof.f_exact(f)  # noqa: E731
        res = polar_plap_residual(fld, PolarPoint(1.0, 0.2), 3.0, 1e-3)
        assert abs(res) <= 1e-4

    def test_stencil_samples_nine_points(self):
        # each field residual samples the 9-point stencil once per point
        calls = []

        def fld(a, b):
            calls.extend(zip(np.ravel(a).tolist(), np.ravel(b).tolist()))
            return 1.0 + a * a * b

        polar_plap_residual(fld, PolarPoint(1.0, 0.1), 3.0, 1e-3)
        inf_lap_residual(fld, (0.5, 0.1), 1e-3)
        polar_plap_residual(fld, PolarPoint(1.0, 0.1), 2.0, 1e-3)
        assert len(calls) == 27
        assert len(set(calls[:9])) == len(set(calls[9:18])) == len(set(calls[18:])) == 9

    def test_rejects_infinite_p(self):
        with pytest.raises(DomainError, match="needs finite p"):
            polar_plap_residual(lambda r, f: r, PolarPoint(1.0, 0.0), math.inf, 1e-3)

    def test_stencil_bounds(self):
        with pytest.raises(DomainError):
            polar_plap_residual(lambda r, f: r, PolarPoint(1e-4, 0.0), 3.0, 1e-3)


class TestInfLapResidual:
    def test_affine_field(self):
        res = inf_lap_residual(lambda x, y: 2 * x - 3 * y + 1, (0.5, 0.1), 1e-3)
        assert res == pytest.approx(0.0, abs=1e-12)

    def test_cone_field(self):
        x0, y0 = -0.3, 0.4
        fld = lambda x, y: np.hypot(x - x0, y - y0)  # noqa: E731
        for step in (1e-3, 5e-4):
            res = inf_lap_residual(fld, (0.5, 0.1), step, relative=True)
            assert abs(res) <= 1e-6

    def test_sup_profile_field(self):
        prof = build_profile(1.0, math.inf, 257)

        def fld(x, y):
            return np.hypot(x, y) ** prof.k * prof.f_exact(np.arctan2(y, x))

        pt = (math.cos(0.5), math.sin(0.5))
        assert abs(inf_lap_residual(fld, pt, 1e-3, relative=True)) <= 1e-3


PROFILE_SET = [(1.0, 3.0), (2.0, 3.0), (2.0, 4.0), (0.75, 3.0), (2.0, 1.5),
               (0.5, 1.5), (1.0, math.inf), (2.0, math.inf), (0.5, math.inf)]


class TestReports:
    def test_separation_bound_across_profiles(self):
        for nu, p in PROFILE_SET:
            prof = build_profile(nu, p, 257)
            rep = separation_report(prof)
            assert rep.max_abs_residual <= 1e-3, (nu, p, rep.max_abs_residual)

    def test_field_bound_across_profiles(self):
        for nu, p in PROFILE_SET:
            prof = build_profile(nu, p, 257)
            rep = polar_residual_report(prof, 100)
            assert rep.max_abs_residual <= 1e-3, (nu, p, rep.max_abs_residual)
            assert rep.sample_count >= 80

    def test_plateau_corner_separation_order(self):
        # (0.6, inf) has a plateau corner whose band is narrower than the
        # table step at 1025 samples; a stencil straddling it read 0.32.
        # With whole stencils kept out of the bands the residual is O(h^2)
        res = {}
        for n in (129, 257, 1025):
            prof = build_profile(0.6, math.inf, n)
            res[n] = (float(prof.phi[1] - prof.phi[0]),
                      separation_report(prof).max_abs_residual)
        for coarse, fine in ((129, 257), (257, 1025)):
            (hc, rc), (hf, rf) = res[coarse], res[fine]
            assert 0.75 <= (rc / rf) / (hc / hf) ** 2 <= 1.25, (coarse, fine, rc, rf)
        assert res[1025][1] <= 1e-5

    def test_step_halving_order(self):
        prof = build_profile(2.0, 3.0, 257)
        r1 = polar_residual_report(prof, 20, step=1e-3).max_abs_residual
        r2 = polar_residual_report(prof, 20, step=5e-4).max_abs_residual
        assert 3.0 <= r1 / r2 <= 5.0

    def test_corner_bands(self):
        assert profile_corner_bands(build_profile(2.0, 3.0, 65)) == []
        ridge = profile_corner_bands(build_profile(2.0, math.inf, 65))
        assert len(ridge) == 1 and ridge[0][0] < 0 < ridge[0][1]
        plateau = profile_corner_bands(build_profile(0.5, math.inf, 65))
        assert len(plateau) == 2
        # f = cos(phi) is smooth at nu = 1, but the p = inf angle map keeps
        # its ridge band, on which the reports' sample counts depend
        half_plane = profile_corner_bands(build_profile(1.0, math.inf, 65))
        assert half_plane == [(-RIDGE_BAND_EPS, RIDGE_BAND_EPS)]

    def test_table_is_exact_profile(self):
        # separation_report's ridge difference takes f[i] for f_exact(phi[i]);
        # a scalar f_exact equals the array element (tests/test_profile.py)
        for nu, p in PROFILE_CASES:
            for n in (129, 1025):
                prof = build_profile(nu, p, n)
                exact = prof.f_exact(prof.phi)
                assert np.array_equal(prof.f, exact), (nu, p, n)

    def test_report_validation(self):
        with pytest.raises(ValueError):
            ResidualReport(-1.0, 10)
        with pytest.raises(ValueError):
            ResidualReport(0.0, 0)


class TestPdeSuite:
    @pytest.mark.parametrize("quick, cases", [(False, 8), (True, 3)])
    def test_separation_checked_on_every_case(self, monkeypatch, quick, cases):
        calls = []

        def counted(prof, n):
            calls.append((prof.nu, prof.p))
            return separation_report(prof, n)

        monkeypatch.setattr(verify, "separation_report", counted)
        [rep] = verify.pde_suite(quick)
        assert rep.passed, rep.first_failure()
        # one report per case, the p = inf cases included
        assert len(calls) == cases
        assert math.inf in [p for _, p in calls]
