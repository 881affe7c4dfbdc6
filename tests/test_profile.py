import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psector import profile, verify
from psector.exponent import DomainError, radial_exponent
from psector.verify import PROFILE_CASES
from psector.profile import (
    CASE_GT2,
    CASE_INF,
    CASE_LT2,
    CASE_P2,
    AngleMap,
    AngleMapEvaluator,
    ClosedFormEvaluator,
    PlateauEvaluator,
    PolarPoint,
    StreamEvaluator,
    build_profile,
    eval_u,
    phi_of_theta,
    read_profile_csv,
    theta_of_phi,
    write_profile_csv,
)

GRID = [(nu, p) for nu in (0.5, 1.0, 2.0, 4.0) for p in (1.5, 2.0, 3.0, 4.0, math.inf)]


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.fixture(scope="module")
def amap23():
    return AngleMap.for_params(2.0, 3.0)


class TestAngleMap:
    def test_odd(self, amap23):
        assert phi_of_theta(0.0, amap23) == 0.0
        assert phi_of_theta(-0.7, amap23) == -phi_of_theta(0.7, amap23)

    def test_boundary_quarter(self, amap23):
        # theta = pi/2 lands on the sector side pi/(2 nu)
        assert phi_of_theta(math.pi / 2, amap23) == pytest.approx(math.pi / 4, abs=1e-14)

    def test_extended_endpoint(self, amap23):
        assert phi_of_theta(math.pi, amap23) == math.pi / 2.0

    def test_frozen_quadrature_value(self, amap23):
        # adaptive quadrature of (a - cos^2)/(ak - cos^2) from 0 to pi/4
        assert phi_of_theta(math.pi / 4, amap23) == pytest.approx(
            0.3502286259530345, abs=1e-13
        )

    def test_quadrature_equivalence(self, amap23):
        from scipy.integrate import quad

        a, k = amap23.a, amap23.k
        for th in (-math.pi / 2, -3 * math.pi / 8, -math.pi / 4, -math.pi / 8,
                   math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2):
            val, _ = quad(
                lambda t: (a - math.cos(t) ** 2) / (a * k - math.cos(t) ** 2),
                0.0, th, epsabs=1e-13, epsrel=1e-13,
            )
            assert phi_of_theta(th, amap23) == pytest.approx(val, abs=1e-8)

    def test_slope_identity(self, amap23):
        # d(phi)/d(theta) = (a - cos^2)/(ak - cos^2)
        h = 1e-6
        for th in (-1.2, -0.4, 0.3, 0.9, 1.5):
            num = (phi_of_theta(th + h, amap23) - phi_of_theta(th - h, amap23)) / (2 * h)
            c2 = math.cos(th) ** 2
            assert num == pytest.approx(
                (amap23.a - c2) / (amap23.ak - c2), abs=1e-7
            )

    def test_inverse_contract(self):
        amap = AngleMap.for_params(1.0, 4.0)
        th = theta_of_phi(0.3, amap)
        assert abs(phi_of_theta(th, amap) - 0.3) <= 1e-12

    def test_inverse_runs_a_fixed_step_count(self, amap23, monkeypatch):
        # every inversion costs BISECT_STEPS map evaluations, wherever phi lies
        calls = []
        phi_map = profile._phi_map

        def counted(amap):
            fn = phi_map(amap)

            def wrapped(theta):
                calls.append(1)
                return fn(theta)

            return wrapped

        monkeypatch.setattr(profile, "_phi_map", counted)
        counts = []
        for frac in (0.001, 0.01, 0.3, 0.5, 0.7):
            calls.clear()
            theta_of_phi(frac * math.pi / 4.0, amap23)
            counts.append(len(calls))
        assert counts == [profile.BISECT_STEPS] * 5

    def test_inverse_domain(self, amap23):
        with pytest.raises(DomainError):
            theta_of_phi(math.pi / 2 + 0.1, amap23)

    def test_map_requires_ak_above_one(self):
        with pytest.raises(DomainError):
            AngleMap.for_params(0.75, math.inf)


class TestEvaluators:
    def test_normalization_and_boundary(self):
        prof = build_profile(2.0, 3.0, 129)
        assert prof.f_exact(0.0) == pytest.approx(1.0, abs=1e-14)
        assert abs(prof.f_exact(math.pi / 4)) <= 1e-9
        assert prof.fprime_exact(0.0) == 0.0

    def test_fprime_at_boundary_is_minus_kc(self):
        # theta = pi/2 there, so f' = -k c (the (1 - cos^2/ak) factor is 1)
        prof = build_profile(2.0, 3.0, 129)
        assert prof.fprime_exact(math.pi / 4) == pytest.approx(
            -prof.k * prof.c, rel=1e-9
        )

    def test_f_matches_ode_shooting_oracle(self):
        # frozen solve_ivp integrations of the separation ODE from f(0)=1, f'(0)=0
        prof = build_profile(1.0, 3.0, 129)
        assert prof.f_exact(0.4) == pytest.approx(0.9210609940028637, abs=1e-10)
        assert prof.fprime_exact(0.4) == pytest.approx(-0.389418342308642, abs=1e-10)
        prof = build_profile(2.0, 4.0, 129)
        assert prof.f_exact(0.3) == pytest.approx(0.8094787606759469, abs=1e-10)

    def test_fprime_matches_differences(self):
        h = 1e-6
        for nu, p in [(2.0, 3.0), (1.0, 4.0), (2.0, math.inf), (2.0, 1.5)]:
            prof = build_profile(nu, p, 129)
            alpha = prof.half_aperture
            phis = np.linspace(-alpha * 0.9, alpha * 0.9, 50)
            nums = (prof.f_exact(phis + h) - prof.f_exact(phis - h)) / (2 * h)
            for phi, num, fp in zip(phis, nums, prof.fprime_exact(phis)):
                if p == math.inf and abs(phi) < 0.01:
                    continue  # ridge
                assert fp == pytest.approx(
                    num, rel=1e-5, abs=1e-7
                ), (nu, p, phi)

    def test_p2_closed_form(self):
        prof = build_profile(2.0, 2.0)
        assert (prof.f_exact(0.0), prof.fprime_exact(0.0)) == (1.0, 0.0)
        assert prof.f_exact(math.pi / 4) == pytest.approx(0.0, abs=1e-16)
        assert prof.fprime_exact(math.pi / 4) == pytest.approx(-2.0)
        assert prof.f_exact(math.pi / 8) == pytest.approx(math.sqrt(2) / 2)
        assert prof.fprime_exact(math.pi / 8) == pytest.approx(-math.sqrt(2))

    @pytest.mark.parametrize("nu, p", PROFILE_CASES)
    def test_table_is_evaluator_at_nodes(self, nu, p):
        # the table is one array call; a float runs through the same array
        # code, so each scalar result equals the table entry bit for bit
        prof = build_profile(nu, p, 129)
        scalar = [prof.evaluator.eval(x) for x in prof.phi]
        for i, vals in enumerate(scalar):
            assert (prof.f[i], prof.fprime[i], prof.theta[i]) == vals
        assert np.array_equal(_bits(scalar),
                              _bits(np.stack([prof.f, prof.fprime, prof.theta], axis=1)))


class TestArrayPath:
    """A float goes through the same array code as a whole grid, so each
    scalar result equals the array element bit for bit (for the table, see
    TestEvaluators.test_table_is_evaluator_at_nodes)."""

    @pytest.mark.parametrize("nu, p", [(nu, p) for nu, p in PROFILE_CASES
                                       if p != 2.0 and (p < math.inf or nu >= 1.0)])
    def test_scalar_map_is_array_element(self, nu, p):
        # each function on its documented domain: theta_of_phi on
        # |phi| <= pi/nu, phi_of_theta on the image, the angle-map eval on
        # |phi| <= pi/nu and the stream's pair on [-pi/(2 nu), pi/nu]
        ev = build_profile(nu, p, 17).evaluator
        amap, rng = ev.amap, np.random.default_rng(7)
        bound = math.pi / amap.nu
        xs = rng.uniform(-bound, bound, 10)
        cases = [(lambda x: theta_of_phi(x, amap), xs),
                 (lambda t: phi_of_theta(t, amap), theta_of_phi(xs, amap)),
                 (ev.pair, rng.uniform(-bound / 2, bound, 10)) if p < 2.0 else (ev.eval, xs)]
        for i, (fn, arg) in enumerate(cases):
            scalar = [fn(x) for x in arg.tolist()]
            assert np.array_equal(_bits(scalar), _bits(np.stack(fn(arg), axis=-1))), i

    @pytest.mark.parametrize("nu, p", [(2.0, 3.0), (4.0, 3.0), (2.0, math.inf), (0.5, 3.0)])
    def test_theta_is_odd_on_arrays(self, nu, p):
        amap = AngleMap.for_params(nu, p)
        a = np.linspace(0.0, math.pi / nu, 257)
        assert np.array_equal(_bits(theta_of_phi(-a, amap)), _bits(-theta_of_phi(a, amap)))

    def test_one_bad_element_raises(self):
        amap = AngleMap.for_params(2.0, 3.0)
        with pytest.raises(DomainError):
            theta_of_phi(np.array([0.1, -0.2, math.pi / 2 + 0.1]), amap)
        with pytest.raises(DomainError):
            phi_of_theta(np.array([0.1, -3.2]), amap)
        for nu, p in [(2.0, 3.0), (0.75, math.inf), (2.0, 1.5)]:
            ev = build_profile(nu, p, 17).evaluator
            phi = np.linspace(-1.0, 1.0, 9) * math.pi / (2.0 * nu)
            phi[3] = 2.5 * math.pi / nu
            with pytest.raises(DomainError):
                ev.eval(phi)

    def test_stream_peak_is_one(self):
        # f(0) = g(alpha)/g_max reads exactly 1, alone and inside a grid
        ev = build_profile(4.0, 1.5, 17).evaluator
        assert ev.eval(0.0)[0] == 1.0
        assert ev.eval(np.linspace(-0.3, 0.3, 7))[0][3] == 1.0


class TestRoundTripCheck:
    def test_an_offset_inverse_fails(self, monkeypatch):
        # profile_suite checks theta_of_phi itself on [-pi/nu, pi/nu]: the
        # exact inverse passes, one shifted by 1e-9 fails
        def crit():
            [rep] = verify.profile_suite()
            return next(c for c in rep.criteria if c["name"] == "angle-map round trip")

        assert crit()["passed"]
        monkeypatch.setattr(verify, "theta_of_phi",
                            lambda phi, amap: theta_of_phi(phi, amap) + 1e-9)
        assert crit() == {"name": "angle-map round trip", "passed": False,
                          "detail": "max |phi - phi'| = 4.00e-09"}


class TestBuildProfile:
    def test_case_dispatch(self, tmp_path):
        for nu, p, kind, label in [
            (1.0, 2.0, ClosedFormEvaluator, CASE_P2),
            (1.0, 3.0, AngleMapEvaluator, CASE_GT2),
            (1.0, math.inf, AngleMapEvaluator, CASE_INF),
            (0.5, math.inf, PlateauEvaluator, CASE_INF),
            (1.0, 1.5, StreamEvaluator, CASE_LT2),
        ]:
            prof = build_profile(nu, p, 65)
            assert type(prof.evaluator) is kind
            write_profile_csv(prof, tmp_path / "prof.csv")
            assert read_profile_csv(tmp_path / "prof.csv")[0]["case"] == label

    def test_harmonic_profile_is_cosine(self):
        prof = build_profile(1.0, 2.0, 65)
        assert np.allclose(prof.f, np.cos(prof.phi), atol=1e-15)
        assert prof.k == 1.0

    def test_sup_norm_half_plane(self):
        prof = build_profile(1.0, math.inf, 65)
        assert prof.k == 1.0
        assert np.allclose(prof.f, np.cos(prof.phi), atol=1e-12)

    def test_sup_norm_wide_sector_plateau(self):
        prof = build_profile(0.5, math.inf, 129)
        assert prof.k == 1.0
        inner = np.abs(prof.phi) <= math.pi / 2 - 1e-9
        assert np.all(prof.f[inner] == 1.0)
        outer = np.abs(prof.phi) > math.pi / 2
        assert np.allclose(prof.f[outer], np.sin(math.pi - np.abs(prof.phi[outer])),
                           atol=1e-14)

    def test_stream_case(self):
        prof = build_profile(2.0, 1.5, 129)
        assert prof.k == pytest.approx(radial_exponent(2.0, 1.5), abs=1e-12)
        assert abs(prof.f_exact(math.pi / 4)) <= 1e-8
        assert abs(prof.f_exact(-math.pi / 4)) <= 1e-8
        assert prof.f_exact(0.0) == pytest.approx(1.0, abs=1e-14)

    def test_invariants_across_grid(self):
        for nu, p in GRID:
            prof = build_profile(nu, p, 65)
            i0 = len(prof.phi) // 2
            assert prof.f[i0] == pytest.approx(1.0, abs=1e-12)
            assert abs(prof.fprime[i0]) <= 1e-9
            assert prof.boundary_residual <= 1e-9
            assert prof.f.min() >= -1e-12 and prof.f.max() <= 1.0 + 1e-12
            assert np.max(np.abs(prof.f - prof.f[::-1])) <= 1e-10
            assert np.max(np.abs(prof.fprime + prof.fprime[::-1])) <= 1e-10
            assert prof.band_inner_min_f > 0.0
            assert prof.band_outer_min_fprime > 0.0
            assert np.max(np.diff(prof.f[i0:])) <= 1e-12  # nonincreasing

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError, match="nu must be >= 0.5, got 0.4"):
            build_profile(0.4, 3.0)
        with pytest.raises(DomainError, match="nu must be >= 0.5, got nan"):
            build_profile(math.nan, 3.0)
        with pytest.raises(DomainError, match="p must be finite > 1 or inf, got 1.0"):
            build_profile(1.0, 1.0)
        with pytest.raises(DomainError, match="p must be finite > 1 or inf, got nan"):
            build_profile(1.0, math.nan)
        with pytest.raises(DomainError):
            build_profile(1.0, 3.0, 8)

    def test_p_near_2_uses_closed_form(self):
        prof = build_profile(1.5, 2.0 + 1e-9, 65)
        assert type(prof.evaluator) is ClosedFormEvaluator and prof.p == 2.0


class TestEvalU:
    def test_normalized_at_unit(self):
        prof = build_profile(2.0, 3.0, 129)
        assert eval_u(PolarPoint(1.0, 0.0), prof) == pytest.approx(1.0, abs=1e-12)

    def test_radial_scaling(self):
        prof = build_profile(1.0, 2.0, 129)
        assert eval_u(PolarPoint(2.0, 0.0), prof) == pytest.approx(2.0, abs=1e-12)

    def test_exact_between_nodes(self):
        # phi = 0.3 is no node of the 17-sample table; u = r^2 cos(2 phi) at p = 2
        prof = build_profile(2.0, 2.0, 17)
        assert 0.3 not in prof.phi
        assert eval_u(PolarPoint(0.5, 0.3), prof) == pytest.approx(
            0.25 * math.cos(0.6), rel=1e-15)

    def test_outside_sector(self):
        prof = build_profile(2.0, 3.0, 129)
        with pytest.raises(DomainError):
            eval_u(PolarPoint(1.0, 1.0), prof)

    def test_polar_point_validation(self):
        with pytest.raises(DomainError):
            PolarPoint(0.0, 0.0)
        with pytest.raises(DomainError):
            PolarPoint(1.0, 4.0)


class TestCsv:
    def test_round_trip(self, tmp_path):
        prof = build_profile(2.0, 1.5, 65)
        path = tmp_path / "prof.csv"
        write_profile_csv(prof, path)
        meta, cols = read_profile_csv(path)
        assert meta["case"] == CASE_LT2
        assert float(meta["nu"]) == 2.0
        assert float(meta["k"]) == prof.k
        assert np.array_equal(cols["f"], prof.f)
        assert np.array_equal(cols["fprime"], prof.fprime)

    def test_inf_header(self, tmp_path):
        prof = build_profile(2.0, math.inf, 65)
        path = tmp_path / "prof_inf.csv"
        write_profile_csv(prof, path)
        meta, _ = read_profile_csv(path)
        assert meta["p"] == "inf"


@settings(max_examples=30, deadline=None)
@given(
    nu=st.floats(0.5, 4.0),
    p=st.floats(2.05, 30.0),
    phi_frac=st.floats(-0.999, 0.999),
)
def test_property_round_trip(nu, p, phi_frac):
    amap = AngleMap.for_params(nu, p)
    phi = phi_frac * math.pi / (2.0 * nu)
    th = theta_of_phi(phi, amap)
    assert abs(phi_of_theta(th, amap) - phi) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(nu=st.floats(0.5, 4.0), p=st.floats(1.05, 1.95))
def test_property_stream_profile_valid(nu, p):
    prof = build_profile(nu, p, 33)  # build_profile validates all invariants
    assert type(prof.evaluator) is StreamEvaluator
    assert prof.k == pytest.approx(radial_exponent(nu, p), abs=1e-10)
