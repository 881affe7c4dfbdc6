import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psector.exponent import (
    DomainError,
    conjugate_exponent,
    dk_dnu,
    dk_dp,
    exponent_condition_residual,
    radial_exponent,
    radial_exponent_inf,
    radial_exponent_roots,
)
from psector.experiments import NU_GRID, P_GRID


def bisect_k(nu, p, tol=1e-14):
    """Independent oracle: solve the aperture condition by pure bisection."""
    a = (p - 1.0) / (p - 2.0)

    def aperture(k):
        ak = a * k
        return math.pi * (1.0 - (1.0 - 1.0 / k) * math.sqrt(ak) / math.sqrt(ak - 1.0))

    lo, hi = 1.0 / a + 1e-13, 1e9
    target = math.pi / nu
    assert aperture(lo) > target > aperture(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if aperture(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestClosedForm:
    def test_harmonic_case(self):
        for nu in [0.5, 0.75, 1.0, 1.5, 2.0, 4.0]:
            assert radial_exponent(nu, 2.0) == pytest.approx(nu, abs=1e-12)

    def test_half_plane(self):
        for p in [1.1, 1.5, 2.0, 3.0, 10.0]:
            assert radial_exponent(1.0, p) == pytest.approx(1.0, abs=1e-12)

    def test_slit_plane_limit(self):
        for p in [1.5, 2.0, 3.0, 10.0]:
            assert radial_exponent(0.5, p) == pytest.approx((p - 1) / p, abs=1e-12)

    def test_sup_case_piecewise(self):
        assert radial_exponent(0.5, math.inf) == 1.0
        assert radial_exponent(1.0, math.inf) == 1.0
        assert radial_exponent(2.0, math.inf) == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert radial_exponent(4.0, math.inf) == pytest.approx(16.0 / 7.0, abs=1e-12)

    def test_against_bisection_oracle(self):
        # frozen oracle values (200-step bisection on the aperture condition)
        assert radial_exponent(2.0, 3.0) == pytest.approx(1.7287135538781686, abs=1e-12)
        assert radial_exponent(2.0, 4.0) == pytest.approx(1.62283903060711, abs=1e-12)
        for nu, p in [(0.75, 3.0), (1.5, 6.0), (3.0, 2.5), (0.51, 3.0)]:
            assert radial_exponent(nu, p) == pytest.approx(bisect_k(nu, p), abs=1e-11)

    def test_large_p_approaches_sup_case(self):
        for nu in (0.5, 1.0, 2.0, 4.0):
            assert abs(radial_exponent(nu, 1e6) - radial_exponent_inf(nu)) <= 1e-4

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            radial_exponent(0.4, 3.0)
        with pytest.raises(DomainError):
            radial_exponent(1.0, 1.0)
        with pytest.raises(DomainError):
            radial_exponent(1.0, 0.5)

    def test_k_near_half(self):
        # k1's closed-form numerator cancels to O(2 nu - 1) here; references
        # from a 60-digit evaluation of the same closed form
        for nu, p, ref in ((0.5000000101, 1.0001, 9.9990009077465767723e-5),
                           (0.50000002, 1.001, 9.9900115852186011596e-4),
                           (0.500001, 1.001, 9.9900897508058635959e-4)):
            assert radial_exponent(nu, p) == pytest.approx(ref, rel=1e-12)


class TestRoots:
    def test_k1_equals_selected_branch(self):
        k1, _ = radial_exponent_roots(2.0, 4.0)
        assert k1 == radial_exponent(2.0, 4.0)

    def test_frozen_pair(self):
        k1, k2 = radial_exponent_roots(2.0, 4.0)
        assert k1 == pytest.approx(1.6228390306071099, abs=1e-12)
        assert k2 == pytest.approx(0.8216054138373345, abs=1e-12)

    def test_k2_no_cancellation_above_one(self):
        # the conjugate root's numerator cancels for nu > 1; references from
        # a 60-digit evaluation of k2 = n / (2 (p-1) (2 nu - 1))
        for nu, p, ref in ((1e4, 1.0001, 1.0000999799978906659e-4),
                           (100.0, 1.001, 1.0192434387205355932e-3),
                           (10.0, 1.01, 1.2167272515864353131e-2)):
            assert radial_exponent_roots(nu, p)[1] == pytest.approx(ref, rel=1e-12)

    def test_product_identity(self):
        # both roots of the defining quadratic multiply to nu^2/(2 nu - 1)
        for nu, p in [(2.0, 4.0), (0.75, 3.0), (1.3, 10.0), (4.0, 2.5)]:
            k1, k2 = radial_exponent_roots(nu, p)
            assert k1 * k2 == pytest.approx(nu * nu / (2 * nu - 1), rel=1e-12)

    def test_p_to_2_limits(self):
        # k1 -> nu and k2 -> nu/(2 nu - 1), the true root limits of the
        # quadratic (see the decisions ledger for the source discrepancy)
        k1, k2 = radial_exponent_roots(2.0, 2.0 + 1e-9)
        assert k1 == pytest.approx(2.0, abs=1e-8)
        assert k2 == pytest.approx(2.0 / 3.0, abs=1e-8)
        k1, k2 = radial_exponent_roots(0.75, 2.0 + 1e-9)
        assert k1 == pytest.approx(0.75, abs=1e-8)
        assert k2 == pytest.approx(1.5, abs=1e-8)

    def test_roots_continuous_through_p2(self):
        k1, k2 = radial_exponent_roots(2.0, 2.0)
        assert k1 == pytest.approx(2.0, abs=1e-14)
        assert k2 == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_roots_reject_edge_cases(self):
        with pytest.raises(DomainError):
            radial_exponent_roots(0.5, 3.0)
        with pytest.raises(DomainError):
            radial_exponent_roots(2.0, math.inf)

    def test_roots_solve_the_quadratic(self):
        for nu, p in [(2.0, 4.0), (0.75, 3.0), (4.0, 2.5)]:
            a = (p - 1) / (p - 2)
            m = (nu - 1) ** 2 / nu**2
            for k in radial_exponent_roots(nu, p):
                assert a * (1 - m) * k * k + (m - 2 * a) * k + a == pytest.approx(
                    0.0, abs=1e-10
                )


class TestConditionResidual:
    def test_zero_at_root(self):
        k = radial_exponent(2.0, 3.0)
        assert abs(exponent_condition_residual(k, 2.0, 3.0)) <= 1e-10

    def test_p2_limit(self):
        assert exponent_condition_residual(1.5, 1.5, 2.0 + 1e-9) == pytest.approx(
            0.0, abs=1e-8
        )

    def test_nonzero_off_root(self):
        k = radial_exponent(2.0, 3.0)
        assert abs(exponent_condition_residual(1.1 * k, 2.0, 3.0)) > 1e-3

    def test_requires_ak_above_one(self):
        with pytest.raises(DomainError):
            exponent_condition_residual(0.1, 2.0, 3.0)

    def test_grid_self_consistency(self):
        for nu in NU_GRID:
            for p in P_GRID:
                if p > 2.0:
                    res = exponent_condition_residual(radial_exponent(nu, p), nu, p)
                elif p < 2.0:
                    pc = conjugate_exponent(p)
                    k_conj = (radial_exponent(nu, p) - 1.0) * (p - 1.0) + 1.0
                    res = exponent_condition_residual(k_conj, nu, pc)
                else:
                    res = exponent_condition_residual(nu, nu, 2.0 + 1e-10)
                assert abs(res) <= 1e-9, (nu, p, res)

    def test_ak_exceeds_one_for_p_above_2(self):
        for p in (3.0, 4.0, 10.0, 100.0):
            a = (p - 1) / (p - 2)
            ak = a * radial_exponent(0.5, p)
            assert ak == pytest.approx(1.0 + 1.0 / (p * p - 2 * p), rel=1e-10)
            for nu in NU_GRID:
                assert a * radial_exponent(nu, p) > 1.0


class TestDerivatives:
    def test_dk_dnu_harmonic(self):
        assert dk_dnu(1.0, 2.0) == 1.0

    def test_dk_dnu_matches_differences(self):
        h = 1e-6
        for nu, p in [(2.0, 3.0), (0.75, 3.0), (1.5, 1.5), (4.0, 10.0)]:
            num = (radial_exponent(nu + h, p) - radial_exponent(nu - h, p)) / (2 * h)
            assert dk_dnu(nu, p) == pytest.approx(num, rel=1e-6)

    def test_dk_dnu_sup_case(self):
        # piecewise derivative of the sup-norm form
        assert dk_dnu(0.8, math.inf) == 0.0
        val = dk_dnu(1.2, math.inf)
        assert val == pytest.approx((2 * 1.2**2 - 2 * 1.2) / (2 * 1.2 - 1) ** 2, rel=1e-12)
        h = 1e-6
        num = (radial_exponent_inf(1.2 + h) - radial_exponent_inf(1.2 - h)) / (2 * h)
        assert val == pytest.approx(num, rel=1e-6)

    def test_dk_dnu_nonnegative(self):
        for nu in (0.51, 0.75, 1.0, 2.0, 4.0):
            for p in (1.1, 1.5, 2.0, 3.0, 10.0, math.inf):
                assert dk_dnu(nu, p) >= 0.0

    def test_dk_dnu_near_half(self):
        # the closed form's numerator cancels as nu -> 1/2 and read 0.39 off
        # the first value; references from a 60-digit derivative of k
        for nu, p, ref in ((0.500001, 1000.0, 7.9920636807964006318e-6),
                           (0.500001, 1.01, 0.077647808656894891435),
                           (0.5001, 100.0, 7.9260876527901403573e-4)):
            assert dk_dnu(nu, p) == pytest.approx(ref, rel=1e-9)

    def test_dk_dnu_raises_at_half(self):
        with pytest.raises(DomainError):
            dk_dnu(0.5, 3.0)

    def test_dk_dp_signs(self):
        assert dk_dp(1.0, 3.0) == 0.0
        assert dk_dp(0.75, 3.0) > 0.0
        assert dk_dp(2.0, 3.0) < 0.0

    def test_dk_dp_matches_differences(self):
        h = 1e-6
        for nu, p in [(2.0, 3.0), (0.75, 3.0), (0.6, 1.5), (4.0, 10.0)]:
            num = (radial_exponent(nu, p + h) - radial_exponent(nu, p - h)) / (2 * h)
            assert dk_dp(nu, p) == pytest.approx(num, rel=1e-6)

    def test_dk_dp_limit_at_half(self):
        for p in (1.5, 3.0, 10.0):
            assert dk_dp(0.5, p) == pytest.approx(1.0 / (p * p), rel=1e-12)

    def test_dk_dp_finite_only(self):
        with pytest.raises(DomainError):
            dk_dp(2.0, math.inf)


class TestConjugacy:
    def test_stream_exponent_identity(self):
        for nu in (0.6, 1.0, 2.0, 4.0):
            for q in (1.1, 1.2, 1.5, 1.9):
                p = conjugate_exponent(q)
                lam = (p - 1.0) * (radial_exponent(nu, p) - 1.0) + 1.0
                assert lam == pytest.approx(radial_exponent(nu, q), abs=1e-10)

    def test_conjugate_exponent(self):
        assert conjugate_exponent(2.0) == 2.0
        assert conjugate_exponent(1.5) == 3.0
        assert conjugate_exponent(math.inf) == 1.0


@settings(max_examples=200, deadline=None)
@given(
    nu=st.floats(0.5, 6.0),
    p=st.floats(1.05, 60.0),
)
def test_property_positive_and_consistent(nu, p):
    k = radial_exponent(nu, p)
    assert k > 0.0
    if p > 2.01:
        assert abs(exponent_condition_residual(k, nu, p)) <= 1e-8


@settings(max_examples=100, deadline=None)
@given(
    nu=st.floats(0.5, 6.0),
    dnu=st.floats(1e-4, 1.0),
    p=st.floats(1.05, 60.0),
)
def test_property_monotone_in_nu(nu, dnu, p):
    assert radial_exponent(nu + dnu, p) >= radial_exponent(nu, p) - 1e-12
