import numpy as np
import pytest

from psector import _kernels


SHAPES = [(40, 40), (35, 37), (33, 48), (48, 33)]


def random_system(n, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.random((n, n))
    u[0, :], u[-1, :], u[:, 0], u[:, -1] = 0.0, 1.0, 0.0, 0.0
    coef = [rng.random((n, n)) + 0.1 for _ in range(4)]
    return u, coef


def symmetric_system(shape, seed=0):
    """Random field and symmetric edge coefficients, as measure builds them."""
    n_r, n_phi = shape
    rng = np.random.default_rng(seed)
    u = rng.random(shape)
    u[0, :], u[-1, :], u[:, 0], u[:, -1] = 0.0, 1.0, 0.0, 0.0
    aW, aE, aS, aN = (np.zeros(shape) for _ in range(4))
    c_r = rng.random((n_r - 1, n_phi)) + 0.1
    c_a = rng.random((n_r, n_phi - 1)) + 0.1
    aE[:-1, :], aW[1:, :], aN[:, :-1], aS[:, 1:] = c_r, c_r, c_a, c_a
    return u, (aW, aE, aS, aN)


def reference_color(u, aW, aE, aS, aN, omega, color, rhs):
    # the original masked half-sweep: the update for both colours, then a
    # parity mask keeps one; the reference the strided kernels must match
    n_r, n_phi = u.shape
    nbr = aW[1:-1, 1:-1] * u[:-2, 1:-1] + aE[1:-1, 1:-1] * u[2:, 1:-1]
    nbr += aS[1:-1, 1:-1] * u[1:-1, :-2] + aN[1:-1, 1:-1] * u[1:-1, 2:]
    nbr += rhs[1:-1, 1:-1]
    s = (aW[1:-1, 1:-1] + aE[1:-1, 1:-1]) + (aS[1:-1, 1:-1] + aN[1:-1, 1:-1])
    ii, jj = np.indices((n_r - 2, n_phi - 2))
    mask = ((ii + jj) & 1) == color
    upd = u[1:-1, 1:-1] + omega * (nbr / s - u[1:-1, 1:-1])
    u[1:-1, 1:-1] = np.where(mask, upd, u[1:-1, 1:-1])


def reference_sweeps(u, coef, n, rhs, colors=(0, 1)):
    # Gauss-Seidel: the reference at omega 1
    for _ in range(n):
        for color in colors:
            reference_color(u, *coef, 1.0, color, rhs)
    return u


def test_sweep_solves_laplace():
    # unit-coefficient sweeps must converge to the 5-point harmonic solution;
    # Gauss-Seidel contracts by about cos(pi / 32)^2 a sweep at this size and
    # reaches 1e-12 after 2288 sweeps
    n = 33
    u = np.zeros((n, n))
    u[-1, :] = 1.0
    ones = np.ones((n, n))
    rhs = np.zeros_like(u)
    system = _kernels.sor_system(ones, ones, ones, ones)
    for _ in range(2600):
        _kernels.sor_sweep(u, system, rhs)
    # interior harmonic: each value is the mean of its 4 neighbors
    resid = np.abs(
        u[1:-1, 1:-1]
        - 0.25 * (u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:])
    )
    assert resid.max() <= 1e-12
    assert u.min() >= 0.0 and u.max() <= 1.0


def test_dirichlet_rows_untouched():
    cases = [random_system(20, seed=3)] + [symmetric_system(s) for s in SHAPES]
    for u, coef in cases:
        edges = (u[0, :].copy(), u[-1, :].copy(), u[:, 0].copy(), u[:, -1].copy())
        rhs = np.zeros_like(u)
        system = _kernels.sor_system(*coef)
        for _ in range(50):
            _kernels.sor_sweep(u, system, rhs)
        assert np.array_equal(u[0, :], edges[0])
        assert np.array_equal(u[-1, :], edges[1])
        assert np.array_equal(u[:, 0], edges[2])
        assert np.array_equal(u[:, -1], edges[3])


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_system_built_once_matches_reference(shape):
    u, coef = symmetric_system(shape, seed=1)
    rhs = np.zeros_like(u)
    v = u.copy()
    system = _kernels.sor_system(*coef)
    for _ in range(50):
        _kernels.sor_sweep(v, system, rhs)
    ref = reference_sweeps(u, coef, 50, rhs)
    assert np.isfinite(ref).all()
    assert np.array_equal(v, ref)


@pytest.mark.parametrize("colors", [(0, 1), (1, 0)])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_sweep_with_rhs_matches_reference(shape, colors):
    u, coef = symmetric_system(shape, seed=2)
    rhs = np.random.default_rng(3).standard_normal(shape)
    v = u.copy()
    system = _kernels.sor_system(*coef)
    for _ in range(50):
        _kernels.sor_sweep(v, system, rhs, colors)
    ref = reference_sweeps(u, coef, 50, rhs, colors)
    assert np.isfinite(ref).all()
    assert np.array_equal(v, ref)
