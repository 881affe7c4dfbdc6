import numpy as np
import pytest

from psector import _kernels


SHAPES = [(40, 40), (35, 37), (33, 48), (48, 33)]


def symmetric_system(shape, seed=0):
    """Random field and edge coefficients cE, cN, as measure builds them."""
    n_r, n_phi = shape
    rng = np.random.default_rng(seed)
    u = rng.random(shape)
    u[0, :], u[-1, :], u[:, 0], u[:, -1] = 0.0, 1.0, 0.0, 0.0
    cE = rng.random((n_r - 1, n_phi)) + 0.1
    cN = rng.random((n_r, n_phi - 1)) + 0.1
    return u, (cE, cN)


def node_coefficients(cE, cN):
    # full-grid aW, aE, aS, aN toward the four neighbours, zero where an edge
    # would leave the grid
    shape = (cN.shape[0], cE.shape[1])
    aW, aE, aS, aN = (np.zeros(shape) for _ in range(4))
    aE[:-1, :], aW[1:, :], aN[:, :-1], aS[:, 1:] = cE, cE, cN, cN
    return aW, aE, aS, aN


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
    a = node_coefficients(*coef)
    for _ in range(n):
        for color in colors:
            reference_color(u, *a, 1.0, color, rhs)
    return u


def test_sweep_solves_laplace():
    # unit-coefficient sweeps must converge to the 5-point harmonic solution;
    # Gauss-Seidel contracts by about cos(pi / 32)^2 a sweep at this size and
    # reaches 1e-12 after 2288 sweeps
    n = 33
    u = np.zeros((n, n))
    u[-1, :] = 1.0
    rhs = np.zeros_like(u)
    system = _kernels.sor_system(np.ones((n - 1, n)), np.ones((n, n - 1)))
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
    for u, coef in (symmetric_system(s) for s in SHAPES):
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


def reference_residual(u, cE, cN, rhs):
    # rhs - A u written out node by node at the interior nodes
    aW, aE, aS, aN = node_coefficients(cE, cN)
    res = np.zeros_like(u)
    for i in range(1, u.shape[0] - 1):
        for j in range(1, u.shape[1] - 1):
            s = aW[i, j] + aE[i, j] + aS[i, j] + aN[i, j]
            res[i, j] = rhs[i, j] - (s * u[i, j]
                                     - aW[i, j] * u[i - 1, j] - aE[i, j] * u[i + 1, j]
                                     - aS[i, j] * u[i, j - 1] - aN[i, j] * u[i, j + 1])
    return res


def colors(shape):
    # the colour sor_system gives node (i, j)
    ii, jj = np.indices(shape)
    return (ii + jj) & 1


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_second_color_residual_vanishes_after_a_sweep(shape):
    # the colour-1 half-sweep solves the colour-1 equations against the
    # final colour-0 values, which is why presmooth keeps colour 0's only
    u, coef = symmetric_system(shape, seed=6)
    rhs = np.random.default_rng(7).standard_normal(shape)
    _kernels.sor_sweep(u, _kernels.sor_system(*coef), rhs, (0, 1))
    res = np.abs(reference_residual(u, *coef, rhs))
    color = colors(shape)
    assert res[color == 0].max() > 0.0
    assert res[color == 1].max() <= 1e-12 * res[color == 0].max()


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_presmooth_is_a_sweep_from_zero(shape):
    # the field equals sor_sweep's from zero bitwise; the residual is the
    # node-by-node one, whose colour-1 part is rounding
    _, coef = symmetric_system(shape, seed=8)
    rhs = np.zeros(shape)
    rhs[1:-1, 1:-1] = np.random.default_rng(9).standard_normal((shape[0] - 2, shape[1] - 2))
    system = _kernels.sor_system(*coef)
    fast, swept = np.zeros(shape), np.zeros(shape)
    res = _kernels.presmooth(fast, system, rhs)
    _kernels.sor_sweep(swept, system, rhs, (0, 1))
    assert np.array_equal(fast, swept)
    assert np.array_equal(np.signbit(fast), np.signbit(swept))
    ref = reference_residual(swept, *coef, rhs)
    assert np.all(res[colors(shape) == 1] == 0.0)
    assert np.max(np.abs(res - ref)) <= 1e-13 * np.max(np.abs(ref))
