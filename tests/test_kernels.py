import numpy as np
import pytest

from psector import _kernels, _multigrid


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


def reference_sweep(u, cE, cN, rhs):
    # u + (OMEGA / s) (rhs - A u) into a new array, with the node-by-node
    # residual, which is 0 on the boundary
    aW, aE, aS, aN = node_coefficients(cE, cN)
    s = aW + aE + aS + aN
    return u + _kernels.OMEGA / s * reference_residual(u, cE, cN, rhs)


def test_sweep_solves_laplace():
    # unit-coefficient sweeps must converge to the 5-point harmonic solution.
    # Damped Jacobi contracts the smoothest error mode by
    # 1 - 0.8 (1 - cos(pi / 32)) = 0.99615 a sweep at this size, so the
    # 2288 sweeps Gauss-Seidel took (cos(pi / 32)^2 = 0.99039 a sweep) scale
    # to about 5723; it reaches 1e-12 after 5543
    n = 33
    u = np.zeros((n, n))
    u[-1, :] = 1.0
    rhs = np.zeros_like(u)
    system, work = _kernels.sor_system(np.ones((n - 1, n)), np.ones((n, n - 1))), {}
    for _ in range(6500):
        _kernels.sor_sweep(u, system, rhs, work)
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
        system, work = _kernels.sor_system(*coef), {}
        for _ in range(50):
            _kernels.sor_sweep(u, system, rhs, work)
        assert np.array_equal(u[0, :], edges[0])
        assert np.array_equal(u[-1, :], edges[1])
        assert np.array_equal(u[:, 0], edges[2])
        assert np.array_equal(u[:, -1], edges[3])


# the kernel forms A u as differences of edge fluxes, the reference as
# s u minus the neighbour sum, so the two round apart: a few ulps of the
# O(1) terms of a node, well inside 1e-13
SWEEP_RTOL = 1e-13


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_system_built_once_matches_reference(shape):
    # one system and one workspace through 50 sweeps: each sweep equals the
    # node-by-node sweep of the field it started from
    u, coef = symmetric_system(shape, seed=1)
    rhs = np.zeros_like(u)
    system, work = _kernels.sor_system(*coef), {}
    for _ in range(50):
        want = reference_sweep(u, *coef, rhs)
        _kernels.sor_sweep(u, system, rhs, work)
        assert np.max(np.abs(u - want)) <= SWEEP_RTOL * np.max(np.abs(want))


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_sweep_with_rhs_matches_reference(shape):
    u, coef = symmetric_system(shape, seed=2)
    rhs = np.random.default_rng(3).standard_normal(shape)
    want = reference_sweep(u, *coef, rhs)
    _kernels.sor_sweep(u, _kernels.sor_system(*coef), rhs, {})
    assert np.isfinite(want).all()
    assert np.max(np.abs(u - want)) <= SWEEP_RTOL * np.max(np.abs(want))


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_vcycle_presmooth_is_two_sweeps_from_zero(shape, monkeypatch):
    # the V-cycle forms its first pre-smoothing sweep as the product
    # (OMEGA / s) f; with the second sweep, the finest level's iterate
    # equals two sweeps from a zero field bit for bit
    _, coef = symmetric_system(shape, seed=8)
    coef[1][:, 0] = 0.0  # a half-grid system, as pcg serves
    levels = _multigrid.hierarchy(*coef)
    f = np.zeros(shape)
    f[1:-1, 1:-1] = np.random.default_rng(9).standard_normal((shape[0] - 2, shape[1] - 2))
    sweep, seen = _kernels.sor_sweep, []

    def recorded(u, system, rhs, work):
        sweep(u, system, rhs, work)
        seen.append(u.copy())

    monkeypatch.setattr(_kernels, "sor_sweep", recorded)
    _multigrid.vcycle(levels, f, {}, np.zeros(shape))
    want = np.zeros(shape)
    for _ in range(2):
        sweep(want, levels[0].system, f, {})
    assert len(levels) > 1 and _multigrid.SWEEPS == 2
    assert np.array_equal(seen[0], want)
