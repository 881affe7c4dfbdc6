import numpy as np
import pytest

from psector import _multigrid
from psector.measure import INNER_ARC, MeasureProblem, solve_measure

SHAPES = [(40, 40), (35, 37), (33, 48), (48, 33)]


def edge_coefficients(shape, seed):
    """Random positive edge coefficients spanning 1e-3 to 1e3."""
    n_r, n_phi = shape
    rng = np.random.default_rng(seed)
    return (10.0 ** rng.uniform(-3, 3, (n_r - 1, n_phi)),
            10.0 ** rng.uniform(-3, 3, (n_r, n_phi - 1)))


def smooth_coefficients(shape):
    """Edge coefficients varying smoothly from 1e-3 to 1e3, as a solve's do."""
    x, y = np.linspace(0, 1, shape[0]), np.linspace(0, 1, shape[1])
    xm, ym = 0.5 * (x[1:] + x[:-1]), 0.5 * (y[1:] + y[:-1])

    def c(x, y):
        return 10.0 ** (3.0 * (2.0 * x[:, None] - 1.0) * np.cos(np.pi * y[None, :]))

    return c(xm, y), c(x, ym)


def interior_noise(shape, rng):
    x = np.zeros(shape)
    x[1:-1, 1:-1] = rng.standard_normal((shape[0] - 2, shape[1] - 2))
    return x


def reference_residual(u, cE, cN):
    # b - A u at the interior nodes, written out node by node
    n_r, n_phi = u.shape
    r = np.zeros_like(u)
    for i in range(1, n_r - 1):
        for j in range(1, n_phi - 1):
            r[i, j] = (cE[i - 1, j] * (u[i - 1, j] - u[i, j])
                       + cE[i, j] * (u[i + 1, j] - u[i, j])
                       + cN[i, j - 1] * (u[i, j - 1] - u[i, j])
                       + cN[i, j] * (u[i, j + 1] - u[i, j]))
    return r


@pytest.mark.parametrize("shape", SHAPES + [(8, 8), (13, 9)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_vcycle_is_symmetric_positive(shape):
    levels = _multigrid.hierarchy(*edge_coefficients(shape, seed=0))
    rng = np.random.default_rng(1)
    x, y = interior_noise(shape, rng), interior_noise(shape, rng)
    Mx, My = _multigrid.vcycle(levels, x), _multigrid.vcycle(levels, y)
    assert np.all(Mx[[0, -1], :] == 0.0) and np.all(Mx[:, [0, -1]] == 0.0)
    xMy, yMx = _multigrid.dot(x, My), _multigrid.dot(y, Mx)
    assert abs(xMy - yMx) <= 1e-12 * abs(xMy)
    assert _multigrid.dot(x, Mx) > 0.0 and _multigrid.dot(y, My) > 0.0


# with independent random coefficients over six decades the preconditioner
# is weak and CG stalls near 1e-6, so the tight target uses smooth ones
@pytest.mark.parametrize("coefficients, rtol", [(lambda s: edge_coefficients(s, 2), 1e-2),
                                                (smooth_coefficients, 1e-8)],
                         ids=["random-1e-2", "smooth-1e-8"])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_cg_reaches_its_residual_target(shape, coefficients, rtol):
    cE, cN = coefficients(shape)
    rng = np.random.default_rng(3)
    u = rng.random(shape)
    edges = (u[0, :].copy(), u[-1, :].copy(), u[:, 0].copy(), u[:, -1].copy())
    r0 = np.linalg.norm(reference_residual(u, cE, cN))
    its = _multigrid.pcg(u, _multigrid.hierarchy(cE, cN), rtol)
    assert 0 < its < _multigrid.MAX_CG
    assert np.linalg.norm(reference_residual(u, cE, cN)) <= rtol * r0
    for before, after in zip(edges, (u[0, :], u[-1, :], u[:, 0], u[:, -1])):
        assert np.array_equal(before, after)


def test_exact_on_a_single_level():
    # at most 12 nodes per side the hierarchy is one dense solve
    cE, cN = edge_coefficients((8, 8), seed=4)
    levels = _multigrid.hierarchy(cE, cN)
    u = np.random.default_rng(5).random((8, 8))
    assert len(levels) == 1
    assert _multigrid.pcg(u, levels, 1e-10) == 1


@pytest.mark.parametrize("shape", [(40, 40), (8, 8)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_finest_level_holds_the_edge_arrays(shape):
    # one coefficient layout from measure to the smoother: no padded copy,
    # on a multilevel hierarchy and on a single dense level alike
    cE, cN = edge_coefficients(shape, seed=6)
    finest = _multigrid.hierarchy(cE, cN)[0]
    assert finest.cE is cE and finest.cN is cN


def test_cg_iterations_do_not_grow_with_the_grid():
    counts = {}
    for n in (64, 256):
        sol = solve_measure(MeasureProblem(nu=2.0, p=3.0, n_r=n, n_phi=n))
        assert sol.converged
        assert len(sol.cg_history) == len(sol.p_history) == sol.iterations
        counts[n] = [c for q, c in zip(sol.p_history, sol.cg_history) if q == 3.0]
    assert abs(max(counts[64]) - max(counts[256])) <= 2
    assert abs(np.mean(counts[64]) - np.mean(counts[256])) <= 2


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_p2_stage_builds_its_hierarchy_once(monkeypatch, p):
    # at p = 2 the frozen coefficients depend on the grid alone; every
    # p = 3 cycle builds its own
    build, calls = _multigrid.hierarchy, []

    def counted(cE, cN):
        calls.append(cE.shape)
        return build(cE, cN)

    monkeypatch.setattr(_multigrid, "hierarchy", counted)
    sol = solve_measure(MeasureProblem(nu=2.0, p=p, n_r=64, n_phi=64))
    assert sol.converged and sol.p_history.count(2.0) > 1
    assert len(calls) == 1 + sol.p_history.count(3.0)


def test_anisotropic_levels_halve_the_strong_axis_only():
    n = 129
    cE = np.ones((n - 1, n))
    levels = _multigrid.hierarchy(cE, 20.0 * np.ones((n, n - 1)))
    # halving phi alone divides the ratio 20 by 4 per level: 20, 5, then 1.25
    assert [lv.shape for lv in levels[:4]] == [(129, 129), (129, 65), (129, 33), (65, 17)]


def test_cg_iterations_do_not_grow_with_nu():
    # the angular couplings outweigh the radial ones by about 4.8 nu^2
    for nu in (1.0, 2.0, 4.0, 8.0):
        sol = solve_measure(MeasureProblem(nu=nu, p=2.0, n_r=128, n_phi=128))
        assert sol.converged
        assert max(sol.cg_history) <= 5, (nu, sol.cg_history)


@pytest.mark.parametrize("kw", [
    dict(nu=1.0, p=3.0, n_r=8, n_phi=8),
    dict(nu=1.0, p=1.5, n_r=16, n_phi=17, arc_target=INNER_ARC),
], ids=["8x8", "16x17-inner-arc"])
def test_small_and_uneven_grids_converge(kw):
    sol = solve_measure(MeasureProblem(**kw))
    assert sol.converged
    assert sol.omega.min() >= 0.0 and sol.omega.max() <= 1.0


@pytest.mark.parametrize("nu, p", [(2.0, 3.0), (1.0, 1.5)])
def test_field_near_tightly_converged_reference(nu, p):
    sol = solve_measure(MeasureProblem(nu=nu, p=p, n_r=64, n_phi=64))
    ref = solve_measure(MeasureProblem(nu=nu, p=p, n_r=64, n_phi=64, tol=1e-13))
    assert sol.converged and ref.converged
    assert np.max(np.abs(sol.omega - ref.omega)) <= 1e-7
