import math
import os
import subprocess
import sys

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
    omega = 2.0 / (1.0 + math.sin(math.pi / max(shape)))
    return u, (aW, aE, aS, aN), omega


def reference_color(u, aW, aE, aS, aN, omega, color, rhs=None):
    # the original masked half-sweep: the update for both colours, then a
    # parity mask keeps one; the reference the strided kernels must match
    n_r, n_phi = u.shape
    nbr = aW[1:-1, 1:-1] * u[:-2, 1:-1] + aE[1:-1, 1:-1] * u[2:, 1:-1]
    nbr += aS[1:-1, 1:-1] * u[1:-1, :-2] + aN[1:-1, 1:-1] * u[1:-1, 2:]
    if rhs is not None:
        nbr += rhs[1:-1, 1:-1]
    s = (aW[1:-1, 1:-1] + aE[1:-1, 1:-1]) + (aS[1:-1, 1:-1] + aN[1:-1, 1:-1])
    ii, jj = np.indices((n_r - 2, n_phi - 2))
    mask = ((ii + jj) & 1) == color
    upd = u[1:-1, 1:-1] + omega * (nbr / s - u[1:-1, 1:-1])
    u[1:-1, 1:-1] = np.where(mask, upd, u[1:-1, 1:-1])


def reference_sweeps(u, coef, omega, n, rhs=None, colors=(0, 1)):
    for _ in range(n):
        for color in colors:
            reference_color(u, *coef, omega, color, rhs)
    return u


@pytest.mark.skipif(not _kernels._HAVE_NUMBA, reason="numba unavailable")
@pytest.mark.parametrize("colors", [(0, 1), (1, 0)])
@pytest.mark.parametrize("with_rhs", [False, True])
def test_paths_agree_bitwise(with_rhs, colors):
    u, coef = random_system(40)
    rhs = np.random.default_rng(5).random(u.shape) if with_rhs else None
    v = u.copy()
    omega = 1.9
    for _ in range(25):
        for color in colors:
            _kernels._sor_color_py(u, *coef, omega, color, rhs)
            _kernels._sor_color_nb(v, *coef, omega, color, rhs)
    assert np.array_equal(u, v)


def test_sweep_solves_laplace():
    # unit-coefficient sweeps must converge to the 5-point harmonic solution
    n = 33
    u = np.zeros((n, n))
    u[-1, :] = 1.0
    ones = np.ones((n, n))
    omega = 2.0 / (1.0 + math.sin(math.pi / n))
    system = _kernels.sor_system(ones, ones, ones, ones)
    for _ in range(400):
        _kernels.sor_sweep(u, system, omega)
    # interior harmonic: each value is the mean of its 4 neighbors
    resid = np.abs(
        u[1:-1, 1:-1]
        - 0.25 * (u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:])
    )
    assert resid.max() <= 1e-12
    assert u.min() >= 0.0 and u.max() <= 1.0


def test_dirichlet_rows_untouched():
    cases = [random_system(20, seed=3) + (1.8,)] + [symmetric_system(s) for s in SHAPES]
    for u, coef, omega in cases:
        edges = (u[0, :].copy(), u[-1, :].copy(), u[:, 0].copy(), u[:, -1].copy())
        system = _kernels.sor_system(*coef)
        for _ in range(50):
            _kernels.sor_sweep(u, system, omega)
        assert np.array_equal(u[0, :], edges[0])
        assert np.array_equal(u[-1, :], edges[1])
        assert np.array_equal(u[:, 0], edges[2])
        assert np.array_equal(u[:, -1], edges[3])


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_half_sweeps_match_reference(shape):
    u, coef, omega = symmetric_system(shape)
    v = u.copy()
    for _ in range(50):
        for color in (0, 1):
            _kernels._sor_color_py(v, *coef, omega, color)
    ref = reference_sweeps(u, coef, omega, 50)
    assert np.isfinite(ref).all()
    assert np.array_equal(v, ref)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_system_built_once_matches_reference(shape):
    u, coef, omega = symmetric_system(shape, seed=1)
    v = u.copy()
    system = _kernels.sor_system(*coef)
    for _ in range(50):
        _kernels.sor_sweep(v, system, omega)
    assert np.array_equal(v, reference_sweeps(u, coef, omega, 50))


@pytest.mark.parametrize("colors", [(0, 1), (1, 0)])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_sweep_with_rhs_matches_reference(shape, colors):
    u, coef, omega = symmetric_system(shape, seed=2)
    rhs = np.random.default_rng(3).standard_normal(shape)
    v = u.copy()
    system = _kernels.sor_system(*coef)
    for _ in range(50):
        _kernels.sor_sweep(v, system, omega, rhs, colors)
    ref = reference_sweeps(u, coef, omega, 50, rhs, colors)
    assert np.isfinite(ref).all()
    assert np.array_equal(v, ref)


def test_env_flag_selects_numpy_backend():
    env = dict(os.environ, PSECTOR_NO_NUMBA="1")
    out = subprocess.run(
        [sys.executable, "-c", "from psector._kernels import backend; print(backend())"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "numpy"


def test_backend_reports_active_path():
    assert _kernels.backend() in ("numba", "numpy")
