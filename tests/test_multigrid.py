import tracemalloc

import numpy as np
import pytest

from psector import _kernels, _multigrid
from psector.measure import (
    CG_RTOL,
    FULL_ARC,
    INNER_ARC,
    MeasureProblem,
    _boundary_data,
    _cell_energy,
    _fold,
    _grids,
    solve_measure,
)

SHAPES = [(40, 40), (35, 37), (33, 48), (48, 33)]


def edge_coefficients(shape, seed, mirror=True):
    """Random positive edge coefficients spanning 1e-3 to 1e3; with mirror,
    those of a half-grid system, whose mirror edges cN[:, 0] are 0."""
    n_r, n_phi = shape
    rng = np.random.default_rng(seed)
    cE = 10.0 ** rng.uniform(-3, 3, (n_r - 1, n_phi))
    cN = 10.0 ** rng.uniform(-3, 3, (n_r, n_phi - 1))
    if mirror:
        cN[:, 0] = 0.0
    return cE, cN


def smooth_coefficients(shape):
    """Edge coefficients varying smoothly from 1e-3 to 1e3, as a solve's do,
    of a half-grid system."""
    x, y = np.linspace(0, 1, shape[0]), np.linspace(0, 1, shape[1])
    xm, ym = 0.5 * (x[1:] + x[:-1]), 0.5 * (y[1:] + y[:-1])

    def c(x, y):
        return 10.0 ** (3.0 * (2.0 * x[:, None] - 1.0) * np.cos(np.pi * y[None, :]))

    cN = c(x, ym)
    cN[:, 0] = 0.0
    return c(xm, y), cN


def interior_noise(shape, rng):
    x = np.zeros(shape)
    x[1:-1, 1:-1] = rng.standard_normal((shape[0] - 2, shape[1] - 2))
    return x


def p2_system(problem, half=False):
    """cE and cN of the problem's frozen p = 2 system, and a field holding
    its Dirichlet data with a zero interior; with half, on the mirror half
    of the grid, as the p != 2 stages form theirs."""
    r, phi = _grids(problem)
    u = np.zeros((problem.n_r, problem.n_phi))
    u[-1] = _boundary_data(problem, phi)
    mirror = None
    if half:
        u, mirror = _fold(u), problem.n_phi % 2
    _, cE, cN = _cell_energy(u, r, phi[1] - phi[0], 2.0, problem.eps_reg**2, mirror=mirror)
    return cE, cN, u


def dense_operator(cE, cN):
    # A of the interior nodes, written out node by node; node (i, j) is
    # unknown (i - 1) * (n_phi - 2) + j - 1
    n_r, n_phi = cN.shape[0], cE.shape[1]
    m = n_phi - 2
    A = np.zeros(((n_r - 2) * m,) * 2)
    for i in range(1, n_r - 1):
        for j in range(1, n_phi - 1):
            k = (i - 1) * m + j - 1
            for c, ii, jj in ((cE[i - 1, j], i - 1, j), (cE[i, j], i + 1, j),
                              (cN[i, j - 1], i, j - 1), (cN[i, j], i, j + 1)):
                A[k, k] += c
                if 0 < ii < n_r - 1 and 0 < jj < n_phi - 1:
                    A[k, (ii - 1) * m + jj - 1] = -c
    return A


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


def reference_restrict(x, axis):
    if axis == 1:
        # the mirror column 0 is carried, the columns after it restricted
        return np.concatenate([x[:, :1], reference_restrict(x[:, 1:].T, 0).T], axis=1)
    n = x.shape[axis]
    m = (n + 1) // 2
    shape = list(x.shape)
    shape[axis] = n // 2 + 1
    out = np.empty(shape)
    at = _multigrid._at
    out[at(axis, slice(0, m))] = x[at(axis, slice(0, n, 2))]
    if n % 2 == 0:
        out[at(axis, m)] = x[at(axis, n - 1)]
    half = 0.5 * x[at(axis, slice(1, 2 * m - 2, 2))]
    out[at(axis, slice(0, m - 1))] += half
    out[at(axis, slice(1, m))] += half
    return out


def reference_prolong(xc, axis, n):
    if axis == 1:
        # the mirror column 0 is carried, the columns after it interpolated
        return np.concatenate([xc[:, :1], reference_prolong(xc[:, 1:].T, 0, n - 1).T], axis=1)
    m = (n + 1) // 2
    shape = list(xc.shape)
    shape[axis] = n
    out = np.empty(shape)
    at = _multigrid._at
    out[at(axis, slice(0, n, 2))] = xc[at(axis, slice(0, m))]
    if n % 2 == 0:
        out[at(axis, n - 1)] = xc[at(axis, m)]
    mid = out[at(axis, slice(1, 2 * m - 2, 2))]
    np.add(xc[at(axis, slice(0, m - 1))], xc[at(axis, slice(1, m))], out=mid)
    mid *= 0.5
    return out


def reference_presmooth(u, system, rhs):
    def neighbour_sum(block):
        _, at_w, at_e, at_s, at_n, aW, aE, aS, aN, _ = block
        nbr = aW * u[at_w]
        nbr += aE * u[at_e]
        t = aS * u[at_s]
        t += aN * u[at_n]
        nbr += t
        return nbr

    for block in system[0]:
        np.divide(rhs[block[0]], block[-1], out=u[block[0]])
    for block in system[1]:
        nbr = neighbour_sum(block)
        nbr += rhs[block[0]]
        np.divide(nbr, block[-1], out=u[block[0]])
    res = np.zeros_like(u)
    for block in system[0]:
        res[block[0]] = neighbour_sum(block)
    return res


def reference_vcycle(levels, f, depth=0):
    # the V-cycle as it was before its work arrays were kept in a
    # workspace: every level allocates its iterate, residual and transfers
    level = levels[depth]
    x = np.zeros_like(f)
    if level.inverse is not None:
        x[1:-1, 1:-1] = (level.inverse * f[1:-1, 1:-1].ravel()).sum(axis=1).reshape(
            f.shape[0] - 2, f.shape[1] - 2)
        return x
    res = reference_presmooth(x, level.system, f)
    n_r, n_phi = f.shape
    coarse = levels[depth + 1].shape
    if coarse[0] < n_r:
        res = reference_restrict(res, 0)
    if coarse[1] < n_phi:
        res = reference_restrict(res, 1)
    xc = reference_vcycle(levels, res, depth + 1)
    if coarse[1] < n_phi:
        xc = reference_prolong(xc, 1, n_phi)
    if coarse[0] < n_r:
        xc = reference_prolong(xc, 0, n_r)
    x += xc
    _kernels.sor_sweep(x, level.system, f, {})
    return x


def reference_pcg(u, levels, rtol, r):
    # pcg as it was before its workspace, with fresh arrays every iteration
    level = levels[0]
    rr = _multigrid.dot(r, r)
    if rr == 0.0:
        return 0
    target = rtol * rtol * rr
    p = reference_vcycle(levels, r)
    rz = _multigrid.dot(r, p)
    q = np.zeros_like(u)
    for it in range(1, _multigrid.MAX_CG + 1):
        pq = _multigrid.dot(p, _multigrid.apply(level.cE, level.cN, p, q))
        if not (rz > 0.0 and pq > 0.0):
            return _multigrid.MAX_CG
        alpha = rz / pq
        u += p * alpha
        q *= alpha
        r -= q
        if _multigrid.dot(r, r) <= target:
            return it
        z = reference_vcycle(levels, r)
        rz, rz_old = _multigrid.dot(r, z), rz
        p *= rz / rz_old
        p += z
    return _multigrid.MAX_CG


@pytest.mark.parametrize("shape", SHAPES + [(8, 8), (13, 9)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_vcycle_is_symmetric_positive(shape):
    levels = _multigrid.hierarchy(*edge_coefficients(shape, seed=0))
    rng = np.random.default_rng(1)
    x, y = interior_noise(shape, rng), interior_noise(shape, rng)
    Mx, My = (_multigrid.vcycle(levels, v, {}, np.zeros(shape)) for v in (x, y))
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
    res, _ = _multigrid.residual(cE, cN, u)
    its = _multigrid.pcg(u, _multigrid.hierarchy(cE, cN), rtol, res, {})
    assert 0 < its < _multigrid.MAX_CG
    assert np.linalg.norm(reference_residual(u, cE, cN)) <= rtol * r0
    for before, after in zip(edges, (u[0, :], u[-1, :], u[:, 0], u[:, -1])):
        assert np.array_equal(before, after)


def warm_start(shape, seed):
    # a random field and its residual under random coefficients
    cE, cN = edge_coefficients(shape, seed)
    u = np.random.default_rng(seed + 100).random(shape)
    return u, _multigrid.hierarchy(cE, cN), _multigrid.residual(cE, cN, u)[0]


def test_pcg_matches_the_reference_bitwise():
    # one workspace through every shape, each shape twice and the 8x8
    # single dense level last: the same fields and iteration counts as the
    # allocating reference
    work = {}
    for seed, shape in enumerate(SHAPES * 2 + [(8, 8), (13, 9)]):
        u, levels, r = warm_start(shape, seed)
        want_u, want_r = u.copy(), r.copy()
        want = reference_pcg(want_u, levels, 1e-4, want_r)
        its = _multigrid.pcg(u, levels, 1e-4, r, work)
        assert its == want and 0 < its < _multigrid.MAX_CG
        assert np.array_equal(u, want_u) and np.array_equal(r, want_r)


def test_vcycle_matches_the_reference_bitwise():
    work = {}
    for seed, shape in enumerate(SHAPES + [(8, 8), (13, 9)]):
        _, levels, r = warm_start(shape, seed)
        x = np.full(shape, np.nan)
        x[1:-1, 1:-1] = 0.5
        x[[0, -1]] = x[:, [0, -1]] = 0.0
        assert _multigrid.vcycle(levels, r, work, x) is x
        assert np.array_equal(x, reference_vcycle(levels, r))
        assert np.array_equal(_multigrid.vcycle(levels, r, {}, np.zeros(shape)), x)


def test_pcg_ignores_what_a_breakdown_left():
    # a breakdown can leave non-finite values in the search direction, the
    # step and the operator product; the next call with the same workspace
    # equals a fresh one
    shape = (40, 40)
    work = {}
    u, levels, r = warm_start(shape, 1)
    _multigrid.pcg(u, levels, 1e-2, r, work)
    for name, value in (("p", np.nan), ("z", -np.inf), ("Ap", np.inf)):
        work[name, shape].fill(value)
    u, levels, r = warm_start(shape, 2)
    want_u = u.copy()
    want = _multigrid.pcg(want_u, levels, 1e-2, r.copy(), {})
    assert _multigrid.pcg(u, levels, 1e-2, r, work) == want
    assert np.array_equal(u, want_u)


def test_warm_workspace_allocates_less_than_a_field():
    # with the workspace of an earlier call on the same levels, a pcg call's
    # traced peak stays below one field; a cold workspace costs several.
    # What a warm call allocates is numpy's ufunc buffers for strided
    # operands, 8192 elements each, far below a field at 256^2
    shape = (256, 256)
    cE, cN = edge_coefficients(shape, seed=3)
    levels = _multigrid.hierarchy(cE, cN)
    work, peaks = {}, []
    for seed, workspace in enumerate((work, work, {})):
        u = np.random.default_rng(seed).random(shape)
        r = _multigrid.residual(cE, cN, u)[0]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert 0 < _multigrid.pcg(u, levels, 1e-2, r, workspace) < _multigrid.MAX_CG
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    field = 8 * shape[0] * shape[1]
    assert peaks[1] < field < 4 * field < min(peaks[0], peaks[2]), peaks


def test_exact_on_a_single_level():
    # at most 12 nodes per side the hierarchy is one dense solve
    cE, cN = edge_coefficients((8, 8), seed=4)
    levels = _multigrid.hierarchy(cE, cN)
    u = np.random.default_rng(5).random((8, 8))
    assert len(levels) == 1
    assert _multigrid.pcg(u, levels, 1e-10, _multigrid.residual(cE, cN, u)[0], {}) == 1


@pytest.mark.parametrize("shape", SHAPES + [(8, 8), (13, 9)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_sine_solve_matches_a_dense_solve(shape):
    # random positive coefficients constant along phi, from 1e-3 to 1e3;
    # the columns 0 and -1 of cE belong to no interior equation and differ
    n_r, n_phi = shape
    rng = np.random.default_rng(12)
    cE = np.repeat(10.0 ** rng.uniform(-3, 3, (n_r - 1, 1)), n_phi, axis=1)
    cE[:, [0, -1]] = rng.random((n_r - 1, 2))
    cN = np.repeat(10.0 ** rng.uniform(-3, 3, (n_r, 1)), n_phi - 1, axis=1)
    u = rng.random(shape)
    res, _ = _multigrid.residual(cE, cN, u)
    want = u.copy()
    want[1:-1, 1:-1] += np.linalg.solve(dense_operator(cE, cN), res[1:-1, 1:-1].ravel()).reshape(
        n_r - 2, n_phi - 2)
    _multigrid.sine_solve(u, cE, cN, res)
    assert np.allclose(u, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())
    assert np.array_equal(u[[0, -1], :], want[[0, -1], :])
    assert np.array_equal(u[:, [0, -1]], want[:, [0, -1]])


@pytest.mark.parametrize("nu", [0.5, 1.0, 2.0, 8.0])
@pytest.mark.parametrize("arc", [FULL_ARC, INNER_ARC])
def test_p2_system_is_constant_along_phi(nu, arc):
    # the precondition of sine_solve, on the system _cell_energy assembles
    cE, cN, _ = p2_system(MeasureProblem(nu=nu, p=2.0, n_r=33, n_phi=37, arc_target=arc))
    assert np.all(cE[:, 1:-1] == cE[:, 1:2])
    assert np.all(cN == cN[:, :1])


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("nu", [0.5, 1.0, 2.0, 8.0])
@pytest.mark.parametrize("arc", [FULL_ARC, INNER_ARC])
def test_sine_solve_is_exact_on_the_p2_system(n, nu, arc):
    # one call from the boundary data leaves a residual at the rounding floor
    cE, cN, u = p2_system(MeasureProblem(nu=nu, p=2.0, n_r=n, n_phi=n, arc_target=arc))
    res, before = _multigrid.residual(cE, cN, u)
    _multigrid.sine_solve(u, cE, cN, res)
    assert before > 0.0
    assert _multigrid.residual(cE, cN, u)[1] <= 1e-12


@pytest.mark.parametrize("shape", SHAPES + [(8, 8), (4, 5)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_residual_and_its_relative_norm(shape):
    # b - A u node by node, and ||b|| as the norm of the data field's own
    # residual, against residual's boundary lines; every boundary value of u
    # is nonzero data here, corners included
    cE, cN = edge_coefficients(shape, seed=8, mirror=False)
    u = np.random.default_rng(9).random(shape)
    data = u.copy()
    data[1:-1, 1:-1] = 0.0
    res, rel = _multigrid.residual(cE, cN, u)
    want = reference_residual(u, cE, cN)
    assert np.allclose(res, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    assert rel == pytest.approx(np.linalg.norm(want) / np.linalg.norm(reference_residual(data, cE, cN)),
                                rel=1e-12)


def test_cg_breakdown_returns_max_cg():
    # negated coefficients make the operator negative definite: with the
    # dense inverse of the positive one as preconditioner, r . z > 0 but
    # p . A p < 0 at the first step, and pcg returns MAX_CG, u unmoved
    cE, cN = edge_coefficients((8, 8), seed=10)
    inverse = _multigrid.hierarchy(cE, cN)[0].inverse
    levels = [_multigrid.Level(-cE, -cN, None, inverse)]
    u = np.random.default_rng(11).random((8, 8))
    before = u.copy()
    res, _ = _multigrid.residual(-cE, -cN, u)
    assert _multigrid.pcg(u, levels, 1e-10, res, {}) == _multigrid.MAX_CG
    assert np.array_equal(u, before)


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
        assert len([c.cg for c in sol.cycles]) == len([c.p for c in sol.cycles]) == sol.iterations
        counts[n] = [c.cg for c in sol.cycles if c.p == 3.0]
    assert abs(max(counts[64]) - max(counts[256])) <= 2
    assert abs(np.mean(counts[64]) - np.mean(counts[256])) <= 2


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_p2_stage_builds_no_hierarchy(monkeypatch, p):
    # the p = 2 stage is one direct solve; every p = 3 cycle builds its own
    # hierarchy and runs pcg on it once
    build, pcg, calls = _multigrid.hierarchy, _multigrid.pcg, []

    def counted_build(cE, cN):
        calls.append("hierarchy")
        return build(cE, cN)

    def counted_pcg(u, levels, rtol, r, work):
        calls.append("pcg")
        return pcg(u, levels, rtol, r, work)

    monkeypatch.setattr(_multigrid, "hierarchy", counted_build)
    monkeypatch.setattr(_multigrid, "pcg", counted_pcg)
    sol = solve_measure(MeasureProblem(nu=2.0, p=p, n_r=64, n_phi=64))
    stage_p = [c.p for c in sol.cycles]
    assert sol.converged and stage_p.count(2.0) == 1
    assert calls == ["hierarchy", "pcg"] * stage_p.count(3.0)


def test_anisotropic_levels_halve_the_strong_axis_only():
    n = 129
    cE = np.ones((n - 1, n))
    cN = 20.0 * np.ones((n, n - 1))
    cN[:, 0] = 0.0  # a half-grid system
    levels = _multigrid.hierarchy(cE, cN)
    # halving phi alone divides the ratio 20 by 4 per level: 20, 5, then
    # 1.25.  Along phi the mirror column is carried and the 128 columns
    # after it halved: 129 columns, then 1 + 65 and 1 + 33
    assert [lv.shape for lv in levels[:4]] == [(129, 129), (129, 66), (129, 34), (65, 18)]


def test_cg_iterations_do_not_grow_with_nu():
    # the angular couplings outweigh the radial ones by about 4.8 nu^2; pcg
    # on each nu's p = 2 system, restarted at CG_RTOL from the boundary data
    # until the residual reaches the solve's tolerance, and on every cycle of
    # a p = 3 solve, whose systems are the ones pcg serves
    for nu in (1.0, 2.0, 4.0, 8.0):
        pr = MeasureProblem(nu=nu, p=2.0, n_r=128, n_phi=128)
        cE, cN, u = p2_system(pr, half=True)
        levels, cg = _multigrid.hierarchy(cE, cN), []
        res, resid = _multigrid.residual(cE, cN, u)
        while resid > pr.tol:
            cg.append(_multigrid.pcg(u, levels, CG_RTOL, res, {}))
            res, resid = _multigrid.residual(cE, cN, u)
        assert len(cg) > 1 and max(cg) <= 5, (nu, cg)
        sol = solve_measure(MeasureProblem(nu=nu, p=3.0, n_r=128, n_phi=128))
        cg = [c.cg for c in sol.cycles if c.p == 3.0]
        assert sol.converged and len(cg) > 1 and max(cg) <= 5, (nu, cg)


def test_solves_do_not_share_state():
    # the same (2, 3) problem twice, then 128^2, 64^2 and 128^2 solves in
    # turn: each equal to the first solve of its problem
    def key(sol):
        return sol.omega.tobytes(), sol.cycles, sol.final_residual

    fresh = {}
    for n in (64, 64, 128, 64, 128):
        sol = solve_measure(MeasureProblem(nu=2.0, p=3.0, n_r=n, n_phi=n))
        assert sol.converged
        assert key(fresh.setdefault(n, sol)) == key(sol)


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


def reference_apply(cE, cN, x):
    # the operator in its 2-D form: column differences of offset row views
    out = np.zeros_like(x)
    inner = out[1:-1, 1:-1]
    fr = (x[1:] - x[:-1]) * cE
    np.subtract(fr[:-1, 1:-1], fr[1:, 1:-1], out=inner)
    fa = (x[:, 1:] - x[:, :-1]) * cN
    inner += fa[1:-1, :-1]
    inner -= fa[1:-1, 1:]
    return out


@pytest.mark.parametrize("shape", SHAPES + [(8, 8), (4, 5), (256, 129)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_apply_over_the_raveled_field_matches_the_2d_form_bitwise(shape):
    # the raveled differences wrap from one row to the next only on the
    # boundary columns, which come out 0 whatever a given out held
    cE, cN = edge_coefficients(shape, seed=13, mirror=False)
    x = np.random.default_rng(14).random(shape)
    want = reference_apply(cE, cN, x)
    assert np.array_equal(_multigrid.apply(cE, cN, x), want)
    out = np.full(shape, np.nan)
    assert _multigrid.apply(cE, cN, x, out, {}) is out
    assert np.array_equal(out, want)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("n", [9, 10, 33, 34])
def test_transfers_are_adjoint(axis, n):
    # <R x, y> = <x, P y>: along phi with the mirror column 0 carried by both
    rng = np.random.default_rng(n)
    fine = [7, 7]
    fine[axis] = n
    x = rng.standard_normal(fine)
    coarse = _multigrid._restrict(x, axis)
    y = rng.standard_normal(coarse.shape)
    py = _multigrid._prolong(y, axis, np.empty(fine))
    assert np.array_equal(coarse, reference_restrict(x, axis))
    assert np.array_equal(py, reference_prolong(y, axis, n))
    assert abs(_multigrid.dot(coarse, y) - _multigrid.dot(x, py)) <= 1e-12 * np.abs(x).sum()


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("n_phi", [64, 65])
def test_half_grid_levels_are_finite_and_nonnegative(n_phi, p):
    # the system of a random even field on the mirror half: for odd n_phi
    # both edges of column 0 are 0, so the radial series meets 0 / 0 there.
    # Every level's edges are finite and nonnegative, and its mirror edges 0
    pr = MeasureProblem(nu=2.0, p=p, n_r=64, n_phi=n_phi)
    r, phi = _grids(pr)
    u = np.random.default_rng(15).random((pr.n_r, n_phi))
    u = 0.5 * (u + u[:, ::-1])
    _, cE, cN = _cell_energy(_fold(u), r, phi[1] - phi[0], p, pr.eps_reg**2, mirror=n_phi % 2)
    assert np.all(cE[:, 0] == 0.0) == (n_phi % 2 == 1)
    levels = _multigrid.hierarchy(cE, cN)
    assert len(levels) > 3
    for level in levels:
        for c in (level.cE, level.cN):
            assert np.all(np.isfinite(c)) and np.all(c >= 0.0)
        assert np.all(level.cN[:, 0] == 0.0)
