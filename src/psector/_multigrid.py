"""Linear solves of a frozen 5-point system: multigrid-preconditioned
conjugate gradients, and a direct solve for the separable case.

The measure solver's Picard cycle freezes the edge coefficients of the
p-Laplacian and solves the linear system they define on the interior nodes
of the grid, with Dirichlet data on rows and columns 0 and -1:

    sum over the four edges e of node x:  c_e (u[x] - u[neighbour_e]) = f[x].

cE[i, j] couples nodes (i, j) and (i + 1, j), cN[i, j] nodes (i, j) and
(i, j + 1).  Both solvers work in place from u and its residual
r = residual(cE, cN, u)[0].  At p = 2 the coefficients are constant along
phi and sine_solve(u, cE, cN, r) solves directly, on the full grid: a DST-I
in phi, one tridiagonal solve in r per sine mode, and the inverse DST-I.  At
p != 2 the system is that of the mirror half of the grid (measure._fold):
column 0 is the mirror column, whose edges cN[:, 0] are 0, so no flux
crosses it, column 1 is the axis or the first column past it, and column -1
the wall.  hierarchy(cE, cN) builds the levels once per cycle and
pcg(u, levels, rtol, r, work) solves, warm-started.  Every level, its
operator (_kernels.apply) and its smoother (_kernels.sor_system) use this one
edge layout; the finest level holds the caller's cE and cN, not copies.

Each coarser level halves an axis, keeping the even-index nodes and the last
one, and stays a 5-point operator: along a coarsened axis two fine edges
combine in series, across it the edges of the three fine rows around a coarse
row are summed with weights (1/2, 1, 1/2).  Along phi every level carries the
mirror column and its zero edges unchanged and halves the columns from 1 on,
so column 1 is a node of every level; halving from column 0 would make
column 1 an interpolated node next to a column that takes no correction,
which took 13 to 18 CG iterations per cycle at 256^2, against 2 to 4.
Which axes a level halves is chosen from its own coefficients
(semicoarsening): only phi when the mean angular coupling is at least
ANISOTROPY times the mean radial one, only r in the converse case, both
otherwise, and in every case only an axis with more than COARSEST nodes, a
half-grid level of n_phi columns counting as the 2 (n_phi - 1) of the full
grid it stands for.  The polar grid's angular couplings outweigh the radial
ones by a factor growing as nu^2, an anisotropy that a point smoother cannot
damp under full coarsening; a few semicoarsened levels bring it back to
order one.
The transfers are linear interpolation and its transpose, and the coarsest
level is solved with a dense inverse.
Every level but the coarsest is smoothed by SWEEPS damped Jacobi sweeps
(_kernels.sor_sweep) before the coarse correction and as many after it.
Jacobi's iteration matrix I - OMEGA D^-1 A is self-adjoint in the energy
inner product, so pre- and post-smoother are the same operator and the
V-cycle is a symmetric positive definite preconditioner.  The pre-smooth
starts from zero, so its first sweep is the product (OMEGA / s) f.

pcg and vcycle require a workspace (_kernels.work_array), a dict that holds
every work array of the solve: pcg's search direction, preconditioned
residual and operator product, apply's edge fluxes, each level's iterate,
pre-smoothing residual, restricted right side and prolonged correction,
and the sweep's residual.  Keyed by shape, one workspace serves every
hierarchy of a grid, whichever levels semicoarsening picks, so a solve that
passes the same one to each pcg call allocates these arrays at its first
call only.  No result depends on what an earlier call left: each
call overwrites what it reads, except zeros on nodes that no code writes.

Inner products are numpy einsum reductions: np.dot and np.linalg.norm go
through BLAS, whose thread pool costs milliseconds per call on a busy
machine, where einsum costs microseconds.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import _kernels
from ._kernels import apply

# nodes per side, on the full grid, at which an axis is no longer coarsened.
# Of (2, 10) and (3, 8) at 64^2 and (1, 10) and (4, 6) at 128^2, 12 caps CG
# on (4, 6) (5 capped solves in 59 cycles), and 17 and 24 converge all four
COARSEST = 17
# a level halves only its strongly coupled axis when the mean coupling along
# it is at least this many times the other's: a point smoother smooths the
# error only along the strong axis.  Halving one axis divides the ratio by 4,
# so 2 is where that lands as far from isotropy (ratio 1/2) as it started.
# 1.5, 2 and 3 take the same cycles and CG iterations on (2, 3) and (1, 4)
# at 256^2 and on (8, 3) at 128^2
ANISOTROPY = 2.0
# far above the CG iterations of a Picard cycle: at most 3 on the six 256^2
# acceptance solves and on (2, 10), (3, 8) and (4, 6), 9 on (1, 1.1) at 128^2
MAX_CG = 200
# damped Jacobi sweeps before the coarse correction and as many after it.
# With one on each side, (2, 10) at 128^2 stopped on cg_capped after 177
# Picard cycles and 1346 CG iterations
SWEEPS = 2


class Level(NamedTuple):
    cE: np.ndarray  # radial edges, shape (n_r - 1, n_phi)
    cN: np.ndarray  # angular edges, shape (n_r, n_phi - 1)
    system: object  # _kernels.sor_system of the level, None on the coarsest
    inverse: np.ndarray | None  # dense inverse of the coarsest interior operator

    @property
    def shape(self):
        return self.cN.shape[0], self.cE.shape[1]


def dot(a, b) -> float:
    """Sum of a * b over all entries, without BLAS."""
    return float(np.einsum("ij,ij->", a, b))


def _at(axis, index):
    return (slice(None),) * axis + (index,)


def _tail(x, axis):
    """What a transfer along the axis coarsens: all of x along r, and along
    phi every column but the mirror column 0."""
    return x[:, 1:] if axis == 1 else x


def _restrict(x, axis, out=None, work=None):
    """Transpose of _prolong along one axis, into out: n nodes to n // 2 + 1
    along r; along phi column 0 is carried and the n - 1 after it halved."""
    if out is None:
        shape = list(x.shape)
        n = _tail(x, axis).shape[axis]
        shape[axis] += n // 2 + 1 - n
        out = np.empty(shape)
    if axis == 1:
        out[:, 0] = x[:, 0]
    x, coarse = _tail(x, axis), _tail(out, axis)
    n = x.shape[axis]
    m = (n + 1) // 2  # coarse nodes at even fine indices; for even n, n - 1 is one more
    coarse[_at(axis, slice(0, m))] = x[_at(axis, slice(0, n, 2))]
    if n % 2 == 0:
        coarse[_at(axis, m)] = x[_at(axis, n - 1)]
    odd = x[_at(axis, slice(1, 2 * m - 2, 2))]
    half = np.multiply(odd, 0.5, out=_kernels.work_array(work, "half", odd.shape))
    coarse[_at(axis, slice(0, m - 1))] += half
    coarse[_at(axis, slice(1, m))] += half
    return out


def _prolong(xc, axis, out):
    """Linear interpolation along one axis, into out: n // 2 + 1 nodes to
    n along r; along phi column 0 is carried and the rest interpolated."""
    if axis == 1:
        out[:, 0] = xc[:, 0]
    xc, fine = _tail(xc, axis), _tail(out, axis)
    n = fine.shape[axis]
    m = (n + 1) // 2
    fine[_at(axis, slice(0, n, 2))] = xc[_at(axis, slice(0, m))]
    if n % 2 == 0:
        fine[_at(axis, n - 1)] = xc[_at(axis, m)]
    mid = fine[_at(axis, slice(1, 2 * m - 2, 2))]
    np.add(xc[_at(axis, slice(0, m - 1))], xc[_at(axis, slice(1, m))], out=mid)
    mid *= 0.5
    return out


def _series(c, axis):
    """Edges along an axis, combined in series onto the coarse nodes; along
    phi the mirror edge, column 0, is carried.  Two zero edges, as on the
    mirror column of an odd-width half grid, combine to 0."""
    parts = [c[:, :1]] if axis == 1 else []
    c = _tail(c, axis)
    n = c.shape[axis] + 1  # nodes
    m = (n + 1) // 2
    a = c[_at(axis, slice(0, 2 * m - 2, 2))]
    b = c[_at(axis, slice(1, 2 * m - 2, 2))]
    total = a + b
    parts.append(np.divide(a * b, total, out=np.zeros_like(total), where=total > 0.0))
    if n % 2 == 0:  # the last coarse edge is the single fine edge n - 2
        parts.append(c[_at(axis, slice(n - 2, n - 1))])
    return np.concatenate(parts, axis=axis)


def _level(cE, cN, coarsest):
    if not coarsest:
        return Level(cE, cN, _kernels.sor_system(cE, cN), None)
    # dense interior operator, node (i, j) at (i - 1) * (n_phi - 2) + j - 1
    n_r, n_phi = cN.shape[0], cE.shape[1]
    aW, aE, aS, aN = cE[:-1, 1:-1], cE[1:, 1:-1], cN[1:-1, :-1], cN[1:-1, 1:]
    idx = np.arange((n_r - 2) * (n_phi - 2)).reshape(n_r - 2, n_phi - 2)
    A = np.zeros((idx.size, idx.size))
    A[idx, idx] = (aW + aE) + (aS + aN)
    A[idx[1:], idx[:-1]] = -aW[1:]
    A[idx[:-1], idx[1:]] = -aE[:-1]
    A[idx[:, 1:], idx[:, :-1]] = -aS[:, 1:]
    A[idx[:, :-1], idx[:, 1:]] = -aN[:, :-1]
    return Level(cE, cN, None, np.linalg.inv(A))


def hierarchy(cE, cN) -> list:
    """Levels of the frozen system, finest first.

    cE has shape (n_r - 1, n_phi) and cN (n_r, n_phi - 1), both positive
    but for the mirror edges cN[:, 0], which are 0, and cE[:, 0], which the
    operator does not read and may be 0; n_r, n_phi >= 3.  The finest level
    holds cE and cN themselves.
    """
    levels = []
    while True:
        n_r, n_phi = cN.shape[0], cE.shape[1]
        # a half-grid level of n_phi columns spans 2 (n_phi - 1) full-grid ones
        coarsen_r, coarsen_phi = n_r > COARSEST, 2 * (n_phi - 1) > COARSEST
        if coarsen_r and coarsen_phi:
            e, n = cE.mean(), cN.mean()
            coarsen_r, coarsen_phi = n < ANISOTROPY * e, e < ANISOTROPY * n
        levels.append(_level(cE, cN, not (coarsen_r or coarsen_phi)))
        if levels[-1].inverse is not None:
            return levels
        if coarsen_r:
            cE, cN = _series(cE, 0), _restrict(cN, 0)
        if coarsen_phi:
            cE, cN = _restrict(cE, 1), _series(cN, 1)


def residual(cE, cN, u, axis_weight=1.0):
    """(b - A u, ||b - A u||_2 / ||b||_2) for the frozen system of cE and cN,
    b what the boundary values of u contribute; ||b|| is formed on the four
    lines next to the boundary, where b lives.  Needs 4 nodes per side.

    Both norms weight the squares on column 1 by axis_weight: 2 on the mirror
    half of a grid of odd width, whose column 1 is the axis and carries half
    of each full-grid equation there, so that the ratio is the full grid's.
    """
    r = apply(cE, cN, u)
    np.negative(r, out=r)
    # b on rows 1 and -2, then on columns 1 and -2; a corner node takes both
    rows = cE[[0, -1], 1:-1] * u[[0, -1], 1:-1]
    cols = cN[1:-1, [0, -1]] * u[1:-1, [0, -1]]
    rows[:, [0, -1]] += cols[[0, -1]]
    cols = cols[1:-1]
    rr, bb = dot(r, r), dot(rows, rows) + dot(cols, cols)
    if axis_weight != 1.0:
        extra = axis_weight - 1.0
        rr += extra * float(np.einsum("i,i->", r[:, 1], r[:, 1]))
        bb += extra * float(np.einsum("i,i->", rows[:, 0], rows[:, 0])
                            + np.einsum("i,i->", cols[:, 0], cols[:, 0]))
    return r, math.sqrt(rr / bb)


def vcycle(levels, f, work, x, depth=0):
    """One V-cycle for A x = f from x = 0: x vanishes on the boundary, and
    the boundary values of f do not enter it.

    Overwrites x and returns it; work is the workspace (see the module
    docstring).
    """
    level = levels[depth]
    n_r, n_phi = f.shape
    if level.inverse is not None:
        # x = inverse f on the interior, summed as (inverse * f).sum(axis=1)
        inner = _kernels.work_array(work, "inverse_f", (n_r - 2, n_phi - 2))
        np.copyto(inner, f[1:-1, 1:-1])
        prod = _kernels.work_array(work, "inverse_prod", level.inverse.shape)
        np.multiply(level.inverse, inner.reshape(-1), out=prod)
        np.sum(prod, axis=1, out=inner.reshape(-1))
        x[1:-1, 1:-1] = inner
        return x
    # the first pre-smoothing sweep, from x = 0, is the product (OMEGA / s) f
    np.multiply(level.system[2], f, out=x)
    for _ in range(SWEEPS - 1):
        _kernels.sor_sweep(x, level.system, f, work)
    res = apply(level.cE, level.cN, x, _kernels.work_array(work, "res", f.shape), work)
    np.subtract(f, res, out=res)
    coarse = levels[depth + 1].shape
    if coarse[0] < n_r:
        res = _restrict(res, 0, _kernels.work_array(work, "restrict_r", (coarse[0], n_phi)), work)
    if coarse[1] < n_phi:
        res = _restrict(res, 1, _kernels.work_array(work, "restrict_phi", coarse), work)
    xc = vcycle(levels, res, work, _kernels.work_array(work, "x", coarse), depth + 1)
    if coarse[1] < n_phi:
        xc = _prolong(xc, 1, _kernels.work_array(work, "prolong_phi", (coarse[0], n_phi)))
    if coarse[0] < n_r:
        xc = _prolong(xc, 0, _kernels.work_array(work, "prolong_r", f.shape))
    x += xc
    for _ in range(SWEEPS):
        _kernels.sor_sweep(x, level.system, f, work)
    return x


def pcg(u, levels, rtol, r, work) -> int:
    """Solve the finest level's system in place, warm-started from u, whose
    residual b - A u is r (as residual returns it; pcg overwrites it).

    Rows and columns 0 and -1 of u are Dirichlet data and stay unchanged.
    Stops when the residual's 2-norm falls to rtol times its value at u;
    returns the number of CG iterations, or MAX_CG if it misses the target or
    breaks down (r . z or p . A p not positive, as at large p).

    work is the workspace (see the module docstring), {} for a first call;
    a solve passes the same one to each pcg call.  pcg keeps in it the
    search direction p, the preconditioned residual z, which also holds the
    step alpha p until the V-cycle writes z, and the product A p, and
    passes it to vcycle and apply.  It zeroes their boundaries on entry,
    since a breakdown can leave them non-finite, so a call's result does
    not depend on the calls before it.
    """
    level = levels[0]
    rr = dot(r, r)
    if rr == 0.0:
        return 0
    target = rtol * rtol * rr
    p, z, q = (_kernels.work_array(work, name, u.shape) for name in ("p", "z", "Ap"))
    for x in (p, z, q):
        x[0] = x[-1] = 0.0
        x[:, 0] = x[:, -1] = 0.0
    vcycle(levels, r, work, p)
    rz = dot(r, p)
    for it in range(1, MAX_CG + 1):
        pq = dot(p, apply(level.cE, level.cN, p, q, work))
        if not (rz > 0.0 and pq > 0.0):
            return MAX_CG
        alpha = rz / pq
        u += np.multiply(p, alpha, out=z)  # z is free until the V-cycle below
        q *= alpha
        r -= q
        if dot(r, r) <= target:
            return it
        vcycle(levels, r, work, z)
        rz, rz_old = dot(r, z), rz
        p *= rz / rz_old
        p += z
    return MAX_CG


def _dst(x):
    """DST-I along the last axis, sum_j x_j sin(pi j k / (n + 1)) for
    j, k = 1..n, as -Im of the real FFT of the odd extension (0, x, 0, -x
    reversed), halved."""
    m, n = x.shape
    ext = np.zeros((m, 2 * n + 2))
    ext[:, 1:n + 1] = x
    ext[:, n + 2:] = -x[:, ::-1]
    return -0.5 * np.fft.rfft(ext)[:, 1:n + 1].imag


def sine_solve(u, cE, cN, r) -> None:
    """Solve the system of cE and cN in place, u[1:-1, 1:-1] += A^-1 r, for
    r = b - A u (as residual returns it; only its interior is read).

    Direct solve of a separable system, for coefficients constant along phi
    at the interior nodes: cE[:, 1:-1] and cN, as _cell_energy forms them at
    p = 2 (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7 (1970)).  A DST-I
    along phi diagonalizes the angular part, b_i (2 x_j - x_(j-1) - x_(j+1))
    with b = cN[:, 0], into b_i lam_k x_k, lam_k = 2 - 2 cos(pi k / (n_phi - 1)).
    Each sine mode k is then one tridiagonal system in r, diagonal
    (a_(i-1) + a_i) + b_i lam_k and off-diagonals -a_i, a = cE[:, 1], solved
    by a Thomas recurrence over all modes at once, and an inverse DST-I
    returns the correction.  Rows and columns 0 and -1 of u stay unchanged.
    """
    n_r, n_phi = u.shape
    a, b = cE[:, 1], cN[1:-1, 0]
    lam = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, n_phi - 1) / (n_phi - 1))
    diag = (a[:-1] + a[1:])[:, None] + b[:, None] * lam
    y = _dst(r[1:-1, 1:-1])
    # row i of diag and y is grid row i + 1, coupled to the row before by
    # a[i].  Forward elimination: diag[i] becomes the pivot, y[i] the
    # reduced right side
    for i in range(1, n_r - 2):
        g = a[i] / diag[i - 1]
        diag[i] -= a[i] * g
        y[i] += g * y[i - 1]
    # back substitution
    y[-1] /= diag[-1]
    for i in range(n_r - 4, -1, -1):
        y[i] += a[i + 1] * y[i + 1]
        y[i] /= diag[i]
    u[1:-1, 1:-1] += _dst(y) * (2.0 / (n_phi - 1))
