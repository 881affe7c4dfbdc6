"""Multigrid-preconditioned conjugate gradients for a frozen 5-point system.

The measure solver's Picard cycle freezes the edge coefficients of the
p-Laplacian and solves the linear system they define on the interior nodes
of the grid, with Dirichlet data on rows and columns 0 and -1:

    sum over the four edges e of node x:  c_e (u[x] - u[neighbour_e]) = f[x].

cE[i, j] couples nodes (i, j) and (i + 1, j), cN[i, j] nodes (i, j) and
(i, j + 1).  hierarchy(cE, cN) builds the levels once per cycle and pcg(u,
levels, rtol) solves in place, warm-started from u.  Every level, its
operator (apply) and its smoother (_kernels.sor_system) use this one edge
layout; the finest level holds the caller's cE and cN, not copies.

Each coarser level halves an axis, keeping the even-index nodes and the last
one, and stays a 5-point operator: along a coarsened axis two fine edges
combine in series, across it the edges of the three fine rows around a coarse
row are summed with weights (1/2, 1, 1/2).  Which axes a level halves is
chosen from its own coefficients (semicoarsening): only phi when the mean
angular coupling is at least ANISOTROPY times the mean radial one, only r in
the mirror case, both otherwise, and in every case only an axis with more
than COARSEST nodes.  The polar grid's angular couplings outweigh the radial
ones by a factor growing as nu^2, an anisotropy that a point smoother cannot
damp under full coarsening; a few semicoarsened levels bring it back to order
one.
The transfers are linear interpolation and its transpose, and the coarsest
level, at most COARSEST nodes per side, is solved with a dense inverse.
Every level but the coarsest is smoothed by one red-black Gauss-Seidel sweep
(_kernels.sor_sweep) before the coarse correction and one in the reverse
colour order after it, so the V-cycle is a symmetric positive definite
preconditioner.  The pre-smooth starts from zero, so _kernels.presmooth
computes its first half-sweep as a division and its residual on one colour
only, from the neighbour sums alone; in exact arithmetic the V-cycle is the
same linear operator as with a full sweep and the residual f - A x.

Inner products are numpy einsum reductions: np.dot and np.linalg.norm go
through BLAS, whose thread pool costs milliseconds per call on a busy
machine, where einsum costs microseconds.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import _kernels

COARSEST = 12  # nodes per side at which an axis is no longer coarsened
# a level halves only its strongly coupled axis when the mean coupling along
# it is at least this many times the other's: point Gauss-Seidel smooths the
# error only along the strong axis.  Halving one axis divides the ratio by 4,
# so 2 is where that lands as far from isotropy (ratio 1/2) as it started
ANISOTROPY = 2.0
MAX_CG = 200  # far above the 3-5 iterations of a logarithmic-grid Picard cycle


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


def _restrict(x, axis):
    """Transpose of _prolong along one axis: n nodes to n // 2 + 1."""
    n = x.shape[axis]
    m = (n + 1) // 2  # coarse nodes at even fine indices; for even n, n - 1 is one more
    shape = list(x.shape)
    shape[axis] = n // 2 + 1
    out = np.empty(shape)
    out[_at(axis, slice(0, m))] = x[_at(axis, slice(0, n, 2))]
    if n % 2 == 0:
        out[_at(axis, m)] = x[_at(axis, n - 1)]
    half = 0.5 * x[_at(axis, slice(1, 2 * m - 2, 2))]
    out[_at(axis, slice(0, m - 1))] += half
    out[_at(axis, slice(1, m))] += half
    return out


def _prolong(xc, axis, n):
    """Linear interpolation along one axis: n // 2 + 1 nodes to n."""
    m = (n + 1) // 2
    shape = list(xc.shape)
    shape[axis] = n
    out = np.empty(shape)
    out[_at(axis, slice(0, n, 2))] = xc[_at(axis, slice(0, m))]
    if n % 2 == 0:
        out[_at(axis, n - 1)] = xc[_at(axis, m)]
    mid = out[_at(axis, slice(1, 2 * m - 2, 2))]
    np.add(xc[_at(axis, slice(0, m - 1))], xc[_at(axis, slice(1, m))], out=mid)
    mid *= 0.5
    return out


def _series(c, axis, n):
    """Edges between n nodes along an axis, combined in series onto the coarse nodes."""
    m = (n + 1) // 2
    a = c[_at(axis, slice(0, 2 * m - 2, 2))]
    b = c[_at(axis, slice(1, 2 * m - 2, 2))]
    out = a * b / (a + b)
    if n % 2 == 0:  # the last coarse edge is the single fine edge n - 2
        out = np.concatenate([out, c[_at(axis, slice(n - 2, n - 1))]], axis=axis)
    return out


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

    cE has shape (n_r - 1, n_phi) and cN (n_r, n_phi - 1), both positive;
    n_r, n_phi >= 3.  The finest level holds cE and cN themselves.
    """
    levels = []
    while True:
        n_r, n_phi = cN.shape[0], cE.shape[1]
        coarsen_r, coarsen_phi = n_r > COARSEST, n_phi > COARSEST
        if coarsen_r and coarsen_phi:
            e, n = cE.mean(), cN.mean()
            coarsen_r, coarsen_phi = n < ANISOTROPY * e, e < ANISOTROPY * n
        levels.append(_level(cE, cN, not (coarsen_r or coarsen_phi)))
        if levels[-1].inverse is not None:
            return levels
        if coarsen_r:
            cE, cN = _series(cE, 0, n_r), _restrict(cN, 0)
        if coarsen_phi:
            cE, cN = _restrict(cE, 1), _series(cN, 1, n_phi)


def apply(level, x, out=None):
    """The level's operator on x, at the interior nodes; 0 on the boundary.

    Boundary values of x enter as the Dirichlet data of the neighbours.
    """
    fr = x[1:] - x[:-1]
    fr *= level.cE
    fa = x[:, 1:] - x[:, :-1]
    fa *= level.cN
    if out is None:
        out = np.zeros_like(x)
    inner = out[1:-1, 1:-1]
    np.subtract(fr[:-1, 1:-1], fr[1:, 1:-1], out=inner)
    inner += fa[1:-1, :-1]
    inner -= fa[1:-1, 1:]
    return out


def relative_residual(cE, cN, u) -> float:
    """||A u - b||_2 / ||b||_2 on the interior nodes for the frozen system of
    cE and cN (shaped as for hierarchy, which it does not call), where b is
    what u's Dirichlet rows and columns contribute."""
    level = Level(cE, cN, None, None)
    data = u.copy()
    data[1:-1, 1:-1] = 0.0
    r, b = apply(level, u), apply(level, data)
    return math.sqrt(dot(r, r) / dot(b, b))


def vcycle(levels, f, depth=0):
    """One V-cycle for A x = f from x = 0; f and x vanish on the boundary."""
    level = levels[depth]
    x = np.zeros_like(f)
    if level.inverse is not None:
        x[1:-1, 1:-1] = (level.inverse * f[1:-1, 1:-1].ravel()).sum(axis=1).reshape(
            f.shape[0] - 2, f.shape[1] - 2)
        return x
    res = _kernels.presmooth(x, level.system, f)
    n_r, n_phi = f.shape
    coarse = levels[depth + 1].shape
    if coarse[0] < n_r:
        res = _restrict(res, 0)
    if coarse[1] < n_phi:
        res = _restrict(res, 1)
    xc = vcycle(levels, res, depth + 1)
    if coarse[1] < n_phi:
        xc = _prolong(xc, 1, n_phi)
    if coarse[0] < n_r:
        xc = _prolong(xc, 0, n_r)
    x += xc
    _kernels.sor_sweep(x, level.system, f, (1, 0))
    return x


def pcg(u, levels, rtol) -> int:
    """Solve the finest level's system in place, warm-started from u.

    Rows and columns 0 and -1 of u are Dirichlet data and stay unchanged.
    Stops when the residual's 2-norm falls to rtol times its value at u;
    returns the number of CG iterations, or MAX_CG if it misses the target or
    breaks down (r . z or p . A p not positive, as at p = 20).
    """
    level = levels[0]
    r = apply(level, u)
    np.negative(r, out=r)
    rr = dot(r, r)
    if rr == 0.0:
        return 0
    target = rtol * rtol * rr
    p = vcycle(levels, r)
    rz = dot(r, p)
    q = np.zeros_like(u)
    tmp = np.empty_like(u)
    for it in range(1, MAX_CG + 1):
        pq = dot(p, apply(level, p, q))
        if not (rz > 0.0 and pq > 0.0):
            return MAX_CG
        alpha = rz / pq
        np.multiply(p, alpha, out=tmp)
        u += tmp
        q *= alpha
        r -= q
        if dot(r, r) <= target:
            return it
        z = vcycle(levels, r)
        rz, rz_old = dot(r, z), rz
        p *= rz / rz_old
        p += z
    return MAX_CG
