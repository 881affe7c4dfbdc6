"""The red-black Gauss-Seidel smoothers of the multigrid V-cycle.

The measure solver freezes the edge coefficients for a whole Picard cycle
and solves the frozen system with multigrid-preconditioned conjugate
gradients (see _multigrid), which smooths every level with these sweeps.  A
sweep is split in two: sor_system(cE, cN) prepares what stays fixed, once per
level and cycle, and the smoothers relax against it, colour by colour, the
equations

    s u[i, j] - (aW u[i-1, j] + aE u[i+1, j] + aS u[i, j-1] + aN u[i, j+1])
        = rhs[i, j],    s = aW + aE + aS + aN,

each node of a colour taking its Gauss-Seidel value (sum a u + rhs) / s.
aW = cE[i-1, j], aE = cE[i, j], aS = cN[i, j-1] and aN = cN[i, j] are read
from the edge arrays of _multigrid, the one coefficient layout from the
measure solver's energy to the sweep.

presmooth(u, system, rhs, work) is the V-cycle's pre-smoothing sweep, colour
0 then colour 1, which starts from u = 0, and returns the residual it
leaves.  Work whose result is known is skipped.  Colour 0 relaxes against
zero neighbours, so it is u = rhs / s.  The residual is zero on colour 1,
whose equations that half-sweep has just solved, and on colour 0 rhs - s u
cancels, leaving the neighbour sum; both hold in exact arithmetic, so the
V-cycle is the same linear operator as with a full sweep and a full
residual.  sor_sweep(u, system, rhs, work) is the post-smoothing sweep in
the reverse order, colour 1 then colour 0, so the V-cycle is symmetric.

Each colour is updated as two strided sublattices, the odd and the even
interior rows (u[i0::2, j0::2] against the neighbouring strided views of u),
with contiguous per-sublattice copies of the coefficients and of the
diagonal made by sor_system; the copies repay themselves, as strided views
in their place make a 256^2 (2, 3) and (1, 1.5) solve pair about 5% slower.
Both smoothers keep the per-block scratch of the neighbour sums, and
presmooth its residual, in the workspace work (work_array).
"""

from __future__ import annotations

import numpy as np


def _pack(cE, cN, color):
    """The two interior sublattices of one colour, (i + j) & 1 == color.

    One block per interior-row parity: index pairs of the node and of its
    west (i-1), east (i+1), south (j-1) and north (j+1) neighbours into u,
    then contiguous copies of aW, aE, aS, aN at the nodes and the diagonal.
    """
    n_r, n_phi = cN.shape[0], cE.shape[1]
    blocks = []
    for i0 in (1, 2):
        j0 = 1 + ((i0 + 1 + color) & 1)
        m = len(range(i0, n_r - 1, 2))
        q = len(range(j0, n_phi - 1, 2))
        if m == 0 or q == 0:
            continue

        def at(di, dj):
            a, b = i0 + di, j0 + dj
            return slice(a, a + 2 * m - 1, 2), slice(b, b + 2 * q - 1, 2)

        aW, aE = (np.ascontiguousarray(cE[at(di, 0)]) for di in (-1, 0))
        aS, aN = (np.ascontiguousarray(cN[at(0, dj)]) for dj in (-1, 0))
        s = (aW + aE) + (aS + aN)
        blocks.append((at(0, 0), at(-1, 0), at(1, 0), at(0, -1), at(0, 1),
                       aW, aE, aS, aN, s))
    return blocks


def work_array(work, name, shape):
    """The float64 array of this name and shape in the workspace work, a
    dict from (name, shape) to array: made zeroed on first use and the same
    array on every later call; a fresh zeroed array when work is None.

    Only the code that names an array writes to it, so values it never
    overwrites, such as the zeros off colour 0 of presmooth's residual,
    hold on every call.
    """
    if work is None:
        return np.zeros(shape)
    key = (name, shape)
    array = work.get(key)
    if array is None:
        array = work[key] = np.zeros(shape)
    return array


def _neighbour_sum(u, block, work):
    # aW u_W + aE u_E + aS u_S + aN u_N at a block's nodes, grouped as in the
    # masked reference sweep of the tests, so both agree bitwise; the sum is
    # the workspace's "nbr" array of the block's shape
    _, at_w, at_e, at_s, at_n, aW, aE, aS, aN, s = block
    nbr = work_array(work, "nbr", s.shape)
    t = work_array(work, "nbr_t", s.shape)
    q = work_array(work, "nbr_q", s.shape)
    np.multiply(aW, u[at_w], out=nbr)
    nbr += np.multiply(aE, u[at_e], out=q)
    np.multiply(aS, u[at_s], out=t)
    t += np.multiply(aN, u[at_n], out=q)
    nbr += t
    return nbr


def _relax(u, block, rhs, work):
    # same-colour nodes do not couple, so one vectorized update of a block
    # equals the sequential one
    nbr = _neighbour_sum(u, block, work)
    nbr += rhs[block[0]]
    np.divide(nbr, block[-1], out=u[block[0]])


def sor_system(cE, cN):
    """The frozen coefficients of one level and cycle, ready for the smoothers.

    cE (n_r - 1, n_phi) and cN (n_r, n_phi - 1) are the nonnegative edge
    coefficients of a field of shape (n_r, n_phi).  Build the system again
    after changing them.
    """
    return _pack(cE, cN, 0), _pack(cE, cN, 1)


def sor_sweep(u, system, rhs, work) -> None:
    """The V-cycle's post-smoothing sweep, in place: red-black Gauss-Seidel,
    colour 1 then colour 0, the adjoint of presmooth's order.

    Interior nodes only; rows/columns 0 and -1 hold Dirichlet data.
    system comes from sor_system for arrays of u's shape and rhs is an array
    of u's shape.  work is the workspace (work_array) of the neighbour sums.
    """
    for color in (1, 0):
        for block in system[color]:
            _relax(u, block, rhs, work)


def presmooth(u, system, rhs, work):
    """The V-cycle's pre-smoothing sweep of a u that is zero, in place:
    colour 0, then colour 1; returns rhs - A u.

    Every interior node of u is written, so only its boundary need be zero
    on entry.  The residual, zero off colour 0, equals rhs - A u up to
    rounding; it is the workspace's "res" array of u's shape, overwritten
    by the next call, and only its colour-0 nodes are ever written, so the
    rest stays zero.
    """
    for block in system[0]:
        np.divide(rhs[block[0]], block[-1], out=u[block[0]])
    for block in system[1]:
        _relax(u, block, rhs, work)
    res = work_array(work, "res", u.shape)
    for block in system[0]:
        res[block[0]] = _neighbour_sum(u, block, work)
    return res
