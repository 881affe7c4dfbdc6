"""The red-black Gauss-Seidel smoother of the multigrid V-cycle.

The measure solver freezes the four edge coefficients for a whole Picard
cycle and solves the frozen system with multigrid-preconditioned conjugate
gradients (see _multigrid), which smooths every level with these sweeps.  The
sweep is split in two: sor_system(aW, aE, aS, aN) prepares what stays fixed,
once per level and cycle, and sor_sweep(u, system, rhs, colors) does one full
red-black Gauss-Seidel sweep against it, for the equations

    s u[i, j] - (aW u[i-1, j] + aE u[i+1, j] + aS u[i, j-1] + aN u[i, j+1])
        = rhs[i, j],    s = aW + aE + aS + aN,

relaxing the two colours in the given order.

presmooth(u, system, rhs) is the V-cycle's pre-smoothing sweep, which starts
from u = 0, and returns the residual it leaves.  Work whose result is known
is skipped.  Colour 0 relaxes against zero neighbours, so it is u = rhs / s;
colour 1 relaxes from zero, so its old value is not subtracted and added
back.  The residual is zero on colour 1, whose equations that half-sweep
has just solved, and on colour 0 rhs - s u cancels, leaving the neighbour
sum; both hold in exact arithmetic, so the V-cycle is the same linear
operator as with sor_sweep and a full residual.

Each colour is updated as two strided sublattices, the odd and the even
interior rows (u[i0::2, j0::2] against the neighbouring strided views of u),
with contiguous per-sublattice copies of the coefficients and of the
diagonal made by sor_system.
"""

from __future__ import annotations

import numpy as np


def _pack(shape, coef, color):
    """The two interior sublattices of one colour, (i + j) & 1 == color.

    One block per interior-row parity: index pairs of the node and of its
    west (i-1), east (i+1), south (j-1) and north (j+1) neighbours into u,
    then contiguous copies of aW, aE, aS, aN at the nodes and the diagonal.
    """
    n_r, n_phi = shape
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

        aW, aE, aS, aN = (np.ascontiguousarray(a[at(0, 0)]) for a in coef)
        s = (aW + aE) + (aS + aN)
        blocks.append((at(0, 0), at(-1, 0), at(1, 0), at(0, -1), at(0, 1),
                       aW, aE, aS, aN, s))
    return blocks


def _neighbour_sum(u, block):
    # aW u_W + aE u_E + aS u_S + aN u_N at a block's nodes, grouped as in the
    # masked reference sweep of the tests, so both agree bitwise
    _, at_w, at_e, at_s, at_n, aW, aE, aS, aN, _ = block
    nbr = aW * u[at_w]
    nbr += aE * u[at_e]
    t = aS * u[at_s]
    t += aN * u[at_n]
    nbr += t
    return nbr


def _relax(u, block, rhs):
    # same-colour nodes do not couple, so one vectorized update of a block
    # equals the sequential one
    nbr = _neighbour_sum(u, block)
    nbr += rhs[block[0]]
    nbr /= block[-1]
    uc = u[block[0]]
    nbr -= uc
    uc += nbr


def sor_system(aW, aE, aS, aN):
    """The frozen coefficients of one level and cycle, ready for sor_sweep.

    The a-arrays are nonnegative edge coefficients toward the four
    neighbours, of the shape of the field to be swept.  Build the system
    again after changing them.
    """
    coef = (aW, aE, aS, aN)
    return _pack(aW.shape, coef, 0), _pack(aW.shape, coef, 1)


def sor_sweep(u, system, rhs, colors=(0, 1)) -> None:
    """One full red-black Gauss-Seidel sweep, in place.

    Interior nodes only; rows/columns 0 and -1 hold Dirichlet data.
    system comes from sor_system for arrays of u's shape and rhs is an array
    of u's shape.  colors is the order of the two half-sweeps, (1, 0) being
    the adjoint of the default (0, 1).
    """
    for color in colors:
        for block in system[color]:
            _relax(u, block, rhs)


def presmooth(u, system, rhs):
    """sor_sweep(u, system, rhs) of a u that is zero, in place; returns rhs - A u.

    The field equals that sweep's (up to the sign of a zero); the residual,
    zero off colour 0, equals rhs - A u up to rounding.
    """
    for block in system[0]:
        np.divide(rhs[block[0]], block[-1], out=u[block[0]])
    for block in system[1]:
        nbr = _neighbour_sum(u, block)
        nbr += rhs[block[0]]
        np.divide(nbr, block[-1], out=u[block[0]])
    res = np.zeros_like(u)
    for block in system[0]:
        res[block[0]] = _neighbour_sum(u, block)
    return res
