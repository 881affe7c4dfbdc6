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


def _relax(u, block, rhs):
    # same-colour nodes do not couple, so one vectorized update of a block
    # equals the sequential one; the sums are grouped as in the masked
    # reference sweep of the tests, so both agree bitwise
    at_c, at_w, at_e, at_s, at_n, aW, aE, aS, aN, s = block
    nbr = aW * u[at_w]
    nbr += aE * u[at_e]
    t = aS * u[at_s]
    t += aN * u[at_n]
    nbr += t
    nbr += rhs[at_c]
    nbr /= s
    uc = u[at_c]
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
