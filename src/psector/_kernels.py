"""Hot numeric kernels: red-black SOR sweeps, the multigrid smoother.

The measure solver freezes the four edge coefficients for a whole Picard
cycle and solves the frozen system with multigrid-preconditioned conjugate
gradients (see _multigrid), which smooths every level with these sweeps.  The
sweep is split in two: sor_system(aW, aE, aS, aN) prepares what stays fixed,
once per level and cycle, and sor_sweep(u, system, omega, rhs, colors) does
one full red-black sweep against it, for the equations

    s u[i, j] - (aW u[i-1, j] + aE u[i+1, j] + aS u[i, j-1] + aN u[i, j+1])
        = rhs[i, j],    s = aW + aE + aS + aN,

with rhs zero when omitted, relaxing the two colours in the given order.

Two interchangeable implementations: a numba @njit version (default when
numba imports) and a vectorized pure-numpy one.  Selection:

* env var PSECTOR_NO_NUMBA=1 forces the numpy path;
* a missing numba install falls back silently.

The numpy path updates each colour as two strided sublattices, the odd and
the even interior rows (u[i0::2, j0::2] against the neighbouring strided
views of u), with contiguous per-sublattice copies of the coefficients and
of the diagonal made by sor_system.  Both paths evaluate the identical
floating-point expression per node in the same order, so results agree
bitwise.
"""

from __future__ import annotations

import os

import numpy as np

_FORCE_NUMPY = os.environ.get("PSECTOR_NO_NUMBA", "").strip() not in ("", "0")

try:  # pragma: no cover - import guard
    if _FORCE_NUMPY:
        raise ImportError
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    _HAVE_NUMBA = False


def backend() -> str:
    """Name of the active sweep implementation: 'numba' or 'numpy'."""
    return "numba" if _HAVE_NUMBA else "numpy"


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


def _relax(u, block, omega, rhs):
    # same-colour nodes do not couple, so one vectorized update of a block
    # equals the sequential one; grouping as in _sor_color_nb
    at_c, at_w, at_e, at_s, at_n, aW, aE, aS, aN, s = block
    nbr = aW * u[at_w]
    nbr += aE * u[at_e]
    t = aS * u[at_s]
    t += aN * u[at_n]
    nbr += t
    if rhs is not None:
        nbr += rhs[at_c]
    nbr /= s
    uc = u[at_c]
    nbr -= uc
    nbr *= omega
    uc += nbr


def _sor_color_py(u, aW, aE, aS, aN, omega, color, rhs=None):
    # one half-sweep over nodes with (i + j) parity == color, vectorized
    for block in _pack(u.shape, (aW, aE, aS, aN), color):
        _relax(u, block, omega, rhs)


if _HAVE_NUMBA:

    @njit(cache=True)
    def _sor_color_nb(u, aW, aE, aS, aN, omega, color, rhs=None):  # pragma: no cover - jit
        n_r, n_phi = u.shape
        for i in range(1, n_r - 1):
            j0 = 1 + ((i + 1 + color) & 1)
            for j in range(j0, n_phi - 1, 2):
                # grouping matches the numpy path so both give bitwise-equal sweeps
                s = (aW[i, j] + aE[i, j]) + (aS[i, j] + aN[i, j])
                nbr = (aW[i, j] * u[i - 1, j] + aE[i, j] * u[i + 1, j]) + (
                    aS[i, j] * u[i, j - 1] + aN[i, j] * u[i, j + 1]
                )
                if rhs is not None:
                    nbr = nbr + rhs[i, j]
                u[i, j] = u[i, j] + omega * (nbr / s - u[i, j])

    def sor_system(aW, aE, aS, aN):  # pragma: no cover - numba only
        """The frozen coefficients of one level and cycle, ready for sor_sweep."""
        return aW, aE, aS, aN

    def sor_sweep(u, system, omega, rhs=None, colors=(0, 1)) -> None:  # pragma: no cover
        """One full red-black SOR sweep, in place; see the numpy variant."""
        for color in colors:
            _sor_color_nb(u, *system, omega, color, rhs)

else:

    def sor_system(aW, aE, aS, aN):
        """The frozen coefficients of one level and cycle, ready for sor_sweep.

        The a-arrays are nonnegative edge coefficients toward the four
        neighbours, of the shape of the field to be swept.  Build the system
        again after changing them.
        """
        coef = (aW, aE, aS, aN)
        return _pack(aW.shape, coef, 0), _pack(aW.shape, coef, 1)

    def sor_sweep(u, system, omega, rhs=None, colors=(0, 1)) -> None:
        """One full red-black SOR sweep, in place.

        Interior nodes only; rows/columns 0 and -1 hold Dirichlet data.
        system comes from sor_system for arrays of u's shape; rhs, if given,
        is an array of u's shape.  colors is the order of the two
        half-sweeps, (1, 0) being the adjoint of the default (0, 1).
        """
        for color in colors:
            for block in system[color]:
                _relax(u, block, omega, rhs)
