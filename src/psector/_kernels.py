"""The frozen 5-point operator of the multigrid levels, its damped Jacobi
smoother and the workspace of the solve.

The measure solver freezes the edge coefficients for a whole Picard cycle
and solves the frozen system with multigrid-preconditioned conjugate
gradients (see _multigrid).  apply(cE, cN, x) is that system's operator A,

    (A u)[i, j] = s u[i, j] - (aW u[i-1, j] + aE u[i+1, j]
                               + aS u[i, j-1] + aN u[i, j+1]),
    s = aW + aE + aS + aN,

with aW = cE[i-1, j], aE = cE[i, j], aS = cN[i, j-1] and aN = cN[i, j], the
edge arrays of _multigrid, the one coefficient layout from the measure
solver's energy to the smoother.  Every level of the V-cycle is smoothed by
damped Jacobi sweeps on A, u += OMEGA D^-1 (rhs - A u), D the diagonal s: a
sweep is split in two, sor_system(cE, cN) forms the weights OMEGA / s once
per level and cycle, and sor_sweep(u, system, rhs, work) makes one sweep
against them.  A sweep from u = 0 is the product (OMEGA / s) rhs, which the
V-cycle forms itself for its first pre-smoothing sweep.

The operator and the sweep keep their scratch arrays, the edge fluxes and
the sweep's residual, in the workspace work (work_array).
"""

from __future__ import annotations

import numpy as np

# the Jacobi damping: for the 5-point Laplacian, 4/5 gives the smallest
# amplification, 3/5, of the modes the coarse grid cannot represent
OMEGA = 0.8


def work_array(work, name, shape):
    """The float64 array of this name and shape in the workspace work, a
    dict from (name, shape) to array: made zeroed on first use and the same
    array on every later call; a fresh zeroed array when work is None.

    Only the code that names an array writes to it, so values it never
    overwrites, such as zeros on a boundary, hold on every call.
    """
    if work is None:
        return np.zeros(shape)
    key = (name, shape)
    array = work.get(key)
    if array is None:
        array = work[key] = np.zeros(shape)
    return array


def apply(cE, cN, x, out=None, work=None):
    """The operator of cE and cN on x, at the interior nodes; 0 on the boundary.

    Boundary values of x enter as the Dirichlet data of the neighbours.  A
    given out is overwritten and must be C-contiguous, as every array of
    the solve is; x may have any layout.

    Every difference and sum runs over the raveled field, which is
    contiguous: numpy copies a 2-D operand whose rows are offset views of
    one array through its iterator buffers, at about twice the cost.  A
    raveled angular difference x[i, j + 1] - x[i, j] wraps from the end of
    one row to the start of the next, and the interior rows' raveled sums
    cover their boundary columns; both land on the boundary columns only,
    which are zeroed at the end.  The interior equals the 2-D form's bit for
    bit: the same subtractions, products and sums in the same order.
    """
    if out is None:
        out = np.empty(x.shape)
    n, size = x.shape[1], x.size
    flat, inner = x.reshape(-1), out.reshape(-1)[n:size - n]
    # the radial, then the angular edge fluxes, one after the other in one
    # array of x's size
    flux = work_array(work, "flux", (size,))
    fr = np.subtract(flat[n:], flat[:-n], out=flux[:cE.size])
    fr *= cE.reshape(-1)
    np.subtract(fr[:-n], fr[n:], out=inner)
    fa = np.subtract(flat[1:], flat[:-1], out=flux[:size - 1])
    flux.reshape(x.shape)[:, :-1] *= cN  # the wrapped column stays unscaled
    inner += fa[n - 1:size - n - 1]
    inner -= fa[n:size - n]
    out[[0, -1]] = 0.0
    out[:, [0, -1]] = 0.0
    return out


def sor_system(cE, cN):
    """The frozen system of one level and cycle, ready for sor_sweep: cE,
    cN and the Jacobi weights OMEGA / s, an array of the field's shape that
    is 0 on the boundary.

    cE (n_r - 1, n_phi) and cN (n_r, n_phi - 1) are the nonnegative edge
    coefficients of a field of shape (n_r, n_phi), positive enough that
    every interior node's s is.  Build the system again after changing them.
    """
    weight = np.zeros((cN.shape[0], cE.shape[1]))
    s = (cE[:-1, 1:-1] + cE[1:, 1:-1]) + (cN[1:-1, :-1] + cN[1:-1, 1:])
    np.divide(OMEGA, s, out=weight[1:-1, 1:-1])
    return cE, cN, weight


def sor_sweep(u, system, rhs, work) -> None:
    """One damped Jacobi sweep, in place: u += (OMEGA / s) (rhs - A u).

    The "sor" in the name is a leftover: no sweep has over-relaxed since
    603e0da, and the benchmark's tracer counts the sweeps by this name.
    Interior nodes only; rows/columns 0 and -1 hold Dirichlet data, whose
    zero weights leave them as they are for a finite rhs.  system comes
    from sor_system for arrays of u's shape and rhs is an array of u's
    shape.  work is the workspace (work_array) of the residual and
    the fluxes.
    """
    cE, cN, weight = system
    res = apply(cE, cN, u, work_array(work, "sweep", u.shape), work)
    np.subtract(rhs, res, out=res)
    res *= weight
    u += res
