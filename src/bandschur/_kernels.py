"""Aberth-Ehrlich iteration kernels.

aberth_sweeps solves one polynomial with scalar Python arithmetic, one
root at a time (Gauss-Seidel: later roots see earlier corrections); it is
the engine of spectra.poly_roots and the independent reference the grid
scan is checked against.  scan_moduli uses the simultaneous form of the
same update (Aberth, Math. Comp. 27, 1973) for every grid point at once:
each sweep moves every root of every point that has not yet converged,
all from the iterates before the sweep, with a fixed number of numpy
operations.  Both are deterministic, so repeated runs give byte-identical
results.

Both share one stop test: a root z_i has converged when |p(z_i)| is at
most the rounding floor of evaluating p there and that floor is finite.
The floor bounds the rounding error of Horner's rule at z_i, so a residual
under it cannot be told from zero; it is built from the terms that meet at
z_i, so a coefficient that dwarfs them does not loosen it.
"""

import math

import numpy as np

# No compiled path exists; the constant remains because benchmark reports read it.
JIT_ENABLED = False

# Horner's rule at z rounds by up to about deg * EPS * sum_m |c_m| |z|^m
# (Higham, Accuracy and Stability of Numerical Algorithms, sec. 5.1); the
# margin covers complex arithmetic and the rounding of z itself.
FLOOR_ULPS = 4.0
EPS = np.finfo(np.float64).eps


def aberth_sweeps(coeffs, z, max_iter):
    """Run Aberth updates on z in place until every root passes the stop test.

    coeffs are ascending; z holds the current root iterates.  A root z_i
    passes when |p(z_i)| is no larger than the rounding floor of evaluating
    p there (_floor_coeffs) and that floor is finite.  A NaN residual fails,
    and so does an iterate that overflowed, whose floor is inf or NaN.
    Returns True if every root passes within max_iter sweeps.  Updates are
    sequential within a sweep (later roots see earlier corrections).
    """
    d = z.shape[0]
    deg = coeffs.shape[0] - 1
    # Python floats, which overflow to inf quietly
    floor_coeffs = _floor_coeffs(np.abs(coeffs), deg).tolist()
    with np.errstate(all="ignore"):
        for sweep in range(max_iter + 1):
            for i in range(d):
                zi = z[i]
                ri = float(abs(zi))
                pv = coeffs[deg]
                floor = floor_coeffs[deg]
                for m in range(deg - 1, -1, -1):
                    pv = pv * zi + coeffs[m]
                    floor = floor * ri + floor_coeffs[m]
                res = abs(pv)
                if not res <= floor < math.inf:
                    break
            else:
                return True
            if sweep == max_iter:
                return False
            for i in range(d):
                zi = z[i]
                pv = coeffs[deg]
                dv = 0j
                for m in range(deg - 1, -1, -1):
                    dv = dv * zi + pv
                    pv = pv * zi + coeffs[m]
                if pv == 0j:
                    continue
                s = 0j
                for j in range(d):
                    if j != i:
                        diff = zi - z[j]
                        if diff != 0j:
                            s += 1.0 / diff
                if dv != 0j:
                    w = pv / dv
                    denom = 1.0 - w * s
                    if denom != 0j:
                        z[i] = zi - w / denom
                elif s != 0j:
                    # stationary point of p: fall back to the pairwise repulsion
                    z[i] = zi + 1.0 / s


def _floor_coeffs(abs_coeffs, deg):
    """Coefficients whose value at |z| is the rounding floor of p at z.

    The floor is FLOOR_ULPS * deg * EPS * sum_m |c_m| |z|^m.
    """
    return (FLOOR_ULPS * deg * EPS) * abs_coeffs


def _horner_with_floor(coeffs, floor_coeffs, z, r):
    """p(z), p'(z) and the rounding floor at r = |z|, in one Horner pass.

    coeffs and floor_coeffs are ascending (degree >= 1); an entry may be a
    row with one value per column of z.  After the first step the running
    values are updated in place.
    """
    deg = len(coeffs) - 1
    pv = coeffs[deg] * z + coeffs[deg - 1]
    dv = np.full(z.shape, coeffs[deg], np.complex128)
    floor = floor_coeffs[deg] * r + floor_coeffs[deg - 1]
    for m in range(deg - 2, -1, -1):
        dv *= z
        dv += pv
        pv *= z
        pv += coeffs[m]
        floor *= r
        floor += floor_coeffs[m]
    return pv, dv, floor


def _aberth_update(z, pv, dv):
    """Move every root of every column of z at once by its Aberth correction.

    Each column of z holds the iterates of one polynomial, and pv, dv hold
    its values and derivatives there.  Root i moves to z_i - w / (1 - w * s)
    with w = p/p' and s = sum over j != i of 1/(z_i - z_j), all taken
    before the move.  The guards of aberth_sweeps run only on the columns
    whose plain update is not finite: each guard either leaves the plain
    update as it is or replaces an inf or NaN.
    """
    d = z.shape[0]
    zz = np.concatenate((z, z))
    s = np.zeros_like(z)
    for k in range(1, d):
        diff = z - zz[k:k + d]
        s += np.reciprocal(diff, out=diff)
    w = pv / dv
    s *= w
    np.subtract(1.0, s, out=s)
    np.divide(w, s, out=s)
    new = np.subtract(z, s, out=s)
    if not np.isfinite(new).all():
        bad = ~np.isfinite(new).all(axis=0)
        new[:, bad] = _guarded_update(z[:, bad], pv[:, bad], dv[:, bad])
    return new


def _guarded_update(z, pv, dv):
    """_aberth_update with the guards of aberth_sweeps, entry by entry."""
    d = z.shape[0]
    zz = np.concatenate((z, z))
    s = np.zeros_like(z)
    for k in range(1, d):
        diff = z - zz[k:k + d]
        # coincident iterates add nothing
        s += np.where(diff != 0, 1.0 / diff, 0j)
    w = pv / dv
    denom = 1.0 - w * s
    step = np.where((dv != 0) & (denom != 0), z - w / denom, z)
    # stationary point of p: fall back to the pairwise repulsion
    step = np.where((dv == 0) & (s != 0), z + 1.0 / s, step)
    return np.where(pv != 0, step, z)


def scan_moduli(base, c_index, vre, vim, z0, max_iter):
    """Sorted root moduli of base(z) - v*z^c_index for a batch of v values.

    The stop test of aberth_sweeps with the simultaneous update of
    _aberth_update, run for all points at once.  The iterates are one
    array, a row per root and a column per point; every point starts from
    z0.  Each sweep evaluates p and p' at every iterate in one Horner pass,
    which serves both the stop test and the update.  A point stops when
    each of its roots passes and then leaves the batch.  Returns (moduli,
    ok): moduli[p] ascending, and ok[p] False where max_iter sweeps missed
    the target (moduli[p] then hold the last iterate).
    """
    deg = base.shape[0] - 1
    npts = vre.shape[0]
    # one value per point for the shifted coefficient, scalars for the rest
    shifted = base[c_index] - (vre + 1j * vim)
    coeffs = list(base)
    coeffs[c_index] = shifted
    floor_coeffs = list(_floor_coeffs(np.abs(base), deg))
    floor_coeffs[c_index] = _floor_coeffs(np.abs(shifted), deg)
    moduli = np.empty((npts, deg), np.float64)
    ok = np.zeros(npts, np.bool_)
    idx = np.arange(npts)
    z = np.repeat(np.asarray(z0, np.complex128)[:, None], npts, axis=1)
    with np.errstate(all="ignore"):
        for sweep in range(max_iter + 1):
            r = np.abs(z)
            pv, dv, floor = _horner_with_floor(coeffs, floor_coeffs, z, r)
            done = ((np.abs(pv) <= floor) & (floor < np.inf)).all(axis=0)
            if done.any():
                ok[idx[done]] = True
                moduli[idx[done]] = r[:, done].T
                keep = ~done
                idx, z, pv, dv = idx[keep], z[:, keep], pv[:, keep], dv[:, keep]
                coeffs[c_index] = coeffs[c_index][keep]
                floor_coeffs[c_index] = floor_coeffs[c_index][keep]
            if sweep == max_iter or idx.size == 0:
                break
            z = _aberth_update(z, pv, dv)
    moduli[idx] = np.abs(z).T
    moduli.sort(axis=1)
    return moduli, ok
