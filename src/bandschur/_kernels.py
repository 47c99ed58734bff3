"""Aberth-Ehrlich iteration kernel for the limit-set scan.

scan_moduli solves the polynomials of every grid point at once with the
simultaneous form of the Aberth update (Aberth, Math. Comp. 27, 1973):
each sweep moves every root of every point that has not yet converged,
all from the iterates before the sweep, with a fixed number of numpy
operations.  It is deterministic, so repeated runs give byte-identical
results.

On the small batches a scan leaves after its first sweeps, numpy's cost
per call outweighs the arithmetic, so a sweep keeps its calls few: the
stop test is built in place, the points that stop leave the batch
through one index array and take(), and the update's pairwise
differences reuse one buffer.  None of this changes the floating-point
operations any element sees, so the moduli and ok flags are bit for bit
those of a sweep that gathers with boolean masks and allocates freely.

The stop test: a root z_i has converged when |p(z_i)| is at most the
rounding floor of evaluating p there and that floor is finite.  The floor
bounds the rounding error of Horner's rule at z_i, so a residual under it
cannot be told from zero; it is built from the terms that meet at z_i, so
a coefficient that dwarfs them does not loosen it.

numpy is imported on the first scan, not with this module: np comes from
_numpy, and EPS is sys.float_info.epsilon, which equals
np.finfo(np.float64).eps.
"""

import sys

from ._numpy import np

# No compiled path exists; the constant remains because benchmark reports read it.
JIT_ENABLED = False

# Horner's rule at z rounds by up to about deg * EPS * sum_m |c_m| |z|^m
# (Higham, Accuracy and Stability of Numerical Algorithms, sec. 5.1); the
# margin covers complex arithmetic and the rounding of z itself.
FLOOR_ULPS = 4.0
EPS = sys.float_info.epsilon


def _floor_coeffs(abs_coeffs, deg):
    """Coefficients whose value at |z| is the rounding floor of p at z.

    The floor is FLOOR_ULPS * deg * EPS * sum_m |c_m| |z|^m.
    """
    return (FLOOR_ULPS * deg * EPS) * abs_coeffs


def _floor_at(floor_coeffs, r):
    """The rounding floor at the array r, by Horner's rule.

    floor_coeffs are ascending (degree >= 1); an entry may be an array
    that broadcasts against r.  After the first step the running value is
    updated in place.
    """
    deg = len(floor_coeffs) - 1
    floor = floor_coeffs[deg] * r + floor_coeffs[deg - 1]
    for m in range(deg - 2, -1, -1):
        floor *= r
        floor += floor_coeffs[m]
    return floor


def _horner_with_floor(coeffs, floor_coeffs, z, r):
    """p(z) and p'(z) by Horner's rule, and the rounding floor at r = |z|.

    coeffs and floor_coeffs are ascending (degree >= 1); an entry may be a
    row with one value per column of z.  After the first step the running
    values are updated in place.
    """
    deg = len(coeffs) - 1
    pv = coeffs[deg] * z + coeffs[deg - 1]
    dv = np.full(z.shape, coeffs[deg], np.complex128)
    for m in range(deg - 2, -1, -1):
        dv *= z
        dv += pv
        pv *= z
        pv += coeffs[m]
    return pv, dv, _floor_at(floor_coeffs, r)


def _aberth_update(z, pv, dv):
    """Move every root of every column of z at once by its Aberth correction.

    Each column of z holds the iterates of one polynomial, and pv, dv hold
    its values and derivatives there.  Root i moves to z_i - w / (1 - w * s)
    with w = p/p' and s = sum over j != i of 1/(z_i - z_j), all taken
    before the move.  The guards of _guarded_update run only on the
    columns whose plain update is not finite: each guard either leaves the
    plain update as it is or replaces an inf or NaN.
    """
    d = z.shape[0]
    zz = np.concatenate((z, z))
    s = np.zeros_like(z)
    diff = np.empty_like(z)
    for k in range(1, d):
        np.subtract(z, zz[k:k + d], out=diff)
        s += np.reciprocal(diff, out=diff)
    w = pv / dv
    s *= w
    np.subtract(1.0, s, out=s)
    np.divide(w, s, out=s)
    new = np.subtract(z, s, out=s)
    finite = np.isfinite(new)
    if not finite.all():
        bad = ~finite.all(axis=0)
        new[:, bad] = _guarded_update(z[:, bad], pv[:, bad], dv[:, bad])
    return new


def _guarded_update(z, pv, dv):
    """_aberth_update, entry by entry, guarded where the plain one fails.

    A root with p = 0 or a zero denominator stays where it is.
    """
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

    The stop test of the module docstring with the simultaneous update
    of _aberth_update, run for all points at once.  The iterates are one
    array, a row per root and a column per point; every point starts from
    z0.  Each sweep evaluates p and p' at every iterate in one Horner pass,
    which serves both the stop test and the update.  A point stops when
    each of its roots passes and then leaves the batch.  Returns (moduli,
    ok): moduli[p] ascending, and ok[p] False where max_iter sweeps missed
    the target (moduli[p] then hold the last iterate).  The entries of z0
    must be distinct: coincident iterates see the same sums, never
    separate and would find one root twice, so a repeated entry raises
    ValueError.
    """
    z0 = np.asarray(z0, np.complex128)
    if np.unique(z0).size != z0.size:
        raise ValueError("starting iterates must be distinct")
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
    z = np.repeat(z0[:, None], npts, axis=1)
    with np.errstate(all="ignore"):
        for sweep in range(max_iter + 1):
            r = np.abs(z)
            pv, dv, floor = _horner_with_floor(coeffs, floor_coeffs, z, r)
            passed = np.abs(pv) <= floor
            passed &= floor < np.inf
            done = passed.all(axis=0)
            if done.any():
                finished = idx[done]
                ok[finished] = True
                moduli[finished] = r[:, done].T
                keep = np.flatnonzero(~done)
                idx = idx.take(keep)
                z, pv, dv = (a.take(keep, axis=1) for a in (z, pv, dv))
                coeffs[c_index] = coeffs[c_index].take(keep)
                floor_coeffs[c_index] = floor_coeffs[c_index].take(keep)
            if sweep == max_iter or idx.size == 0:
                break
            z = _aberth_update(z, pv, dv)
    moduli[idx] = np.abs(z).T
    moduli.sort(axis=1)
    return moduli, ok
