"""The scan kernel's sweep as it was before its numpy calls were cut.

scan_moduli and _aberth_update are kept here word for word, as the
reference the faster sweep in bandschur._kernels must match bit for bit:
the same floating-point operations on each element, so the same moduli
and the same ok flags.  The helpers they call are the package's own.
"""

from bandschur._kernels import _floor_coeffs, _guarded_update, _horner_with_floor
from bandschur._numpy import np


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
