"""Aberth-Ehrlich iteration kernels.

aberth_sweeps solves one polynomial with scalar Python arithmetic; it is the
engine of spectra.poly_roots and the independent reference the grid scan is
checked against.  scan_moduli runs the same Gauss-Seidel sweep for every
grid point at once: each root update is one set of numpy operations over
the points that have not yet converged.  Both are deterministic, so
repeated runs give byte-identical results.

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


def _horner(coeffs, z):
    """p(z) for ascending coefficients (degree >= 1), by Horner's rule.

    After the first step the running value is updated in place.
    """
    pv = coeffs[-1] * z + coeffs[-2]
    for cm in coeffs[-3::-1]:
        pv *= z
        pv += cm
    return pv


def scan_moduli(base, c_index, vre, vim, z0, max_iter):
    """Sorted root moduli of base(z) - v*z^c_index for a batch of v values.

    The same iteration and stop test as aberth_sweeps, run for all points
    at once: every point starts from the iterates z0 and stops when each
    of its roots passes, and a stopped point leaves the batch.  Returns
    (moduli, ok): moduli[p] ascending, and ok[p] False where max_iter
    sweeps missed the target (moduli[p] then hold the last iterate).
    """
    deg = base.shape[0] - 1
    npts = vre.shape[0]
    # one column per point for the shifted coefficient, scalars for the rest
    shifted = (base[c_index] - (vre + 1j * vim))[:, None]
    coeffs = list(base)
    coeffs[c_index] = shifted
    floor_coeffs = list(_floor_coeffs(np.abs(base), deg))
    floor_coeffs[c_index] = _floor_coeffs(np.abs(shifted), deg)
    moduli = np.empty((npts, deg), np.float64)
    ok = np.zeros(npts, np.bool_)
    idx = np.arange(npts)
    z = np.tile(np.asarray(z0, np.complex128), (npts, 1))
    with np.errstate(all="ignore"):
        for sweep in range(max_iter + 1):
            r = np.abs(z)
            res = np.abs(_horner(coeffs, z))
            floor = _horner(floor_coeffs, r)
            done = ((res <= floor) & (floor < np.inf)).all(axis=1)
            if done.any():
                ok[idx[done]] = True
                moduli[idx[done]] = r[done]
                keep = ~done
                idx, z = idx[keep], z[keep]
                coeffs[c_index] = coeffs[c_index][keep]
                floor_coeffs[c_index] = floor_coeffs[c_index][keep]
            if sweep == max_iter or idx.size == 0:
                break
            for i in range(deg):
                zi = z[:, i:i + 1]
                pv = coeffs[deg]
                dv = 0j
                for m in range(deg - 1, -1, -1):
                    dv = dv * zi + pv
                    pv = pv * zi + coeffs[m]
                s = 0j
                for j in range(deg):
                    if j != i:
                        diff = zi - z[:, j:j + 1]
                        s = s + np.where(diff != 0, 1.0 / diff, 0j)
                w = pv / dv
                denom = 1.0 - w * s
                step = np.where((dv != 0) & (denom != 0), zi - w / denom, zi)
                # stationary point of p: fall back to the pairwise repulsion
                step = np.where((dv == 0) & (s != 0), zi + 1.0 / s, step)
                z[:, i:i + 1] = np.where(pv != 0, step, zi)
    moduli[idx] = np.abs(z)
    moduli.sort(axis=1)
    return moduli, ok
