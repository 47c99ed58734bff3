"""Aberth-Ehrlich iteration kernels.

aberth_sweeps solves one polynomial with scalar Python arithmetic; it is the
engine of spectra.poly_roots and the independent reference the grid scan is
checked against.  scan_moduli runs the same Gauss-Seidel sweep for every
grid point at once: each root update is one set of numpy operations over
the points that have not yet converged.  Both are deterministic, so
repeated runs give byte-identical results.
"""

import numpy as np

# No compiled path exists; the constant remains because benchmark reports read it.
JIT_ENABLED = False


def aberth_sweeps(coeffs, z, tol_abs, max_iter):
    """Run Aberth updates on z in place until residuals drop below tol_abs.

    coeffs are ascending; z holds the current root iterates.  Returns True
    if every |p(z_i)| <= tol_abs within max_iter sweeps.  Updates are
    sequential within a sweep (later roots see earlier corrections).
    """
    d = z.shape[0]
    deg = coeffs.shape[0] - 1
    for _ in range(max_iter):
        done = True
        for i in range(d):
            pv = coeffs[deg]
            for m in range(deg - 1, -1, -1):
                pv = pv * z[i] + coeffs[m]
            if not abs(pv) <= tol_abs:  # a NaN residual is not converged
                done = False
                break
        if done:
            return True
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
    done = True
    for i in range(d):
        pv = coeffs[deg]
        for m in range(deg - 1, -1, -1):
            pv = pv * z[i] + coeffs[m]
        if not abs(pv) <= tol_abs:
            done = False
            break
    return done


def _horner(coeffs, z):
    """p(z) for ascending coefficients, by Horner's rule."""
    pv = coeffs[-1]
    for cm in coeffs[-2::-1]:
        pv = pv * z + cm
    return pv


def scan_moduli(base, c_index, vre, vim, z0, tol, max_iter):
    """Sorted root moduli of base(z) - v*z^c_index for a batch of v values.

    The same iteration as aberth_sweeps, run for all points at once: every
    point starts from the iterates z0 and stops when each |p(z_i)| <=
    tol * max|c_m| of its own coefficients, and a stopped point leaves the
    batch.  Returns (moduli, ok): moduli[p] ascending, and ok[p] False where
    max_iter sweeps missed the target (moduli[p] then hold the last iterate).
    """
    deg = base.shape[0] - 1
    npts = vre.shape[0]
    # one column per point for the shifted coefficient, scalars for the rest
    shifted = (base[c_index] - (vre + 1j * vim))[:, None]
    fixed_scale = np.abs(np.delete(base, c_index)).max()
    tol_abs = tol * np.maximum(np.abs(shifted), fixed_scale)
    coeffs = list(base)
    coeffs[c_index] = shifted
    moduli = np.empty((npts, deg), np.float64)
    ok = np.zeros(npts, np.bool_)
    idx = np.arange(npts)
    z = np.tile(np.asarray(z0, np.complex128), (npts, 1))
    with np.errstate(all="ignore"):
        for sweep in range(max_iter + 1):
            done = (np.abs(_horner(coeffs, z)) <= tol_abs).all(axis=1)
            if done.any():
                ok[idx[done]] = True
                moduli[idx[done]] = np.abs(z[done])
                keep = ~done
                idx, z = idx[keep], z[keep]
                shifted, tol_abs = shifted[keep], tol_abs[keep]
                coeffs[c_index] = shifted
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
