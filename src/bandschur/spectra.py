"""Eigenvalue limit sets of banded Toeplitz matrices, numerically.

For a band-n symbol and 0 < c < n, the large-k eigenvalues of the minor
with the first c columns deleted cluster where the c-th and (c+1)-th
smallest root moduli of z -> sum s_i z^i - v z^c coincide.  limit_set_scan
walks a rectangular grid of v values and reports the points whose relative
modulus gap falls below a tolerance.  Curve-coincidence points are all it
detects; isolated exceptional eigenvalue limits, when the symbol has any,
are out of scope and the reports say so.

The root moduli of every grid point come from one batched Aberth-Ehrlich
call, _kernels.scan_moduli.  poly_roots solves single polynomials with the
scalar _kernels.aberth_sweeps, the same iteration, and is the reference the
scan is checked against.  Both count a root as converged when its residual
is at the rounding floor of evaluating the polynomial there; there is no
tolerance to set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .shapes import MinorSpec
from .toeplitz import BandedSymbol, build_minor_numeric, format_complex

MAX_SWEEPS = 200

SCAN_NOTE = (
    "hits mark curve-coincidence points of root moduli; "
    "isolated exceptional limit points are not detected"
)


class RootConvergenceError(RuntimeError):
    """Aberth iteration missed the residual target; best iterate attached."""

    def __init__(self, message: str, best: np.ndarray):
        super().__init__(message)
        self.best = best


def _initial_circle(coeffs: np.ndarray) -> np.ndarray:
    """Start iterates on a circle at the geometric mean root radius.

    Radius (|c_0/c_d|)^(1/d) scaled by 1.1, random phases from seed 0; a
    zero constant term gets a unit-radius fallback.
    """
    d = len(coeffs) - 1
    radius = (abs(coeffs[0]) / abs(coeffs[-1])) ** (1.0 / d) * 1.1
    if radius == 0.0:
        radius = 1.1
    rng = np.random.default_rng(0)
    phases = rng.uniform(0.0, 2.0 * np.pi, d)
    return radius * np.exp(1j * phases)


def poly_roots(coeffs) -> np.ndarray:
    """All roots of c_0 + c_1 z + ... + c_d z^d by Aberth-Ehrlich iteration.

    Converged means every residual |p(z_i)| is at most the finite rounding
    floor of evaluating p at z_i (_kernels.aberth_sweeps).  Multiple roots
    come back as near-coincident clusters.  Roots are sorted by modulus,
    then phase.  Raises RootConvergenceError (carrying the best iterate) if
    MAX_SWEEPS sweeps do not reach the floor.
    """
    coeffs = np.asarray([complex(v) for v in coeffs], dtype=np.complex128)
    if coeffs.ndim != 1 or len(coeffs) < 2:
        raise ValueError("need at least degree 1")
    if coeffs[-1] == 0:
        raise ValueError("leading coefficient is zero")
    z = _initial_circle(coeffs)
    good = _kernels.aberth_sweeps(coeffs, z, MAX_SWEEPS)
    order = np.lexsort((np.angle(z), np.abs(z)))
    z = z[order]
    if not good:
        raise RootConvergenceError(
            f"no convergence after {MAX_SWEEPS} sweeps", best=z
        )
    return z


def root_modulus_profile(sym: BandedSymbol, c: int, v: complex) -> np.ndarray:
    """Ascending root moduli of sum s_i z^i - v z^c at one shift v."""
    n = sym.band
    if not 0 < c < n:
        raise ValueError(f"need 0 < c < band = {n}, got c = {c}")
    if sym.coeffs[-1] == 0:
        raise ValueError("top band coefficient is zero: degree drops")
    coeffs = list(sym.coeffs)
    coeffs[c] -= complex(v)
    roots = poly_roots(coeffs)
    return np.abs(roots)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular scan grid: nx x ny points over [re, im] ranges."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    nx: int
    ny: int

    def __post_init__(self):
        bounds = (self.re_min, self.re_max, self.im_min, self.im_max)
        if not all(math.isfinite(v) for v in bounds):
            raise ValueError("grid bounds must be finite")
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"grid needs nx, ny >= 1, got {self.nx}, {self.ny}")
        if self.re_max < self.re_min or self.im_max < self.im_min:
            raise ValueError("grid ranges must satisfy max >= min")

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        toks = text.split(",")
        if len(toks) != 6:
            raise ValueError(
                f"grid wants re_min,re_max,im_min,im_max,nx,ny, got {text!r}"
            )
        try:
            return cls(
                float(toks[0]), float(toks[1]), float(toks[2]), float(toks[3]),
                int(toks[4]), int(toks[5]),
            )
        except ValueError as exc:
            raise ValueError(f"bad grid {text!r}: {exc}") from None

    def re_values(self) -> np.ndarray:
        return np.linspace(self.re_min, self.re_max, self.nx)

    def im_values(self) -> np.ndarray:
        return np.linspace(self.im_min, self.im_max, self.ny)

    def pitch(self) -> float:
        """Largest step between neighboring grid points along either axis."""
        dx = (self.re_max - self.re_min) / (self.nx - 1) if self.nx > 1 else 0.0
        dy = (self.im_max - self.im_min) / (self.ny - 1) if self.ny > 1 else 0.0
        return max(dx, dy)

    def to_json_obj(self) -> dict:
        return {
            "re_min": self.re_min, "re_max": self.re_max,
            "im_min": self.im_min, "im_max": self.im_max,
            "nx": self.nx, "ny": self.ny,
        }


@dataclass(frozen=True)
class LimitSetReport:
    """Scan outcome: hit points in row-major grid order, plus failures."""

    symbol: BandedSymbol
    c: int
    grid: GridSpec
    tol: float
    hits: tuple[tuple[float, float, float], ...]  # (re, im, gap)
    failures: tuple[tuple[float, float, str], ...]
    note: str = SCAN_NOTE

    def to_csv(self) -> str:
        lines = ["re_v,im_v,gap"]
        for re_v, im_v, gap in self.hits:
            lines.append(f"{re_v:.12g},{im_v:.12g},{gap:.12g}")
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "symbol": [format_complex(v) for v in self.symbol.coeffs],
            "c": self.c,
            "grid": self.grid.to_json_obj(),
            "tol": self.tol,
            "hits": [
                {"re": re_v, "im": im_v, "gap": gap}
                for re_v, im_v, gap in self.hits
            ],
            "failures": [
                {"re": re_v, "im": im_v, "error": msg}
                for re_v, im_v, msg in self.failures
            ],
            "note": self.note,
        }


def limit_set_scan(
    sym: BandedSymbol, c: int, grid: GridSpec, tol: float
) -> LimitSetReport:
    """Mark grid points where the c-th relative root-modulus gap <= tol.

    The gap at v is (rho_{c+1} - rho_c) / rho_{c+1} with rho the ascending
    root moduli of sum s_i z^i - v z^c.  Points are scanned in row-major
    order (imaginary rows, real within a row), all in one batched kernel
    call.  Root-finder failures are reported per point, never raised.

    Near a double root the moduli, and so the gap, are only good to about
    sqrt(eps), 1e-8 relative, and to about 1e-7 at worst: on 1 + z^2 with
    c = 1 the true gap at v = -2 is 0, but the scan reports about 2e-9.  A
    tol below about 1e-6 is below that noise.
    """
    n = sym.band
    if not 0 < c < n:
        raise ValueError(f"need 0 < c < band = {n}, got c = {c}")
    if sym.coeffs[-1] == 0:
        raise ValueError("top band coefficient is zero: degree drops")
    if not tol >= 0:  # also rejects NaN, which would mark no point a hit
        raise ValueError(f"tol must be >= 0, got {tol}")
    base = np.asarray(sym.coeffs, dtype=np.complex128)
    z0 = _initial_circle(base)
    re = grid.re_values()
    im = grid.im_values()
    vre = np.tile(re, grid.ny)
    vim = np.repeat(im, grid.nx)
    moduli, ok = _kernels.scan_moduli(base, c, vre, vim, z0, MAX_SWEEPS)

    gaps = (moduli[:, c] - moduli[:, c - 1]) / moduli[:, c]
    message = f"no convergence after {MAX_SWEEPS} sweeps"
    failures = tuple(
        (float(vre[p]), float(vim[p]), message) for p in np.flatnonzero(~ok)
    )
    hits = tuple(
        (float(vre[p]), float(vim[p]), float(gaps[p]))
        for p in np.flatnonzero(ok & (gaps <= tol))
    )
    return LimitSetReport(
        symbol=sym, c=c, grid=grid, tol=tol,
        hits=hits, failures=failures,
    )


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues of one finite minor, sorted by (real, imag)."""

    spec: MinorSpec
    k: int
    eigenvalues: tuple[complex, ...]

    def to_csv(self) -> str:
        lines = ["re,im"]
        for z in self.eigenvalues:
            lines.append(f"{z.real:.12g},{z.imag:.12g}")
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "alpha": list(self.spec.deleted_rows),
            "beta": list(self.spec.deleted_cols),
            "n": self.spec.band,
            "k": self.k,
            "eigenvalues": [
                {"re": z.real, "im": z.imag} for z in self.eigenvalues
            ],
        }


def finite_section_spectrum(
    sym: BandedSymbol, spec: MinorSpec, k: int
) -> SpectrumResult:
    """Eigenvalues of the k x k minor (dense Hessenberg + shifted QR).

    When no rows are deleted and the deleted columns are exactly 1..c,
    the minor has constant diagonal s_c; that is asserted on the built
    matrix as a structural invariant.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    matrix = build_minor_numeric(sym, spec, k)
    c = spec.c
    if spec.r == 0 and spec.deleted_cols == tuple(range(1, c + 1)):
        diag = np.diagonal(matrix)
        assert np.all(diag == sym.coeffs[c]), "contiguous minor lost its diagonal"
    eigs = np.linalg.eigvals(matrix)
    order = np.lexsort((eigs.imag, eigs.real))
    eigs = eigs[order]
    return SpectrumResult(
        spec=spec, k=k, eigenvalues=tuple(complex(z) for z in eigs)
    )


@dataclass(frozen=True)
class ComparisonResult:
    """Distances from finite-section eigenvalues to the scanned hit set.

    failure_count is the number of grid points whose root solve did not
    converge; those points are neither hits nor misses.
    """

    k: int
    hit_count: int
    median_distance: float
    max_distance: float
    failure_count: int
    distances: tuple[float, ...] = field(repr=False)

    def to_json_obj(self) -> dict:
        return {
            "k": self.k,
            "hit_count": self.hit_count,
            "median_distance": self.median_distance,
            "max_distance": self.max_distance,
        }


def spectrum_vs_limitset(
    sym: BandedSymbol,
    c: int,
    k: int,
    grid: GridSpec,
    tol: float,
) -> ComparisonResult:
    """Distance statistics from minor eigenvalues to scan hits.

    Uses the contiguous minor (first c columns deleted).  An empty hit set
    is an error: the scan grid or tolerance does not see the limit set.
    """
    report = limit_set_scan(sym, c, grid, tol)
    if not report.hits:
        raise ValueError("empty hit set: enlarge the grid or tolerance")
    spec = MinorSpec((), tuple(range(1, c + 1)), sym.band)
    spectrum = finite_section_spectrum(sym, spec, k)
    hit_pts = np.array([complex(re_v, im_v) for re_v, im_v, _ in report.hits])
    dists = tuple(
        float(np.min(np.abs(hit_pts - z))) for z in spectrum.eigenvalues
    )
    return ComparisonResult(
        k=k,
        hit_count=len(report.hits),
        median_distance=float(np.median(dists)),
        max_distance=float(max(dists)),
        distances=dists,
        failure_count=len(report.failures),
    )
