"""Eigenvalue limit sets of banded Toeplitz matrices, numerically.

For a band-n symbol and 0 < c < n, the large-k eigenvalues of the minor
with the first c columns deleted cluster where the c-th and (c+1)-th
smallest root moduli of z -> sum s_i z^i - v z^c coincide.  limit_set_scan
walks a rectangular grid of v values and reports the points whose relative
modulus gap falls below a tolerance.  Curve-coincidence points are all it
detects; isolated exceptional eigenvalue limits, when the symbol has any,
are out of scope (the limitset command says so in its output).

The root moduli of every grid point come from one batched Aberth-Ehrlich
call, _kernels.scan_moduli, which moves all roots of all points at once
and counts a root as converged when its residual is at the rounding floor
of evaluating the polynomial there; there is no tolerance to set.
poly_roots solves single polynomials as companion-matrix eigenvalues
(LAPACK), a different algorithm, so checking the scan against it is an
independent check.

Results hold only what was computed: the hits and failures of a scan, the
sorted eigenvalues of a minor, the distance statistics of a comparison.
Their JSON, CSV and text layouts belong to cli.

numpy is imported on the first numeric step, not with this module: np
comes from _numpy, and nothing here reads it at import time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import _kernels
from ._numpy import np
from .shapes import MinorSpec
from .toeplitz import BandedSymbol, build_minor_numeric

MAX_SWEEPS = 200
UNIT_PHASES_CACHE_SIZE = 64  # one entry per polynomial degree


@functools.lru_cache(maxsize=UNIT_PHASES_CACHE_SIZE)
def _unit_phases(d: int) -> np.ndarray:
    """d points on the unit circle at random phases from seed 0, read-only."""
    rng = np.random.default_rng(0)
    unit = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, d))
    unit.flags.writeable = False
    return unit


def _initial_circle(coeffs: np.ndarray) -> np.ndarray:
    """Start iterates on a circle at the geometric mean root radius.

    Radius (|c_0/c_d|)^(1/d) scaled by 1.1, random phases from seed 0 (the
    same for every polynomial of degree d); a zero constant term gets a
    unit-radius fallback.  Returns a new array.
    """
    d = len(coeffs) - 1
    radius = (abs(coeffs[0]) / abs(coeffs[-1])) ** (1.0 / d) * 1.1
    if radius == 0.0:
        radius = 1.1
    return radius * _unit_phases(d)


def poly_roots(coeffs) -> np.ndarray:
    """All roots of c_0 + c_1 z + ... + c_d z^d, as companion-matrix eigenvalues.

    The companion matrix is the one numpy.roots builds, top row
    -c_(d-1)/c_d, ..., -c_0/c_d and ones below the diagonal, and its
    eigenvalues (LAPACK) are backward stable roots (Edelman & Murakami,
    Math. Comp. 64, 1995).  Multiple roots come back as near-coincident
    clusters.  Roots are sorted by modulus, then phase.  Raises ValueError
    when a companion entry or a root lies beyond double range.
    """
    coeffs = np.asarray([complex(v) for v in coeffs], dtype=np.complex128)
    if coeffs.ndim != 1 or len(coeffs) < 2:
        raise ValueError("need at least degree 1")
    if coeffs[-1] == 0:
        raise ValueError("leading coefficient is zero")
    with np.errstate(all="ignore"):
        top_row = -coeffs[-2::-1] / coeffs[-1]
    if np.isfinite(top_row).all():
        companion = np.eye(len(top_row), k=-1, dtype=np.complex128)
        companion[0] = top_row
        z = np.linalg.eigvals(companion)
        if np.isfinite(z).all():
            return z[np.lexsort((np.angle(z), np.abs(z)))]
    raise ValueError("root or companion entry beyond double range")


def _check_shift(sym: BandedSymbol, c: int) -> None:
    """Require 0 < c < n and s_n != 0, so every shift keeps n roots."""
    n = sym.band
    if not 0 < c < n:
        raise ValueError(f"need 0 < c < band = {n}, got c = {c}")
    if sym.coeffs[-1] == 0:
        raise ValueError("top band coefficient is zero: degree drops")


def root_modulus_profile(sym: BandedSymbol, c: int, v: complex) -> np.ndarray:
    """Ascending root moduli of sum s_i z^i - v z^c at one shift v."""
    _check_shift(sym, c)
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


@dataclass(frozen=True)
class LimitSetReport:
    """Scan outcome: hit points in row-major grid order, plus failures."""

    hits: tuple[tuple[float, float, float], ...]  # (re, im, gap)
    failures: tuple[tuple[float, float, str], ...]  # (re, im, message)


def limit_set_scan(
    sym: BandedSymbol, c: int, grid: GridSpec, tol: float
) -> LimitSetReport:
    """Mark grid points where the c-th relative root-modulus gap <= tol.

    The gap at v is (rho_{c+1} - rho_c) / rho_{c+1} with rho the ascending
    root moduli of sum s_i z^i - v z^c.  Points are scanned in row-major
    order (imaginary rows, real within a row), all in one batched kernel
    call.  Root-finder failures are reported per point, never raised.

    Near a double root the moduli, and so the gap, are only good to about
    sqrt(eps), 1e-8 relative, and to about 3e-7 at worst: on 1 + z^2 with
    c = 1 the true gap at v = -2 is 0, but the scan reports about 3e-9.  A
    tol below about 1e-6 is below that noise.
    """
    _check_shift(sym, c)
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
    failed = ~ok
    failures = tuple(
        (re_v, im_v, message)
        for re_v, im_v in zip(vre[failed].tolist(), vim[failed].tolist())
    )
    hit = ok & (gaps <= tol)
    hits = tuple(zip(vre[hit].tolist(), vim[hit].tolist(), gaps[hit].tolist()))
    return LimitSetReport(hits=hits, failures=failures)


def finite_section_spectrum(
    sym: BandedSymbol, spec: MinorSpec, k: int
) -> tuple[complex, ...]:
    """Eigenvalues of the k x k minor, sorted by (real, imag).

    Dense Hessenberg reduction and shifted QR (LAPACK).  When no rows are
    deleted and the deleted columns are exactly 1..c, the minor has
    constant diagonal s_c; that is asserted on the built matrix as a
    structural invariant.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    matrix = build_minor_numeric(sym, spec, k)
    if spec == MinorSpec.contiguous(spec.c, spec.band):
        diag = np.diagonal(matrix)
        assert np.all(diag == sym.coeffs[spec.c]), "contiguous minor lost its diagonal"
    eigs = np.linalg.eigvals(matrix)
    order = np.lexsort((eigs.imag, eigs.real))
    return tuple(complex(z) for z in eigs[order])


@dataclass(frozen=True)
class ComparisonResult:
    """Distances from finite-section eigenvalues to the scanned hit set.

    failure_count is the number of grid points whose root solve did not
    converge; those points are neither hits nor misses.
    """

    hit_count: int
    median_distance: float
    max_distance: float
    failure_count: int


def spectrum_vs_limitset(
    sym: BandedSymbol, c: int, k: int, report: LimitSetReport
) -> ComparisonResult:
    """Distance statistics from minor eigenvalues to the hits of a scan.

    report is limit_set_scan's outcome for the same sym and c; the caller
    runs the scan, so it can check the hits before they are used.  Uses
    the contiguous minor (first c columns deleted).  An empty hit set is
    an error: the scan grid or tolerance does not see the limit set.
    """
    if not report.hits:
        raise ValueError("empty hit set: enlarge the grid or tolerance")
    spec = MinorSpec.contiguous(c, sym.band)
    eigs = np.array(finite_section_spectrum(sym, spec, k))
    hits = np.array(report.hits)
    hit_pts = hits[:, 0] + 1j * hits[:, 1]
    dists = np.abs(eigs[:, None] - hit_pts[None, :]).min(axis=1)
    return ComparisonResult(
        hit_count=len(report.hits),
        median_distance=float(np.median(dists)),
        max_distance=float(dists.max()),
        failure_count=len(report.failures),
    )
