"""Eigenvalue limit sets of banded Toeplitz matrices, numerically.

For a band-n symbol and 0 < c < n, the large-k eigenvalues of the minor
with the first c columns deleted cluster where the c-th and (c+1)-th
smallest root moduli of z -> sum s_i z^i - v z^c coincide.  limit_set_scan
walks a rectangular grid of v values and reports the points whose relative
modulus gap falls below a tolerance.  Curve-coincidence points are all it
detects; isolated exceptional eigenvalue limits, when the symbol has any,
are out of scope (the limitset command says so in its output).

Most grid points lie far from the curve, and Pellet's theorem proves it
without solving: a shift v with |s_c - v| > T, one threshold per scan,
has no root between two circles whose radii differ by the factor
1 - tol - PELLET_MARGIN, so its gap exceeds tol and it is no hit.  Such a
point is skipped, but only where the kernel's rounding floor is finite
at the Cauchy root bound, so every point the kernel would fail on is
still solved.  The root moduli of the other points come from one batched
Aberth-Ehrlich call, _kernels.scan_moduli, which moves all roots of all
points at once and counts a root as converged when its residual is at
the rounding floor of evaluating the polynomial there; there is no
tolerance to set.  Each point's iterates depend only on its own
polynomial, so skipping points changes no other point's result.
Every root outside the scan is a companion-matrix eigenvalue (LAPACK),
a different algorithm, so checking the scan against one is an
independent check.  _companion_roots is the one routine that builds and solves
companion matrices: poly_roots solves single polynomials with it, and
root_modulus_profiles the few shifts of such a check in one call.

Results hold only what was computed: the hits, failures and screen edge
of a scan, the sorted eigenvalues of a minor, the two distances of a
comparison.  Their JSON, CSV and text layouts belong to cli.

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
# A point the Pellet screen skips has a gap above tol + PELLET_MARGIN; the
# margin sits above the 3e-7 worst scan error near a double root, so the
# scan would not have called it a hit either.
PELLET_MARGIN = 1e-6
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
    # a ratio beyond double range gives an infinite radius, where every
    # point of a scan fails, as poly_roots does on such a polynomial
    with np.errstate(over="ignore"):
        radius = (abs(coeffs[0]) / abs(coeffs[-1])) ** (1.0 / d) * 1.1
    if radius == 0.0:
        radius = 1.1
    return radius * _unit_phases(d)


BEYOND_DOUBLE_RANGE = "root or companion entry beyond double range"


def _companion_roots(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Companion-matrix eigenvalues of each row of coeffs, and which are good.

    coeffs holds one row c_0, ..., c_d per polynomial, complex, with
    c_d != 0.  Each companion matrix is the one numpy.roots builds, top row
    -c_(d-1)/c_d, ..., -c_0/c_d and ones below the diagonal, and one stacked
    eigvals call (LAPACK) solves them all.  The eigenvalues are backward
    stable roots (Edelman & Murakami, Math. Comp. 64, 1995); multiple roots
    come back as near-coincident clusters.  A row is good when its
    companion entries and its roots lie within double range; the roots of
    any other row mean nothing.
    """
    with np.errstate(all="ignore"):
        top_rows = -coeffs[:, -2::-1] / coeffs[:, -1:]
    good = np.isfinite(top_rows).all(axis=1)
    companion = np.repeat(
        np.eye(top_rows.shape[1], k=-1, dtype=np.complex128)[None], len(coeffs), 0
    )
    # a row beyond double range gets a zero top row, so LAPACK never sees it
    companion[:, 0] = np.where(good[:, None], top_rows, 0)
    roots = np.linalg.eigvals(companion)
    return roots, good & np.isfinite(roots).all(axis=1)


def poly_roots(coeffs) -> np.ndarray:
    """All roots of c_0 + c_1 z + ... + c_d z^d, as companion-matrix eigenvalues.

    The one-row case of _companion_roots.  Roots are sorted by modulus,
    then phase.  Raises ValueError when a companion entry or a root lies
    beyond double range.
    """
    coeffs = np.asarray([complex(v) for v in coeffs], dtype=np.complex128)
    if coeffs.ndim != 1 or len(coeffs) < 2:
        raise ValueError("need at least degree 1")
    if coeffs[-1] == 0:
        raise ValueError("leading coefficient is zero")
    (z,), (good,) = _companion_roots(coeffs[None])
    if not good:
        raise ValueError(BEYOND_DOUBLE_RANGE)
    return z[np.lexsort((np.angle(z), np.abs(z)))]


def _check_shift(sym: BandedSymbol, c: int) -> None:
    """Require 0 < c < n and s_n != 0, so every shift keeps n roots."""
    n = sym.band
    if not 0 < c < n:
        raise ValueError(f"need 0 < c < band = {n}, got c = {c}")
    if sym.coeffs[-1] == 0:
        raise ValueError("top band coefficient is zero: degree drops")


def root_modulus_profiles(sym: BandedSymbol, c: int, vs) -> np.ndarray:
    """Ascending root moduli of sum s_i z^i - v z^c, one row per shift v in vs.

    All shifts are solved by one _companion_roots call, so each row is the
    moduli of poly_roots at its v, bit for bit.  The row of a shift whose
    companion entry or root lies beyond double range, where poly_roots
    raises, is all NaN.
    """
    _check_shift(sym, c)
    coeffs = np.tile(np.asarray(sym.coeffs, dtype=np.complex128), (len(vs), 1))
    coeffs[:, c] -= np.asarray([complex(v) for v in vs], dtype=np.complex128)
    roots, good = _companion_roots(coeffs)
    moduli = np.abs(roots)
    moduli[~good] = np.nan
    return np.sort(moduli, axis=1)


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
        spans = (self.re_max - self.re_min, self.im_max - self.im_min)
        if not all(math.isfinite(v) for v in spans):
            raise ValueError("grid spans must be finite")

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


@dataclass(frozen=True)
class LimitSetReport:
    """Scan outcome: hit points in row-major grid order, plus failures.

    screen_edge is the (re, im) of the point the Pellet screen skipped
    nearest its threshold, or None when it skipped none.
    """

    hits: tuple[tuple[float, float, float], ...]  # (re, im, gap)
    failures: tuple[tuple[float, float, str], ...]  # (re, im, message)
    screen_edge: tuple[float, float] | None = None


def _pellet_threshold(coeffs, c: int, tol: float) -> float:
    """T such that |s_c - v| > T proves a gap above tol + PELLET_MARGIN at v.

    With S(R) = sum over i != c of |s_i| R^(i - c), |s_c - v| > S(R) puts
    exactly c roots in |z| < R (Pellet's theorem, from Rouche's).  If it
    holds at R1 = q R2 and at R2, with q = 1 - tol - PELLET_MARGIN, no root
    lies between the circles, so the gap exceeds 1 - q.  T is the larger
    of S(R1) and S(R2) at the float radii, raised by a few ulps for
    rounding.  log S is convex in log R, so that maximum is least where
    S(R1) = S(R2), which bisection in log R2 finds.  Returns inf, which
    screens no point, when tol + PELLET_MARGIN >= 1 or T overflows.
    coeffs are a symbol's s_0..s_n, with s_0 = 1 and s_n != 0.
    """
    if tol + PELLET_MARGIN >= 1.0:
        return math.inf
    q = 1.0 - tol - PELLET_MARGIN
    log_q = math.log(q)
    terms = [(abs(s), i - c) for i, s in enumerate(coeffs) if i != c and s != 0]
    logs = [(math.log(w), p) for w, p in terms]

    def log_s(u):  # log S(e^u), without overflow
        e = [lw + p * u for lw, p in logs]
        top = max(e)
        return top + math.log(sum([math.exp(x - top) for x in e]))

    # The derivative of log S(e^u) is negative more than 2 log n below
    # every point where a falling term meets a rising one, and positive
    # as far above all of them; the balance point lies at most -log q
    # above the minimum.
    meets = [(lw - lv) / (p - r) for lw, r in logs if r < 0 for lv, p in logs if p > 0]
    pad = 2.0 * math.log(len(coeffs)) + 1.0
    lo, hi = min(meets) - pad, max(meets) + pad - log_q
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if log_s(mid) < log_s(mid + log_q):
            lo = mid
        else:
            hi = mid
    try:
        r2 = math.exp(hi)
        radii = (q * r2, r2)
        s_max = max(sum([w * r ** p for w, p in terms]) for r in radii)
    except (OverflowError, ZeroDivisionError):
        return math.inf
    return s_max * (1.0 + 4 * len(coeffs) * _kernels.EPS)


def _floor_finite_at_cauchy_bound(base, c: int, shift) -> np.ndarray:
    """Whether the kernel's rounding floor is finite at each point's root bound.

    The floor is _kernels._floor_at, the one scan_moduli's stop test
    reads, at the Cauchy bound 1 + max over i < n of |a_i| / |a_n|, which
    no root exceeds; shift holds |a_c| = |s_c - v| per point.
    """
    deg = len(base) - 1
    abs_base = np.abs(base)
    rest = max(abs_base[i] for i in range(deg) if i != c)
    floor_coeffs = list(_kernels._floor_coeffs(abs_base, deg))
    floor_coeffs[c] = _kernels._floor_coeffs(shift, deg)
    with np.errstate(all="ignore"):
        bound = 1.0 + np.maximum(shift, rest) / abs_base[deg]
        return np.isfinite(_kernels._floor_at(floor_coeffs, bound))


def limit_set_scan(
    sym: BandedSymbol, c: int, grid: GridSpec, tol: float
) -> LimitSetReport:
    """Mark grid points where the c-th relative root-modulus gap <= tol.

    The gap at v is (rho_{c+1} - rho_c) / rho_{c+1} with rho the ascending
    root moduli of sum s_i z^i - v z^c.  Points are scanned in row-major
    order (imaginary rows, real within a row).  A point with |s_c - v|
    above the Pellet threshold of _pellet_threshold has a gap above
    tol + PELLET_MARGIN and is skipped, unless the kernel's rounding floor
    is not finite at its Cauchy root bound; every other point is solved
    in one batched kernel call.  A point's iterates depend only on its
    own polynomial, so the report is the one a scan of every point gives.
    Root-finder failures are reported per point, never raised; a symbol
    whose |s_0 / s_n| overflows the starting radius fails at every point
    it solves, without a sweep.

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
    vre = np.tile(grid.re_values(), grid.ny)
    vim = np.repeat(grid.im_values(), grid.nx)
    shift = np.abs(base[c] - (vre + 1j * vim))
    screened = shift > _pellet_threshold(sym.coeffs, c, tol)
    screened &= _floor_finite_at_cauchy_bound(base, c, shift)
    edge = None
    if screened.any():
        nearest = np.where(screened, shift, np.inf).argmin()
        edge = (float(vre[nearest]), float(vim[nearest]))
    solve = ~screened
    vre, vim = vre[solve], vim[solve]
    if np.isfinite(z0).all():
        moduli, ok = _kernels.scan_moduli(base, c, vre, vim, z0, MAX_SWEEPS)
    else:
        # |s_0 / s_n| overflows: poly_roots rejects every shift, and no
        # iterate that starts at inf can pass the stop test, while the
        # kernel would refuse the coincident infinite starts
        moduli = np.full((vre.size, sym.band), np.nan)
        ok = np.zeros(vre.size, np.bool_)

    gaps = (moduli[:, c] - moduli[:, c - 1]) / moduli[:, c]
    message = f"no convergence after {MAX_SWEEPS} sweeps"
    failed = ~ok
    failures = tuple(
        (re_v, im_v, message)
        for re_v, im_v in zip(vre[failed].tolist(), vim[failed].tolist())
    )
    hit = ok & (gaps <= tol)
    hits = tuple(zip(vre[hit].tolist(), vim[hit].tolist(), gaps[hit].tolist()))
    return LimitSetReport(hits=hits, failures=failures, screen_edge=edge)


# diagonals m and -m count as conjugate within HERMITIAN_ULPS * m ulps
HERMITIAN_ULPS = 8


def _hermitian_scale(
    sym: BandedSymbol, spec: MinorSpec
) -> list[tuple[float, float]] | None:
    """Factors (r^(-m), r^m), m = 1..c, that make the section Hermitian.

    The section of spec = MinorSpec.contiguous(c, n) has s_{c+m} on
    diagonal m, for -c <= m <= n - c.  Multiplying diagonal m by r^(-m)
    is the similarity D^(-1) A D with D = diag(r^i), and gives h_m =
    s_{c+m} r^(-m).  The result is Hermitian when n = 2c, s_c is real and
    h_m = conj(h_(-m)) for m = 1..c.  The m = 1 pair fixes r^2 =
    s_{c+1} / conj(s_{c-1}), which must be real and positive: r is taken
    as sqrt(|s_{c+1}| / |s_{c-1}|), and the m = 1 test checks the phase.
    Returns None when any condition fails, when s_{c-1} or s_{c+1} is 0,
    or when a power of r leaves double range.  The factors returned are
    the very powers the pair test ran with, so the caller scales by
    exactly what was checked.

    Each pair must agree to HERMITIAN_ULPS * m ulps of the larger modulus.
    Rounding r and its powers moves h_m and conj(h_(-m)) apart by under
    3m ulps on symbols built from a drawn r and h.  The tolerance costs
    nothing in accuracy: eigvalsh solves the Hermitian H of the lower
    triangle, and the scaled section is H + E with E strictly upper
    triangular, |E| on diagonal m within HERMITIAN_ULPS * m ulps of
    ||H||_2, so ||E||_2 <= 4 c (c + 1) eps ||H||_2.  By Weyl's bound, in
    the Bauer-Fike form that holds for a normal H and any E, every
    eigenvalue of the section lies within ||E||_2 of one of H's, the size
    of eigvalsh's own backward error.
    """
    c, s = spec.c, sym.coeffs
    if spec != MinorSpec.contiguous(c, sym.band) or sym.band != 2 * c or s[c].imag:
        return None
    if not s[c - 1] or not s[c + 1]:
        return None
    r = math.sqrt(abs(s[c + 1]) / abs(s[c - 1]))
    if not 0.0 < r < math.inf:
        return None
    factors = []
    up = down = 1.0
    for m in range(1, c + 1):
        up /= r
        down *= r
        h_up, h_down = s[c + m] * up, s[c - m] * down
        slack = HERMITIAN_ULPS * m * _kernels.EPS * max(abs(h_up), abs(h_down))
        if not abs(h_up - h_down.conjugate()) <= slack < math.inf:
            return None
        factors.append((up, down))
    return factors


def finite_section_spectrum(
    sym: BandedSymbol, spec: MinorSpec, k: int
) -> tuple[complex, ...]:
    """Eigenvalues of the k x k minor, sorted by (real, imag).

    A section that a scaling z -> z/r of the symbol makes Hermitian, as
    _hermitian_scale decides (a contiguous spec, band n = 2c, real s_c,
    and s_{c+m} r^(-m) = conj(s_{c-m} r^m) for m = 1..c), has diagonal m
    multiplied by r^(-m), one strided write per offset with the factors
    _hermitian_scale returns; r^k is never formed.  That covers every
    Hermitian symbol (r = 1) and every real tridiagonal one with
    s_0 s_2 > 0.  It goes to LAPACK's Hermitian solver, eigvalsh: dsyevd
    when the entries are real, zheevd otherwise.  eigvalsh reads the lower
    triangle and the real part of the diagonal; the upper triangle agrees
    with it to the tolerance _hermitian_scale bounds.  The eigenvalues
    come back real, with imaginary part exactly 0, and accurate however
    far from normal the unscaled section is.

    Every other section goes to dense Hessenberg reduction and shifted QR
    (LAPACK eigvals): dgeev when the minor has no nonzero imaginary part,
    as for every real symbol and every spec, zgeev otherwise.  On the
    real path the complex eigenvalues come in exactly conjugate pairs and
    the real ones have imaginary part exactly 0.  When no rows are
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
    factors = _hermitian_scale(sym, spec)
    if factors is not None:
        flat = matrix.reshape(-1)  # a view: the built matrix is C-ordered
        for m, (up, down) in enumerate(factors, 1):  # empty slices once m >= k
            flat[m : (k - m) * k : k + 1] *= up  # diagonal m
            flat[m * k :: k + 1] *= down  # diagonal -m
    if not matrix.imag.any():
        matrix = matrix.real
    eigs = np.linalg.eigvals(matrix) if factors is None else np.linalg.eigvalsh(matrix)
    order = np.lexsort((eigs.imag, eigs.real))
    return tuple(complex(z) for z in eigs[order])


@dataclass(frozen=True)
class ComparisonResult:
    """Distances from finite-section eigenvalues to the scanned hit set.

    The hit and failure counts are those of the LimitSetReport compared.
    """

    median_distance: float
    max_distance: float


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
        median_distance=float(np.median(dists)),
        max_distance=float(dists.max()),
    )
