"""Linear recurrence satisfied by the minor determinant sequence.

For a band-n symbol and a minor deleting r rows and c columns, the
determinant sequence k -> det(minor at block size k) satisfies a fixed
linear recurrence of order b = C(n, c - r) once k clears the shape
threshold.  Its coefficients are, up to sign, the elementary symmetric
polynomials of all products of c - r distinct variables: expanding
prod over subsets (t - x_{i1}...x_{id}) as sum Q_{b-m} t^m defines Q.

Residuals are formed in the elementary basis (see polyring): one
leading_minors sweep over the largest symbolic minor a j range reads gives
every smaller minor as a leading block, and the memoised char_coeffs
reads each Q off det(t - M), M the map one column applies to that sweep's
states (schur.transfer_map), both in e_1..e_n; transfer_start reads the
map's start vector on a minor off that sweep's own state.  A residual is
zero in e exactly when it is zero in x.  recurrence_residual and
RecurrenceReport.residuals hand out the e-form;
polyring.expand_elementary gives the x-form.  A report holds only what
was checked; the recurrence command lays it out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from math import comb

from .polyring import MultiPoly, _degree, _raw, _sum_of_products, elementary_variable
from .schur import PolyMatrix, _sweep, leading_minors, symbolic_det, transfer_map
from .shapes import MinorSpec, min_k
from .toeplitz import build_minor_symbolic

CHAR_COEFFS_CACHE_SIZE = 32  # (band, extra) pairs; a sweep of bands 3-4 uses < 10


@lru_cache(maxsize=CHAR_COEFFS_CACHE_SIZE)
def char_coeffs(band: int, extra: int) -> tuple[MultiPoly, ...]:
    """Recurrence coefficients Q_0..Q_b in e_1..e_band, for d = extra.

    Q is read off det(t - M), M the sweep's column step
    (schur.transfer_map): entry (source, target) of M is sign * e_offset,
    rows and columns in transfer_map's state order.  M's eigenvalues are
    the x_S, so det(t - M) = prod_S (t - x_S): one symbolic_det, with t as
    variable band + 1, gives Q_m as the coefficient of t^(b-m).  The
    states run in descending mask order, which keeps the determinant's
    column sweep narrow (in ascending order, band 7 at extra 3 or 4 ran
    out of a 3 GB address-space limit).  extra = 0 gives Q = (1, -1):
    consecutive determinants are equal.  Only the band width and the
    row/column count difference enter; the deleted index values do not.
    """
    states, steps = transfer_map(band, extra)
    nvars = band + 1
    zero = MultiPoly.zero(nvars)
    t = MultiPoly.variable(nvars, nvars)
    index = {s: i for i, s in enumerate(states)}
    b = len(states)
    t_minus_m = [[t if i == j else zero for j in range(b)] for i in range(b)]
    for source, target, offset, sign in steps:
        i, j = index[source], index[target]
        t_minus_m[i][j] -= sign * elementary_variable(offset, nvars)
    q = [{} for _ in range(b + 1)]  # term dicts of Q_0..Q_b
    for exps, coeff in symbolic_det(PolyMatrix(t_minus_m)):
        q[b - exps[band]][exps[:band]] = coeff
    return tuple(MultiPoly(band, terms) for terms in q)


def transfer_start(spec: MinorSpec) -> tuple[int, dict[int, MultiPoly]]:
    """Start (k0, u) of transfer_map's column map M on the spec's minor, in e.

    From column k0 on, every column of the minor is transfer_map(n, d)'s
    window column, d = c - r: at k0 = max(0, beta_c - c, alpha_r - r +
    n - d), a term dropping out when its index set is empty, the columns
    are past the deleted ones and the window's rows past the deleted
    rows; k0 = min_k(spec) when r = 0.  u is the state schur._sweep holds
    after column k0 - 1 of the minor built with k0 + d + 1 columns (the
    first k0 columns reach rows up to k0 + d - 1, and a later column
    follows), each used-row mask re-keyed as a window mask,
    used >> (k0 + d - n), with rows above the matrix counted as used.
    No row below the window is lost: no later column reaches one, so the
    sweep keeps only states that hold them all.  Then for every k >= k0
    the leading k x k determinant is (M^(k - k0) u)[t], with
    t = (1 << (n - d)) - 1, the state of rows 0..k-1.
    """
    n, d = spec.band, spec.c - spec.r
    k0 = max(
        0,
        spec.deleted_cols[-1] - spec.c if spec.deleted_cols else 0,
        spec.deleted_rows[-1] - spec.r + n - d if spec.deleted_rows else 0,
    )
    states = next(islice(_sweep(build_minor_symbolic(spec, k0 + d + 1)), k0, None))
    above = (1 << n) - 1  # n used rows put above the matrix: the window is at k0 + d
    return k0, {
        (used << n | above) >> (k0 + d): _raw(n, acc) for used, acc in states.items()
    }


def recurrence_residual(spec: MinorSpec, j: int) -> MultiPoly:
    """sum over m of Q_{b-m} * det(minor at block size m + j), in e_1..e_n.

    Zero for every j at or above the shape threshold min_k(spec); below it
    the residual is generally a nonzero polynomial.  Computable for any
    j >= 0.
    """
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    return _residuals(spec, j, j)[0]


def _residuals(spec: MinorSpec, lo: int, hi: int) -> tuple[MultiPoly, ...]:
    """Residuals j = lo..hi from one sweep over the minor at size hi + b.

    Each smaller minor is a leading block of that one, so leading_minors
    gives every determinant the window reads.  Each residual adds its
    b + 1 products into one term dict (polyring._sum_of_products).  The
    degree of each Q_m and each determinant is read once, and every
    product's degree is checked from those.
    """
    q = char_coeffs(spec.band, spec.c - spec.r)
    b = len(q) - 1
    dets = leading_minors(build_minor_symbolic(spec, hi + b))
    q_deg = [_degree(p) for p in q]
    det_deg = [_degree(p) for p in dets]
    return tuple(
        _sum_of_products(
            (
                (q[b - m], dets[m + j], q_deg[b - m] + det_deg[m + j])
                for m in range(b + 1)
            ),
            spec.band,
        )
        for j in range(lo, hi + 1)
    )


@dataclass(frozen=True)
class RecurrenceReport:
    """Outcome of checking the recurrence for j = min_k..j_max."""

    b: int
    all_zero: bool
    first_failure: int | None
    residuals: tuple[MultiPoly, ...] = field(repr=False)  # j = 0..j_max, in e


def verify_recurrence(spec: MinorSpec, j_max: int) -> RecurrenceReport:
    """Compute each residual j = 0..j_max once; those from min_k must vanish."""
    lo = min_k(spec)
    if j_max < lo:
        raise ValueError(f"j_max = {j_max} below min_k = {lo} for {spec}")
    residuals = _residuals(spec, 0, j_max)
    failures = [j for j in range(lo, j_max + 1) if not residuals[j].is_zero]
    return RecurrenceReport(
        b=comb(spec.band, spec.c - spec.r),
        all_zero=not failures,
        first_failure=failures[0] if failures else None,
        residuals=residuals,
    )
