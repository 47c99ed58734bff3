"""Linear recurrence satisfied by the minor determinant sequence.

For a band-n symbol and a minor deleting r rows and c columns, the
determinant sequence k -> det(minor at block size k) satisfies a fixed
linear recurrence of order b = C(n, c - r) once k clears the shape
threshold.  Its coefficients are, up to sign, the elementary symmetric
polynomials of all products of c - r distinct variables: expanding
prod over subsets (t - x_{i1}...x_{id}) as sum Q_{b-m} t^m defines Q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb

from .polyring import MultiPoly
from .shapes import MinorSpec, min_k
from .toeplitz import minor_det_symbolic


@dataclass(frozen=True)
class CharCoeffs:
    """Recurrence coefficients Q_0..Q_b for band `band` and d = `extra`."""

    band: int
    extra: int
    q: tuple[MultiPoly, ...]

    @property
    def order(self) -> int:
        return len(self.q) - 1


@lru_cache(maxsize=None)
def char_coeffs(band: int, extra: int) -> CharCoeffs:
    """Coefficients from the product over all `extra`-subsets of variables.

    extra = 0 gives the single factor (t - 1), so Q = (1, -1): consecutive
    determinants are equal.  Only the band width and the row/column count
    difference enter; the deleted index values do not.
    """
    if band < 1:
        raise ValueError(f"band must be >= 1, got {band}")
    if not 0 <= extra <= band:
        raise ValueError(f"extra must be in 0..{band}, got {extra}")
    one = MultiPoly.one(band)
    zero = MultiPoly.zero(band)
    # ascending coefficients in t of prod (t - m_subset)
    t_coeffs = [one]
    for combo in combinations(range(1, band + 1), extra):
        m = one
        for i in combo:
            m = m * MultiPoly.variable(band, i)
        t_coeffs = [
            (t_coeffs[i - 1] if i >= 1 else zero)
            - m * (t_coeffs[i] if i < len(t_coeffs) else zero)
            for i in range(len(t_coeffs) + 1)
        ]
    b = comb(band, extra)
    assert len(t_coeffs) == b + 1
    q = tuple(t_coeffs[b - i] for i in range(b + 1))
    return CharCoeffs(band, extra, q)


def recurrence_residual(spec: MinorSpec, j: int) -> MultiPoly:
    """sum over m of Q_{b-m} * det(minor at block size m + j), exactly.

    Zero for every j at or above the shape threshold min_k(spec); below it
    the residual is generally a nonzero polynomial.  Computable for any
    j >= 0.
    """
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    coeffs = char_coeffs(spec.band, spec.c - spec.r)
    b = coeffs.order
    total = MultiPoly.zero(spec.band)
    for m in range(b + 1):
        total = total + coeffs.q[b - m] * minor_det_symbolic(spec, m + j)
    return total


@dataclass(frozen=True)
class RecurrenceReport:
    """Outcome of checking the recurrence over a j range."""

    spec: MinorSpec
    b: int
    j_lo: int
    j_hi: int
    all_zero: bool
    first_failure: int | None
    residuals: tuple[MultiPoly, ...] = field(repr=False)  # j = 0..j_hi, not in JSON

    def to_json_obj(self) -> dict:
        return {
            "spec": {
                "alpha": list(self.spec.deleted_rows),
                "beta": list(self.spec.deleted_cols),
                "n": self.spec.band,
            },
            "b": self.b,
            "j_range": [self.j_lo, self.j_hi],
            "all_zero": self.all_zero,
            "first_failure": self.first_failure,
        }


def verify_recurrence(spec: MinorSpec, j_max: int) -> RecurrenceReport:
    """Compute each residual j = 0..j_max once; those from min_k must vanish."""
    lo = min_k(spec)
    if j_max < lo:
        raise ValueError(f"j_max = {j_max} below min_k = {lo} for {spec}")
    residuals = tuple(recurrence_residual(spec, j) for j in range(j_max + 1))
    failures = [j for j in range(lo, j_max + 1) if not residuals[j].is_zero]
    return RecurrenceReport(
        spec=spec,
        b=comb(spec.band, spec.c - spec.r),
        j_lo=lo,
        j_hi=j_max,
        all_zero=not failures,
        first_failure=failures[0] if failures else None,
        residuals=residuals,
    )
