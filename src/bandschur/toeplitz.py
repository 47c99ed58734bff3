"""Banded upper-triangular Toeplitz matrices and their leading minors.

The underlying infinite matrix has entry s_{j-i} in row i, column j, with
s_0 = 1 and s_m = 0 outside 0..band.  A minor deletes the rows and columns
named by a MinorSpec and keeps the leading k x k block of what remains.
Symbolically the band coefficients are the elementary symmetric
polynomials of x_1..x_band, which makes every minor determinant a skew
Schur polynomial; verify_minor_schur checks that identity exactly.
"""

from __future__ import annotations

import cmath
from functools import lru_cache

import numpy as np

from .polyring import MultiPoly, elementary_symmetric
from .schur import PolyMatrix, schur_jacobi_trudi, symbolic_det
from .shapes import MinorSpec, min_k, shape_from_minor, surviving

MINOR_CACHE_SIZE = 32  # >= C(n, c - r) + 1, the minors one residual reads, n <= 6


def parse_complex(text: str) -> complex:
    """Parse 'a', 'bi', or 'a+bi' (also 'a-bi', 'i', '-i'); floats allowed."""
    tok = text.strip().replace(" ", "")
    if not tok:
        raise ValueError("empty complex token")
    try:
        return complex(float(tok))
    except ValueError:
        pass
    if not tok.endswith("i"):
        raise ValueError(f"bad complex token {text!r}")
    body = tok[:-1]
    # split the imaginary tail off at the last sign not inside an exponent
    for p in range(len(body) - 1, 0, -1):
        if body[p] in "+-" and body[p - 1] not in "eE":
            re_part, im_part = body[:p], body[p:]
            break
    else:
        re_part, im_part = "", body
    if im_part in ("", "+"):
        im = 1.0
    elif im_part == "-":
        im = -1.0
    else:
        try:
            im = float(im_part)
        except ValueError:
            raise ValueError(f"bad complex token {text!r}") from None
    if re_part:
        try:
            return complex(float(re_part), im)
        except ValueError:
            raise ValueError(f"bad complex token {text!r}") from None
    return complex(0.0, im)


def format_complex(z: complex) -> str:
    """Deterministic text form matching the parse grammar."""
    re_s = f"{z.real:.12g}"
    im_s = f"{abs(z.imag):.12g}"
    if z.imag == 0:
        return re_s
    sign = "-" if z.imag < 0 else "+"
    if z.real == 0:
        return ("-" if z.imag < 0 else "") + im_s + "i"
    return f"{re_s}{sign}{im_s}i"


class BandedSymbol:
    """Band coefficients (s_0..s_n) with s_0 = 1, n >= 1."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(complex(v) for v in coeffs)
        if len(coeffs) < 2:
            raise ValueError("symbol needs at least s_0, s_1")
        if coeffs[0] != 1:
            raise ValueError(f"s_0 must be 1, got {coeffs[0]}")
        if not all(cmath.isfinite(v) for v in coeffs):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("BandedSymbol is immutable")

    @property
    def band(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def parse(cls, text: str) -> "BandedSymbol":
        """Comma list of complex values; a leading s_0 = 1 may be omitted."""
        vals = [parse_complex(tok) for tok in text.split(",")]
        if vals and vals[0] != 1:
            vals = [1.0 + 0j] + vals
        return cls(vals)

    def __str__(self):
        return ",".join(format_complex(v) for v in self.coeffs)

    def __repr__(self):
        return f"BandedSymbol({self})"


def build_minor_numeric(sym: BandedSymbol, spec: MinorSpec, k: int) -> np.ndarray:
    """k x k minor with the spec's rows/columns deleted; complex entries."""
    if spec.band != sym.band:
        raise ValueError(f"spec band {spec.band} != symbol band {sym.band}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    rows = surviving(spec.deleted_rows, k)
    cols = surviving(spec.deleted_cols, k)
    out = np.zeros((k, k), dtype=np.complex128)
    for i, ri in enumerate(rows):
        for j, cj in enumerate(cols):
            d = cj - ri
            if 0 <= d <= sym.band:
                out[i, j] = sym.coeffs[d]
    return out


def build_minor_symbolic(spec: MinorSpec, k: int) -> PolyMatrix:
    """Same minor with s_d = e_d(x_1..x_band) as exact polynomial entries."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    n = spec.band
    rows = surviving(spec.deleted_rows, k)
    cols = surviving(spec.deleted_cols, k)
    entries = [
        [elementary_symmetric(cj - ri, n) for cj in cols] for ri in rows
    ]
    return PolyMatrix(entries, n)


def det_numeric(matrix: np.ndarray) -> complex:
    """Determinant by row-pivoted elimination (LAPACK); 0 x 0 gives 1."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"need a square matrix, got shape {matrix.shape}")
    if matrix.shape[0] == 0:
        return 1.0 + 0j
    # an overflowing determinant comes back inf or nan; callers check it
    with np.errstate(over="ignore", invalid="ignore"):
        return complex(np.linalg.det(matrix))


@lru_cache(maxsize=MINOR_CACHE_SIZE)
def minor_det_symbolic(spec: MinorSpec, k: int) -> MultiPoly:
    """Exact determinant of the symbolic k x k minor (LRU-cached)."""
    return symbolic_det(build_minor_symbolic(spec, k))


def verify_minor_schur(spec: MinorSpec, k: int) -> tuple[bool, MultiPoly]:
    """Check minor determinant == skew Schur polynomial of its shape.

    Both sides are computed independently (matching expansion of the minor
    vs Jacobi-Trudi determinant of the shape).  Returns (identity holds,
    residual polynomial).
    """
    lo = min_k(spec)
    if k < lo:
        raise ValueError(f"k = {k} below min_k = {lo} for {spec}")
    det = minor_det_symbolic(spec, k)
    schur = schur_jacobi_trudi(shape_from_minor(spec, k), spec.band)
    residual = det - schur
    return residual.is_zero, residual
