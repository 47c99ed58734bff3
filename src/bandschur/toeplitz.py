"""Banded upper-triangular Toeplitz matrices and their leading minors.

The underlying infinite matrix has entry s_{j-i} in row i, column j, with
s_0 = 1 and s_m = 0 outside 0..band.  A minor deletes the rows and columns
named by a MinorSpec and keeps the leading k x k block of what remains.
Symbolically the band coefficients are the elementary symmetric
polynomials of x_1..x_band, which makes every minor determinant a skew
Schur polynomial; verify_minor_schur checks that identity exactly.

Symbolic minors are built and kept in the elementary basis: s_d is the
variable y_d = e_d (see polyring), so minor_det_symbolic and the
verify_minor_schur residual are polynomials in e_1..e_band.  Callers that
print or compare in x_1..x_band apply polyring.expand_elementary.

numpy is imported on the first numeric step (build_minor_numeric,
det_numeric), not with this module: np comes from _numpy, so the symbolic
builders and verify_minor_schur run without it.
"""

from __future__ import annotations

import cmath
from functools import lru_cache

from ._numpy import np
from .polyring import MultiPoly
from .schur import PolyMatrix, _elementary_band, jacobi_trudi_matrix, symbolic_det
from .shapes import MinorSpec, shape_from_minor, surviving

MINOR_CACHE_SIZE = 36  # verify_minor_schur's minors; recurrences sweep their own


def parse_complex(text: str) -> complex:
    """Parse 'a', 'bi', or 'a+bi' (also 'a-bi', 'i', '-i'); floats allowed.

    Spaces are ignored.  The grammar is Python's complex() with i for j,
    so Python's own forms 'bj', 'bJ' and '(a+bj)' are refused.
    """
    tok = text.strip().replace(" ", "")
    if not tok:
        raise ValueError("empty complex token")
    if not any(ch in tok for ch in "jJ("):
        try:
            return complex(tok[:-1] + "j" if tok.endswith("i") else tok)
        except ValueError:
            pass
    raise ValueError(f"bad complex token {text!r}")


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
    out = np.zeros((k, k), dtype=np.complex128)  # a huge k is refused before any loop
    rows = np.array(surviving(spec.deleted_rows, k), dtype=np.intp)
    cols = np.array(surviving(spec.deleted_cols, k), dtype=np.intp)
    d = cols[None, :] - rows[:, None]
    on_band = (d >= 0) & (d <= sym.band)
    out[on_band] = np.array(sym.coeffs, dtype=np.complex128)[d[on_band]]
    return out


def build_minor_symbolic(spec: MinorSpec, k: int) -> PolyMatrix:
    """Same minor with s_d = e_d as exact entries, in the elementary basis.

    Entry s_d is the variable y_d of MultiPoly(band): 1 at d = 0, 0 off the
    band.  The column pattern, all a PolyMatrix keeps, is read from the
    band over the surviving rows and columns (shapes.band_pattern), so the
    matrix costs O(k * band).
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    rows = surviving(spec.deleted_rows, k)
    cols = surviving(spec.deleted_cols, k)
    return _elementary_band(rows, cols, spec.band)


def det_numeric(matrix: np.ndarray) -> complex:
    """Determinant by row-pivoted elimination (LAPACK); 0 x 0 gives 1."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"need a square matrix, got shape {matrix.shape}")
    # an overflowing determinant comes back inf or nan; callers check it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return complex(np.linalg.det(matrix))


@lru_cache(maxsize=MINOR_CACHE_SIZE)
def minor_det_symbolic(spec: MinorSpec, k: int) -> MultiPoly:
    """Exact determinant of the symbolic k x k minor in e_1..e_band (LRU-cached)."""
    return symbolic_det(build_minor_symbolic(spec, k))


def verify_minor_schur(spec: MinorSpec, k: int) -> tuple[bool, MultiPoly]:
    """Check minor determinant == skew Schur polynomial of its shape.

    The minor's determinant and the dual Jacobi-Trudi determinant of
    shape_from_minor(spec, k) are compared in the elementary basis, where
    they agree exactly when they agree in x.  They are not independent:
    at equal sizes the Jacobi-Trudi matrix is the minor's matrix, its
    transpose or a rotation of either, and both go through leading_minors.
    So this checks shape_from_minor's index bookkeeping, not the
    determinant engine; schur --method both checks the identity against
    the independent tableaux engine.
    Returns (identity holds, residual in e_1..e_band).
    """
    shape = shape_from_minor(spec, k)  # raises below min_k
    det = minor_det_symbolic(spec, k)
    schur = symbolic_det(jacobi_trudi_matrix(shape, spec.band))
    residual = det - schur
    return residual.is_zero, residual
