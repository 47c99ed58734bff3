"""Skew Schur polynomials via the dual Jacobi-Trudi determinant.

One exact, division-free determinant engine: an expansion over column
matchings that walks the columns in order and only ever multiplies a
running sum by a single small entry; one walk gives the determinant of
every leading block (leading_minors).  The rows it must track stay in a
window of the band width for every matrix this package builds (banded
minors and dual Jacobi-Trudi matrices), so it is fast there.  A dense
matrix makes the window the whole size and the work exponential in it
(figures in the symbolic_det docstring).

Jacobi-Trudi matrices are built in the elementary basis: entry e_d is the
variable y_d (see polyring), so their determinants are polynomials in
e_1..e_n.  schur_jacobi_trudi expands that determinant to x_1..x_n.
"""

from __future__ import annotations

from .polyring import (
    MultiPoly,
    Monomial,
    _addmul,
    _raw,
    elementary_variable,
    expand_elementary,
)
from .shapes import SkewShape


class PolyMatrix:
    """Immutable square matrix of MultiPoly entries over one variable set."""

    __slots__ = ("entries", "nvars", "size")

    def __init__(self, entries, nvars: int | None = None):
        entries = tuple(tuple(row) for row in entries)
        m = len(entries)
        for row in entries:
            if len(row) != m:
                raise ValueError(f"matrix is not square: {m} rows, row of {len(row)}")
        seen = {p.nvars for row in entries for p in row}
        if len(seen) > 1:
            raise ValueError(f"mixed variable counts {sorted(seen)}")
        if seen:
            nvars = seen.pop()
        elif nvars is None:
            raise ValueError("empty matrix needs an explicit nvars")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "size", m)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.nvars == other.nvars and self.entries == other.entries

    def __repr__(self):
        rows = "; ".join(
            ", ".join(str(p) for p in row) for row in self.entries
        )
        return f"PolyMatrix[{rows}]"


def jacobi_trudi_matrix(shape: SkewShape, nvars: int) -> PolyMatrix:
    """Elementary-symmetric (dual) Jacobi-Trudi matrix of a skew shape.

    Size is the number of columns of the outer diagram; entry (i, j) is
    e_{outer'_i - inner'_j - i + j}, written as the variable y_d of the
    elementary basis.  The empty shape gives the 0 x 0 matrix, whose
    determinant is 1.
    """
    width = shape.outer.part(1)
    outer_conj = shape.outer.conjugate()
    inner_conj = shape.inner.conjugate()
    rows = []
    for i in range(1, width + 1):
        rows.append(
            [
                elementary_variable(
                    outer_conj.part(i) - inner_conj.part(j) - i + j, nvars
                )
                for j in range(1, width + 1)
            ]
        )
    return PolyMatrix(rows, nvars)


def schur_jacobi_trudi(shape: SkewShape, nvars: int) -> MultiPoly:
    """Skew Schur polynomial in x_1..x_n as a Jacobi-Trudi determinant.

    The determinant is taken in the elementary basis and expanded to x.
    """
    return expand_elementary(symbolic_det(jacobi_trudi_matrix(shape, nvars)))


# -- determinant engine ------------------------------------------------------


def symbolic_det(matrix: PolyMatrix) -> MultiPoly:
    """Exact determinant of a PolyMatrix: the last entry of leading_minors.

    Fast when nonzero entries cluster around the diagonal.  On a dense
    matrix the cost grows exponentially with the size: with 2 variables
    and two-term entries of degree <= 2 in each, 12 x 12 took 5.0 s and
    14 x 14 took 39 s on a 2-core host; a Berkowitz expansion, measured
    earlier on the same kind of host, took 2.2 s and 7.9 s.
    """
    return leading_minors(matrix)[-1]


def leading_minors(matrix: PolyMatrix) -> list[MultiPoly]:
    """Determinants of the leading k x k blocks, k = 0..size, in one sweep.

    Walks the columns in order, choosing the matched row for each; a state
    is the bit mask of used rows, and the rows it must track stay in a
    window for banded nonzero patterns.  After column j the state whose
    used rows are exactly 0..j holds the leading (j+1) x (j+1)
    determinant.  Signs count the used rows below each chosen row.
    Division-free: only (partial sum) x (entry) products occur.
    """
    m, nvars, entries = matrix.size, matrix.nvars, matrix.entries
    nz = [[i for i in range(m) if not entries[i][j].is_zero] for j in range(m)]
    reach = [m] * (m + 1)  # reach[j]: smallest nonzero row in columns j..m-1
    for j in range(m - 1, -1, -1):
        reach[j] = min([reach[j + 1], *nz[j]])
    states: dict[int, dict[Monomial, int]] = {0: {(0,) * nvars: 1}}
    dets = [_raw(nvars, states[0])]
    for j in range(m):
        need = (1 << reach[j + 1]) - 1  # rows no later column reaches
        block = (1 << (j + 1)) - 1
        new_states: dict[int, dict[Monomial, int]] = {}
        for used, acc in states.items():
            for i in nz[j]:
                grown = used | (1 << i)
                if grown == used:
                    continue
                # a finished block is kept even when the rest cannot follow
                if need & ~grown and grown != block:
                    continue
                sign = -1 if (used >> i).bit_count() & 1 else 1
                # the entry has few terms, so it goes on the outside
                _addmul(new_states.setdefault(grown, {}), entries[i][j], acc, sign)
        states = new_states
        dets.append(_raw(nvars, states.get(block, {})))
    return dets
