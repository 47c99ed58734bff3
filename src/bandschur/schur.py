"""Skew Schur polynomials via the dual Jacobi-Trudi determinant.

The determinant engines are exact and division-free.  Berkowitz handles
arbitrary square polynomial matrices; for matrices whose nonzero entries
cluster around the diagonal (every matrix this package builds) a
transfer-style expansion over column matchings is much faster, because it
only ever multiplies a running sum by a single small entry.  symbolic_det
picks between them from the nonzero pattern.
"""

from __future__ import annotations

from .polyring import MultiPoly, Monomial, elementary_symmetric
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

    def anti_transpose(self) -> "PolyMatrix":
        """Flip across the anti-diagonal; determinants are unchanged."""
        m = self.size
        return PolyMatrix(
            [
                [self.entries[m - 1 - j][m - 1 - i] for j in range(m)]
                for i in range(m)
            ],
            self.nvars,
        )


def jacobi_trudi_matrix(shape: SkewShape, nvars: int) -> PolyMatrix:
    """Elementary-symmetric (dual) Jacobi-Trudi matrix of a skew shape.

    Size is the number of columns of the outer diagram; entry (i, j) is
    e_{outer'_i - inner'_j - i + j}.  The empty shape gives the 0 x 0
    matrix, whose determinant is 1.
    """
    width = shape.outer.part(1)
    outer_conj = shape.outer.conjugate()
    inner_conj = shape.inner.conjugate()
    rows = []
    for i in range(1, width + 1):
        rows.append(
            [
                elementary_symmetric(
                    outer_conj.part(i) - inner_conj.part(j) - i + j, nvars
                )
                for j in range(1, width + 1)
            ]
        )
    return PolyMatrix(rows, nvars)


def schur_jacobi_trudi(shape: SkewShape, nvars: int) -> MultiPoly:
    """Skew Schur polynomial as a Jacobi-Trudi determinant."""
    return symbolic_det(jacobi_trudi_matrix(shape, nvars))


# -- determinant engines -----------------------------------------------------


def symbolic_det(matrix: PolyMatrix, method: str = "auto") -> MultiPoly:
    """Exact determinant of a PolyMatrix.

    method: "auto" (banded expansion when the nonzero pattern allows,
    Berkowitz otherwise), "banded", or "berkowitz".
    """
    if method == "berkowitz":
        return _det_berkowitz(matrix)
    if method not in ("auto", "banded"):
        raise ValueError(f"unknown method {method!r}")
    pattern = _nonzero_pattern(matrix)
    if pattern is None:
        return MultiPoly.zero(matrix.nvars)
    if method == "auto" and matrix.size > 2 and _band_window(*pattern) > 12:
        return _det_berkowitz(matrix)
    return _det_banded(matrix, *pattern)


def _nonzero_pattern(
    matrix: PolyMatrix,
) -> tuple[list[list[int]], list[int]] | None:
    """Nonzero rows of each column, and their running minimum from the right.

    future_min[j] is the smallest nonzero row in columns j..m-1, with
    future_min[m] = m.  None when a column is all zero: the determinant is 0.
    """
    m = matrix.size
    nz = [
        [i for i in range(m) if not matrix.entries[i][j].is_zero]
        for j in range(m)
    ]
    if any(not rows for rows in nz):
        return None
    future_min = [m] * (m + 1)
    for j in range(m - 1, -1, -1):
        future_min[j] = min(nz[j][0], future_min[j + 1])
    return nz, future_min


def _band_window(nz: list[list[int]], future_min: list[int]) -> int:
    """Largest row spread the matching expansion would have to track."""
    width = 0
    hi = -1
    for j in range(len(nz)):
        hi = max(hi, nz[j][-1])
        width = max(width, hi - future_min[j + 1] + 1)
    return width


def _det_banded(
    matrix: PolyMatrix, nz: list[list[int]], future_min: list[int]
) -> MultiPoly:
    """Column-by-column matching expansion with a used-row frontier.

    Walks the columns in order, choosing the matched row for each; states
    are sets of used rows, which stay confined to a window for banded
    nonzero patterns.  Signs come from counting inversions as rows are
    chosen.  Division-free: only (partial sum) x (entry) products occur.
    nz and future_min come from _nonzero_pattern.
    """
    m = matrix.size
    nvars = matrix.nvars
    one_key: Monomial = (0,) * nvars
    states: dict[frozenset[int], dict[Monomial, int]] = {
        frozenset(): {one_key: 1}
    }
    for j in range(m):
        fm = future_min[j + 1]
        new_states: dict[frozenset[int], dict[Monomial, int]] = {}
        for used, acc in states.items():
            for i in nz[j]:
                if i in used:
                    continue
                grown = used | {i}
                # a row below every future column's reach must be used now
                if any(u not in grown for u in range(fm)):
                    continue
                sign = -1 if sum(1 for u in used if u > i) % 2 else 1
                target = new_states.setdefault(grown, {})
                for eterm, ecoeff in matrix.entries[i][j]._terms.items():
                    step = sign * ecoeff
                    for aterm, acoeff in acc.items():
                        key = tuple(a + b for a, b in zip(aterm, eterm))
                        s = target.get(key, 0) + acoeff * step
                        if s:
                            target[key] = s
                        else:
                            del target[key]
        states = new_states
        if not states:
            return MultiPoly.zero(nvars)
    (final,) = states.values()
    return MultiPoly(nvars, final)


def _det_berkowitz(matrix: PolyMatrix) -> MultiPoly:
    """Berkowitz division-free determinant (characteristic vector form)."""
    nvars = matrix.nvars
    one = MultiPoly.one(nvars)
    if matrix.size == 0:
        return one
    vec = _berkowitz_vector(matrix.entries, nvars)
    sign = -1 if (len(vec) - 1) % 2 else 1
    return vec[-1] * sign


def _berkowitz_vector(entries, nvars: int) -> list[MultiPoly]:
    m = len(entries)
    one = MultiPoly.one(nvars)
    if m == 1:
        return [one, -entries[0][0]]
    pivot = entries[0][0]
    row = entries[0][1:]
    col = [entries[i][0] for i in range(1, m)]
    sub = [entries[i][1:] for i in range(1, m)]

    iterates = [col]
    for _ in range(m - 2):
        prev = iterates[-1]
        iterates.append(
            [
                sum((sub[i][t] * prev[t] for t in range(m - 1)), MultiPoly.zero(nvars))
                for i in range(m - 1)
            ]
        )
    toeplitz_col = [one, -pivot]
    for vec in iterates:
        dot = sum((row[t] * vec[t] for t in range(m - 1)), MultiPoly.zero(nvars))
        toeplitz_col.append(-dot)

    inner = _berkowitz_vector(sub, nvars)
    out = []
    for i in range(m + 1):
        acc = MultiPoly.zero(nvars)
        for j in range(m):
            if 0 <= i - j < len(toeplitz_col):
                acc = acc + toeplitz_col[i - j] * inner[j]
        out.append(acc)
    return out
