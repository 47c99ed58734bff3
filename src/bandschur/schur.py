"""Skew Schur polynomials via the dual Jacobi-Trudi determinant.

One exact, division-free determinant engine: an expansion over column
matchings that walks the columns in order and only ever multiplies a
running sum by a single small entry; one walk (_sweep) gives the
determinant of every leading block (leading_minors), and its state at a
column the start of the column map (recurrence.transfer_start).  The
rows it must track stay in a window of the band width for every matrix
this package builds (banded minors and dual Jacobi-Trudi matrices), so
it is fast there.  A dense matrix makes the window the whole size and
the work exponential in it (figures in the symbolic_det docstring).  A
PolyMatrix keeps only its column pattern, the nonzero (row, entry) pairs
of each column, so the sweep's degree bound and row window cost O(nnz),
the number of nonzero entries, which is O(size * band) for a banded
minor and for a dual Jacobi-Trudi matrix: both builders fill the pattern
from the band (shapes.band_pattern), never a dense list.

Jacobi-Trudi matrices are built in the elementary basis: entry e_d is the
variable y_d (see polyring), so their determinants are polynomials in
e_1..e_n.  schur_jacobi_trudi expands that determinant to x_1..x_n.
"""

from __future__ import annotations

from itertools import combinations

from .polyring import (
    MultiPoly,
    _addmul,
    _check_degree,
    _degree_bound,
    _elementary_basis,
    _raw,
    expand_elementary,
)
from .shapes import SkewShape, band_pattern


class PolyMatrix:
    """Immutable square matrix of MultiPoly entries over one variable set.

    A matrix keeps only its column pattern: columns[j] holds the (row,
    entry) pairs of column j's nonzero entries, rows ascending.  Indexing,
    equality, printing and the determinant sweep read the pattern, so the
    sweep's set-up costs the number of nonzero entries, not size**2.
    nvars names the variable count of an empty matrix; given with
    entries, it must be theirs.
    """

    __slots__ = ("columns", "nvars", "size")

    def __init__(self, rows, nvars: int | None = None):
        if nvars is not None and nvars < 1:
            raise ValueError(f"nvars must be >= 1, got {nvars}")
        rows = tuple(tuple(row) for row in rows)
        m = len(rows)
        columns = [[] for _ in range(m)]
        seen = set()
        for i, row in enumerate(rows):
            if len(row) != m:
                raise ValueError(f"matrix is not square: {m} rows, row of {len(row)}")
            for column, p in zip(columns, row):
                seen.add(p.nvars)
                if not p.is_zero:
                    column.append((i, p))
        if len(seen) > 1:
            raise ValueError(f"mixed variable counts {sorted(seen)}")
        if seen:
            (found,) = seen
            if nvars not in (None, found):
                raise ValueError(f"entries have {found} variables, not nvars = {nvars}")
            nvars = found
        elif nvars is None:
            raise ValueError("empty matrix needs an explicit nvars")
        _fill(self, columns, nvars)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    def __getitem__(self, ij):
        i, j = ij
        i = range(self.size)[i]  # negative from the end, IndexError past it
        return dict(self.columns[j]).get(i, MultiPoly.zero(self.nvars))

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.nvars == other.nvars and self.columns == other.columns

    def __repr__(self):
        m = self.size
        rows = "; ".join(
            ", ".join(str(self[i, j]) for j in range(m)) for i in range(m)
        )
        return f"PolyMatrix[{rows}]"


def _fill(matrix: PolyMatrix, columns, nvars: int) -> None:
    """Set the slots of a new matrix; the columns become tuples."""
    object.__setattr__(matrix, "columns", tuple(map(tuple, columns)))
    object.__setattr__(matrix, "nvars", nvars)
    object.__setattr__(matrix, "size", len(columns))


def _raw_matrix(columns, nvars: int) -> PolyMatrix:
    """Internal constructor skipping validation, as polyring._raw does.

    columns[j] must be the (row, entry) pairs of column j's nonzero
    entries, MultiPoly in nvars variables, in ascending row order.
    """
    matrix = object.__new__(PolyMatrix)
    _fill(matrix, columns, nvars)
    return matrix


def _elementary_band(row_at, col_at, nvars: int) -> PolyMatrix:
    """Matrix with entry e_d, d = col_at[j] - row_at[i], in the elementary basis.

    e_d is the variable y_d of MultiPoly(nvars): 1 at d = 0, 0 off
    0..nvars, so the column pattern is shapes.band_pattern's with each
    offset mapped to its basis polynomial.  col_at must be strictly
    increasing.  nvars < 1 raises ValueError before any entry is built.
    """
    basis = _elementary_basis(nvars)  # (1, y_1, ..., y_nvars, 0)
    pattern = band_pattern(row_at, col_at, nvars)
    return _raw_matrix([[(i, basis[d]) for i, d in pairs] for pairs in pattern], nvars)


def jacobi_trudi_matrix(shape: SkewShape, nvars: int) -> PolyMatrix:
    """Elementary-symmetric (dual) Jacobi-Trudi matrix of a skew shape.

    Size is the number of columns of the outer diagram; entry (i, j) is
    e_{outer'_i - inner'_j - i + j}, written as the variable y_d of the
    elementary basis.  That offset is (j - inner'_j) - (i - outer'_i), and
    both positions strictly increase, so the matrix is read from the band
    in O(width * nvars), as a minor is.  The empty shape gives the 0 x 0
    matrix, whose determinant is 1.
    """
    outer_conj = shape.outer.conjugate()
    inner_conj = shape.inner.conjugate()
    axis = range(1, len(outer_conj) + 1)
    row_at = [i - outer_conj.part(i) for i in axis]
    col_at = [j - inner_conj.part(j) for j in axis]
    return _elementary_band(row_at, col_at, nvars)


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

    Reads _sweep's states: after column k - 1 the state whose used rows
    are exactly 0..k-1 holds the leading k x k determinant.
    """
    nvars = matrix.nvars
    return [
        _raw(nvars, states.get((1 << k) - 1, {}))
        for k, states in enumerate(_sweep(matrix))
    ]


def _sweep(matrix: PolyMatrix):
    """The column sweep: yield its states before column 0 and after each column.

    Walks the columns in order, choosing the matched row for each; a state
    is the bit mask of used rows, and the rows it must track stay in a
    window for banded nonzero patterns.  Steps follow _moves.
    Division-free: only (partial sum) x (entry) products occur.  Each
    yield is a fresh dict {used: term dict}, left alone by later columns.

    A state is a term dict keyed by packed monomials (see polyring: the
    total degree in the top field, then x1..xn in EXPONENT_BITS-bit fields,
    x1 most significant), so each term product is one int add; the sweep
    starts from {0: 1}, the constant 1.  Every state after column j is a
    sum of products of one entry from each column up to j, so the sum over
    columns of their largest entry degree bounds every degree the sweep
    reaches.  It is checked once, before the first product, and a bound
    above polyring.MAX_DEGREE raises OverflowError, so no field can carry.

    The sweep reads the matrix's column pattern (PolyMatrix.columns): the
    degree bound and the reach of each column cost O(nnz), the number of
    nonzero entries, so a banded k x k minor costs O(k * band) before its
    first product.
    """
    m, nvars, columns = matrix.size, matrix.nvars, matrix.columns
    _check_degree(
        _degree_bound(([p for _, p in column] for column in columns), nvars)
    )
    reach = [m] * (m + 1)  # reach[j]: smallest nonzero row in columns j..m-1
    for j in range(m - 1, -1, -1):
        top = columns[j][0][0] if columns[j] else m  # pairs run rows ascending
        reach[j] = min(reach[j + 1], top)
    states: dict[int, dict[int, int]] = {0: {0: 1}}
    yield states
    for j in range(m):
        need = (1 << reach[j + 1]) - 1  # rows no later column reaches
        block = (1 << (j + 1)) - 1
        new_states: dict[int, dict[int, int]] = {}
        for used, acc in states.items():
            for grown, entry, sign in _moves(used, columns[j], need, block):
                # the entry has few terms, so it goes on the outside
                _addmul(new_states.setdefault(grown, {}), entry, acc, sign)
        states = new_states
        yield states


def _moves(used: int, column, need: int, block: int | None):
    """The one move rule: yield (grown, entry, sign) per (i, entry) of column.

    Row i must be unused, and grown = used | 1 << i must hold the rows of
    need unless it is block, a finished block kept although the rest
    cannot follow.  A permutation's sign is -1 to the number of its
    inversions; matching the rows column by column, choosing row i adds
    one inversion for each used row below it (a larger index), so the
    sign is -1 to that count.
    """
    for i, entry in column:
        grown = used | 1 << i
        if grown != used and (not need & ~grown or grown == block):
            yield grown, entry, -1 if (used >> i).bit_count() & 1 else 1


def transfer_map(
    band: int, extra: int
) -> tuple[tuple[int, ...], tuple[tuple[int, int, int, int], ...]]:
    """The column step leading_minors repeats on a band-n minor, d = extra = c - r.

    A state is the set S of used rows among the n just above a column's
    newest row, as a bit mask of offsets 0..n-1 with n - d bits set;
    states run in descending mask order.  A step is a _moves move over the
    window column, offsets o = 0..n with entries e_{n-o}, that uses offset
    0, which no later column reaches; it goes to (S | 1 << o) >> 1.

    Returns (states, steps), one (source, target, n - o, sign) per step.
    The k-step walks from a start vector u to t = (1 << (n - d)) - 1 sum
    to the leading (k0 + k) x (k0 + k) determinant of a minor, with k0
    and u from recurrence.transfer_start.  The minor deleting columns
    1..d is the case k0 = 0, u = {t: 1}: walks from t back to t.  The
    C(n, d) states are built from their set bits, not found among all
    2^n masks.
    """
    if band < 1:
        raise ValueError(f"band must be >= 1, got {band}")
    if not 0 <= extra <= band:
        raise ValueError(f"extra must be in 0..{band}, got {extra}")
    states = tuple(
        sum(1 << o for o in s)
        for s in combinations(range(band - 1, -1, -1), band - extra)
    )
    (window,) = band_pattern(range(band + 1), (band,), band)
    steps = tuple(
        (s, grown >> 1, offset, sign)
        for s in states
        for grown, offset, sign in _moves(s, window, 1, None)
    )
    return states, steps
