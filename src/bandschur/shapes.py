"""Partitions, skew shapes, and banded-matrix minor specifications.

A minor specification names the rows and columns deleted from the infinite
banded upper-triangular Toeplitz matrix before taking the leading k x k
block.  Every such minor determinant is a skew Schur polynomial; the shape
it corresponds to is produced by :func:`shape_from_minor`.  Both sides
are matrices whose entry depends only on an offset between a row and a
column position, zero off the band; :func:`band_pattern` lists where such
a matrix is nonzero.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import index


class Partition:
    """Weakly decreasing tuple of positive integers.

    Trailing zeros are dropped at construction, so a partition holds no
    zero parts: Partition((2, 1, 0)) has parts (2, 1) and equals
    Partition((2, 1)).  A tuple or list equals a partition only when it
    holds exactly its parts, so (2, 1) does and (2, 1, 0) does not; equal
    values then hash alike.  Parts must be integers (`operator.index`), so
    a float or a string raises TypeError rather than being truncated.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(map(index, parts))
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"not weakly decreasing: {parts}")
        if parts and parts[-1] < 0:
            raise ValueError(f"negative part in {parts}")
        # weakly decreasing and non-negative: the zeros are the tail
        parts = parts[: len(parts) - parts.count(0)]
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def __eq__(self, other):
        if isinstance(other, (tuple, list)):
            return self.parts == tuple(other)
        if not isinstance(other, Partition):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __iter__(self):
        return iter(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"

    def __str__(self):
        return ",".join(str(p) for p in self.parts)

    def size(self) -> int:
        return sum(self.parts)

    def part(self, i: int) -> int:
        """1-based part access, 0 beyond the last part."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def contains(self, other: "Partition") -> bool:
        return all(self.part(i) >= p for i, p in enumerate(other.parts, 1))

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram: column lengths become parts."""
        return Partition(
            sum(1 for p in self.parts if p >= j) for j in range(1, self.part(1) + 1)
        )


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated partition; empty or blank string is empty."""
    text = text.strip()
    if not text:
        return Partition()
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad partition {text!r}: {exc}") from None
    return Partition(parts)


class SkewShape:
    """Pair of partitions outer/inner with inner contained in outer.

    Equality and hashing read the parts of both, paired once at
    construction.
    """

    __slots__ = ("outer", "inner", "_key", "_hash")

    def __init__(self, outer, inner=()):
        outer = outer if isinstance(outer, Partition) else Partition(outer)
        inner = inner if isinstance(inner, Partition) else Partition(inner)
        if not outer.contains(inner):
            raise ValueError(f"inner {inner} not contained in outer {outer}")
        key = (outer.parts, inner.parts)
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __setattr__(self, name, value):
        raise AttributeError("SkewShape is immutable")

    def __eq__(self, other):
        if not isinstance(other, SkewShape):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"SkewShape({self.outer.parts}, {self.inner.parts})"

    def __str__(self):
        return f"({self.outer})/({self.inner})"

    def row_spans(self) -> list[tuple[int, int]]:
        """Per row of the outer diagram: (inner_i, outer_i), 0-based columns.

        Row i occupies columns inner_i..outer_i-1; empty rows allowed.
        """
        return [(self.inner.part(i), hi) for i, hi in enumerate(self.outer.parts, 1)]

    def box_count(self) -> int:
        return self.outer.size() - self.inner.size()


@dataclass(frozen=True)
class MinorSpec:
    """Deleted row/column index sets for a band-(0..band) Toeplitz matrix.

    deleted_rows and deleted_cols are strictly increasing positive integers;
    with r = len(deleted_rows) and c = len(deleted_cols) the constraints are
    r <= c <= band and deleted_rows[i] >= deleted_cols[i] for each i.  As
    with Partition's parts, a float index or band raises TypeError.
    """

    deleted_rows: tuple[int, ...]
    deleted_cols: tuple[int, ...]
    band: int

    def __post_init__(self):
        for name in ("deleted_rows", "deleted_cols"):
            seq = tuple(map(index, getattr(self, name)))
            object.__setattr__(self, name, seq)
            if any(v < 1 for v in seq):
                raise ValueError(f"{name} must be positive: {seq}")
            if any(a >= b for a, b in zip(seq, seq[1:])):
                raise ValueError(f"{name} must be strictly increasing: {seq}")
        object.__setattr__(self, "band", index(self.band))
        r, c = len(self.deleted_rows), len(self.deleted_cols)
        if self.band < 1:
            raise ValueError(f"band must be >= 1, got {self.band}")
        if not r <= c <= self.band:
            raise ValueError(
                f"need len(deleted_rows) <= len(deleted_cols) <= band, "
                f"got {r} <= {c} <= {self.band}"
            )
        for i, (a, b) in enumerate(zip(self.deleted_rows, self.deleted_cols)):
            if a < b:
                raise ValueError(
                    f"deleted_rows[{i}] = {a} < deleted_cols[{i}] = {b}"
                )

    @classmethod
    def contiguous(cls, c: int, band: int) -> "MinorSpec":
        """The minor that deletes no rows and the first c columns."""
        return cls((), tuple(range(1, c + 1)), band)

    @property
    def r(self) -> int:
        return len(self.deleted_rows)

    @property
    def c(self) -> int:
        return len(self.deleted_cols)

    def __str__(self):
        rows = ",".join(str(v) for v in self.deleted_rows)
        cols = ",".join(str(v) for v in self.deleted_cols)
        return f"rows=({rows}) cols=({cols}) band={self.band}"


def surviving(deleted: tuple[int, ...], count: int) -> list[int]:
    """First `count` positive integers not in the deleted set, ascending."""
    dropped = set(deleted)
    out: list[int] = []
    v = 1
    while len(out) < count:
        if v not in dropped:
            out.append(v)
        v += 1
    return out


def min_k(spec: MinorSpec) -> int:
    """Smallest block size at which the minor's skew shape exists.

    max over deleted_rows[r-1] - r, deleted_cols[c-1] - c, and 0; empty
    index sets contribute 0.
    """
    lo = 0
    if spec.deleted_rows:
        lo = max(lo, spec.deleted_rows[-1] - spec.r)
    if spec.deleted_cols:
        lo = max(lo, spec.deleted_cols[-1] - spec.c)
    return lo


def shape_from_minor(spec: MinorSpec, k: int) -> SkewShape:
    """Skew shape whose Schur polynomial equals the k-th minor determinant.

    outer_i = k + i - deleted_cols[i-1] over the c deleted columns, and
    inner_i = k + i - deleted_rows[i-1] over the r deleted rows (zero
    parts drop out).  Defined for k >= min_k(spec).
    """
    lo = min_k(spec)
    if k < lo:
        raise ValueError(f"k = {k} below min_k = {lo} for {spec}")
    outer = tuple(k + i - b for i, b in enumerate(spec.deleted_cols, start=1))
    inner = tuple(k + i - a for i, a in enumerate(spec.deleted_rows, start=1))
    return SkewShape(Partition(outer), Partition(inner))


def band_pattern(row_at, col_at, band: int) -> list[list[tuple[int, int]]]:
    """Per column j, the (i, col_at[j] - row_at[i]) pairs whose offset is in 0..band.

    A matrix whose entry (i, j) is a function of that offset, zero off
    0..band, is nonzero only at these pairs: a banded minor has the
    surviving rows and columns as axes, a dual Jacobi-Trudi matrix the
    positions i - outer'_i and j - inner'_j.  col_at must be strictly
    increasing, so row i meets the band in one run of at most band + 1
    columns, found by bisection; the pattern costs O(len(row_at) * band)
    beyond the bisections.  Each column lists its rows ascending.
    """
    pattern: list[list[tuple[int, int]]] = [[] for _ in col_at]
    for i, r in enumerate(row_at):
        for j in range(bisect_left(col_at, r), bisect_right(col_at, r + band)):
            pattern[j].append((i, col_at[j] - r))
    return pattern
