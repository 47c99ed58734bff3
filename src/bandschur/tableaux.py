"""Semistandard skew tableaux: enumeration and row-wise sequence insertion.

The engine works on rows held as flat tuples of ints and has one
validator, `_validate`, made of a row test and a column test.  What the
validator needs from a shape (row lengths and the column ranges a row
shares with the row above) is computed once per shape and kept in a
bounded cache of `_Plan`s.

Enumeration (`_ssyt_rows`) builds whole rows: the row above fixes a lower
bound for each cell of the next row, and the weakly increasing rows that
meet a bound vector come from a bounded memo keyed on that vector.  Each
row is checked as it joins its prefix, by the row and column tests of
`_validate`, so a prefix shared by many fillings is checked once.
Insertion (`_insert_rows`) puts value i of a strictly increasing sequence
into row i: a positive value joins the row's content, a negative value
adds one skew box to the row, and a row beyond the last one is created.
The resulting shape depends only on the source shape and the sequence, so
it is built once per pair.

What validates: the public `Tableau(...)` constructor and
`insert_sequence` validate the tableau they return, and `enumerate_ssyt`
and `schur_by_tableaux` read the checked fillings of `_ssyt_rows`.
`insertion_step` accepts an image without a second validation only by
membership: when the sequence targets the next shape and the image's rows
are the rows of one of that shape's enumerated fillings.  Two fillings of
one shape are equal exactly when their rows are, so such an image is that
filling, which has passed the tests of `_validate`; validating it again
could only repeat the verdict.  Every other image is validated against
its own target shape.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, count
from operator import lt, sub

from .polyring import MultiPoly
from .shapes import Partition, SkewShape

# Bounds on the per-shape caches.  One check-identity command uses two
# shapes and one insertion target per sequence; one enumeration reads at
# most one bound vector per distinct row above.
PLAN_CACHE_SIZE = 64
ROW_CACHE_SIZE = 1024


class _Plan:
    """Per-shape facts for validation and enumeration.

    lengths holds the number of content cells of each row.  links holds,
    per row, None or (a0, a1, b0, b1, first): cells a0..a1-1 of the row
    above share their columns with cells b0..b1-1 of this row, the first
    of those columns being column `first` (0-based).  checks lists the
    links that exist as (row, a0, a1, b0, b1, first).
    """

    __slots__ = ("lengths", "links", "checks")

    def __init__(self, lengths, links, checks):
        self.lengths = lengths
        self.links = links
        self.checks = checks


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(shape: SkewShape) -> _Plan:
    spans = shape.row_spans()
    links: list[tuple[int, int, int, int, int] | None] = []
    checks = []
    for i, (lo, hi) in enumerate(spans):
        link = None
        if i:
            plo, phi = spans[i - 1]
            start, stop = max(lo, plo), min(hi, phi)
            if start < stop:
                link = (start - plo, stop - plo, start - lo, stop - lo, start)
                checks.append((i, *link))
        links.append(link)
    return _Plan(
        tuple(hi - lo for lo, hi in spans), tuple(links), tuple(checks)
    )


def _check_nmax(nmax: int) -> None:
    if nmax < 1:
        raise ValueError(f"nmax must be >= 1, got {nmax}")


def _check_rows(i: int, want: int, rows, nmax: int) -> None:
    """Raise ValueError unless each of rows is a valid row i (1-based).

    A valid row has `want` entries, all in 1..nmax, weakly increasing.
    Per row the errors are its length, an entry out of range, a decrease.
    """
    for row in rows:
        if len(row) != want:
            raise ValueError(f"row {i} has {len(row)} entries, shape wants {want}")
        if row and not (
            1 <= row[0] and row[-1] <= nmax and list(row) == sorted(row)
        ):
            # with every entry in range, the fault is a decrease
            for v in row:
                if not 1 <= v <= nmax:
                    raise ValueError(f"entry {v} outside 1..{nmax}")
            raise ValueError(f"row {i} not weakly increasing: {row}")


def _check_columns(above, rows, b0: int, b1: int, first: int) -> None:
    """Raise ValueError unless each of rows strictly increases down from above.

    Cells b0..b1-1 of a row sit below the cells of `above`, in the columns
    from `first` (0-based) on.
    """
    for row in rows:
        here = row[b0:b1]
        if not all(map(lt, above, here)):
            for j, (top, v) in enumerate(zip(above, here), start=first):
                if top >= v:
                    raise ValueError(
                        f"column {j + 1} not strictly increasing: "
                        f"{top} above {v}"
                    )


def _validate(plan: _Plan, rows: tuple[tuple[int, ...], ...], nmax: int):
    """Raise ValueError unless rows fill the planned shape semistandardly.

    Rows must have the shape's lengths, entries in 1..nmax, be weakly
    increasing, and strictly increase down every shared column.  The
    errors, and the order they are found in, are row count, nmax, then per
    row its length, an entry out of range and a decrease, then columns.
    """
    lengths = plan.lengths
    if len(rows) != len(lengths):
        raise ValueError(
            f"{len(rows)} rows for a shape with {len(lengths)} rows"
        )
    _check_nmax(nmax)
    for i, want, row in zip(count(1), lengths, rows):
        _check_rows(i, want, (row,), nmax)
    for i, a0, a1, b0, b1, first in plan.checks:
        _check_columns(rows[i - 1][a0:a1], (rows[i],), b0, b1, first)


class Tableau:
    """Semistandard filling of a skew shape with entries in 1..nmax.

    rows holds the content cells only (one tuple per row of the outer
    shape); skew cells are implicit.  Rows must be weakly increasing and
    columns strictly increasing.
    """

    __slots__ = ("shape", "rows", "nmax", "_hash")

    def __init__(self, shape: SkewShape, rows, nmax: int):
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        _validate(_plan(shape), rows, nmax)
        _fill(self, shape, rows, nmax)

    def __setattr__(self, name, value):
        raise AttributeError("Tableau is immutable")

    def __eq__(self, other):
        if not isinstance(other, Tableau):
            return NotImplemented
        return self.rows == other.rows and self.shape == other.shape

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.shape, self.rows))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"Tableau({self.shape}, {list(map(list, self.rows))})"

    def content(self) -> tuple[int, ...]:
        """Multiplicity vector: how many times each of 1..nmax appears."""
        return _content(self.rows, self.nmax)


def _fill(tab: Tableau, shape: SkewShape, rows, nmax: int) -> None:
    object.__setattr__(tab, "shape", shape)
    object.__setattr__(tab, "rows", rows)
    object.__setattr__(tab, "nmax", nmax)
    object.__setattr__(tab, "_hash", None)


def _content(rows, nmax: int) -> tuple[int, ...]:
    """How many times each of 1..nmax appears in rows."""
    counts = [0] * nmax
    for row in rows:
        for v in row:
            counts[v - 1] += 1
    return tuple(counts)


def _unchecked(shape: SkewShape, rows, nmax: int) -> Tableau:
    """A Tableau from rows of ints that pass the tests of _validate for shape."""
    tab = object.__new__(Tableau)
    _fill(tab, shape, rows, nmax)
    return tab


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _rows(nmax: int, floor: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Weakly increasing rows over 1..nmax with row[p] >= floor[p].

    Lexicographic order.  An empty floor gives the one empty row.
    """
    top = nmax + 1
    rows = [()]
    for f in floor:
        rows = [
            row + (v,)
            for row in rows
            for v in range(max(f, row[-1]) if row else f, top)
        ]
    return tuple(rows)


def _succ(v: int) -> int:
    return v + 1


def _ssyt_rows(shape: SkewShape, nmax: int) -> list[tuple[tuple[int, ...], ...]]:
    """Rows of every semistandard filling of `shape` with entries 1..nmax.

    Deterministic row-major lexicographic order (cells filled left to
    right, top to bottom, values ascending).  Each row is checked as it
    joins its prefix (a row with no shared column once per level), so
    every filling passes the tests of _validate.  The empty shape yields
    one empty filling; nmax < 1 raises ValueError for every shape.
    """
    _check_nmax(nmax)
    plan = _plan(shape)
    partial: list[tuple[tuple[int, ...], ...]] = [()]
    for i, length, link in zip(count(1), plan.lengths, plan.links):
        if link is None:
            rows = _rows(nmax, (1,) * length)
            _check_rows(i, length, rows, nmax)
            partial = [done + (row,) for done in partial for row in rows]
        else:
            # the outer shape is a partition, so the shared columns run to
            # the end of this row and only the first b0 cells are free
            a0, a1, b0, b1, first = link
            free = (1,) * b0
            grown = []
            for done in partial:
                above = done[-1][a0:a1]
                rows = _rows(nmax, free + tuple(map(_succ, above)))
                _check_rows(i, length, rows, nmax)
                _check_columns(above, rows, b0, b1, first)
                grown += [done + (row,) for row in rows]
            partial = grown
    return partial


def enumerate_ssyt(shape: SkewShape, nmax: int) -> list[Tableau]:
    """All semistandard fillings of `shape` with entries 1..nmax.

    The fillings of _ssyt_rows, in its order, as Tableau objects.
    """
    return [_unchecked(shape, rows, nmax) for rows in _ssyt_rows(shape, nmax)]


def schur_by_tableaux(shape: SkewShape, nvars: int) -> MultiPoly:
    """Skew Schur polynomial as the content generating function of SSYT."""
    terms: dict[tuple[int, ...], int] = {}
    for rows in _ssyt_rows(shape, nvars):
        key = _content(rows, nvars)
        terms[key] = terms.get(key, 0) + 1
    return MultiPoly(nvars, terms)


@dataclass(frozen=True)
class InsertionSequence:
    """Strictly increasing nonzero values; position i targets row i.

    A negative prefix extends the skew part of the leading rows; positive
    values must stay within the tableau's entry bound.
    """

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if any(v == 0 for v in self.values):
            raise ValueError("sequence values must be nonzero")
        if any(a >= b for a, b in zip(self.values, self.values[1:])):
            raise ValueError(f"sequence not strictly increasing: {self.values}")


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _insertion_target(
    shape: SkewShape, values: tuple[int, ...]
) -> tuple[SkewShape, _Plan]:
    """Shape (and its plan) of every insertion of `values` into `shape`.

    Rows 1..len(values) gain a box, new single-box rows included; the
    rows that receive a negative value gain it as a skew box.
    """
    spans = shape.row_spans()
    outer, inner = [hi for _, hi in spans], [lo for lo, _ in spans]
    for i, v in enumerate(values):
        if i == len(outer):
            outer.append(0)
            inner.append(0)
        outer[i] += 1
        inner[i] += v < 0
    target = SkewShape(Partition(outer), Partition(inner))
    return target, _plan(target)


def _check_bound(values: tuple[int, ...], nmax: int) -> None:
    if values and values[-1] > nmax:
        v = next(v for v in values if v > nmax)
        raise ValueError(f"value {v} exceeds entry bound {nmax}")


def _insert_rows(rows, values: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Rows with value i of `values` inserted into row i, unvalidated.

    A positive value goes in after the entries it is not below, so the
    row stays weakly increasing; a negative value (a skew box) leaves the
    row's content as it is.  A value past the last row starts a new row.
    """
    out = list(rows)
    for i, v in enumerate(values):
        if i == len(out):
            out.append((v,) if v > 0 else ())
        elif v > 0:
            row = list(out[i])
            insort(row, v)
            out[i] = tuple(row)
    return tuple(out)


def insert_sequence(tab: Tableau, seq: InsertionSequence) -> Tableau:
    """Insert seq value i into row i, keeping each row weakly increasing.

    A value inserted into a missing row creates a new single-box row.
    Negative values become skew boxes.  The result is validated against
    its target shape; a violation (which cannot happen when the sequence
    respects the shape) raises ValueError.
    """
    values = seq.values
    _check_bound(values, tab.nmax)
    shape, plan = _insertion_target(tab.shape, values)
    rows = _insert_rows(tab.rows, values)
    _validate(plan, rows, tab.nmax)
    return _unchecked(shape, rows, tab.nmax)


@dataclass(frozen=True)
class InsertionStep:
    """What inserting every sequence into every filling of a shape gave.

    built counts the distinct images over all sequences.  injective: no
    sequence sends two fillings to one image.  covered: the images are
    exactly the fillings of the next shape.  weighted: every image that
    is such a filling has its source's content plus the sequence's
    positive values (the x_S weight).
    """

    tableaux: int
    sequences: int
    next_tableaux: int
    built: int
    injective: bool
    covered: bool
    weighted: bool

    @property
    def ok(self) -> bool:
        return self.injective and self.covered and self.weighted


def insertion_step(
    shape: SkewShape, shape_next: SkewShape, seqs, nmax: int
) -> InsertionStep:
    """Insert each sequence into each filling of `shape`, on row tuples.

    The fillings of `shape_next` are enumerated (and so validated) once
    and held as a dict from rows to content.  An image whose sequence
    targets `shape_next` and whose rows are a key of that dict is one of
    those fillings, so it needs no validation of its own.  Every other
    image is validated against its target shape, which raises the
    ValueError that insert_sequence would, in the same order; a valid one
    is kept as (target, rows), so it never counts toward covering.
    """
    rows_k = _ssyt_rows(shape, nmax)
    contents_k = [_content(rows, nmax) for rows in rows_k]
    next_contents = {
        rows: _content(rows, nmax) for rows in _ssyt_rows(shape_next, nmax)
    }
    built: set = set()
    injective = weighted = True
    # with no filling to insert into, no sequence is applied or checked
    for seq in seqs if rows_k else ():
        values = seq.values
        _check_bound(values, nmax)
        target, plan = _insertion_target(shape, values)
        known = next_contents if target == shape_next else {}
        # the x_S weight: an image's content is its source's plus the
        # sequence's positive values
        weight = [0] * nmax
        for v in values:
            if v > 0:
                weight[v - 1] += 1
        images = set()
        for rows, before in zip(rows_k, contents_k):
            image = _insert_rows(rows, values)
            after = known.get(image)
            if after is None:
                _validate(plan, image, nmax)
                image = (target, image)
            elif list(map(sub, after, before)) != weight:
                weighted = False
            images.add(image)
        if len(images) != len(rows_k):
            injective = False
        built |= images
    return InsertionStep(
        tableaux=len(rows_k),
        sequences=len(seqs),
        next_tableaux=len(next_contents),
        built=len(built),
        injective=injective,
        covered=built == next_contents.keys(),
        weighted=weighted,
    )


def extension_sequences(skew_rows: int, extra: int, nmax: int):
    """All sequences extending `skew_rows` skew rows plus `extra` content values.

    The negative prefix is -skew_rows..-1; the positive tails run over all
    strictly increasing `extra`-subsets of 1..nmax.  These are exactly the
    single-step sequences behind the minor determinant recurrence.
    """
    prefix = tuple(range(-skew_rows, 0))
    return [
        InsertionSequence(prefix + combo)
        for combo in combinations(range(1, nmax + 1), extra)
    ]
