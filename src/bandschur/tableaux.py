"""Semistandard skew tableaux: enumeration and row-wise sequence insertion.

A weakly increasing row is fixed by its multiset of entries, so the
engine packs a filling into one int, its key: row i (0-based) holds its
multiplicities of 1..nmax in nmax fields of `width` bits, starting at bit
i * nmax * width.  A filling's content (its multiplicity of each value) is
the sum of its row keys, each shifted down to bit 0.  Every multiplicity,
of one value in one row or in a whole filling, is at most the box count,
so `width` is the bit length of the largest box count a call packs
(`_width`); a narrower width raises ValueError before any field could
carry into the next.

Enumeration (`_fillings`) builds whole rows: the row above fixes a lower
bound for each cell of the next row, and the weakly increasing rows that
meet a bound vector come from a bounded memo keyed on that vector.  Each
row is checked as it joins its prefix, by the row and column tests of the
one validator `_validate`, once per distinct slice of the row above in a
call, so a prefix shared by many fillings is checked once.  What the
validator needs from a shape is its `_plan`, computed where it is needed:
one link per row, its length and the column range it shares with the row
above, which is empty for a row that shares none (the first row
included), so every row is enumerated and validated by one rule.
`_ssyt_rows` and `enumerate_ssyt` unpack the keys to rows;
`schur_by_tableaux` counts the contents.

Insertion puts value i of a strictly increasing sequence into row i: a
positive value joins the row's content, a negative value adds one skew box
to the row, and a row beyond the last one is created.  The resulting shape
depends only on the source shape, the sequence's length and its number of
negative values.  `insert_sequence` does this on the rows of a Tableau
(`_insert_rows`); `insertion_step` does it on keys, where inserting a
sequence is adding one int, its `_delta`.

What validates: the public `Tableau(...)` constructor and
`insert_sequence` validate the tableau they return, and `enumerate_ssyt`
and `schur_by_tableaux` read the checked fillings of `_fillings`.
`insertion_step` accepts an image without a second validation only by
membership: when the sequence targets the next shape and the image's key
is the key of one of that shape's enumerated fillings.  Two fillings of
one shape are equal exactly when their keys are, so such an image is that
filling, which has passed the tests of `_validate`; validating it again
could only repeat the verdict.  Every other image is unpacked and
validated against its own target shape.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, count, repeat
from operator import index, lt

from .polyring import MultiPoly, _check_degree, _key, _raw
from .shapes import Partition, SkewShape

# Bound on the row memo: one enumeration reads at most one bound vector per
# distinct row above.
ROW_CACHE_SIZE = 1024


def _plan(shape: SkewShape) -> tuple[tuple[int, ...], ...]:
    """Per row, (length, a0, a1, b0, b1, first): how it meets the row above.

    length is the row's number of content cells.  Cells a0..a1-1 of the row
    above share their columns with cells b0..b1-1 of this row, the first of
    those columns being column `first` (0-based).  A row that shares no
    column with the row above, the first row included, has the empty link
    (length, 0, 0, length, length, 0).
    """
    plan = []
    plo = phi = 0  # the first row sits below an empty one
    for lo, hi in shape.row_spans():
        start, stop = max(lo, plo), min(hi, phi)
        if start < stop:
            link = (start - plo, stop - plo, start - lo, stop - lo, start)
        else:
            link = (0, 0, hi - lo, hi - lo, 0)
        plan.append((hi - lo, *link))
        plo, phi = lo, hi
    return tuple(plan)


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


def _validate(plan, rows: tuple[tuple[int, ...], ...], nmax: int):
    """Raise ValueError unless rows fill the planned shape semistandardly.

    Rows must have the shape's lengths, entries in 1..nmax, be weakly
    increasing, and strictly increase down every shared column.  The
    errors, and the order they are found in, are row count, nmax, then per
    row its length, an entry out of range and a decrease, then columns.
    """
    if len(rows) != len(plan):
        raise ValueError(f"{len(rows)} rows for a shape with {len(plan)} rows")
    _check_nmax(nmax)
    for i, (want, *_), row in zip(count(1), plan, rows):
        _check_rows(i, want, (row,), nmax)
    above: tuple[int, ...] = ()
    for (_, a0, a1, b0, b1, first), row in zip(plan, rows):
        _check_columns(above[a0:a1], (row,), b0, b1, first)
        above = row


class Tableau:
    """Semistandard filling of a skew shape with entries in 1..nmax.

    rows holds the content cells only (one tuple per row of the outer
    shape); skew cells are implicit.  Rows must be weakly increasing and
    columns strictly increasing.  Entries must be integers
    (`operator.index`): a float or a string raises TypeError.
    """

    __slots__ = ("shape", "rows", "nmax")

    def __init__(self, shape: SkewShape, rows, nmax: int):
        rows = tuple(tuple(map(index, row)) for row in rows)
        _validate(_plan(shape), rows, nmax)
        _fill(self, shape, rows, nmax)

    def __setattr__(self, name, value):
        raise AttributeError("Tableau is immutable")

    def __eq__(self, other):
        if not isinstance(other, Tableau):
            return NotImplemented
        return self.rows == other.rows and self.shape == other.shape

    def __hash__(self):
        return hash((self.shape, self.rows))

    def __repr__(self):
        return f"Tableau({self.shape}, {list(map(list, self.rows))})"

    def content(self) -> tuple[int, ...]:
        """Multiplicity vector: how many times each of 1..nmax appears."""
        return _content(self.rows, self.nmax)


def _fill(tab: Tableau, shape: SkewShape, rows, nmax: int) -> None:
    object.__setattr__(tab, "shape", shape)
    object.__setattr__(tab, "rows", rows)
    object.__setattr__(tab, "nmax", nmax)


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


def _width(boxes: int) -> int:
    """Bits per multiplicity field for fillings of at most `boxes` boxes.

    No multiplicity, of one value in one row or in a whole filling, is
    above the box count, so with boxes < 2**width no field carries into
    the next.
    """
    return boxes.bit_length()


def _fields(packed: int, count: int, width: int) -> list[int]:
    """The first `count` fields of `packed`, lowest first."""
    mask = (1 << width) - 1
    return [packed >> j * width & mask for j in range(count)]


def _unpack(key: int, nmax: int, width: int, nrows: int):
    """The first nrows rows of a packed filling, as weakly increasing tuples."""
    counts = _fields(key, nrows * nmax, width)
    values = range(1, nmax + 1)
    return tuple(
        tuple(chain.from_iterable(map(repeat, values, counts[at:at + nmax])))
        for at in range(0, nrows * nmax, nmax)
    )


def _fillings(shape: SkewShape, nmax: int, width: int) -> list[tuple[int, int]]:
    """(key, content) of every semistandard filling of `shape`, 1..nmax.

    Row i (0-based) of `key` holds the row's multiplicities of 1..nmax in
    nmax fields of `width` bits from bit i * nmax * width; `content` is the
    sum of the row keys, shifted down to bit 0.  Deterministic row-major
    lexicographic order (cells filled left to right, top to bottom, values
    ascending).  Each row is checked as it joins a prefix, once per
    distinct slice of the row above that its shared columns sit below (the
    empty slice for a row with no shared column), so every filling passes
    the tests of _validate.  The empty shape yields one empty filling;
    nmax < 1 raises ValueError for every shape, and so does a width below
    _width(box count).
    """
    _check_nmax(nmax)
    boxes = shape.box_count()
    if boxes >> width:
        raise ValueError(f"{boxes} boxes overflow {width}-bit fields")
    plan = _plan(shape)
    # unit[v] is the packed row (v,) for v in 1..nmax
    unit = [0] + [1 << j * width for j in range(nmax)]
    # the slice of each row that the next row's shared columns sit below
    below = [slice(a0, a1) for _, a0, a1, _, _, _ in plan[1:]] + [slice(0)]
    # each prefix carries that slice of its last row
    partial: list[tuple[int, int, tuple[int, ...]]] = [(0, 0, ())]
    for i, (length, _, _, b0, b1, first), shared in zip(count(1), plan, below):
        shift = (i - 1) * nmax * width
        # the outer shape is a partition, so the shared columns run to the
        # end of this row and only the first b0 cells are free (all of them
        # on an empty link)
        free = (1,) * b0
        exts: dict[tuple[int, ...], list] = {}
        for _, _, above in partial:
            if above not in exts:
                rows = _rows(nmax, free + tuple(v + 1 for v in above))
                _check_rows(i, length, rows, nmax)
                _check_columns(above, rows, b0, b1, first)
                packed = [sum(map(unit.__getitem__, row)) for row in rows]
                exts[above] = [
                    (local << shift, local, row[shared])
                    for row, local in zip(rows, packed)
                ]
        partial = [
            (key + step, content + local, nxt)
            for key, content, above in partial
            for step, local, nxt in exts[above]
        ]
    return [(key, content) for key, content, _ in partial]


def _ssyt_rows(shape: SkewShape, nmax: int) -> list[tuple[tuple[int, ...], ...]]:
    """Rows of every semistandard filling of `shape`, in _fillings order."""
    width = _width(shape.box_count())
    nrows = len(shape.outer)
    fillings = _fillings(shape, nmax, width)
    return [_unpack(key, nmax, width, nrows) for key, _ in fillings]


def enumerate_ssyt(shape: SkewShape, nmax: int) -> list[Tableau]:
    """All semistandard fillings of `shape` with entries 1..nmax.

    The fillings of _ssyt_rows, in its order, as Tableau objects.
    """
    return [_unchecked(shape, rows, nmax) for rows in _ssyt_rows(shape, nmax)]


def schur_by_tableaux(shape: SkewShape, nvars: int) -> MultiPoly:
    """Skew Schur polynomial as the content generating function of SSYT.

    Each distinct content is repacked once, from its `width`-bit fields to
    a monomial key of polyring; every filling has the box count as degree.
    """
    boxes = shape.box_count()
    _check_degree(boxes)
    width = _width(boxes)
    counts = Counter(content for _, content in _fillings(shape, nvars, width))
    return _raw(
        nvars,
        {_key(_fields(content, nvars, width)): n for content, n in counts.items()},
    )


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


def _insertion_target(
    shape: SkewShape, length: int, negatives: int
) -> tuple[SkewShape, tuple[tuple[int, ...], ...]]:
    """Shape (and its plan) of every insertion of a sequence into `shape`.

    The sequence has `length` values, the first `negatives` of them
    negative.  Rows 1..length gain a box, new single-box rows included;
    the rows that receive a negative value gain it as a skew box.
    """
    spans = shape.row_spans()
    outer, inner = [hi for _, hi in spans], [lo for lo, _ in spans]
    outer += [0] * (length - len(outer))
    inner += [0] * (len(outer) - len(inner))
    for i in range(length):
        outer[i] += 1
        inner[i] += i < negatives
    target = SkewShape(Partition(outer), Partition(inner))
    return target, _plan(target)


def _negatives(values: tuple[int, ...]) -> int:
    return sum(v < 0 for v in values)


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
            out[i] = tuple(sorted(out[i] + (v,)))
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
    shape, plan = _insertion_target(tab.shape, len(values), _negatives(values))
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


def _delta(values: tuple[int, ...], nmax: int, width: int) -> int:
    """What inserting `values` adds to a packed filling's key.

    Value v_i > 0 adds one to the field of v_i in row i; a negative value
    adds a skew box, which the key does not hold.
    """
    return sum(
        1 << ((i * nmax + v - 1) * width) for i, v in enumerate(values) if v > 0
    )


def insertion_step(
    shape: SkewShape, shape_next: SkewShape, seqs, nmax: int
) -> InsertionStep:
    """Insert each sequence into each filling of `shape`, on packed keys.

    Both shapes are enumerated once by _fillings, with one field width
    that holds the multiplicities of every image.  Inserting a sequence
    adds its _delta to a key.  An image whose sequence targets
    `shape_next` and whose key is a key of that shape's fillings is one of
    those fillings, so it needs no validation of its own; its content must
    be its source's plus the sequence's weight.  Every other image is
    unpacked and validated against its target shape, which raises the
    ValueError that insert_sequence would, in the same order; a valid one
    is kept as (target, key), so it never counts toward covering.  Adding
    one _delta to distinct keys cannot merge two of them, so `injective`
    fails only if _fillings hands back a repeated key.
    """
    grow = max((len(s.values) - _negatives(s.values) for s in seqs), default=0)
    width = _width(max(shape_next.box_count(), shape.box_count() + grow))
    source = _fillings(shape, nmax, width)
    keys = [key for key, _ in source]
    contents = [content for _, content in source]
    next_contents = dict(_fillings(shape_next, nmax, width))
    targets: dict[tuple[int, int], tuple[SkewShape, tuple]] = {}
    built: set = set()
    injective = weighted = True
    # with no filling to insert into, no sequence is applied or checked
    for seq in seqs if source else ():
        values = seq.values
        _check_bound(values, nmax)
        group = (len(values), _negatives(values))
        if group not in targets:
            targets[group] = _insertion_target(shape, *group)
        target, plan = targets[group]
        known = next_contents if target == shape_next else {}
        delta = _delta(values, nmax, width)
        # the x_S weight, from the values and not from delta
        weight = sum(1 << (v - 1) * width for v in values if v > 0)
        images = [key + delta for key in keys]
        afters = list(map(known.get, images))
        weighed = [before + weight for before in contents]
        if None in afters:
            # an image that is no filling of the next shape is validated
            # on its own and kept apart from those fillings; only the
            # fillings' contents are compared with the weight
            for at, after in enumerate(afters):
                if after is None:
                    image = images[at]
                    rows = _unpack(image, nmax, width, len(plan))
                    _validate(plan, rows, nmax)
                    images[at] = (target, image)
                    afters[at] = weighed[at]
        if afters != weighed:
            weighted = False
        distinct = set(images)
        if len(distinct) != len(keys):
            injective = False
        built |= distinct
    return InsertionStep(
        tableaux=len(source),
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
