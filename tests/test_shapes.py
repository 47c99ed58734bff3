"""Tests for partitions, skew shapes, and minor specifications."""

from collections.abc import Hashable

import pytest
from hypothesis import given, strategies as st

from bandschur.polyring import MultiPoly
from bandschur.shapes import (
    MinorSpec,
    Partition,
    SkewShape,
    band_pattern,
    min_k,
    parse_partition,
    shape_from_minor,
    surviving,
)


def _boxed_partitions(max_len, max_part):
    """All partitions with at most max_len parts, each at most max_part."""
    out = [()]
    def extend(prefix, bound, remaining):
        for part in range(bound, 0, -1):
            cur = prefix + (part,)
            out.append(cur)
            if remaining > 1:
                extend(cur, part, remaining - 1)
    extend((), max_part, max_len)
    return [Partition(p) for p in out]


@st.composite
def minor_specs(draw, max_band=4, max_index=6):
    band = draw(st.integers(1, max_band))
    ncols = draw(st.integers(0, min(3, band)))
    nrows = draw(st.integers(0, ncols))
    beta = sorted(
        draw(
            st.lists(
                st.integers(1, max_index),
                min_size=ncols,
                max_size=ncols,
                unique=True,
            )
        )
    )
    alpha = []
    prev = 0
    for i in range(nrows):
        lo = max(beta[i], prev + 1)
        alpha.append(draw(st.integers(lo, lo + 3)))
        prev = alpha[-1]
    return MinorSpec(tuple(alpha), tuple(beta), band)


class TestPartition:
    def test_normalizes_trailing_zeros(self):
        assert Partition((3, 1, 0, 0)).parts == (3, 1)
        assert Partition((0,)).parts == ()
        padded, plain = Partition((2, 1, 0)), Partition((2, 1))
        assert padded == plain and hash(padded) == hash(plain)
        assert padded.parts == (2, 1) and len(padded) == len(list(padded))
        zeros, empty = Partition((0, 0)), Partition(())
        assert zeros == empty and hash(zeros) == hash(empty)
        assert Partition((2, 1, 0)) != Partition((2, 1, 1))
        skew_padded = SkewShape((3, 2, 1), (2, 0, 0))
        skew_plain = SkewShape((3, 2, 1), (2,))
        assert skew_padded == skew_plain and hash(skew_padded) == hash(skew_plain)
        assert skew_padded != SkewShape((3, 2, 1), (2, 1))

    def test_equality_accepts_sequences(self):
        assert Partition((3, 1)) == (3, 1)
        assert Partition((3, 1)) == [3, 1]
        assert Partition(()) == ()
        # a zero-padded sequence is not the partition's parts, and equal
        # values must hash alike
        assert Partition((3, 1)) != (3, 1, 0)

    def test_equality_with_a_non_partition_sequence_is_false(self):
        assert not Partition((3, 1)) == (1, 3)
        assert Partition((3, 1)) != (1, 3)
        assert not Partition((3, 1)) == [3, -1]
        assert Partition((3, 1)) != [3, -1]
        assert not Partition(()) == (0, -2)

    def test_must_be_weakly_decreasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_negative_parts(self):
        with pytest.raises(ValueError):
            Partition((2, -1))

    @pytest.mark.parametrize("parts", [(2.7, 1.2), (2.0,), ("2", "1")], ids=str)
    def test_rejects_non_integral_parts(self, parts):
        # int() would truncate 2.7 to 2 and parse "2"; parts must be ints
        with pytest.raises(TypeError):
            Partition(parts)

    def test_accepts_numpy_integers(self):
        import numpy as np
        parts = Partition(np.array([3, 1, 0]))
        assert parts == Partition((3, 1))
        assert all(type(p) is int for p in parts)

    def test_part_accessor_is_one_based_with_zero_padding(self):
        p = Partition((4, 2, 1))
        assert p.part(1) == 4
        assert p.part(3) == 1
        assert p.part(10) == 0

    def test_size(self):
        assert Partition((4, 2, 1)).size() == 7
        assert Partition(()).size() == 0

    def test_contains(self):
        assert Partition((2, 1)).contains(Partition((1, 1)))
        assert not Partition((2, 1)).contains(Partition((1, 1, 1)))
        assert not Partition((2, 1)).contains(Partition((3,)))

    def test_conjugate_golden(self):
        assert Partition((4, 2, 1)).conjugate() == (3, 2, 1, 1)
        assert Partition(()).conjugate() == ()
        assert Partition((5,)).conjugate() == (1, 1, 1, 1, 1)
        assert Partition((2, 2)).conjugate() == (2, 2)

    def test_conjugate_is_involution_exhaustively(self):
        for p in _boxed_partitions(8, 8):
            q = p.conjugate()
            assert q.conjugate() == p
            assert q.size() == p.size()
            if p.parts:
                assert len(q.parts) == p.part(1)


@st.composite
def related_values(draw):
    """Two values built from one small seed, so they are often equal.

    Each is a partition, a tuple or list of its parts with or without
    trailing zeros, a constant MultiPoly or a plain int.
    """
    parts = tuple(sorted(draw(st.lists(st.integers(1, 3), max_size=3)), reverse=True))
    value = draw(st.integers(-1, 3))
    nvars = draw(st.integers(1, 2))

    def view():
        padded = parts + (0,) * draw(st.integers(0, 2))
        kind = draw(st.sampled_from(["partition", "tuple", "list", "poly", "int"]))
        if kind == "partition":
            return Partition(padded)
        if kind == "tuple":
            return padded
        if kind == "list":
            return list(padded)
        if kind == "poly":
            return MultiPoly.constant(nvars, value)
        return value

    return view(), view()


class TestHashContract:
    @given(related_values())
    def test_equal_hashable_values_hash_alike(self, pair):
        a, b = pair
        if a == b and isinstance(a, Hashable) and isinstance(b, Hashable):
            assert hash(a) == hash(b)


class TestParsePartition:
    def test_examples(self):
        assert parse_partition("") == ()
        assert parse_partition("4,2,1") == (4, 2, 1)
        assert parse_partition("3,3,0") == (3, 3)

    def test_bad_token_reported(self):
        with pytest.raises(ValueError, match="x"):
            parse_partition("4,x")

    def test_non_partition_rejected(self):
        with pytest.raises(ValueError):
            parse_partition("1,2")


class TestSkewShape:
    def test_containment_enforced(self):
        with pytest.raises(ValueError):
            SkewShape(Partition((2,)), Partition((3,)))

    def test_row_spans_golden(self):
        shape = SkewShape(Partition((4, 3, 3, 2)), Partition((2, 1, 1)))
        assert shape.row_spans() == [(2, 4), (1, 3), (1, 3), (0, 2)]

    def test_box_count(self):
        shape = SkewShape(Partition((4, 3, 3, 2)), Partition((2, 1, 1)))
        assert shape.box_count() == 8
        assert SkewShape(Partition(()), Partition(())).box_count() == 0


class TestMinorSpec:
    def test_str(self):
        spec = MinorSpec((2,), (1, 3), 3)
        assert str(spec) == "rows=(2) cols=(1,3) band=3"

    def test_validation(self):
        with pytest.raises(ValueError):
            MinorSpec((0,), (1,), 2)  # indices are 1-based
        with pytest.raises(ValueError):
            MinorSpec((2, 2), (1, 3), 3)  # rows must strictly increase
        with pytest.raises(ValueError):
            MinorSpec((1,), (2, 2), 3)  # cols must strictly increase
        with pytest.raises(ValueError):
            MinorSpec((1, 2), (3,), 3)  # more rows than cols
        with pytest.raises(ValueError):
            MinorSpec((), (1, 2, 3, 4), 3)  # more cols than band
        with pytest.raises(ValueError):
            MinorSpec((1,), (2,), 3)  # row index below matching col index

    def test_empty_spec_allowed(self):
        spec = MinorSpec((), (), 2)
        assert spec.r == 0 and spec.c == 0

    @pytest.mark.parametrize(
        "rows, cols, band",
        [((), (1.5,), 3), ((2.0,), (1,), 2), ((), (1,), 2.0)],
    )
    def test_non_integer_index_or_band_is_refused(self, rows, cols, band):
        # a float would pass the range checks and give a wrong min_k
        with pytest.raises(TypeError):
            MinorSpec(rows, cols, band)

    def test_bools_are_read_as_ints(self):
        spec = MinorSpec([True], (True,), True)
        assert spec == MinorSpec((1,), (1,), 1)
        assert str(spec) == "rows=(1) cols=(1) band=1"


class TestMinKAndShapes:
    def test_min_k_goldens(self):
        assert min_k(MinorSpec((), (2,), 2)) == 1
        assert min_k(MinorSpec((2,), (1, 3), 3)) == 1
        assert min_k(MinorSpec((), (), 3)) == 0
        assert min_k(MinorSpec((1,), (1,), 2)) == 0
        assert min_k(MinorSpec((5,), (4,), 4)) == 4

    def test_shape_from_minor_goldens(self):
        shape = shape_from_minor(MinorSpec((), (1, 2), 3), 3)
        assert shape.outer == (3, 3) and shape.inner == ()

        shape = shape_from_minor(MinorSpec((), (2,), 2), 3)
        assert shape.outer == (2,) and shape.inner == ()

        shape = shape_from_minor(MinorSpec((2,), (1, 3), 3), 2)
        assert shape.outer == (2, 1) and shape.inner == (1,)

    def test_below_min_k_rejected(self):
        spec = MinorSpec((), (2,), 2)
        with pytest.raises(ValueError, match="below min_k"):
            shape_from_minor(spec, 0)

    @given(minor_specs())
    def test_shapes_exist_from_min_k(self, spec):
        lo = min_k(spec)
        for k in range(lo, lo + 4):
            shape = shape_from_minor(spec, k)
            assert shape.outer.contains(shape.inner)
            assert len(shape.outer.parts) <= spec.c

    @given(minor_specs())
    def test_box_count_grows_by_col_row_difference(self, spec):
        lo = min_k(spec)
        for k in range(lo, lo + 3):
            delta = (
                shape_from_minor(spec, k + 1).box_count()
                - shape_from_minor(spec, k).box_count()
            )
            assert delta == spec.c - spec.r


class TestSurviving:
    def test_golden(self):
        assert surviving((2, 5), 5) == [1, 3, 4, 6, 7]
        assert surviving((), 3) == [1, 2, 3]

    @given(
        st.lists(st.integers(1, 10), max_size=4, unique=True).map(sorted),
        st.integers(0, 8),
    )
    def test_counting_function(self, deleted, count):
        kept = surviving(tuple(deleted), count)
        assert len(kept) == count
        deleted_set = set(deleted)
        assert not deleted_set.intersection(kept)
        for j, idx in enumerate(kept):
            # idx is the (j+1)-th positive integer once deleted ones are skipped.
            assert idx - (j + 1) == sum(1 for d in deleted if d <= idx)


class TestBandPattern:
    def test_golden(self):
        # rows 1, 2, 4 against columns 1, 3, 4, offsets 0..2
        assert band_pattern([1, 2, 4], [1, 3, 4], 2) == [
            [(0, 0)],
            [(0, 2), (1, 1)],
            [(1, 2), (2, 0)],
        ]

    def test_empty_axes_give_an_empty_pattern(self):
        assert band_pattern([], [], 3) == []
        assert band_pattern([1, 2], [], 3) == []
        assert band_pattern([], [1, 2], 3) == [[], []]

    @given(
        st.lists(st.integers(-6, 12), max_size=8),
        st.lists(st.integers(-6, 12), max_size=8, unique=True).map(sorted),
        st.integers(0, 5),
    )
    def test_equals_the_scan_of_every_offset(self, row_at, col_at, band):
        pattern = band_pattern(row_at, col_at, band)
        scan = [
            [(i, c - r) for i, r in enumerate(row_at) if 0 <= c - r <= band]
            for c in col_at
        ]
        assert pattern == scan
        for c, pairs in zip(col_at, pattern):
            rows = [i for i, _ in pairs]
            assert rows == sorted(set(rows))
            assert all(0 <= d <= band and d == c - row_at[i] for i, d in pairs)
