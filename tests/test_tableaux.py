"""Tests for semistandard tableaux enumeration and sequence insertion."""

import itertools

import pytest
from hypothesis import given, strategies as st

from bandschur import tableaux
from bandschur.polyring import MultiPoly
from bandschur.shapes import MinorSpec, Partition, SkewShape, min_k, shape_from_minor
from bandschur.tableaux import (
    PLAN_CACHE_SIZE,
    ROW_CACHE_SIZE,
    InsertionSequence,
    InsertionStep,
    Tableau,
    enumerate_ssyt,
    extension_sequences,
    insert_sequence,
    insertion_step,
    schur_by_tableaux,
)


def _shape(outer, inner=()):
    return SkewShape(Partition(outer), Partition(inner))


SMALL_SHAPES = [
    _shape((2, 1)),
    _shape((2, 2), (1,)),
    _shape((3, 1), (1,)),
    _shape((2, 1, 1)),
    _shape((3, 2), (2,)),
]


class TestTableauValidation:
    def test_row_must_be_weakly_increasing(self):
        with pytest.raises(ValueError):
            Tableau(_shape((2,)), [(2, 1)], 3)

    def test_column_must_be_strict(self):
        with pytest.raises(ValueError):
            Tableau(_shape((1, 1)), [(1,), (1,)], 3)

    def test_entry_bound(self):
        with pytest.raises(ValueError):
            Tableau(_shape((1,)), [(4,)], 3)

    def test_row_count_and_lengths(self):
        with pytest.raises(ValueError):
            Tableau(_shape((2, 1)), [(1, 1)], 3)
        with pytest.raises(ValueError):
            Tableau(_shape((2, 1)), [(1,), (1,)], 3)

    def test_skew_columns_not_compared(self):
        # Box (2,1) sits below a skew cell, so no strictness applies there,
        # while the shared column 2 is still checked.
        tab = Tableau(_shape((2, 2), (1,)), [(1,), (1, 2)], 2)
        assert tab.content() == (2, 1)
        with pytest.raises(ValueError):
            Tableau(_shape((2, 2), (1,)), [(1,), (1, 1)], 2)

    def test_content(self):
        tab = Tableau(_shape((2, 1)), [(1, 2), (2,)], 3)
        assert tab.content() == (1, 2, 0)


class TestEnumeration:
    def test_counts(self):
        assert len(list(enumerate_ssyt(_shape((1,)), 2))) == 2
        assert len(list(enumerate_ssyt(_shape((2,), (1,)), 1))) == 1
        assert len(list(enumerate_ssyt(_shape(()), 3))) == 1
        assert len(list(enumerate_ssyt(_shape((4, 2, 1), (2, 2)), 3))) == 18

    def test_column_constraint_can_kill_everything(self):
        assert list(enumerate_ssyt(_shape((1, 1, 1)), 2)) == []

    def test_deterministic_order(self):
        found = [t.rows for t in enumerate_ssyt(_shape((1,)), 3)]
        assert found == [((1,),), ((2,),), ((3,),)]
        twice = [t.rows for t in enumerate_ssyt(_shape((1,)), 3)]
        assert found == twice

    def test_schur_golden_three_variables(self):
        # S_{(4,2,1)/(2,2)} in three variables, frozen term by term.
        poly = schur_by_tableaux(_shape((4, 2, 1), (2, 2)), 3)
        expected = MultiPoly(
            3,
            {
                (3, 0, 0): 1,
                (2, 1, 0): 2,
                (2, 0, 1): 2,
                (1, 2, 0): 2,
                (1, 1, 1): 3,
                (1, 0, 2): 2,
                (0, 3, 0): 1,
                (0, 2, 1): 2,
                (0, 1, 2): 2,
                (0, 0, 3): 1,
            },
        )
        assert poly == expected

    def test_schur_symmetric_in_variables(self):
        for shape in SMALL_SHAPES:
            poly = schur_by_tableaux(shape, 3)
            coeffs = dict(poly.terms())
            for exps, coeff in coeffs.items():
                for perm in itertools.permutations(range(3)):
                    permuted = tuple(exps[p] for p in perm)
                    assert coeffs.get(permuted, 0) == coeff


class TestInsertionSequence:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            InsertionSequence((0,))

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            InsertionSequence((2, 2))
        with pytest.raises(ValueError):
            InsertionSequence((3, 1))

    def test_extension_sequences_golden(self):
        seqs = extension_sequences(1, 2, 3)
        assert [s.values for s in seqs] == [(-1, 1, 2), (-1, 1, 3), (-1, 2, 3)]
        assert [s.values for s in extension_sequences(0, 0, 3)] == [()]


class TestInsertSequence:
    def test_worked_example(self):
        # Insert (-1, 2, 3) into a 4-row skew tableau: the first row gains a
        # skew box, rows two and three gain content boxes.
        tab = Tableau(
            _shape((4, 3, 3, 2), (2, 1, 1)),
            [(1, 1), (1, 2), (3, 4), (1, 4)],
            4,
        )
        out = insert_sequence(tab, InsertionSequence((-1, 2, 3)))
        assert out.shape == _shape((5, 4, 4, 2), (3, 1, 1))
        assert out.rows == ((1, 1), (1, 2, 2), (3, 3, 4), (1, 4))

    def test_insert_into_empty(self):
        tab = Tableau(_shape(()), [], 3)
        out = insert_sequence(tab, InsertionSequence((1, 2)))
        assert out.shape == _shape((1, 1))
        assert out.rows == ((1,), (2,))

    def test_new_row_created(self):
        tab = Tableau(_shape((1,)), [(1,)], 3)
        out = insert_sequence(tab, InsertionSequence((1, 2)))
        assert out.shape == _shape((2, 1))
        assert out.rows == ((1, 1), (2,))

    def test_entry_bound_enforced(self):
        tab = Tableau(_shape((1,)), [(1,)], 3)
        with pytest.raises(ValueError, match="exceeds entry bound"):
            insert_sequence(tab, InsertionSequence((4,)))

    def test_commutes_fixed_case(self):
        tab = Tableau(_shape((2, 1), (1,)), [(2,), (1,)], 4)
        s = InsertionSequence((-1, 2))
        t = InsertionSequence((1, 3))
        assert insert_sequence(insert_sequence(tab, s), t) == insert_sequence(
            insert_sequence(tab, t), s
        )

    @given(st.data())
    def test_insertion_always_valid(self, data):
        shape = data.draw(st.sampled_from(SMALL_SHAPES))
        nmax = data.draw(st.integers(2, 3))
        tabs = list(enumerate_ssyt(shape, nmax))
        if not tabs:
            return
        tab = data.draw(st.sampled_from(tabs))
        length = data.draw(st.integers(1, min(len(tab.rows) + 1, nmax)))
        values = data.draw(
            st.lists(
                st.integers(1, nmax),
                min_size=length,
                max_size=length,
                unique=True,
            ).map(sorted)
        )
        seq = InsertionSequence(tuple(values))
        out = insert_sequence(tab, seq)  # must not raise
        assert out.shape.box_count() == shape.box_count() + len(values)
        before, after = tab.content(), out.content()
        inserted = [0] * nmax
        for v in values:
            inserted[v - 1] += 1
        assert list(after) == [b + i for b, i in zip(before, inserted)]

    @given(st.data())
    def test_insertions_commute(self, data):
        shape = data.draw(st.sampled_from(SMALL_SHAPES))
        nmax = 3
        tabs = list(enumerate_ssyt(shape, nmax))
        if not tabs:
            return
        tab = data.draw(st.sampled_from(tabs))
        seqs = []
        for _ in range(2):
            length = data.draw(st.integers(1, min(len(tab.rows) + 1, nmax)))
            values = data.draw(
                st.lists(
                    st.integers(1, nmax),
                    min_size=length,
                    max_size=length,
                    unique=True,
                ).map(sorted)
            )
            seqs.append(InsertionSequence(tuple(values)))
        s, t = seqs
        left = insert_sequence(insert_sequence(tab, s), t)
        right = insert_sequence(insert_sequence(tab, t), s)
        assert left == right


class TestInsertionContentIdentity:
    def test_fixed_sequence_multiplies_by_its_monomial(self):
        # Summing content monomials of insert(T, seq) over all T of a shape
        # equals the shape's Schur polynomial times the sequence monomial.
        for shape in SMALL_SHAPES:
            rows = len(shape.outer.parts)
            for nvars in (2, 3):
                base = schur_by_tableaux(shape, nvars)
                tabs = list(enumerate_ssyt(shape, nvars))
                for length in range(1, min(rows + 1, nvars) + 1):
                    for values in itertools.combinations(
                        range(1, nvars + 1), length
                    ):
                        seq = InsertionSequence(values)
                        counter: dict[tuple[int, ...], int] = {}
                        results = set()
                        for tab in tabs:
                            out = insert_sequence(tab, seq)
                            results.add(out)
                            key = out.content()
                            counter[key] = counter.get(key, 0) + 1
                        # injectivity for a fixed sequence
                        assert len(results) == len(tabs)
                        monom = MultiPoly.one(nvars)
                        for v in values:
                            monom = monom * MultiPoly.variable(nvars, v)
                        assert MultiPoly(nvars, counter) == base * monom


class TestMinorStepCovering:
    SPECS = [
        MinorSpec((), (2,), 2),
        MinorSpec((), (1, 2), 2),
        MinorSpec((2,), (1, 3), 3),
        MinorSpec((1,), (1,), 2),
        MinorSpec((3,), (2,), 3),
    ]

    def test_step_sequences_cover_next_shape(self):
        # The union of all single-step insertions out of block size k covers
        # the block-size-(k+1) tableaux exactly, each sequence injectively.
        for spec in self.SPECS:
            nvars = spec.band
            seqs = extension_sequences(spec.r, spec.c - spec.r, nvars)
            for k in (min_k(spec), min_k(spec) + 1):
                tabs = list(enumerate_ssyt(shape_from_minor(spec, k), nvars))
                target = set(
                    enumerate_ssyt(shape_from_minor(spec, k + 1), nvars)
                )
                built = set()
                for seq in seqs:
                    images = {insert_sequence(tab, seq) for tab in tabs}
                    assert len(images) == len(tabs)
                    built |= images
                assert built == target


# Skew shapes with an empty row (inner part equal to the outer part),
# repeated rows and a zero-padded inner partition.
ORACLE_SHAPES = SMALL_SHAPES + [
    _shape((3, 3, 1), (3, 1)),
    _shape((2, 2, 2), (1, 1)),
    _shape((3, 2, 2, 1), (2, 2, 0)),
]


def _all_fillings(shape, nmax):
    """Every filling the public constructor accepts, in product order."""
    lengths = [hi - lo for lo, hi in shape.row_spans()]
    out = []
    for flat in itertools.product(range(1, nmax + 1), repeat=sum(lengths)):
        rows, at = [], 0
        for length in lengths:
            rows.append(flat[at:at + length])
            at += length
        try:
            out.append(Tableau(shape, rows, nmax))
        except ValueError:
            pass
    return out


class TestEngineOracle:
    """The row-wise engine against brute force through the public constructor."""

    @pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=str)
    @pytest.mark.parametrize("nmax", [1, 2, 3])
    def test_enumeration_is_every_accepted_filling_in_order(self, shape, nmax):
        found = enumerate_ssyt(shape, nmax)
        assert isinstance(found, list)
        expected = _all_fillings(shape, nmax)
        assert [t.rows for t in found] == [t.rows for t in expected]
        assert found == expected
        assert all(t.shape is shape and t.nmax == nmax for t in found)

    @pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=str)
    @pytest.mark.parametrize("nmax", [1, 2, 3])
    def test_every_insertion_matches_its_rebuild(self, shape, nmax):
        skew_rows = len(shape.inner.parts)
        values = list(range(-skew_rows - 1, 0)) + list(range(1, nmax + 1))
        seqs = [
            InsertionSequence(combo)
            for length in range(1, len(shape.row_spans()) + 2)
            for combo in itertools.combinations(values, length)
        ]
        for tab in enumerate_ssyt(shape, nmax):
            for seq in seqs:
                out = insert_sequence(tab, seq)
                rebuilt = Tableau(out.shape, out.rows, out.nmax)
                assert out == rebuilt and hash(out) == hash(rebuilt)
                assert out.shape.outer.parts == rebuilt.shape.outer.parts
                assert out.shape.inner.parts == rebuilt.shape.inner.parts


def _reference_step(shape, shape_next, seqs, nmax):
    """The insertion-step check on Tableau objects, as a reference.

    Enumerate both shapes, insert every sequence into every tableau with
    insert_sequence and compare sets of tableaux.
    """
    tabs = enumerate_ssyt(shape, nmax)
    next_contents = {tab: tab.content() for tab in enumerate_ssyt(shape_next, nmax)}
    built = set()
    injective = weighted = True
    for seq in seqs:
        weight = [0] * nmax
        for v in seq.values:
            if v > 0:
                weight[v - 1] += 1
        images = set()
        for tab in tabs:
            image = insert_sequence(tab, seq)
            images.add(image)
            after = next_contents.get(image)
            if after is not None and [a - b for a, b in zip(after, tab.content())] != weight:
                weighted = False
        if len(images) != len(tabs):
            injective = False
        built |= images
    return InsertionStep(
        tableaux=len(tabs),
        sequences=len(seqs),
        next_tableaux=len(next_contents),
        built=len(built),
        injective=injective,
        covered=built == next_contents.keys(),
        weighted=weighted,
    )


def _outcome(step, *args):
    try:
        return step(*args)
    except ValueError as exc:
        return str(exc)


def _grown(shape, skew_rows, extra):
    """The shape every sequence of extension_sequences(skew_rows, extra) builds."""
    outer, inner = list(shape.outer.parts), list(shape.inner.parts)
    grow = skew_rows + extra
    outer += [0] * (grow - len(outer))
    inner += [0] * (len(outer) - len(inner))
    for i in range(grow):
        outer[i] += 1
        inner[i] += i < skew_rows
    return SkewShape(Partition(outer), Partition(inner))


class TestInsertionStepOracle:
    """insertion_step on row tuples against the Tableau-object reference."""

    @pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=str)
    @pytest.mark.parametrize("nmax", [1, 2, 3])
    def test_row_enumeration_matches_the_tableaux(self, shape, nmax):
        rows = tableaux._ssyt_rows(shape, nmax)
        assert rows == [t.rows for t in enumerate_ssyt(shape, nmax)]

    @pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=str)
    @pytest.mark.parametrize("nmax", [1, 2, 3])
    def test_step_matches_the_reference(self, shape, nmax):
        skew_rows = len(shape.inner.parts)
        for extra in range(nmax + 1):
            seqs = extension_sequences(skew_rows, extra, nmax)
            # the shape the sequences build, where images are found among
            # its fillings, and two shapes no sequence builds, where every
            # image is validated on its own and none covers
            grown = _grown(shape, skew_rows, extra)
            for shape_next in (grown, shape, _grown(shape, 0, extra + 1)):
                args = (shape, shape_next, seqs, nmax)
                assert _outcome(insertion_step, *args) == _outcome(
                    _reference_step, *args
                )

    @pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=str)
    def test_sequences_with_many_targets_match_the_reference(self, shape):
        # every strictly increasing sequence up to one row past the shape,
        # each building its own target, in one call
        nmax = 3
        skew_rows = len(shape.inner.parts)
        values = list(range(-skew_rows - 1, 0)) + list(range(1, nmax + 1))
        seqs = [
            InsertionSequence(combo)
            for length in range(1, len(shape.row_spans()) + 2)
            for combo in itertools.combinations(values, length)
        ]
        shape_next = _grown(shape, skew_rows, 1)
        step = insertion_step(shape, shape_next, seqs, nmax)
        assert step == _reference_step(shape, shape_next, seqs, nmax)
        assert step.tableaux and not step.covered

class TestValidationMessages:
    """The one validator keeps the constructor's messages and their order."""

    @pytest.mark.parametrize(
        "outer, inner, rows, nmax, message",
        [
            ((2, 1), (), [(1, 1)], 3, "1 rows for a shape with 2 rows"),
            ((1,), (), [(1,)], 0, "nmax must be >= 1, got 0"),
            ((2, 1), (), [(1,), (1,)], 3, "row 1 has 1 entries, shape wants 2"),
            ((1,), (), [(4,)], 3, "entry 4 outside 1..3"),
            ((2,), (), [(5, 0)], 3, "entry 5 outside 1..3"),
            ((2,), (), [(2, 1)], 3, "row 1 not weakly increasing: (2, 1)"),
            ((2, 1), (), [(2, 1), (3, 3)], 3, "row 1 not weakly increasing: (2, 1)"),
            ((1, 1), (), [(1,), (1,)], 3,
             "column 1 not strictly increasing: 1 above 1"),
            ((2, 2), (1,), [(1,), (1, 1)], 2,
             "column 2 not strictly increasing: 1 above 1"),
            ((3, 3, 3), (2,), [(3,), (1, 2, 3), (2, 3, 3)], 3,
             "column 3 not strictly increasing: 3 above 3"),
        ],
    )
    def test_message(self, outer, inner, rows, nmax, message):
        with pytest.raises(ValueError) as err:
            Tableau(_shape(outer, inner), rows, nmax)
        assert str(err.value) == message


class TestNmaxBelowOne:
    """nmax < 1 is refused for every shape, the empty one included."""

    @pytest.mark.parametrize("nmax", [0, -1])
    @pytest.mark.parametrize("shape", [_shape(()), _shape((1,)), _shape((2, 1), (1,))], ids=str)
    def test_enumeration_raises(self, shape, nmax):
        message = f"nmax must be >= 1, got {nmax}"
        for enumerate_ in (tableaux._ssyt_rows, enumerate_ssyt, schur_by_tableaux):
            with pytest.raises(ValueError) as err:
                enumerate_(shape, nmax)
            assert str(err.value) == message

    @pytest.mark.parametrize("nmax", [0, -1])
    @pytest.mark.parametrize(
        "shape, shape_next",
        [(_shape(()), _shape((1,))), (_shape((2, 1), (1,)), _shape((3, 2), (1,)))],
        ids=str,
    )
    def test_insertion_step_raises(self, shape, shape_next, nmax):
        # with nmax < 1 there are no positive tails, so no sequence either
        seqs = extension_sequences(0, 1, nmax)
        assert seqs == []
        with pytest.raises(ValueError) as err:
            insertion_step(shape, shape_next, seqs, nmax)
        assert str(err.value) == f"nmax must be >= 1, got {nmax}"


def _bad_rows(bad):
    """A stand-in for tableaux._rows: the real rows, except `bad(floor)`."""
    real = tableaux._rows

    def rows(nmax, floor):
        out = bad(floor)
        return real(nmax, floor) if out is None else out

    return rows


class TestEnumeratorChecksRows:
    """Rows that break a rule are caught as they join, whatever _rows says.

    Each case makes the row memo hand back one bad row; the enumeration
    must raise the error the validator gives for that filling.
    """

    @pytest.mark.parametrize(
        "outer, inner, nmax, bad, filling, message",
        [
            # order
            ((2,), (), 3, lambda floor: ((2, 1),), [(2, 1)],
             "row 1 not weakly increasing: (2, 1)"),
            ((2, 2), (), 3,
             lambda floor: None if floor == (1, 1) else ((3, 2),),
             [(1, 1), (3, 2)], "row 2 not weakly increasing: (3, 2)"),
            # range
            ((1,), (), 3, lambda floor: ((4,),), [(4,)], "entry 4 outside 1..3"),
            ((2,), (), 3, lambda floor: ((0, 1),), [(0, 1)],
             "entry 0 outside 1..3"),
            # length
            ((2,), (), 3, lambda floor: ((1, 1, 1),), [(1, 1, 1)],
             "row 1 has 3 entries, shape wants 2"),
            ((2, 1), (), 3,
             lambda floor: None if len(floor) == 2 else ((),),
             [(1, 1), ()], "row 2 has 0 entries, shape wants 1"),
            # a shared column
            ((1, 1), (), 3, lambda floor: ((1,),), [(1,), (1,)],
             "column 1 not strictly increasing: 1 above 1"),
            ((2, 2), (1,), 2,
             lambda floor: ((1,),) if len(floor) == 1 else ((1, 1),),
             [(1,), (1, 1)], "column 2 not strictly increasing: 1 above 1"),
        ],
    )
    def test_bad_row_raises_the_validator_error(
        self, monkeypatch, outer, inner, nmax, bad, filling, message
    ):
        shape = _shape(outer, inner)
        with pytest.raises(ValueError) as direct:
            Tableau(shape, filling, nmax)
        assert str(direct.value) == message
        monkeypatch.setattr(tableaux, "_rows", _bad_rows(bad))
        with pytest.raises(ValueError) as err:
            enumerate_ssyt(shape, nmax)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            insertion_step(shape, shape, [], nmax)
        assert str(err.value) == message


class TestBoundedCaches:
    def test_plan_and_row_caches_stay_within_maxsize(self):
        plans, rows = tableaux._plan.cache_info, tableaux._rows.cache_info
        assert plans().maxsize == PLAN_CACHE_SIZE
        assert rows().maxsize == ROW_CACHE_SIZE
        # more distinct shapes than the plan cache holds
        for width in range(1, PLAN_CACHE_SIZE + 20):
            assert len(enumerate_ssyt(_shape((width,)), 1)) == 1
            assert plans().currsize <= PLAN_CACHE_SIZE
        # two-row columns: one bound vector per first-row value and nmax,
        # more than the row memo holds
        misses = rows().misses
        for nmax in range(2, 52):
            assert len(enumerate_ssyt(_shape((1, 1)), nmax)) == nmax * (nmax - 1) // 2
            assert rows().currsize <= ROW_CACHE_SIZE
        assert rows().misses - misses > ROW_CACHE_SIZE

    def test_insertion_targets_stay_within_maxsize(self):
        info = tableaux._insertion_target.cache_info
        assert info().maxsize == PLAN_CACHE_SIZE
        tab = Tableau(_shape((1,)), [(1,)], 2 * PLAN_CACHE_SIZE)
        for v in range(1, 2 * PLAN_CACHE_SIZE):
            insert_sequence(tab, InsertionSequence((v, v + 1)))
            assert info().currsize <= PLAN_CACHE_SIZE
