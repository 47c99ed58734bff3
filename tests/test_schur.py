"""Tests for Jacobi-Trudi matrices and the symbolic determinant engine."""

from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, strategies as st

from bandschur.polyring import (
    MultiPoly,
    elementary_symmetric,
    elementary_variable,
    expand_elementary,
)
from bandschur.schur import (
    PolyMatrix,
    jacobi_trudi_matrix,
    leading_minors,
    schur_jacobi_trudi,
    symbolic_det,
    transfer_map,
)
from bandschur.shapes import MinorSpec, Partition, SkewShape
from bandschur.tableaux import schur_by_tableaux
from bandschur.toeplitz import build_minor_symbolic


def _shape(outer, inner=()):
    return SkewShape(Partition(outer), Partition(inner))


def _anti_transpose(matrix: PolyMatrix) -> PolyMatrix:
    """Flip across the anti-diagonal, which leaves the determinant unchanged."""
    m = matrix.size
    return PolyMatrix(
        [[matrix[m - 1 - j, m - 1 - i] for j in range(m)] for i in range(m)],
        matrix.nvars,
    )


def _cofactor_det(matrix: PolyMatrix) -> MultiPoly:
    """Naive Laplace expansion along the first row, as an oracle."""
    m = matrix.size
    if m == 0:
        return MultiPoly.one(matrix.nvars)
    if m == 1:
        return matrix[0, 0]
    total = MultiPoly.zero(matrix.nvars)
    for j in range(m):
        entry = matrix[0, j]
        if entry.is_zero:
            continue
        sub = PolyMatrix(
            [
                [matrix[i, jj] for jj in range(m) if jj != j]
                for i in range(1, m)
            ],
            matrix.nvars,
        )
        term = entry * _cofactor_det(sub)
        total = total + (term if j % 2 == 0 else -term)
    return total


def _leibniz_det(matrix: PolyMatrix, k: int) -> MultiPoly:
    """Sum over permutations of the leading k x k block, as an oracle."""
    total: dict = {}

    def walk(row, cols, sign, partial):
        if row == k:
            for exps, coeff in partial.terms():
                total[exps] = total.get(exps, 0) + sign * coeff
            return
        for pos, j in enumerate(cols):
            if not matrix[row, j].is_zero:
                rest = cols[:pos] + cols[pos + 1:]
                walk(row + 1, rest, -sign if pos % 2 else sign, partial * matrix[row, j])

    walk(0, tuple(range(k)), 1, MultiPoly.one(matrix.nvars))
    return MultiPoly(matrix.nvars, total)


@st.composite
def integer_matrices(draw, max_size=7):
    """Dense or sparse square matrices of integer polynomials, 1-3 variables.

    Dense entries have at most one term, so the Leibniz oracle stays cheap
    at 7 x 7; a sparse matrix zeroes about half its entries.
    """
    size = draw(st.integers(0, max_size))
    nvars = draw(st.integers(1, 3))
    sparse = draw(st.booleans())
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    terms = st.dictionaries(exps, st.integers(-3, 3), max_size=2 if sparse else 1)
    entries = [
        [
            MultiPoly(nvars, {} if sparse and draw(st.booleans()) else draw(terms))
            for _ in range(size)
        ]
        for _ in range(size)
    ]
    return PolyMatrix(entries, nvars)


@st.composite
def poly_matrices(draw, max_size=4):
    size = draw(st.integers(0, max_size))
    nvars = 2
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    entries = [
        [
            MultiPoly(
                nvars,
                draw(st.dictionaries(exps, st.integers(-3, 3), max_size=2)),
            )
            for _ in range(size)
        ]
        for _ in range(size)
    ]
    return PolyMatrix(entries, nvars)


class TestPolyMatrix:
    def test_must_be_square(self):
        with pytest.raises(ValueError):
            PolyMatrix([[MultiPoly.one(2)], [MultiPoly.one(2)]])

    def test_mixed_variable_counts_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            PolyMatrix(
                [
                    [MultiPoly.one(2), MultiPoly.one(2)],
                    [MultiPoly.one(3), MultiPoly.one(3)],
                ]
            )

    def test_empty_needs_nvars(self):
        with pytest.raises(ValueError):
            PolyMatrix([])
        assert PolyMatrix([], nvars=2).size == 0

    def test_nvars_must_match_the_entries(self):
        assert PolyMatrix([[MultiPoly.one(2)]], nvars=2).nvars == 2
        with pytest.raises(ValueError, match="^entries have 2 variables, not nvars = 3$"):
            PolyMatrix([[MultiPoly.one(2)]], nvars=3)
        # a zero entry carries its variable count too
        with pytest.raises(ValueError, match="not nvars = 1$"):
            PolyMatrix([[MultiPoly.zero(2)]], nvars=1)

    @pytest.mark.parametrize("nvars", [0, -1])
    def test_nvars_below_one_rejected(self, nvars):
        with pytest.raises(ValueError, match=f"^nvars must be >= 1, got {nvars}$"):
            PolyMatrix([], nvars=nvars)

    def test_column_pattern_lists_the_nonzero_entries(self):
        one, zero = MultiPoly.one(2), MultiPoly.zero(2)
        x1 = MultiPoly.variable(2, 1)
        m = PolyMatrix([[x1, zero, one], [one, zero, zero], [zero, zero, x1]])
        assert m.columns == (((0, x1), (1, one)), (), ((0, one), (2, x1)))
        assert PolyMatrix([], nvars=2).columns == ()


class TestPatternReads:
    # a PolyMatrix keeps only its column pattern; indexing, equality and
    # repr read it as if the dense rows were there
    one, zero, x1 = MultiPoly.one(2), MultiPoly.zero(2), MultiPoly.variable(2, 1)
    m = PolyMatrix([[x1, zero, one], [one, zero, zero], [zero, zero, x1]])

    def test_indexing_gives_zero_and_nonzero_entries(self):
        m, one, zero, x1 = self.m, self.one, self.zero, self.x1
        assert (m[0, 0], m[1, 0], m[0, 2], m[2, 2]) == (x1, one, one, x1)
        assert [m[i, 1] for i in range(3)] == [zero] * 3
        assert (m[2, 0], m[1, 2]) == (zero, zero)
        assert m[2, 0].nvars == 2

    def test_negative_indices_count_from_the_end(self):
        m, one, zero, x1 = self.m, self.one, self.zero, self.x1
        assert (m[-1, -1], m[-3, 0], m[0, -1], m[-2, -3]) == (x1, x1, one, one)
        assert (m[-1, 0], m[-2, -1], m[0, -2]) == (zero, zero, zero)

    @pytest.mark.parametrize("ij", [(3, 0), (0, 3), (-4, 0), (0, -4), (3, -4)])
    def test_index_past_the_size_raises(self, ij):
        with pytest.raises(IndexError):
            self.m[ij]

    def test_empty_matrix_has_no_entries(self):
        with pytest.raises(IndexError):
            PolyMatrix([], nvars=2)[0, 0]

    def test_built_minor_equals_the_matrix_of_its_rows(self):
        y1, y2 = self.x1, MultiPoly.variable(2, 2)
        one, zero = self.one, self.zero
        rows = [[y1, y2, zero], [zero, one, y1], [zero, zero, one]]
        built = build_minor_symbolic(MinorSpec((2,), (1,), 2), 3)
        assert built == PolyMatrix(rows, 2)
        assert [[built[i, j] for j in range(3)] for i in range(3)] == rows
        rows[2][0] = one
        assert built != PolyMatrix(rows, 2)
        assert PolyMatrix([], nvars=2) != PolyMatrix([], nvars=3)
        assert PolyMatrix([], nvars=2) == build_minor_symbolic(MinorSpec((), (), 2), 0)

    def test_repr_prints_the_dense_rows(self):
        m = build_minor_symbolic(MinorSpec((2,), (1,), 2), 3)
        assert repr(m) == "PolyMatrix[x1, x2, 0; 0, 1, x1; 0, 0, 1]"
        assert repr(PolyMatrix([], nvars=2)) == "PolyMatrix[]"


class TestJacobiTrudiMatrix:
    def test_row_shape_two_variables(self):
        m = jacobi_trudi_matrix(_shape((2,)), 2)
        e = lambda d: elementary_symmetric(d, 2)
        in_x = tuple(
            tuple(expand_elementary(m[i, j]) for j in range(2)) for i in range(2)
        )
        assert in_x == ((e(1), e(2)), (e(0), e(1)))

    def test_single_box(self):
        m = jacobi_trudi_matrix(_shape((1,)), 2)
        assert m.size == 1
        assert expand_elementary(symbolic_det(m)) == elementary_symmetric(1, 2)

    def test_empty_shape(self):
        m = jacobi_trudi_matrix(_shape(()), 2)
        assert m.size == 0
        assert symbolic_det(m) == MultiPoly.one(2)

    def test_size_is_outer_width(self):
        assert jacobi_trudi_matrix(_shape((4, 2, 1), (2, 2)), 3).size == 4

    @pytest.mark.parametrize("nvars", [0, -1])
    def test_nvars_below_one_rejected(self, nvars):
        message = f"^nvars must be >= 1, got {nvars}$"
        with pytest.raises(ValueError, match=message):
            schur_jacobi_trudi(_shape(()), nvars)
        with pytest.raises(ValueError, match=message):
            jacobi_trudi_matrix(_shape((2, 1), (1,)), nvars)

    def test_equals_the_entry_by_entry_matrix(self):
        # jacobi_trudi_matrix reads its column pattern from the band; this
        # pins it to the dense definition on every skew shape in a 4 x 4 box
        box = [
            Partition(sorted(parts, reverse=True))
            for parts in combinations_with_replacement(range(5), 4)
        ]
        pairs = 0
        for outer in box:
            for inner in filter(outer.contains, box):
                shape = SkewShape(outer, inner)
                oc, ic = outer.conjugate(), inner.conjugate()
                axis = range(1, outer.part(1) + 1)
                for n in range(1, 7):
                    dense = PolyMatrix(
                        [
                            [elementary_variable(oc.part(i) - ic.part(j) - i + j, n)
                             for j in axis]
                            for i in axis
                        ],
                        n,
                    )
                    built = jacobi_trudi_matrix(shape, n)
                    assert built == dense, (shape, n)
                    assert (built.size, built.nvars) == (len(axis), n)
                    # the stored pattern is a scan of the nonzero entries
                    scan = tuple(
                        tuple(
                            (i, built[i, j])
                            for i in range(built.size)
                            if not built[i, j].is_zero
                        )
                        for j in range(built.size)
                    )
                    assert built.columns == scan, (shape, n)
                    pairs += 1
        assert pairs == 10_584


class TestSymbolicDet:
    def test_upper_unitriangular(self):
        one, zero = MultiPoly.one(2), MultiPoly.zero(2)
        x1x2 = MultiPoly(2, {(1, 1): 1})
        m = PolyMatrix([[one, x1x2], [zero, one]])
        assert symbolic_det(m) == one

    def test_row_shape_det_is_complete_homogeneous(self):
        # det of the (3)-row matrix in 2 variables is h_3.
        det = schur_jacobi_trudi(_shape((3,)), 2)
        h3 = MultiPoly(2, {(3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1})
        assert det == h3

    def test_too_tall_column_vanishes(self):
        assert schur_jacobi_trudi(_shape((1, 1, 1)), 2).is_zero

    @given(poly_matrices())
    def test_engines_agree_with_cofactor_oracle(self, matrix):
        expected = _cofactor_det(matrix)
        assert symbolic_det(matrix) == expected

    @given(poly_matrices(max_size=4))
    def test_anti_transpose_preserves_det(self, matrix):
        assert symbolic_det(matrix) == symbolic_det(_anti_transpose(matrix))


class TestLeadingMinors:
    @given(integer_matrices())
    def test_each_entry_is_a_leading_block_determinant(self, matrix):
        dets = leading_minors(matrix)
        assert len(dets) == matrix.size + 1
        for k, det in enumerate(dets):
            assert det == _leibniz_det(matrix, k)

    def test_block_kept_when_no_later_column_reaches_its_rows(self):
        # Row 1 is zero beyond column 0, so no full matching survives past
        # column 0, but the 1 x 1 block is still x1.
        x1, x2 = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)
        one, zero = MultiPoly.one(2), MultiPoly.zero(2)
        m = PolyMatrix([[x1, zero, zero], [one, zero, zero], [zero, x2, one]])
        assert leading_minors(m) == [one, x1, zero, zero]

    def test_zero_column_zeroes_the_blocks_that_hold_it(self):
        one, zero = MultiPoly.one(1), MultiPoly.zero(1)
        m = PolyMatrix([[one, zero, one], [one, zero, one], [zero, zero, one]])
        assert leading_minors(m) == [one, one, zero, zero]


class TestTransferMap:
    @pytest.mark.parametrize("band", range(1, 7))
    def test_walks_from_u_back_to_u_are_the_contiguous_minors(self, band):
        # k steps of the map from u = (1 << (n - d)) - 1 back to u sum to
        # the leading k x k determinant of the minor deleting columns 1..d
        k_max = 2 * band + 10
        one, zero = MultiPoly.one(band), MultiPoly.zero(band)
        for d in range(band + 1):
            _, steps = transfer_map(band, d)
            u = (1 << (band - d)) - 1
            vector, walks = {u: one}, [one]
            for _ in range(k_max):
                grown = {}
                for source, target, offset, sign in steps:
                    if source in vector:
                        term = sign * elementary_variable(offset, band) * vector[source]
                        grown[target] = grown.get(target, zero) + term
                vector = grown
                walks.append(vector.get(u, zero))
            minor = build_minor_symbolic(MinorSpec.contiguous(d, band), k_max)
            assert walks == leading_minors(minor), (band, d)

    @pytest.mark.parametrize("band", range(1, 8))
    def test_states_are_the_window_subsets_in_descending_order(self, band):
        for d in range(band + 1):
            states, steps = transfer_map(band, d)
            assert len(set(states)) == len(states) == comb(band, d)
            assert list(states) == sorted(states, reverse=True)
            assert all(s.bit_count() == band - d for s in states)
            assert {target for _, target, _, _ in steps} <= set(states)

    @pytest.mark.parametrize("extra, count", [(0, 1), (39, 40)])
    def test_wide_band_builds_only_its_states(self, extra, count):
        # C(40, extra) states, from their set bits: a filter over all 2^40
        # masks would run for days
        states, steps = transfer_map(40, extra)
        assert len(states) == count
        assert {source for source, _, _, _ in steps} == set(states)

    @pytest.mark.parametrize("band", range(1, 6))
    def test_extremes_have_one_step(self, band):
        full = (1 << band) - 1
        assert transfer_map(band, 0) == ((full,), ((full, full, 0, 1),))
        assert transfer_map(band, band) == ((0,), ((0, 0, band, 1),))


class TestSchurAgreement:
    def test_matches_tableaux_on_small_shapes(self):
        shapes = [
            _shape((2, 1)),
            _shape((2, 2), (1,)),
            _shape((3, 1), (1,)),
            _shape((3, 3), (2, 1)),
            _shape((2, 2, 1)),
        ]
        for shape in shapes:
            for nvars in (2, 3):
                assert schur_jacobi_trudi(shape, nvars) == schur_by_tableaux(
                    shape, nvars
                )
