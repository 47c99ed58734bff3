"""Tests for Jacobi-Trudi matrices and the symbolic determinant engine."""

import pytest
from hypothesis import given, strategies as st

from bandschur.polyring import MultiPoly, elementary_symmetric, expand_elementary
from bandschur.schur import (
    PolyMatrix,
    jacobi_trudi_matrix,
    leading_minors,
    schur_jacobi_trudi,
    symbolic_det,
)
from bandschur.shapes import Partition, SkewShape
from bandschur.tableaux import schur_by_tableaux


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


class TestJacobiTrudiMatrix:
    def test_row_shape_two_variables(self):
        m = jacobi_trudi_matrix(_shape((2,)), 2)
        e = lambda d: elementary_symmetric(d, 2)
        in_x = tuple(tuple(map(expand_elementary, row)) for row in m.entries)
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
