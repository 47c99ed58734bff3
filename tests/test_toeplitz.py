"""Tests for banded Toeplitz minors, numeric and symbolic."""

from fractions import Fraction
from itertools import combinations
from math import prod

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bandschur.polyring import (
    MultiPoly,
    elementary_symmetric,
    elementary_variable,
    expand_elementary,
)
from bandschur.schur import PolyMatrix, leading_minors, symbolic_det
from bandschur.shapes import MinorSpec
from bandschur import recurrence
from bandschur.recurrence import (
    char_coeffs,
    recurrence_residual,
    verify_recurrence,
)
from bandschur.shapes import min_k, surviving
from bandschur.toeplitz import (
    MINOR_CACHE_SIZE,
    BandedSymbol,
    build_minor_numeric,
    build_minor_symbolic,
    det_numeric,
    format_complex,
    minor_det_symbolic,
    parse_complex,
    verify_minor_schur,
)


class TestParseComplex:
    def test_values(self):
        cases = {
            "2": 2 + 0j,
            "-3.5": -3.5 + 0j,
            "i": 1j,
            "-i": -1j,
            "2i": 2j,
            "2-3i": 2 - 3j,
            "1e-3+2i": 0.001 + 2j,
            ".5": 0.5 + 0j,
            "1.5e2i": 150j,
            "+i": 1j,
            "-1.5e-2-2.5i": -0.015 - 2.5j,
        }
        for text, expected in cases.items():
            assert parse_complex(text) == expected

    def test_errors(self):
        # complex() reads the next four, but the grammar writes i, not j,
        # and takes no parentheses
        for bad in [
            "", "x", "2+", "1+2", "i3", "2..5", "1e+i2",
            "1+2j", "2J", "j", "(1+2i)",
        ]:
            with pytest.raises(ValueError):
                parse_complex(bad)

    def test_format_round_trip(self):
        for z in [2 + 0j, -1j, 1j, 2 - 3j, 0.001 + 2j, -4.25 + 0j, 1 + 1j]:
            assert parse_complex(format_complex(z)) == z

    @given(
        st.complex_numbers(
            allow_nan=False, allow_infinity=False, max_magnitude=1e6
        )
    )
    def test_round_trip_within_print_precision(self, z):
        back = parse_complex(format_complex(z))
        assert abs(back - z) <= 1e-9 * max(1.0, abs(z))


class TestBandedSymbol:
    def test_leading_one_required(self):
        with pytest.raises(ValueError):
            BandedSymbol((2, 1))
        with pytest.raises(ValueError):
            BandedSymbol((1,))

    def test_parse_prepends_unit(self):
        assert BandedSymbol.parse("5,6").coeffs == (1, 5, 6)
        assert BandedSymbol.parse("1,5,6").coeffs == (1, 5, 6)

    def test_band(self):
        assert BandedSymbol((1, 0, 1)).band == 2

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), complex(0, float("-inf"))]
    )
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            BandedSymbol((1, bad, 1))
        with pytest.raises(ValueError, match="finite"):
            BandedSymbol.parse("1,nan")

    def test_str(self):
        assert str(BandedSymbol((1, 0.5, 0.2))) == "1,0.5,0.2"
        assert str(BandedSymbol.parse("1,2i,-1-i")) == "1,2i,-1-1i"


class TestBuildMinor:
    def test_numeric_golden(self):
        sym = BandedSymbol((1, 5, 6))
        spec = MinorSpec((), (2,), 2)
        m = build_minor_numeric(sym, spec, 2)
        assert np.array_equal(m, np.array([[1, 6], [0, 5]], dtype=complex))

    def test_numeric_matches_loop_oracle(self):
        # entry by entry against the plain double loop over surviving indices
        rng = np.random.default_rng(13)
        for band in range(1, 6):
            coeffs = [1] + list(rng.normal(size=band) + 1j * rng.normal(size=band))
            sym = BandedSymbol(coeffs)
            for _ in range(6):
                c = int(rng.integers(0, band + 1))
                r = int(rng.integers(0, c + 1))
                picked = rng.choice(np.arange(1, 8), c, replace=False)
                cols = sorted(int(v) for v in picked)
                shift = int(rng.integers(0, 4))
                spec = MinorSpec(tuple(v + shift for v in cols[:r]), tuple(cols), band)
                for k in (0, 1, 2, 7, 40, 90):
                    oracle = np.zeros((k, k), dtype=np.complex128)
                    row_idx = surviving(spec.deleted_rows, k)
                    col_idx = surviving(spec.deleted_cols, k)
                    for i, ri in enumerate(row_idx):
                        for j, cj in enumerate(col_idx):
                            if 0 <= cj - ri <= band:
                                oracle[i, j] = sym.coeffs[cj - ri]
                    built = build_minor_numeric(sym, spec, k)
                    assert built.shape == (k, k)
                    assert built.dtype == np.complex128
                    assert built.tobytes() == oracle.tobytes()

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            build_minor_numeric(BandedSymbol((1, 2)), MinorSpec((), (), 1), -1)

    def test_band_mismatch_rejected(self):
        with pytest.raises(ValueError, match="band"):
            build_minor_numeric(BandedSymbol((1, 2)), MinorSpec((), (), 2), 3)

    def test_symbolic_two_by_two(self):
        m = build_minor_symbolic(MinorSpec((), (2,), 2), 2)
        e = lambda d: elementary_symmetric(d, 2)
        in_x = tuple(
            tuple(expand_elementary(m[i, j]) for j in range(2)) for i in range(2)
        )
        assert in_x == ((e(0), e(2)), (MultiPoly.zero(2), e(1)))

    def test_symbolic_three_by_three(self):
        m = build_minor_symbolic(MinorSpec((), (2,), 2), 3)
        e = lambda d: elementary_symmetric(d, 2)
        zero = MultiPoly.zero(2)
        in_x = tuple(
            tuple(expand_elementary(m[i, j]) for j in range(3)) for i in range(3)
        )
        assert in_x == (
            (e(0), e(2), zero),
            (zero, e(1), e(2)),
            (zero, e(0), e(1)),
        )

    def test_det_sequence_for_single_deleted_column(self):
        # Deleting column 2 of the band-2 matrix: determinants march through
        # 1, 1, e_1, h_2, h_3 as the block grows.
        spec = MinorSpec((), (2,), 2)
        expected = [
            MultiPoly.one(2),
            MultiPoly.one(2),
            MultiPoly(2, {(1, 0): 1, (0, 1): 1}),
            MultiPoly(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1}),
            MultiPoly(2, {(3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1}),
        ]
        for k in range(5):
            assert expand_elementary(minor_det_symbolic(spec, k)) == expected[k]

    def test_numeric_vs_symbolic_at_random_points(self):
        rng = np.random.default_rng(7)
        specs = [
            MinorSpec((), (), 3),
            MinorSpec((), (2,), 3),
            MinorSpec((2,), (1, 3), 3),
            MinorSpec((), (1, 2), 3),
            MinorSpec((1, 3), (1, 3), 3),
        ]
        for _ in range(3):
            x = rng.normal(size=3) + 1j * rng.normal(size=3)
            coeffs = [
                complex(elementary_symmetric(d, 3).evaluate(tuple(x)))
                for d in range(4)
            ]
            sym = BandedSymbol(coeffs)
            for spec in specs:
                for k in range(5):
                    direct = det_numeric(build_minor_numeric(sym, spec, k))
                    det = expand_elementary(minor_det_symbolic(spec, k))
                    via_poly = det.evaluate(tuple(x))
                    scale = max(1.0, abs(via_poly))
                    assert abs(direct - via_poly) <= 1e-10 * scale


class TestDetNumeric:
    def test_golden(self):
        assert det_numeric(np.array([[2, 1], [3, 11]])) == pytest.approx(19)
        assert det_numeric(np.eye(3)) == pytest.approx(1)
        assert det_numeric(np.zeros((0, 0))) == 1

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det_numeric(np.zeros((2, 3)))


class TestMinorSchurIdentity:
    def test_cached(self):
        spec = MinorSpec((), (2,), 2)
        assert minor_det_symbolic(spec, 3) is minor_det_symbolic(spec, 3)

    def test_verify_examples(self):
        for spec, ks in [
            (MinorSpec((), (2,), 2), range(1, 5)),
            (MinorSpec((2,), (1, 3), 3), range(1, 4)),
            (MinorSpec((), (1, 2, 3), 4), range(0, 3)),
        ]:
            for k in ks:
                ok, residual = verify_minor_schur(spec, k)
                assert ok and residual.is_zero

    def test_below_min_k_rejected(self):
        with pytest.raises(ValueError, match="below min_k"):
            verify_minor_schur(MinorSpec((), (2,), 2), 0)

    def test_minor_det_invariant_under_anti_transpose(self):
        for spec in [MinorSpec((), (2,), 2), MinorSpec((2,), (1, 3), 3)]:
            for k in range(2, 5):
                m = build_minor_symbolic(spec, k)
                assert symbolic_det(m) == symbolic_det(_anti_transpose(m))


def _anti_transpose(matrix: PolyMatrix) -> PolyMatrix:
    """Flip across the anti-diagonal, which leaves the determinant unchanged."""
    m = matrix.size
    return PolyMatrix(
        [[matrix[m - 1 - j, m - 1 - i] for j in range(m)] for i in range(m)],
        matrix.nvars,
    )


def _e_at(point: tuple[int, ...]) -> list[int]:
    """e_0..e_n at an integer point: the coefficients of prod(1 + x_i t)."""
    coeffs = [1]
    for x in point:
        coeffs = [a + x * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def _fraction_det(rows: list[list[int]]) -> int:
    """Exact determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(v) for v in row] for row in rows]
    m, det = len(a), Fraction(1)
    for j in range(m):
        pivot = next((i for i in range(j, m) if a[i][j]), None)
        if pivot is None:
            return 0
        if pivot != j:
            a[j], a[pivot] = a[pivot], a[j]
            det = -det
        det *= a[j][j]
        for i in range(j + 1, m):
            f = a[i][j] / a[j][j]
            a[i] = [vi - f * vj for vi, vj in zip(a[i], a[j])]
    assert det.denominator == 1
    return int(det)


def _value(poly: MultiPoly, point) -> int:
    """Exact value of an integer polynomial at an integer point."""
    return sum(
        coeff * prod(v**e for v, e in zip(point, exps)) for exps, coeff in poly
    )


def _minor_value(s: list[int], spec: MinorSpec, k: int) -> int:
    """The integer k x k minor at band coefficients s, by elimination."""
    rows, cols = surviving(spec.deleted_rows, k), surviving(spec.deleted_cols, k)
    return _fraction_det([
        [s[cj - ri] if 0 <= cj - ri <= spec.band else 0 for cj in cols]
        for ri in rows
    ])


def _q_values(point: tuple[int, ...], extra: int) -> list[int]:
    """Q_0..Q_b at an integer point: prod over extra-subsets of (t - x_S)."""
    desc = [1]  # coefficients of t^b, t^(b-1), ...
    for subset in combinations(point, extra):
        root = prod(subset)
        desc = [a - root * b for a, b in zip(desc + [0], [0] + desc)]
    return desc


INTEGER_POINTS = ((2, -1, 3, -2, 5), (1, 4, -3, 2, -1))


class TestExactOracle:
    """The exact engines against integer arithmetic at integer points.

    Each polynomial is checked twice: in the elementary basis at the band
    coefficients s_d = e_d(point), and expanded to x at the point itself.
    """

    @pytest.mark.parametrize("alpha, beta, band, k", [
        ((), (1, 2), 4, 10),
        ((), (1, 2), 5, 8),
        ((3,), (1, 3), 4, 9),
        ((3,), (1, 3), 5, 8),
        ((), (2,), 4, 10),
        ((), (2,), 5, 9),
        ((2, 4), (1, 2, 3), 4, 9),
        ((2, 4), (1, 2, 3), 5, 8),
    ])
    def test_minor_det_at_integer_points(self, alpha, beta, band, k):
        spec = MinorSpec(alpha, beta, band)
        det = minor_det_symbolic(spec, k)
        assert not det.is_zero
        in_x = expand_elementary(det)
        for point in INTEGER_POINTS:
            point = point[:band]
            s = _e_at(point)
            want = _minor_value(s, spec, k)
            assert _value(det, s[1:]) == want
            assert _value(in_x, point) == want

    @pytest.mark.parametrize("band, extra", [(6, 2), (6, 3), (6, 4), (7, 2), (7, 5)])
    def test_char_coeffs_at_integer_points(self, band, extra):
        # Q_i in e at e_d(point), against prod_S (t - x_S) multiplied out in ints
        q_e = char_coeffs(band, extra)
        for point in ((2, -1, 3, -2, 5, 1, -3), (1, 4, -3, 2, -1, 3, 2)):
            point = point[:band]
            s = _e_at(point)
            assert [_value(q, s[1:]) for q in q_e] == _q_values(point, extra)

    @pytest.mark.parametrize("alpha, beta, band", [
        ((), (2, 4), 4),
        ((3,), (1, 3), 4),
        ((2,), (1, 4), 5),
        ((), (3, 5), 5),
        ((4,), (1, 2, 5), 5),
    ])
    def test_recurrence_residual_at_integer_points(self, alpha, beta, band):
        # j runs from 0, below min_k, to one past it
        spec = MinorSpec(alpha, beta, band)
        lo = min_k(spec)
        assert lo >= 1
        for j in range(lo + 2):
            residual = recurrence_residual(spec, j)
            assert residual.is_zero == (j >= lo)
            in_x = expand_elementary(residual)
            for point in INTEGER_POINTS:
                point = point[:band]
                s = _e_at(point)
                q = _q_values(point, spec.c - spec.r)
                b = len(q) - 1
                want = sum(
                    q[b - m] * _minor_value(s, spec, m + j) for m in range(b + 1)
                )
                assert _value(residual, s[1:]) == want
                assert _value(in_x, point) == want


class TestMinorCache:
    def test_currsize_stays_within_the_bound(self):
        # 12 deleted columns x 4 sizes = 48 distinct minors, more than the bound
        minor_det_symbolic.cache_clear()
        peak = 0
        for col in range(1, 13):
            spec = MinorSpec((), (col,), 3)
            for k in range(4):
                minor_det_symbolic(spec, k)
                peak = max(peak, minor_det_symbolic.cache_info().currsize)
        assert 12 * 4 > MINOR_CACHE_SIZE
        assert peak == MINOR_CACHE_SIZE

    def test_band_7_sweep_computes_each_minor_once(self, monkeypatch):
        # c - r = 3 at band 7: residuals j = 0..3 read sizes 0..3 + C(7, 3),
        # all leading blocks of the one minor of size 38
        spec = MinorSpec((), (1, 2, 3), 7)
        one = MultiPoly.one(7)
        stub = (one,) * 36
        monkeypatch.setattr(recurrence, "char_coeffs", lambda band, extra: stub)
        built = []  # the size of every symbolic minor built
        real_build = recurrence.build_minor_symbolic
        monkeypatch.setattr(
            recurrence,
            "build_minor_symbolic",
            lambda s, k: built.append(k) or real_build(s, k),
        )
        monkeypatch.setattr(
            recurrence, "leading_minors", lambda m: [one] * (m.size + 1)
        )
        minor_det_symbolic.cache_clear()
        verify_recurrence(spec, 3)
        assert built == [38]
        assert minor_det_symbolic.cache_info().misses == 0

    def test_recurrence_sweep_builds_each_minor_once(self, monkeypatch):
        # residual j reads sizes j..j + b, so a sweep to j_max reads the
        # leading blocks of the one minor of size j_max + b
        spec = MinorSpec((), (1, 2), 4)
        j_max = min_k(spec) + 2
        built = []
        real_build = recurrence.build_minor_symbolic
        monkeypatch.setattr(
            recurrence,
            "build_minor_symbolic",
            lambda s, k: built.append(k) or real_build(s, k),
        )
        minor_det_symbolic.cache_clear()
        report = verify_recurrence(spec, j_max)
        assert report.all_zero
        assert built == [j_max + report.b]
        assert minor_det_symbolic.cache_info().misses == 0


def _minor_specs(band: int, top: int = 3):
    """Every spec deleting rows and columns among 1..top at this band."""
    for c in range(min(band, top) + 1):
        for cols in combinations(range(1, top + 1), c):
            for r in range(c + 1):
                for rows in combinations(range(1, top + 1), r):
                    if all(a >= b for a, b in zip(rows, cols)):
                        yield MinorSpec(rows, cols, band)


class TestLeadingBlocks:
    @pytest.mark.parametrize("band", [1, 2, 3, 4, 5])
    def test_smaller_minors_are_leading_blocks(self, band):
        specs = list(_minor_specs(band))
        assert any(spec.r > 0 for spec in specs)
        for spec in specs:
            dets = leading_minors(build_minor_symbolic(spec, 7))
            for k in range(8):
                assert dets[k] == minor_det_symbolic(spec, k), (spec, k)


class TestBandBuiltMinor:
    # build_minor_symbolic fills the column pattern from the band alone;
    # these pin it to the dense, entry-by-entry definition
    @pytest.mark.parametrize("band", [1, 2, 3, 4, 5])
    def test_equals_the_entry_by_entry_matrix(self, band):
        for spec in _minor_specs(band, 4):
            for k in range(11):
                rows = surviving(spec.deleted_rows, k)
                cols = surviving(spec.deleted_cols, k)
                dense = PolyMatrix(
                    [[elementary_variable(cj - ri, band) for cj in cols] for ri in rows],
                    band,
                )
                built = build_minor_symbolic(spec, k)
                assert built == dense, (spec, k)
                assert (built.size, built.nvars) == (k, band)
                # the stored pattern is a scan of the nonzero entries
                scan = tuple(
                    tuple((i, built[i, j]) for i in range(k) if not built[i, j].is_zero)
                    for j in range(k)
                )
                assert built.columns == scan == dense.columns, (spec, k)

    @pytest.mark.parametrize("band", [1, 2, 3, 4, 5])
    def test_leading_minors_agree_with_the_public_constructor(self, band):
        for spec in _minor_specs(band, 4):
            built = build_minor_symbolic(spec, 10)
            public = PolyMatrix(
                [[built[i, j] for j in range(10)] for i in range(10)], band
            )
            assert leading_minors(built) == leading_minors(public), spec
