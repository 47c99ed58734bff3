"""Tests for banded Toeplitz minors, numeric and symbolic."""

from fractions import Fraction
from math import comb, prod

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bandschur.polyring import MultiPoly, elementary_symmetric
from bandschur.schur import symbolic_det
from bandschur.shapes import MinorSpec
from bandschur.recurrence import verify_recurrence
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
        for bad in ["", "x", "2+", "1+2", "i3", "2..5", "1e+i2"]:
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

    def test_band_mismatch_rejected(self):
        with pytest.raises(ValueError, match="band"):
            build_minor_numeric(BandedSymbol((1, 2)), MinorSpec((), (), 2), 3)

    def test_symbolic_two_by_two(self):
        m = build_minor_symbolic(MinorSpec((), (2,), 2), 2)
        e = lambda d: elementary_symmetric(d, 2)
        assert m.entries == ((e(0), e(2)), (MultiPoly.zero(2), e(1)))

    def test_symbolic_three_by_three(self):
        m = build_minor_symbolic(MinorSpec((), (2,), 2), 3)
        e = lambda d: elementary_symmetric(d, 2)
        zero = MultiPoly.zero(2)
        assert m.entries == (
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
            assert minor_det_symbolic(spec, k) == expected[k]

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
                    via_poly = minor_det_symbolic(spec, k).evaluate(tuple(x))
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
                assert symbolic_det(m) == symbolic_det(m.anti_transpose())


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


class TestExactOracle:
    """The only symbolic determinant engine against exact integer arithmetic."""

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
        rows, cols = surviving(alpha, k), surviving(beta, k)
        for point in ((2, -1, 3, -2, 5), (1, 4, -3, 2, -1)):
            point = point[:band]
            s = _e_at(point)
            minor = [
                [s[cj - ri] if 0 <= cj - ri <= band else 0 for cj in cols]
                for ri in rows
            ]
            value = sum(
                coeff * prod(x**e for x, e in zip(point, exps))
                for exps, coeff in det
            )
            assert value == _fraction_det(minor)


class TestMinorCache:
    def test_bound_covers_every_recurrence_order_through_band_6(self):
        orders = [comb(n, d) for n in range(1, 7) for d in range(n + 1)]
        assert minor_det_symbolic.cache_info().maxsize == MINOR_CACHE_SIZE
        assert MINOR_CACHE_SIZE >= max(orders) + 1

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

    def test_recurrence_sweep_builds_each_minor_once(self):
        # residual j reads sizes j..j + b, so a sweep to j_max needs
        # j_max + b + 1 distinct minors and the bound keeps them all reusable
        spec = MinorSpec((), (1, 2), 4)
        j_max = min_k(spec) + 2
        minor_det_symbolic.cache_clear()
        report = verify_recurrence(spec, j_max)
        assert report.all_zero
        assert minor_det_symbolic.cache_info().misses == j_max + report.b + 1
