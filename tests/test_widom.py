"""Tests for the closed-form minor determinant evaluations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandschur.polyring import elementary_symmetric
from bandschur.schur import schur_jacobi_trudi
from bandschur.shapes import MinorSpec, Partition, SkewShape
from bandschur.toeplitz import BandedSymbol, build_minor_numeric, det_numeric
from bandschur.widom import (
    check_separated,
    hall_schur_eval,
    widom_modified,
    widom_original,
)


def _separated_points(rng, n, min_gap=0.1):
    """Rejection-sample n complex points, pairwise at least min_gap apart."""
    while True:
        r = rng.uniform(0.3, 1.6, size=n)
        theta = rng.uniform(0, 2 * np.pi, size=n)
        pts = r * np.exp(1j * theta)
        ok = all(
            abs(pts[i] - pts[j]) >= min_gap
            for i in range(n)
            for j in range(i + 1, n)
        )
        if ok:
            return tuple(complex(v) for v in pts)


class TestCheckSeparated:
    def test_passes_distinct(self):
        assert check_separated((1.0, 2.0)) == (1 + 0j, 2 + 0j)

    def test_rejects_coincident(self):
        with pytest.raises(ValueError, match="coincide"):
            check_separated((1.0, 1.0))

    def test_rejects_relative_near_coincident(self):
        # Separation is relative to the largest modulus.
        with pytest.raises(ValueError):
            check_separated((1e6, 1e6 + 1e-4))

    def test_empty_and_singleton(self):
        assert check_separated(()) == ()
        assert check_separated((5.0,)) == (5 + 0j,)


class TestGoldenValues:
    def test_integer_case_block_two(self):
        # Symbol 1 + 5t + 6t^2 factors as (1+2t)(1+3t): the chi points
        # x_i = -1/t_i are (2, 3), the roots of t^2 - 5t + 6 (the reversed
        # polynomial t^2 + 5t + 6 has roots -2, -3), and the k = 2
        # contiguous minor value is 19.
        assert widom_modified((2.0, 3.0), 1, 2) == pytest.approx(19.0)
        t_roots = (-0.5, -1 / 3)
        assert widom_original(t_roots, 6.0, 1, 2) == pytest.approx(19.0)

    def test_integer_case_block_four(self):
        # h_4(2, 3) = 211.
        assert widom_modified((2.0, 3.0), 1, 4) == pytest.approx(211.0)

    def test_hall_goldens(self):
        assert hall_schur_eval((2,), (2.0, 3.0)) == pytest.approx(19.0)
        assert hall_schur_eval((1,), (2.0, 3.0)) == pytest.approx(5.0)
        assert hall_schur_eval((), (2.0, 3.0)) == pytest.approx(1.0)

    @pytest.mark.parametrize("parts", [(2.7,), (2.0,), ("2",)], ids=str)
    def test_hall_rejects_non_integral_parts(self, parts):
        with pytest.raises(TypeError):
            hall_schur_eval(parts, (2.0, 3.0))

    def test_hall_accepts_numpy_integers(self):
        parts = np.array([2, 0])
        assert hall_schur_eval(parts, (2.0, 3.0)) == pytest.approx(19.0)

    def test_empty_partition_at_no_points(self):
        assert hall_schur_eval((), ()) == 1
        assert hall_schur_eval((0, 0), ()) == 1

    def test_rectangle_edges(self):
        # k = 0 and c = 0 are the empty product, exactly 1 in the subset
        # sum; c = n is the single subset, x_1^k ... x_n^k
        x = (2.0, 3.0, -0.5j)
        for c in range(4):
            assert widom_modified(x, c, 0) == 1
        for k in (0, 1, 4):
            assert widom_modified(x, 0, k) == 1
            full = (2.0 * 3.0 * -0.5j) ** k
            assert widom_modified(x, 3, k) == pytest.approx(full, rel=1e-15)

    def test_matches_full_minor_determinant(self):
        sym = BandedSymbol((1, 5, 6))
        spec = MinorSpec((), (1,), 2)
        for k in range(6):
            direct = det_numeric(build_minor_numeric(sym, spec, k))
            closed = widom_modified((2.0, 3.0), 1, k)
            assert closed == pytest.approx(direct, rel=1e-10, abs=1e-10)


class TestFormEquivalence:
    def test_original_equals_modified_random(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4):
            for _ in range(4):
                x = _separated_points(rng, n)
                t = tuple(-1 / v for v in x)
                s_n = complex(np.prod(x))
                for c in range(n + 1):
                    for k in (0, 1, 3, 7):
                        a = widom_original(t, s_n, c, k)
                        b = widom_modified(x, c, k)
                        scale = max(1.0, abs(b))
                        assert abs(a - b) <= 1e-9 * scale

    def test_rectangle_equals_hall(self):
        # the bialternant on the rectangle (k^c), the Hall subset sum and
        # the classical form over the symbol roots t = -1/x are three
        # separate computations of one value
        rng = np.random.default_rng(12)
        for n in (2, 3):
            x = _separated_points(rng, n)
            t = tuple(-1 / v for v in x)
            s_n = complex(np.prod(x))
            for c in range(n + 1):
                for k in (0, 2, 5):
                    rect = hall_schur_eval((k,) * c, x)
                    direct = widom_original(t, s_n, c, k)
                    scale = max(1.0, abs(direct))
                    assert abs(rect - direct) <= 1e-9 * scale
                    hall = widom_modified(x, c, k)
                    assert abs(hall - rect) <= 1e-9 * max(1.0, abs(rect))

    def test_twelve_point_rectangle(self):
        # one 12 x 12 alternant; the Hall subset sum has C(12, 6) = 924 terms
        x = _separated_points(np.random.default_rng(15), 12)
        t = tuple(-1 / v for v in x)
        rect = hall_schur_eval((3,) * 6, x)
        direct = widom_original(t, complex(np.prod(x)), 6, 3)
        assert abs(rect - direct) <= 1e-9 * max(1.0, abs(direct))

    def test_hall_matches_symbolic_schur(self):
        rng = np.random.default_rng(13)
        x = _separated_points(rng, 3)
        for parts in [(1,), (2,), (2, 1), (3, 1), (2, 2, 1), (4, 2, 1)]:
            shape = SkewShape(Partition(parts), Partition(()))
            exact = schur_jacobi_trudi(shape, 3).evaluate(x)
            closed = hall_schur_eval(parts, x)
            scale = max(1.0, abs(exact))
            assert abs(closed - exact) <= 1e-9 * scale

    def test_hall_with_repeated_parts_matches_symbolic_schur(self):
        # repeated parts (3, 3, 1, 1, 0, 0): the staircase n - j keeps the
        # alternant's exponents distinct
        x = _separated_points(np.random.default_rng(16), 6)
        shape = SkewShape(Partition((3, 3, 1, 1)), Partition(()))
        exact = schur_jacobi_trudi(shape, 6).evaluate(x)
        closed = hall_schur_eval((3, 3, 1, 1), x)
        assert abs(closed - exact) <= 1e-9 * max(1.0, abs(exact))

    @settings(derandomize=True)
    @given(data=st.data(), n=st.integers(1, 6))
    def test_bialternant_matches_jacobi_trudi(self, data, n):
        # distinct points of the 0.1 lattice in a box, so at least 0.1 apart
        cells = data.draw(
            st.lists(
                st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
                min_size=n,
                max_size=n,
                unique=True,
            )
        )
        x = tuple(complex(a, b) / 10 for a, b in cells)
        parts = data.draw(
            st.lists(st.integers(1, 4), max_size=n).map(
                lambda p: tuple(sorted(p, reverse=True))
            )
        )
        shape = SkewShape(Partition(parts), Partition(()))
        exact = schur_jacobi_trudi(shape, n).evaluate(x)
        closed = hall_schur_eval(parts, x)
        assert abs(closed - exact) <= 1e-9 * max(1.0, abs(exact))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(14)
        x = _separated_points(rng, 3)
        shuffled = (x[2], x[0], x[1])
        for c in (1, 2):
            for k in (1, 4):
                assert widom_modified(x, c, k) == pytest.approx(
                    widom_modified(shuffled, c, k), rel=1e-9, abs=1e-9
                )
        assert hall_schur_eval((3, 1), x) == pytest.approx(
            hall_schur_eval((3, 1), shuffled), rel=1e-9, abs=1e-9
        )


class TestValidation:
    def test_c_range(self):
        with pytest.raises(ValueError):
            widom_modified((2.0, 3.0), 3, 1)
        with pytest.raises(ValueError):
            widom_original((-0.5, -1 / 3), 6.0, -1, 1)

    def test_k_range(self):
        with pytest.raises(ValueError):
            widom_modified((2.0, 3.0), 1, -1)

    def test_hall_partition_validation(self):
        with pytest.raises(ValueError, match="not a partition"):
            hall_schur_eval((1, 2), (2.0, 3.0))
        with pytest.raises(ValueError, match="longer than point count"):
            hall_schur_eval((2, 1, 1), (2.0, 3.0))
        # trailing zeros beyond the point count are harmless
        assert hall_schur_eval((2, 0, 0), (2.0, 3.0)) == pytest.approx(19.0)

    def test_coincident_roots_rejected(self):
        with pytest.raises(ValueError):
            widom_modified((1.0, 1.0 + 1e-12), 1, 2)
