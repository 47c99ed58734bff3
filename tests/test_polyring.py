"""Tests for the integer multivariate polynomial ring."""

import json
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from bandschur import polyring
from bandschur.polyring import (
    MultiPoly,
    elementary_symmetric,
    elementary_variable,
    expand_elementary,
)
from bandschur.recurrence import char_coeffs
from bandschur.shapes import MinorSpec
from bandschur.toeplitz import build_minor_symbolic


def _var(nvars, index):
    return MultiPoly.variable(nvars, index)


@st.composite
def poly_batches(draw, count=2, max_nvars=3):
    """Draw `count` polynomials sharing one variable count."""
    nvars = draw(st.integers(1, max_nvars))
    exps = st.tuples(*([st.integers(0, 3)] * nvars))
    polys = tuple(
        MultiPoly(nvars, draw(st.dictionaries(exps, st.integers(-6, 6), max_size=5)))
        for _ in range(count)
    )
    return polys


points = st.tuples(
    st.sampled_from([2, -1, 1 + 1j, -2 + 1j, 3j]),
    st.sampled_from([1, 3, -1 - 2j, 2j, -3]),
    st.sampled_from([-2, 1j, 2 - 1j, 1, 4]),
)


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        poly = MultiPoly(2, {(1, 0): 0, (0, 1): 3})
        assert poly.terms() == [((0, 1), 3)]

    def test_empty_is_zero(self):
        assert MultiPoly(2, {}).is_zero
        assert MultiPoly.zero(2).is_zero
        assert not MultiPoly.one(2).is_zero

    def test_nvars_must_be_positive(self):
        with pytest.raises(ValueError):
            MultiPoly(0, {})

    def test_exponent_length_checked(self):
        with pytest.raises(ValueError):
            MultiPoly(2, {(1,): 1})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            MultiPoly(2, {(-1, 0): 1})

    def test_non_integer_coefficient_rejected(self):
        with pytest.raises(TypeError):
            MultiPoly(2, {(1, 0): 1.5})

    def test_variable_bounds(self):
        with pytest.raises(ValueError):
            MultiPoly.variable(2, 0)
        with pytest.raises(ValueError):
            MultiPoly.variable(2, 3)


class TestArithmetic:
    def test_square_of_sum(self):
        x1, x2 = _var(2, 1), _var(2, 2)
        s = x1 + x2
        assert s * s == MultiPoly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})

    def test_integer_mixing(self):
        x1 = _var(2, 1)
        assert x1 + 1 == MultiPoly(2, {(1, 0): 1, (0, 0): 1})
        assert 1 + x1 == x1 + 1
        assert 2 * x1 == MultiPoly(2, {(1, 0): 2})
        assert x1 * 0 == MultiPoly.zero(2)
        assert 1 - x1 == MultiPoly(2, {(1, 0): -1, (0, 0): 1})
        assert -x1 == MultiPoly(2, {(1, 0): -1})

    def test_nvars_mismatch_rejected(self):
        with pytest.raises(ValueError):
            _var(2, 1) + _var(3, 1)
        with pytest.raises(ValueError):
            _var(2, 1) * _var(3, 1)


class TestElementarySymmetric:
    def test_degree_zero_is_one(self):
        assert elementary_symmetric(0, 3) == MultiPoly.one(3)

    def test_out_of_range_degrees_vanish(self):
        assert elementary_symmetric(-1, 3).is_zero
        assert elementary_symmetric(4, 3).is_zero

    def test_small_values(self):
        assert elementary_symmetric(1, 3) == MultiPoly(
            3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
        )
        assert elementary_symmetric(2, 2) == MultiPoly(2, {(1, 1): 1})
        assert elementary_symmetric(2, 3) == MultiPoly(
            3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
        )

    def test_off_range_degrees_add_no_cache_entry(self):
        caches = [f for f in vars(polyring).values() if hasattr(f, "cache_info")]
        elementary_symmetric(-1, 3)
        sizes = [f.cache_info().currsize for f in caches]
        for d in (*range(-1000, 0), *range(4, 1010)):
            assert elementary_symmetric(d, 3).is_zero
        assert [f.cache_info().currsize for f in caches] == sizes

    def test_generating_product(self):
        # prod_i (1 + x_i t) expanded at t = 1 equals sum of all e_d.
        nvars = 3
        product = MultiPoly.one(nvars)
        for i in range(1, nvars + 1):
            product = product * (_var(nvars, i) + 1)
        total = MultiPoly.zero(nvars)
        for d in range(nvars + 1):
            total = total + elementary_symmetric(d, nvars)
        assert product == total


class TestElementaryBasis:
    def test_variable_expands_to_elementary_symmetric(self):
        for d in range(-1, 5):
            assert expand_elementary(elementary_variable(d, 3)) == (
                elementary_symmetric(d, 3)
            )

    def test_caches_do_not_grow_with_the_minor_size(self):
        # a k x k band-2 minor asks for every degree in 1-k..k-1; off the
        # band they are all one zero, so k = 400 caches what k = 10 did
        caches = [f for f in vars(polyring).values() if hasattr(f, "cache_info")]
        spec = MinorSpec((), (1,), 2)
        build_minor_symbolic(spec, 10)
        sizes = [f.cache_info().currsize for f in caches]
        build_minor_symbolic(spec, 400)
        assert [f.cache_info().currsize for f in caches] == sizes

    def test_expansion_is_the_substitution(self):
        # 3*y1^2*y3 - y2 + 5 with y_d = e_d(x1, x2, x3)
        y = MultiPoly(3, {(2, 0, 1): 3, (0, 1, 0): -1, (0, 0, 0): 5})
        e = lambda d: elementary_symmetric(d, 3)
        assert expand_elementary(y) == 3 * e(1) * e(1) * e(3) - e(2) + 5
        assert expand_elementary(MultiPoly.zero(3)).is_zero

    @pytest.mark.parametrize("band", range(1, 6))
    def test_recurrence_coefficients_round_trip(self, band, vieta_x_coeffs):
        # built in e, they expand to the coefficients multiplied out in x
        for extra in range(band + 1):
            q_e = char_coeffs(band, extra)
            assert list(map(expand_elementary, q_e)) == vieta_x_coeffs(band, extra)


@st.composite
def padded_partitions(draw):
    """(mu, d, n): a partition padded to n <= 7 parts and 1 <= d <= n."""
    n = draw(st.integers(1, 7))
    d = draw(st.integers(1, n))
    parts = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    return tuple(sorted(parts, reverse=True)), d, n


@st.composite
def y_polys(draw):
    """A small polynomial in y_1..y_n, n <= 4."""
    n = draw(st.integers(1, 4))
    exps = st.tuples(*([st.integers(0, 2)] * n))
    return MultiPoly(n, draw(st.dictionaries(exps, st.integers(-5, 5), max_size=4)))


class TestPieriStep:
    @given(padded_partitions())
    def test_matches_the_counts_of_sorted_sums(self, case):
        # e_d's monomials are the 0/1 vectors with d ones
        mu, d, n = case
        expected = Counter()
        for ones in combinations(range(n), d):
            v = [1 if i in ones else 0 for i in range(n)]
            expected[tuple(sorted((a + b for a, b in zip(mu, v)), reverse=True))] += 1
        assert dict(polyring._pieri_step(mu, d, n)) == expected

    @given(y_polys())
    def test_expansion_matches_products_of_elementary_polynomials(self, y):
        # y^a -> prod_d e_d^(a_d), multiplied out with MultiPoly.__mul__ alone
        n = y.nvars
        expected = MultiPoly.zero(n)
        for exps, coeff in y.terms():
            term = MultiPoly.constant(n, coeff)
            for d, power in enumerate(exps, start=1):
                for _ in range(power):
                    term = term * elementary_symmetric(d, n)
            expected = expected + term
        assert expand_elementary(y) == expected

    def test_pieri_and_factor_caches_are_bounded(self):
        for cache, size in (
            (polyring._pieri_step, polyring.PIERI_CACHE_SIZE),
            (polyring._factor, polyring.FACTOR_CACHE_SIZE),
        ):
            assert isinstance(size, int) and cache.cache_info().maxsize == size


class TestEvaluate:
    def test_golden_quadratic(self):
        # x1^2 + x1*x2 + x2^2 at (2, 3).
        poly = MultiPoly(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
        assert poly.evaluate((2.0, 3.0)) == pytest.approx(19.0)

    def test_zero_polynomial(self):
        assert MultiPoly.zero(2).evaluate((5.0, 7.0)) == 0

    def test_point_length_checked(self):
        with pytest.raises(ValueError):
            MultiPoly.one(2).evaluate((1.0,))


class TestCanonicalForm:
    def test_term_order_graded_then_lex(self):
        x1, x2 = _var(2, 1), _var(2, 2)
        poly = x2 + x1 + x1 * x1
        assert poly.terms() == [((2, 0), 1), ((1, 0), 1), ((0, 1), 1)]

    def test_str_rendering(self):
        cases = [
            (MultiPoly.zero(2), "0"),
            (MultiPoly.one(2), "1"),
            (MultiPoly(2, {(1, 0): -1}), "-x1"),
            (MultiPoly(2, {(2, 0): 1, (1, 1): -2, (0, 0): 3}), "x1^2 - 2*x1*x2 + 3"),
            (MultiPoly(3, {(1, 1, 1): 3}), "3*x1*x2*x3"),
            (MultiPoly(10, {(1,) + (0,) * 8 + (12,): -4}), "-4*x1*x10^12"),
        ]
        for poly, expected in cases:
            assert str(poly) == expected

    def test_json_golden(self):
        # canonical term order, coefficients as strings, exponents as lists
        poly = MultiPoly(2, {(0, 0): 3, (1, 1): -2, (2, 0): 1})
        assert json.dumps(poly.to_json_obj()) == (
            '[{"coeff": "1", "exps": [2, 0]}, {"coeff": "-2", "exps": [1, 1]},'
            ' {"coeff": "3", "exps": [0, 0]}]'
        )

    def test_hash_consistency(self):
        a = MultiPoly(2, {(1, 0): 1, (0, 1): 1})
        b = _var(2, 1) + _var(2, 2)
        assert a == b and hash(a) == hash(b)


class TestRingProperties:
    @given(poly_batches(count=3))
    def test_ring_axioms(self, batch):
        a, b, c = batch
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == MultiPoly.zero(a.nvars)
        assert a * MultiPoly.one(a.nvars) == a

    @given(poly_batches(count=3))
    def test_sum_of_products(self, batch):
        a, b, c = batch
        n = a.nvars
        assert polyring.sum_of_products([(a, b), (c, b), (a, c)], n) == (
            a * b + c * b + a * c
        )
        cancelled = polyring.sum_of_products([(a, b), (-b, a)], n)
        assert cancelled.is_zero and len(cancelled) == 0

    def test_sum_of_products_checks_variable_counts(self):
        with pytest.raises(ValueError, match="variable count"):
            polyring.sum_of_products([(_var(2, 1), _var(3, 1))], 2)

    @given(poly_batches(count=2), points)
    def test_evaluate_is_ring_homomorphism(self, batch, point):
        a, b = batch
        pt = point[: a.nvars]
        scale = 1.0 + abs(a.evaluate(pt)) + abs(b.evaluate(pt))
        assert abs((a + b).evaluate(pt) - (a.evaluate(pt) + b.evaluate(pt))) <= 1e-9 * scale
        assert abs((a * b).evaluate(pt) - a.evaluate(pt) * b.evaluate(pt)) <= 1e-9 * scale * scale

    @given(poly_batches(count=1))
    def test_terms_rebuild_identity(self, batch):
        (a,) = batch
        assert MultiPoly(a.nvars, dict(a.terms())) == a
