"""Tests for the integer multivariate polynomial ring."""

import json
import struct
from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

import polyring_reference
from bandschur import polyring
from bandschur.polyring import (
    MAX_DEGREE,
    MultiPoly,
    elementary_symmetric,
    elementary_variable,
    expand_elementary,
)
from bandschur.recurrence import char_coeffs
from bandschur.schur import PolyMatrix, leading_minors
from bandschur.shapes import MinorSpec
from bandschur.toeplitz import build_minor_symbolic


def _var(nvars, index):
    return MultiPoly.variable(nvars, index)


def _sum_of_products(pairs, nvars):
    """sum a * b over pairs, each product's degree read with _degree."""
    return polyring._sum_of_products(
        ((a, b, polyring._degree(a) + polyring._degree(b)) for a, b in pairs), nvars
    )


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

    @pytest.mark.parametrize("degree", [-1, 0, 1])
    def test_no_variables_is_refused(self, degree):
        with pytest.raises(ValueError, match="nvars must be >= 1"):
            elementary_symmetric(degree, 0)

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
    """A polynomial in y_1..y_n, n <= 4, of up to twice DIRECT_SUM_TERMS terms.

    Its exponents are at most 2, so it has at most 3**n terms; the size is
    drawn first, so expand_elementary meets both of its routes.
    """
    n = draw(st.integers(1, 4))
    size = draw(st.integers(0, min(2 * polyring.DIRECT_SUM_TERMS, 3**n)))
    exps = st.tuples(*([st.integers(0, 2)] * n))
    coeffs = st.integers(-5, 5).filter(bool)
    return MultiPoly(
        n, draw(st.dictionaries(exps, coeffs, min_size=size, max_size=size))
    )


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

    def test_pieri_and_orbit_caches_are_bounded(self):
        for cache, size in (
            (polyring._run_choices, polyring.RUN_CHOICES_CACHE_SIZE),
            (polyring._orbit, polyring.ORBIT_CACHE_SIZE),
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
        assert _sum_of_products([(a, b), (c, b), (a, c)], n) == a * b + c * b + a * c
        cancelled = _sum_of_products([(a, b), (-b, a)], n)
        assert cancelled.is_zero and len(cancelled) == 0

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


@st.composite
def term_dicts(draw, count=2):
    """`count` term dicts in one variable count, exponents up to the field bound.

    Each exponent is small or anywhere up to a cap that keeps every total
    degree at most MAX_DEGREE // 2, so the product of any two fits too.
    """
    nvars = draw(st.integers(1, 4))
    cap = MAX_DEGREE // (2 * nvars)
    exponent = st.one_of(st.integers(0, 3), st.integers(0, cap), st.just(cap))
    exps = st.tuples(*([exponent] * nvars))
    coeffs = st.one_of(st.integers(-6, 6), st.integers(-(2**70), 2**70))
    return nvars, [
        draw(st.dictionaries(exps, coeffs, max_size=6)) for _ in range(count)
    ]


def _same(packed, reference):
    """Equal terms, text and JSON of a packed and a reference polynomial."""
    assert packed.terms() == reference.terms()
    assert str(packed) == str(reference)
    assert json.dumps(packed.to_json_obj()) == json.dumps(reference.to_json_obj())


class TestPackedKeys:
    """The packed term dict against the tuple-keyed reference it replaced."""

    @given(term_dicts(count=3))
    def test_ring_operations_match_the_reference(self, case):
        nvars, dicts = case
        a, b, c = (MultiPoly(nvars, t) for t in dicts)
        ra, rb, rc = (polyring_reference.MultiPoly(nvars, t) for t in dicts)
        _same(a, ra)
        _same(a + b, ra + rb)
        _same(a - b, ra - rb)
        _same(-a, -ra)
        _same(a * b, ra * rb)
        _same(3 - a * 2, 3 - ra * 2)
        _same(_sum_of_products([(a, b), (c, b)], nvars), ra * rb + rc * rb)

    @given(st.integers(1, 4), st.data())
    def test_degrees_up_to_the_bound_print_as_the_reference(self, nvars, data):
        # one exponent may take the whole bound, or the bound may be split
        first = data.draw(st.integers(0, MAX_DEGREE))
        rest = data.draw(st.lists(
            st.integers(0, MAX_DEGREE - first), min_size=nvars - 1, max_size=nvars - 1
        ))
        top = (first, *rest)
        if sum(top) > MAX_DEGREE:
            top = (MAX_DEGREE,) + (0,) * (nvars - 1)
        terms = {top: -5, (0,) * nvars: 2, (1,) + (0,) * (nvars - 1): 1}
        _same(MultiPoly(nvars, terms), polyring_reference.MultiPoly(nvars, terms))

    def test_key_layout(self):
        # degree on top, then x1..xn, each in one EXPONENT_BITS field
        bits = polyring.EXPONENT_BITS
        assert struct.calcsize(">" + polyring._FIELD) * 8 == bits
        assert MAX_DEGREE == 2**bits - 1
        (key,) = MultiPoly(3, {(2, 0, 5): 1})._terms
        assert key == 7 << 3 * bits | 2 << 2 * bits | 5
        assert polyring._exponents([key], 3) == [(2, 0, 5)]

    def test_constructor_overflow(self):
        assert str(MultiPoly(1, {(MAX_DEGREE,): 1})) == f"x1^{MAX_DEGREE}"
        with pytest.raises(OverflowError, match="32-bit exponent fields"):
            MultiPoly(1, {(MAX_DEGREE + 1,): 1})
        # each exponent fits, their sum does not
        with pytest.raises(OverflowError):
            MultiPoly(2, {(MAX_DEGREE, 1): 1})

    def test_product_overflow(self):
        half = MultiPoly(2, {(2**31, 0): 1, (0, 0): 1})
        assert str(half * MultiPoly(2, {(0, 2**31 - 1): 1})) == (
            f"x1^{2**31}*x2^{2**31 - 1} + x2^{2**31 - 1}"
        )
        with pytest.raises(OverflowError):
            half * half
        with pytest.raises(OverflowError):
            _sum_of_products([(half, MultiPoly.one(2)), (half, half)], 2)
        with pytest.raises(OverflowError):
            leading_minors(PolyMatrix([[half, half], [half, half]]))
        # y2^(2^31) expands to (x1 x2)^(2^31), of degree 2^32 in x; the
        # degree is checked before either route, alone and beside terms
        # that fit, on both sides of DIRECT_SUM_TERMS
        bound = polyring.DIRECT_SUM_TERMS
        for size in (1, bound, bound + 1):
            terms = {(i, 0): 1 for i in range(size - 1)}
            with pytest.raises(OverflowError):
                expand_elementary(MultiPoly(2, {**terms, (0, 2**31): 1}))

    def test_text_memo_is_bounded(self):
        size = polyring.MONOMIAL_TEXT_CACHE_SIZE
        big = MultiPoly(2, {(i, 2 * size - i): i + 1 for i in range(2 * size)})
        reference = polyring_reference.MultiPoly(2, dict(big.terms()))
        assert str(big) == str(reference)
        assert len(polyring._MONOMIAL_TEXT) <= size
        assert str(big) == str(reference)
        assert len(polyring._MONOMIAL_TEXT) <= size


class TestMonomialWeights:
    @staticmethod
    def _fields(exps):
        # a packed key without its degree field
        return polyring._key(exps) & ((1 << len(exps) * polyring.EXPONENT_BITS) - 1)

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(st.integers(0, 3), min_size=n, max_size=n)
        )
    )
    def test_equal_the_products_of_elementary_polynomials(self, exps):
        # e_1^a_1 ... e_n^a_n multiplied out, its coefficients summed by
        # the partition each monomial sorts to
        n = len(exps)
        product = MultiPoly.one(n)
        for d, power in enumerate(exps, start=1):
            for _ in range(power):
                product = product * elementary_symmetric(d, n)
        expected = Counter()
        for mono, coeff in product.terms():
            expected[tuple(sorted(mono, reverse=True))] += coeff
        weights = polyring._monomial_weights(self._fields(exps), n, {})
        assert dict(weights) == expected

    def test_memo_is_bounded(self):
        # more distinct e-monomials than the bound, each expanded once; the
        # memo keeps at most the bound, and an expansion after it has been
        # emptied is still right
        size = polyring.MONOMIAL_WEIGHTS_CACHE_SIZE
        monomials = [(a, b) for a in range(size // 32 + 1) for b in range(32)]
        assert len(monomials) > size
        for exps in monomials:
            expand_elementary(MultiPoly(2, {exps: 1}))
            assert len(polyring._MONOMIAL_WEIGHTS) <= size
        e1, e2 = elementary_symmetric(1, 2), elementary_symmetric(2, 2)
        assert expand_elementary(MultiPoly(2, {(2, 3): 1})) == e1 * e1 * e2 * e2 * e2

    def test_memo_is_bounded_under_few_term_polynomials(self):
        # polynomials of four terms, summed straight from the memo, name
        # more distinct e-monomials than the bound; the memo keeps at most
        # the bound, is emptied on the way, and an expansion after that is
        # still right
        size = polyring.MONOMIAL_WEIGHTS_CACHE_SIZE
        monomials = [(a, b) for a in range(size // 32 + 1) for b in range(32)]
        assert len(monomials) > size
        sizes = []
        for i in range(0, len(monomials), 4):
            expand_elementary(MultiPoly(2, dict.fromkeys(monomials[i : i + 4], 1)))
            sizes.append(len(polyring._MONOMIAL_WEIGHTS))
        assert max(sizes) <= size
        assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))
        e1, e2 = elementary_symmetric(1, 2), elementary_symmetric(2, 2)
        y = MultiPoly(2, {(2, 3): 1, (0, 1): -2, (1, 0): 3})
        assert expand_elementary(y) == e1 * e1 * e2 * e2 * e2 - 2 * e2 + 3 * e1

    def test_both_routes_agree_at_the_bound(self, monkeypatch):
        # DIRECT_SUM_TERMS terms are summed from the memo without Horner's
        # rule, one more term goes through it, and either way the result
        # is the polynomial spread from _horner_elementary's weights
        bound = polyring.DIRECT_SUM_TERMS
        monomials = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
        horner = polyring._horner_elementary
        calls = []

        def counted(terms, d, n, steps):
            calls.append(d)
            return horner(terms, d, n, steps)

        monkeypatch.setattr(polyring, "_horner_elementary", counted)
        for size in (bound, bound + 1):
            y = MultiPoly(3, {m: 9 - 2 * i for i, m in enumerate(monomials[:size])})
            assert len(y) == size
            expected = Counter()
            for lam, weight in horner(y._terms, 3, 3, {}).items():
                orbit = set(permutations(lam))
                for exps in orbit:
                    expected[exps] += weight // len(orbit)
            calls.clear()
            assert expand_elementary(y) == MultiPoly(3, expected)
            assert bool(calls) == (size > bound)


class TestPieriMemo:
    def test_one_expansion_computes_each_step_once(self, monkeypatch):
        # _pieri_step keeps no memo of its own, so each step the expansion
        # of a band-4 minor needs is computed once, from the dict local to
        # the call
        calls = Counter()
        step = polyring._pieri_step

        def counted(mu, d, n):
            calls[mu, d, n] += 1
            return step(mu, d, n)

        monkeypatch.setattr(polyring, "_pieri_step", counted)
        det = leading_minors(build_minor_symbolic(MinorSpec((), (1,), 4), 14))[-1]
        expand_elementary(det)
        assert len(calls) > 100 and set(calls.values()) == {1}
