"""Tests for the minor-determinant linear recurrence."""

from itertools import combinations
from math import comb

import pytest

from bandschur import recurrence
from bandschur.polyring import MultiPoly, elementary_variable, expand_elementary
from bandschur.recurrence import (
    char_coeffs,
    recurrence_residual,
    transfer_start,
    verify_recurrence,
)
from bandschur.schur import leading_minors, transfer_map
from bandschur.shapes import MinorSpec, min_k
from bandschur.toeplitz import build_minor_symbolic


def _all_specs(
    max_band: int, max_index: int = 4, max_row: int | None = None
) -> list[MinorSpec]:
    """Every spec with band <= max_band and deleted indices <= max_index.

    max_row, when given, bounds the deleted rows instead.
    """
    max_row = max_index if max_row is None else max_row
    specs = []
    for band in range(1, max_band + 1):
        for c in range(band + 1):
            for beta in combinations(range(1, max_index + 1), c):
                for r in range(c + 1):
                    for alpha in combinations(range(1, max_row + 1), r):
                        if all(a >= b for a, b in zip(alpha, beta)):
                            specs.append(MinorSpec(alpha, beta, band))
    return specs


def _walk_mismatches(specs) -> list[MinorSpec]:
    """The specs whose walks from transfer_start miss a leading minor.

    With (k0, u) = transfer_start(spec) and M = transfer_map's steps for
    d = c - r, (M^(k - k0) u)[t], t = (1 << (n - d)) - 1, must equal the
    leading k x k determinant in e for every k from k0 through
    min_k + 2n + 10, and every key of u must be one of M's states.
    """
    bad = []
    for spec in specs:
        n, d = spec.band, spec.c - spec.r
        k0, u = transfer_start(spec)
        states, steps = transfer_map(n, d)
        zero, t = MultiPoly.zero(n), (1 << (n - d)) - 1
        k_max = min_k(spec) + 2 * n + 10
        dets = leading_minors(build_minor_symbolic(spec, k_max))
        vector = u
        for k in range(k0, k_max + 1):
            if not set(vector) <= set(states) or vector.get(t, zero) != dets[k]:
                bad.append(spec)
                break
            grown = {}
            for source, target, offset, sign in steps:
                if source in vector:
                    term = sign * elementary_variable(offset, n) * vector[source]
                    grown[target] = grown.get(target, zero) + term
            vector = grown
    return bad


class TestCharCoeffs:
    def test_band_two_single_variable_products(self, vieta_x_coeffs):
        x1, x2 = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)
        q = [expand_elementary(q_e) for q_e in char_coeffs(2, 1)]
        assert len(q) - 1 == 2
        assert q == [MultiPoly.one(2), -(x1 + x2), x1 * x2]
        assert q == vieta_x_coeffs(2, 1)

    def test_extra_zero_gives_difference_rule(self, vieta_x_coeffs):
        q_e = char_coeffs(3, 0)
        assert q_e == (MultiPoly.one(3), -MultiPoly.one(3))
        assert list(map(expand_elementary, q_e)) == vieta_x_coeffs(3, 0)

    def test_extra_equals_band(self, vieta_x_coeffs):
        q = [expand_elementary(q_e) for q_e in char_coeffs(3, 3)]
        assert len(q) - 1 == 1
        assert q == [MultiPoly.one(3), -MultiPoly(3, {(1, 1, 1): 1})]
        assert q == vieta_x_coeffs(3, 3)

    def test_order_is_binomial(self):
        for band in range(1, 5):
            for extra in range(band + 1):
                assert len(char_coeffs(band, extra)) - 1 == comb(band, extra)

    def test_vieta_signs(self, vieta_x_coeffs):
        # Q_i is (-1)^i times the i-th elementary symmetric polynomial of
        # the subset products, multiplied out in x.
        for band in range(1, 6):
            for extra in range(band + 1):
                q_e = char_coeffs(band, extra)
                got = [expand_elementary(p) for p in q_e]
                assert got == vieta_x_coeffs(band, extra), (band, extra)

    def test_symmetric_under_variable_swap(self, vieta_x_coeffs):
        q = [expand_elementary(q_e) for q_e in char_coeffs(3, 1)]
        assert q == vieta_x_coeffs(3, 1)
        for poly in q:
            coeffs = dict(poly.terms())
            for exps, coeff in coeffs.items():
                swapped = (exps[1], exps[0], exps[2])
                assert coeffs.get(swapped, 0) == coeff

    @pytest.mark.parametrize("band", range(1, 8))
    def test_closed_forms(self, band):
        # extra = 0, 1, n - 1 and n have closed forms in e, checked to band 7
        one, e = MultiPoly.one(band), elementary_variable
        e_n = e(band, band)
        assert char_coeffs(band, 0) == (one, -one)
        assert char_coeffs(band, 1) == tuple(
            (-1) ** i * e(i, band) for i in range(band + 1)
        )
        power = [one]
        for _ in range(band):
            power.append(power[-1] * e_n)
        assert char_coeffs(band, band - 1) == (one,) + tuple(
            (-1) ** i * e(band - i, band) * power[i - 1]
            for i in range(1, band + 1)
        )
        assert char_coeffs(band, band) == (one, -e_n)

    @pytest.mark.parametrize("band", range(1, 7))
    def test_first_and_last_coefficient(self, band):
        # Q_1 = -sum_S x_S = -e_extra; Q_b = (-1)^b prod_S x_S, and each
        # x_i lies in C(n - 1, extra - 1) of the subsets S
        for extra in range(band + 1):
            q_e = char_coeffs(band, extra)
            b = len(q_e) - 1
            power = comb(band - 1, extra - 1) if extra else 0
            assert q_e[1] == -elementary_variable(extra, band), extra
            assert q_e[b] == MultiPoly(
                band, {(0,) * (band - 1) + (power,): (-1) ** b}
            ), extra

    def test_memoised_per_band_and_extra(self):
        assert char_coeffs(3, 1) is char_coeffs(3, 1)
        assert char_coeffs(3, 1) is not char_coeffs(3, 2)

    def test_validation(self):
        # the messages name char_coeffs' own arguments
        with pytest.raises(ValueError, match="^band must be >= 1, got 0$"):
            char_coeffs(0, 0)
        with pytest.raises(ValueError, match=r"^extra must be in 0\.\.2, got 3$"):
            char_coeffs(2, 3)
        with pytest.raises(ValueError, match=r"^extra must be in 0\.\.2, got -1$"):
            char_coeffs(2, -1)


class TestResidual:
    def test_single_deleted_column_boundary(self):
        # Deleting column 2 of the band-2 matrix: the residual at j = 0 is
        # exactly x1*x2 and vanishes from j = 1 on.
        spec = MinorSpec((), (2,), 2)
        below = recurrence_residual(spec, 0)
        assert expand_elementary(below) == MultiPoly(2, {(1, 1): 1})
        for j in (1, 2, 3):
            assert recurrence_residual(spec, j).is_zero

    def test_zero_from_j_zero_when_threshold_is_zero(self):
        spec = MinorSpec((), (1, 2), 3)
        assert min_k(spec) == 0
        for j in (0, 1, 2):
            assert recurrence_residual(spec, j).is_zero

    def test_difference_rule_specs(self):
        # r == c makes consecutive determinants equal.
        for spec in [MinorSpec((1,), (1,), 2), MinorSpec((2,), (2,), 2)]:
            for j in range(min_k(spec), min_k(spec) + 3):
                assert recurrence_residual(spec, j).is_zero

    @pytest.mark.parametrize("band", range(1, 5))
    def test_one_dict_sums_match_polynomial_arithmetic(self, band):
        # the residuals accumulate every product in one term dict; here each
        # Q_{b-m} * D_{m+j} is a MultiPoly product and the sum uses +
        specs = [s for s in _all_specs(band) if s.band == band]
        nonzero = 0
        for spec in specs:
            q = char_coeffs(spec.band, spec.c - spec.r)
            b = len(q) - 1
            hi = min_k(spec) + 1
            dets = leading_minors(build_minor_symbolic(spec, hi + b))
            got = recurrence._residuals(spec, 0, hi)
            for j, residual in enumerate(got):
                expected = MultiPoly.zero(band)
                for m in range(b + 1):
                    expected = expected + q[b - m] * dets[m + j]
                assert residual == expected, (spec, j)
                assert 0 not in dict(residual.terms()).values(), (spec, j)
                nonzero += not residual.is_zero
        assert nonzero > 0  # below min_k the sums do not all cancel

    def test_negative_j_rejected(self):
        with pytest.raises(ValueError):
            recurrence_residual(MinorSpec((), (2,), 2), -1)


class TestVerifyRecurrence:
    def test_report_golden(self):
        spec = MinorSpec((), (2,), 2)
        report = verify_recurrence(spec, 3)
        assert report.all_zero and report.first_failure is None
        assert report.b == 2
        assert len(report.residuals) == 4
        for j, poly in enumerate(report.residuals):
            assert poly == recurrence_residual(spec, j)
        assert not report.residuals[0].is_zero  # below min_k, not a failure

    def test_first_failure_read_from_the_residuals(self, monkeypatch):
        # Only residuals at or above min_k count, and the first nonzero wins.
        spec = MinorSpec((), (2,), 2)
        x1 = MultiPoly.variable(2, 1)
        fake = (x1, MultiPoly.zero(2), x1, x1)
        monkeypatch.setattr(
            recurrence, "_residuals", lambda s, lo, hi: fake[lo:hi + 1]
        )
        report = verify_recurrence(spec, 3)
        assert not report.all_zero and report.first_failure == 2
        assert report.residuals == (x1, MultiPoly.zero(2), x1, x1)

    def test_j_max_below_threshold_rejected(self):
        with pytest.raises(ValueError, match="below min_k"):
            verify_recurrence(MinorSpec((5,), (4,), 4), 2)

    def test_holds_across_small_specs(self):
        specs = [
            MinorSpec((), (), 2),
            MinorSpec((), (1,), 2),
            MinorSpec((), (1, 2), 2),
            MinorSpec((2,), (1, 3), 3),
            MinorSpec((), (3,), 3),
            MinorSpec((1, 2), (1, 2), 3),
        ]
        for spec in specs:
            report = verify_recurrence(spec, min_k(spec) + 2)
            assert report.all_zero, f"failed for {spec}"


class TestThreshold:
    """Where the recurrence starts to hold, against min_k.

    The paper says only "for k sufficiently large".  Over every spec of
    bands 1-4 that deletes something, with indices in 1..4, min_k is the
    first j from which the residuals vanish when c > r, and it can be
    conservative when c = r, where consecutive determinants may be equal
    sooner.
    """

    SPECS = [spec for spec in _all_specs(4) if spec.c > 0]

    @staticmethod
    def _first_zero(residuals) -> int:
        """Smallest j from which every residual of the tuple is zero."""
        j = len(residuals)
        while j and residuals[j - 1].is_zero:
            j -= 1
        return j

    def test_min_k_is_sharp_when_c_exceeds_r(self):
        specs = [spec for spec in self.SPECS if spec.c > spec.r]
        assert len(specs) == 187
        for spec in specs:
            report = verify_recurrence(spec, min_k(spec) + 1)
            assert report.all_zero, spec
            assert self._first_zero(report.residuals) == min_k(spec), spec

    def test_min_k_can_be_conservative_when_c_equals_r(self):
        spec = MinorSpec((4,), (4,), 1)
        assert min_k(spec) == 3
        report = verify_recurrence(spec, 4)
        assert self._first_zero(report.residuals) == 0
        specs = [spec for spec in self.SPECS if spec.c == spec.r]
        assert len(specs) == 121
        early = 0
        for spec in specs:
            report = verify_recurrence(spec, min_k(spec) + 1)
            assert report.all_zero, spec
            early += self._first_zero(report.residuals) < min_k(spec)
        assert early == 36


class TestTransferStart:
    """D_k = (M^(k - k0) u)[t] from the sweep's own state after column k0 - 1.

    SPECS are every spec of bands 1-4 deleting columns in 1..5 and rows
    in 1..6.  The same check over bands 1-5 (2,209 specs) runs in CI.
    """

    SPECS = _all_specs(4, 5, 6)

    def test_spec_count(self):
        assert len(self.SPECS) == 1417

    @pytest.mark.parametrize("band", range(1, 5))
    def test_walks_are_the_leading_minors(self, band):
        specs = [spec for spec in self.SPECS if spec.band == band]
        assert _walk_mismatches(specs) == []

    def test_k0_against_min_k(self):
        # k0 = max(0, beta_c - c, alpha_r - r + n - d) is min_k(spec) when
        # r = 0, and at most n - d above it otherwise
        for spec in self.SPECS:
            k0, _ = transfer_start(spec)
            extra = k0 - min_k(spec)
            assert 0 <= extra <= spec.band - (spec.c - spec.r), spec
            assert spec.r or not extra, spec

    @pytest.mark.parametrize("band", range(1, 7))
    def test_contiguous_minor_starts_at_t(self, band):
        for d in range(band + 1):
            start = transfer_start(MinorSpec.contiguous(d, band))
            assert start == (0, {(1 << (band - d)) - 1: MultiPoly.one(band)}), d

    @pytest.mark.parametrize("spec, k0, keys", [
        # d = 0: one state, every window row used
        (MinorSpec((2,), (1,), 3), 4, [0b111]),
        (MinorSpec((3, 5, 6), (1, 2, 4), 3), 6, [0b111]),
        # d = n: one state, no window row used
        (MinorSpec((), (1, 3, 4), 3), 1, [0]),
        (MinorSpec((), (2, 3), 2), 1, [0]),
    ])
    def test_extremes_have_one_state(self, spec, k0, keys):
        start, u = transfer_start(spec)
        assert (start, sorted(u)) == (k0, keys)
        minor = build_minor_symbolic(spec, k0 + 3)
        assert list(u.values()) == [leading_minors(minor)[k0]]
