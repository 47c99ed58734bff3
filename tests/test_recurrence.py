"""Tests for the minor-determinant linear recurrence."""

from itertools import combinations
from math import comb

import pytest

from bandschur import recurrence
from bandschur.polyring import MultiPoly, elementary_symmetric
from bandschur.recurrence import (
    CharCoeffs,
    char_coeffs,
    recurrence_residual,
    verify_recurrence,
)
from bandschur.shapes import MinorSpec, min_k


def _subset_products(band, extra):
    out = []
    for combo in combinations(range(1, band + 1), extra):
        m = MultiPoly.one(band)
        for i in combo:
            m = m * MultiPoly.variable(band, i)
        out.append(m)
    return out


class TestCharCoeffs:
    def test_band_two_single_variable_products(self):
        cc = char_coeffs(2, 1)
        x1, x2 = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)
        assert cc.order == 2
        assert cc.q[0] == MultiPoly.one(2)
        assert cc.q[1] == -(x1 + x2)
        assert cc.q[2] == x1 * x2

    def test_extra_zero_gives_difference_rule(self):
        cc = char_coeffs(3, 0)
        assert cc.order == 1
        assert cc.q == (MultiPoly.one(3), -MultiPoly.one(3))

    def test_extra_equals_band(self):
        cc = char_coeffs(3, 3)
        assert cc.order == 1
        assert cc.q[0] == MultiPoly.one(3)
        assert cc.q[1] == -MultiPoly(3, {(1, 1, 1): 1})

    def test_order_is_binomial(self):
        for band in range(1, 5):
            for extra in range(band + 1):
                assert char_coeffs(band, extra).order == comb(band, extra)

    def test_vieta_signs(self):
        # q[i] is (-1)^i times the i-th elementary symmetric polynomial of
        # the subset products.
        band, extra = 3, 2
        cc = char_coeffs(band, extra)
        products = _subset_products(band, extra)
        for i in range(cc.order + 1):
            esym = MultiPoly.zero(band)
            for combo in combinations(range(len(products)), i):
                m = MultiPoly.one(band)
                for idx in combo:
                    m = m * products[idx]
                esym = esym + m
            expected = esym if i % 2 == 0 else -esym
            assert cc.q[i] == expected

    def test_symmetric_under_variable_swap(self):
        cc = char_coeffs(3, 1)
        for poly in cc.q:
            coeffs = dict(poly.terms())
            for exps, coeff in coeffs.items():
                swapped = (exps[1], exps[0], exps[2])
                assert coeffs.get(swapped, 0) == coeff

    def test_memoised_per_band_and_extra(self):
        assert char_coeffs(3, 1) is char_coeffs(3, 1)
        assert char_coeffs(3, 1) is not char_coeffs(3, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            char_coeffs(0, 0)
        with pytest.raises(ValueError):
            char_coeffs(2, 3)
        with pytest.raises(ValueError):
            char_coeffs(2, -1)


class TestResidual:
    def test_single_deleted_column_boundary(self):
        # Deleting column 2 of the band-2 matrix: the residual at j = 0 is
        # exactly x1*x2 and vanishes from j = 1 on.
        spec = MinorSpec((), (2,), 2)
        assert recurrence_residual(spec, 0) == MultiPoly(2, {(1, 1): 1})
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

    def test_negative_j_rejected(self):
        with pytest.raises(ValueError):
            recurrence_residual(MinorSpec((), (2,), 2), -1)


class TestVerifyRecurrence:
    def test_report_golden(self):
        spec = MinorSpec((), (2,), 2)
        report = verify_recurrence(spec, 3)
        assert report.all_zero and report.first_failure is None
        assert report.b == 2
        assert (report.j_lo, report.j_hi) == (1, 3)
        assert report.to_json_obj() == {
            "spec": {"alpha": [], "beta": [2], "n": 2},
            "b": 2,
            "j_range": [1, 3],
            "all_zero": True,
            "first_failure": None,
        }
        assert len(report.residuals) == 4
        for j, poly in enumerate(report.residuals):
            assert poly == recurrence_residual(spec, j)
        assert not report.residuals[0].is_zero  # below min_k, not a failure

    def test_first_failure_read_from_the_residuals(self, monkeypatch):
        # Only residuals at or above min_k count, and the first nonzero wins.
        spec = MinorSpec((), (2,), 2)
        x1 = MultiPoly.variable(2, 1)
        fake = {0: x1, 1: MultiPoly.zero(2), 2: x1, 3: x1}
        monkeypatch.setattr(recurrence, "recurrence_residual", lambda s, j: fake[j])
        report = verify_recurrence(spec, 3)
        assert not report.all_zero and report.first_failure == 2
        assert report.residuals == (x1, MultiPoly.zero(2), x1, x1)
        assert report.to_json_obj()["first_failure"] == 2

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
