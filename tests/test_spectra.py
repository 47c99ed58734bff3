"""Tests for root finding, limit-set scanning, and finite-section spectra."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandschur import _kernels
from bandschur.shapes import MinorSpec
from bandschur.spectra import (
    MAX_SWEEPS,
    ComparisonResult,
    GridSpec,
    _initial_circle,
    _unit_phases,
    finite_section_spectrum,
    limit_set_scan,
    poly_roots,
    root_modulus_profile,
    spectrum_vs_limitset,
)
from bandschur.toeplitz import BandedSymbol


TRIDIAG = BandedSymbol((1, 0, 1))


class TestPolyRoots:
    def test_cubic_with_known_roots(self):
        roots = poly_roots([-6, 11, -6, 1])
        assert np.allclose(roots, [1, 2, 3], atol=1e-9)

    def test_degree_six_factorial_roots(self):
        coeffs = np.array([1.0 + 0j])
        for m in range(1, 7):
            coeffs = np.convolve(coeffs, np.array([-m, 1.0], dtype=complex))
        roots = poly_roots(coeffs)
        assert np.allclose(roots, np.arange(1, 7), rtol=1e-8)

    def test_zero_constant_term(self):
        roots = poly_roots([0, -1, 0, 1])
        assert np.allclose(sorted(np.abs(roots)), [0, 1, 1], atol=1e-9)

    def test_complex_coefficients(self):
        roots = poly_roots([1, 0, 1])
        assert len(roots) == 2
        for expected in (-1j, 1j):
            assert np.min(np.abs(roots - expected)) <= 1e-9

    def test_sorted_by_modulus_then_phase(self):
        roots = poly_roots([-6, 11, -6, 1])
        moduli = np.abs(roots)
        assert np.all(np.diff(moduli) >= -1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="degree"):
            poly_roots([3])
        with pytest.raises(ValueError, match="leading"):
            poly_roots([1, 2, 0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_root_beyond_double_range_is_rejected(self):
        # one root, near -1e310, lies beyond double range, and so does the
        # companion entry -1e10 / 1e-300
        with pytest.raises(ValueError, match="beyond double range"):
            poly_roots([1, 1e10, 1e-300])

    def test_deterministic(self):
        a = poly_roots([-6, 11, -6, 1])
        b = poly_roots([-6, 11, -6, 1])
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("coeffs", [[2, 1], [-6, 11, -6, 1], [0, 3j, 1, 0.5, -2]])
    def test_starting_circle_is_a_fresh_copy_of_seeded_phases(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        d = len(coeffs) - 1
        radius = (abs(coeffs[0]) / abs(coeffs[-1])) ** (1.0 / d) * 1.1 or 1.1
        phases = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, d)
        expected = radius * np.exp(1j * phases)
        first = _initial_circle(coeffs)
        assert first.tobytes() == expected.tobytes()
        # a caller that moves its iterates in place leaves the next start unmoved
        first *= 2
        assert _initial_circle(coeffs).tobytes() == expected.tobytes()
        assert not _unit_phases(d).flags.writeable

    def test_seed_independent_of_answer(self):
        # the scan kernel reaches the same moduli from two starting circles
        coeffs = np.array([-6, 11, -6, 1], dtype=complex)
        found = []
        for seed, radius in ((0, 2.0), (1, 0.5)):
            phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, 3)
            z0 = radius * np.exp(1j * phases)
            moduli, ok = _kernels.scan_moduli(
                coeffs, 1, np.zeros(1), np.zeros(1), z0, MAX_SWEEPS
            )
            assert ok.all()
            found.append(moduli[0])
        assert np.allclose(found[0], found[1], atol=1e-8)
        assert np.allclose(found[0], np.abs(poly_roots(coeffs)), atol=1e-8)

    @pytest.mark.parametrize("coeffs", [[1, 1, 1e10], [1, 1, 1e20], [1, 1e100]])
    def test_dominant_coefficient_matches_numpy(self, coeffs):
        # max|c_m| dwarfs the residuals near the roots, so a target scaled by
        # it passes iterates that are not yet roots; the scan kernel's
        # rounding floor does not
        base = np.asarray(coeffs, dtype=complex)
        moduli, ok = _kernels.scan_moduli(
            base, 0, np.zeros(1), np.zeros(1), _initial_circle(base), MAX_SWEEPS
        )
        assert ok.all()
        expected = np.sort(np.abs(np.roots(coeffs[::-1])))
        assert np.all(np.abs(moduli[0] - expected) <= 1e-9 * expected)


class TestRootModulusProfile:
    def test_tridiagonal_at_origin(self):
        profile = root_modulus_profile(TRIDIAG, 1, 0.0)
        assert np.allclose(profile, [1.0, 1.0], atol=1e-9)

    def test_golden_real_shift(self):
        # 1 - 3z + z^2 has roots (3 -+ sqrt(5))/2.
        profile = root_modulus_profile(TRIDIAG, 1, 3.0)
        lo = (3 - math.sqrt(5)) / 2
        hi = (3 + math.sqrt(5)) / 2
        assert np.allclose(profile, [lo, hi], atol=1e-9)

    def test_ascending(self):
        rng = np.random.default_rng(3)
        sym = BandedSymbol((1, 0.4, 0.1, -0.3, 0.2))
        for _ in range(5):
            v = complex(rng.normal(), rng.normal())
            profile = root_modulus_profile(sym, 2, v)
            assert np.all(np.diff(profile) >= -1e-12)
            assert np.all(profile > 0)

    def test_c_bounds(self):
        with pytest.raises(ValueError):
            root_modulus_profile(TRIDIAG, 0, 0.0)
        with pytest.raises(ValueError):
            root_modulus_profile(TRIDIAG, 2, 0.0)

    def test_degree_drop_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            root_modulus_profile(BandedSymbol((1, 1, 0)), 1, 0.0)

    def test_double_root_gap(self):
        # at v = -2 the polynomial is 1 + 2z + z^2 = (1 + z)^2: the true gap is 0
        profile = root_modulus_profile(TRIDIAG, 1, -2.0)
        assert (profile[1] - profile[0]) / profile[1] <= 1e-7

    def test_reversal_pairs_moduli_reciprocally(self):
        # Roots of the reversed coefficient list have reciprocal moduli.
        sym = BandedSymbol((1, 0.7, 0.2))
        v = 0.4 + 0.3j
        coeffs = [sym.coeffs[0], sym.coeffs[1] - v, sym.coeffs[2]]
        forward = np.abs(poly_roots(coeffs))
        backward = np.abs(poly_roots(coeffs[::-1]))
        assert np.allclose(
            np.sort(forward), np.sort(1.0 / backward), atol=1e-9
        )


class TestGridSpec:
    def test_parse_golden(self):
        grid = GridSpec.parse("-3,3,-1,1,241,81")
        assert (grid.re_min, grid.re_max) == (-3.0, 3.0)
        assert (grid.im_min, grid.im_max) == (-1.0, 1.0)
        assert (grid.nx, grid.ny) == (241, 81)
        assert grid.pitch() == pytest.approx(0.025)

    def test_values_hit_endpoints(self):
        grid = GridSpec.parse("-3,3,-1,1,241,81")
        assert grid.re_values()[0] == -3.0 and grid.re_values()[-1] == 3.0
        assert len(grid.im_values()) == 81

    def test_singleton_axis(self):
        grid = GridSpec(0, 0, -1, 1, 1, 3)
        assert grid.pitch() == pytest.approx(1.0)
        assert list(grid.re_values()) == [0.0]

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            GridSpec.parse("1,2,3,4,5")
        with pytest.raises(ValueError):
            GridSpec.parse("a,2,3,4,5,6")
        with pytest.raises(ValueError):
            GridSpec.parse("3,-3,-1,1,5,5")
        with pytest.raises(ValueError):
            GridSpec.parse("-3,3,-1,1,0,5")

    @pytest.mark.parametrize(
        "text", ["-2,inf,-1,1,5,5", "nan,2,-1,1,5,5", "-2,2,-inf,1,5,5"]
    )
    def test_non_finite_bounds_rejected(self, text):
        with pytest.raises(ValueError, match="finite"):
            GridSpec.parse(text)

    def test_json(self):
        grid = GridSpec.parse("-1,1,-1,1,5,5")
        assert json.loads(json.dumps(grid.to_json_obj()))["nx"] == 5


class TestLimitSetScan:
    def test_tridiagonal_hits_lie_on_real_segment(self):
        grid = GridSpec.parse("-3,3,-1,1,61,21")
        report = limit_set_scan(TRIDIAG, 1, grid, tol=1e-2)
        assert report.hits
        assert not report.failures
        for re_v, im_v, gap in report.hits:
            assert abs(im_v) <= 0.2
            assert abs(re_v) <= 2.2
            assert 0 <= gap <= 1e-2

    def test_dominant_coefficient_reports_no_false_hit(self):
        # roots near -1e-200 and -1e100 at every point: the true gap is about 1
        sym = BandedSymbol((1, 1e200, 1e100))
        report = limit_set_scan(sym, 1, GridSpec.parse("-1,1,-1,1,3,3"), 0.5)
        assert report.hits == ()

    def test_far_grid_sees_nothing(self):
        grid = GridSpec.parse("5,6,1,2,5,5")
        report = limit_set_scan(TRIDIAG, 1, grid, tol=1e-2)
        assert report.hits == ()
        assert report.failures == ()

    @pytest.mark.parametrize("tol", [-1e-3, float("nan")])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be >= 0"):
            limit_set_scan(TRIDIAG, 1, GridSpec.parse("-1,1,-1,1,3,3"), tol)

    def test_conjugation_symmetry_for_real_symbol(self):
        sym = BandedSymbol((1, 0.5, 0.25))
        grid = GridSpec.parse("-2,2,-1,1,21,11")
        report = limit_set_scan(sym, 1, grid, tol=5e-2)
        assert report.hits
        seen = {(round(re_v, 9), round(im_v, 9)) for re_v, im_v, _ in report.hits}
        for re_v, im_v in seen:
            assert (re_v, round(-im_v, 9)) in seen

    def test_gap_matches_direct_profile(self):
        grid = GridSpec.parse("-3,3,-1,1,31,11")
        report = limit_set_scan(TRIDIAG, 1, grid, tol=1e-2)
        # the first hit, v = -2, is a double root
        for re_v, im_v, gap in report.hits[:5]:
            profile, rtol = _reference(TRIDIAG, 1, complex(re_v, im_v))
            direct = (profile[1] - profile[0]) / profile[1]
            assert abs(direct - gap) <= rtol[0] + rtol[1]

    def test_csv_shape(self):
        grid = GridSpec.parse("-3,3,-1,1,31,11")
        report = limit_set_scan(TRIDIAG, 1, grid, tol=1e-2)
        lines = report.to_csv().splitlines()
        assert lines[0] == "re_v,im_v,gap"
        assert len(lines) == 1 + len(report.hits)
        assert report.note and "exceptional" in report.note

    def test_hits_in_row_major_grid_order(self):
        grid = GridSpec.parse("-3,3,-1,1,31,11")
        report = limit_set_scan(TRIDIAG, 1, grid, tol=1e-2)
        points = [(im_v, re_v) for re_v, im_v, _ in report.hits]
        assert points == sorted(points)


class TestFiniteSectionSpectrum:
    def test_tridiagonal_closed_form(self):
        spec = MinorSpec((), (1,), 2)
        k = 5
        result = finite_section_spectrum(TRIDIAG, spec, k)
        expected = sorted(2 * math.cos(m * math.pi / (k + 1)) for m in range(1, k + 1))
        got = result.eigenvalues
        assert np.allclose([z.imag for z in got], 0, atol=1e-9)
        assert np.allclose([z.real for z in got], expected, atol=1e-9)

    def test_general_band_two_closed_form(self):
        sym = BandedSymbol((1, 0.7, 0.3))
        k = 6
        result = finite_section_spectrum(sym, MinorSpec((), (1,), 2), k)
        expected = sorted(
            0.7 + 2 * math.sqrt(0.3) * math.cos(m * math.pi / (k + 1))
            for m in range(1, k + 1)
        )
        assert np.allclose([z.real for z in result.eigenvalues], expected, atol=1e-9)
        assert np.allclose([z.imag for z in result.eigenvalues], 0, atol=1e-9)

    def test_single_entry(self):
        sym = BandedSymbol((1, 0.7, 0.3))
        result = finite_section_spectrum(sym, MinorSpec((), (1,), 2), 1)
        assert result.eigenvalues == (0.7 + 0j,)

    def test_no_deleted_columns_gives_unit_triangular(self):
        result = finite_section_spectrum(TRIDIAG, MinorSpec((), (), 2), 3)
        assert np.allclose(result.eigenvalues, [1, 1, 1], atol=1e-12)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            finite_section_spectrum(TRIDIAG, MinorSpec((), (1,), 2), 0)

    def test_sorted_and_csv(self):
        result = finite_section_spectrum(TRIDIAG, MinorSpec((), (1,), 2), 4)
        keys = [(z.real, z.imag) for z in result.eigenvalues]
        assert keys == sorted(keys)
        lines = result.to_csv().splitlines()
        assert lines[0] == "re,im" and len(lines) == 5


class TestSpectrumVsLimitSet:
    def test_eigenvalues_land_near_hits(self):
        grid = GridSpec.parse("-3,3,-1,1,121,41")
        result = spectrum_vs_limitset(TRIDIAG, 1, 8, grid, tol=1e-2)
        assert isinstance(result, ComparisonResult)
        assert result.hit_count > 0
        assert result.median_distance <= grid.pitch()
        assert result.max_distance <= grid.pitch()
        assert len(result.distances) == 8

    def test_empty_hit_set_is_an_error(self):
        grid = GridSpec.parse("5,6,1,2,3,3")
        with pytest.raises(ValueError, match="empty hit set"):
            spectrum_vs_limitset(TRIDIAG, 1, 4, grid, tol=1e-3)


def _grid_points(grid):
    """Grid values in the scan's row-major order."""
    return [
        complex(re_v, im_v)
        for im_v in grid.im_values()
        for re_v in grid.re_values()
    ]


# The scan must meet the companion-matrix moduli to SCAN_RTOL relative, plus
# the first-order error of a root whose residual sits at the rounding floor,
# once for each solver, wherever the companion roots are more than SEPARATED
# apart relative to the largest.  Nearer roots are a double root in all but
# rounding, good only to the documented floor.
SCAN_RTOL = 1e-12
SEPARATED = 1e-6
DOUBLE_ROOT_FLOOR = 3e-7


def _min_separation(roots):
    """Smallest distance between two roots, relative to the largest modulus."""
    dist = np.abs(roots[:, None] - roots[None, :])
    np.fill_diagonal(dist, np.inf)
    return dist.min() / np.abs(roots).max()


def _reference(sym, c, v):
    """Companion-matrix root moduli at v and a relative bound for each."""
    shifted = np.array(sym.coeffs, dtype=complex)
    shifted[c] -= v
    roots = poly_roots(shifted)
    moduli = np.abs(roots)
    deg = len(roots)
    if _min_separation(roots) <= SEPARATED:
        return moduli, np.full(deg, DOUBLE_ROOT_FLOOR)
    # relative condition number sum_m |c_m| |z|^m / (|z| |p'(z)|) of each root
    terms = np.polyval(np.abs(shifted)[::-1], moduli)
    slope = np.polyval((shifted[1:] * np.arange(1, deg + 1))[::-1], roots)
    kappa = terms / (moduli * np.abs(slope))
    floor_ulps = _kernels.FLOOR_ULPS * deg * _kernels.EPS
    return moduli, SCAN_RTOL + 2 * floor_ulps * kappa


class TestScanAgainstPolyRoots:
    """The batched scan kernel against the companion-matrix eigensolver."""

    @pytest.mark.parametrize(
        "coeffs, c, grid_text",
        [
            ((1, 0, 1), 1, "-3,3,-1,1,31,11"),  # double roots at v = +-2
            ((1, -0.4, 0.5, 0.6, -0.8), 2, "-3,3,-3,3,24,24"),
            # roots up to 4e6: residuals stop at the rounding floor
            ((1, 1e6, 1), 1, "-3e6,3e6,-1,1,41,11"),
            ((1, 0, 0, 0, 0, 0, 0, 0, 1e-8), 4, "-2,2,-2,2,9,9"),
        ],
    )
    def test_every_point_matches_root_modulus_profile(self, coeffs, c, grid_text):
        sym = BandedSymbol(coeffs)
        grid = GridSpec.parse(grid_text)
        points = np.array(_grid_points(grid))
        base = np.asarray(coeffs, dtype=np.complex128)
        moduli, ok = _kernels.scan_moduli(
            base, c, points.real, points.imag, _initial_circle(base), MAX_SWEEPS,
        )
        assert ok.all()
        # tol = 1 makes every converged point a hit, so the hits carry every gap
        report = limit_set_scan(sym, c, grid, tol=1.0)
        assert report.failures == ()
        assert len(report.hits) == len(points)
        for v, row, (re_v, im_v, gap) in zip(points, moduli, report.hits):
            assert complex(re_v, im_v) == v
            profile, rtol = _reference(sym, c, v)
            assert np.all(np.abs(row - profile) <= rtol * profile)
            direct = (profile[c] - profile[c - 1]) / profile[c]
            assert abs(direct - gap) <= rtol[c - 1] + rtol[c]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        band=st.integers(2, 4),
        data=st.data(),
        complex_symbol=st.booleans(),
    )
    def test_random_symbols_match_companion_roots(self, band, data, complex_symbol):
        part = st.floats(-2.0, 2.0)
        re = data.draw(st.lists(part, min_size=band, max_size=band))
        im = data.draw(st.lists(part, min_size=band, max_size=band))
        coeffs = [1] + [
            complex(a, b if complex_symbol else 0.0) for a, b in zip(re, im)
        ]
        if abs(coeffs[-1]) < 1e-3:
            return
        c = data.draw(st.integers(1, band - 1))
        v = complex(data.draw(st.floats(-3.0, 3.0)), data.draw(st.floats(-3.0, 3.0)))
        base = np.asarray(coeffs, dtype=np.complex128)
        moduli, ok = _kernels.scan_moduli(
            base, c, np.array([v.real]), np.array([v.imag]),
            _initial_circle(base), MAX_SWEEPS,
        )
        assert ok.all()
        sym = BandedSymbol(tuple(coeffs))
        profile, rtol = _reference(sym, c, v)
        assert np.array_equal(profile, root_modulus_profile(sym, c, v))
        # the property covers separated roots: a triple root can miss even
        # the double-root floor
        if rtol[0] != DOUBLE_ROOT_FLOOR:
            assert np.all(np.abs(moduli[0] - profile) <= rtol * profile)

    @pytest.mark.parametrize(
        "coeffs, grid_text, n_failed",
        [
            # large roots: residuals at the rounding floor pass the stop test
            ((1, 1e6, 1), "-3e6,3e6,-1,1,41,11", 0),
            # a root near -1e200, where the rounding floor overflows, so
            # no iterate can pass the stop test there
            ((1, 1e200, 1), "-1,1,-1,1,3,3", 9),
            # a root beyond double range: the iterate overflows to inf, where
            # the rounding floor is inf too, and a non-finite floor must fail
            ((1, 1e-300, 1e-300), "-1e300,1e300,-1e300,1e300,5,5", 24),
        ],
    )
    def test_failures_are_the_points_poly_roots_rejects(
        self, coeffs, grid_text, n_failed
    ):
        # a scan point fails exactly where poly_roots raises or a companion
        # root has a non-finite rounding floor
        sym = BandedSymbol(coeffs)
        grid = GridSpec.parse(grid_text)
        report = limit_set_scan(sym, 1, grid, tol=1e-2)
        failed = {complex(re_v, im_v) for re_v, im_v, _ in report.failures}
        rejected = set()
        for v in _grid_points(grid):
            shifted = np.array(coeffs, dtype=complex)
            shifted[1] -= v
            floor_coeffs = _kernels._floor_coeffs(np.abs(shifted), len(coeffs) - 1)
            try:
                roots = poly_roots(shifted)
            except ValueError:
                rejected.add(v)
                continue
            with np.errstate(over="ignore"):
                floors = np.polyval(floor_coeffs[::-1], np.abs(roots))
            if not np.isfinite(floors).all():
                rejected.add(v)
        assert len(failed) == n_failed
        assert failed == rejected


class TestScanGuards:
    """Starting iterates that drive the scan kernel into each guard.

    The plain simultaneous update is inf or NaN at the first sweep of every
    case here but the iterate on a simple root and the real-axis grid; the
    guards must then give the moduli of the companion-matrix eigensolver.
    """

    def scan(self, base, z0, values):
        values = np.asarray(values, dtype=np.complex128)
        moduli, ok = _kernels.scan_moduli(
            np.asarray(base, dtype=np.complex128), 1, values.real, values.imag,
            np.asarray(z0, dtype=np.complex128), MAX_SWEEPS,
        )
        assert ok.all()
        return moduli

    def assert_matches_profile(self, z0, values):
        # 1 - v z + z^2, the tridiagonal symbol with c = 1
        moduli = self.scan(TRIDIAG.coeffs, z0, values)
        for v, row in zip(values, moduli):
            profile, rtol = _reference(TRIDIAG, 1, v)
            assert np.all(np.abs(row - profile) <= rtol * profile), v

    def test_repeated_entry(self):
        # Coincident iterates add nothing to each other's sums.  They see the
        # same sums and so stay together and would find one root twice, so
        # the kernel refuses a start with a repeated entry.
        z0 = [0.5 + 0.5j, 0.5 + 0.5j]
        with pytest.raises(ValueError, match="starting iterates must be distinct"):
            self.scan(TRIDIAG.coeffs, z0, [3])

    def test_distinct_entries_off_the_segment(self):
        # v = 3: the roots of 1 - 3z + z^2 have the moduli (3 -+ sqrt 5) / 2
        (moduli,) = self.scan(TRIDIAG.coeffs, [0.5 + 0.5j, -0.3 + 0.8j], [3])
        expected = [(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2]
        assert np.all(np.abs(moduli - expected) <= 1e-12 * np.asarray(expected))
        assert np.round(moduli, 3).tolist() == [0.382, 2.618]

    def test_iterate_on_a_root(self):
        # p(i) = 0 exactly at v = 0: the iterate stays where it is
        self.assert_matches_profile([1j, 0.3 - 0.8j], [0])

    def test_iterate_on_a_stationary_point(self):
        # p'(0) = 0 at v = 0: the iterate takes the repulsion step
        self.assert_matches_profile([0, 0.3 - 0.8j], [0])

    def test_zero_denominator(self):
        # At z = 1 the Newton step w = p/p' is 1 for every v, so the other
        # iterate at 0 makes 1 - w * s exactly 0: the iterate stays
        self.assert_matches_profile([1, 0], [1j])

    def test_iterate_on_a_double_root(self):
        # 1 + 1.5 z - 0.5 z^3 = -0.5 (z + 1)^2 (z - 2): p(-1) = p'(-1) = 0, so
        # the iterate on the double root stays and the others converge to it
        # and to 2.  Companion roots are only good to about sqrt(eps) at a
        # double root, so compare with the roots themselves.
        moduli = self.scan([1, 0, 0, -0.5], [-1, 2.5j, -3], [-1.5])
        assert np.all(np.abs(moduli - [1, 1, 2]) <= 1e-12)

    def test_real_axis_grid(self):
        # every polynomial on the grid is real, with double roots at v = +-2,
        # where the moduli are good only to the double-root floor
        grid = GridSpec.parse("-3,3,0,0,61,1")
        z0 = _initial_circle(np.asarray(TRIDIAG.coeffs, dtype=np.complex128))
        self.assert_matches_profile(z0, grid.re_values())
        report = limit_set_scan(TRIDIAG, 1, grid, tol=1e-6)
        assert (len(report.hits), len(report.failures)) == (41, 0)
