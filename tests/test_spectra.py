"""Tests for root finding, limit-set scanning, and finite-section spectra."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import kernel_reference
from bandschur import _kernels
from bandschur.shapes import MinorSpec
from bandschur.spectra import (
    MAX_SWEEPS,
    PELLET_MARGIN,
    ComparisonResult,
    GridSpec,
    _initial_circle,
    _pellet_threshold,
    _unit_phases,
    finite_section_spectrum,
    limit_set_scan,
    poly_roots,
    root_modulus_profiles,
    spectrum_vs_limitset,
)
from bandschur.toeplitz import BandedSymbol


TRIDIAG = BandedSymbol((1, 0, 1))


def _profile(sym, c, v):
    """Ascending root moduli at the one shift v."""
    return root_modulus_profiles(sym, c, [v])[0]


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

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        lower=st.lists(
            st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
            min_size=1, max_size=8,
        ),
        lead=st.complex_numbers(
            min_magnitude=1e-2, max_magnitude=10.0, allow_nan=False, allow_infinity=False
        ),
    )
    # 4 + z^2: LAPACK gives 2i, then -2i, of equal moduli, so only the
    # phase puts -2i first
    @example(lower=[4, 0], lead=1)
    def test_bits_are_the_companion_eigenvalues(self, lower, lead):
        # the companion matrix numpy.roots builds, top row -c_(d-1)/c_d,
        # ..., -c_0/c_d and ones below the diagonal, built and solved here
        coeffs = np.array([*lower, lead], dtype=np.complex128)
        d = len(lower)
        companion = np.diag(np.ones(d - 1, dtype=np.complex128), -1)
        companion[0, :] = -coeffs[-2::-1] / coeffs[-1]
        z = np.linalg.eigvals(companion)
        expected = z[np.lexsort((np.angle(z), np.abs(z)))]
        assert poly_roots(coeffs).tobytes() == expected.tobytes()

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
        profile = _profile(TRIDIAG, 1, 0.0)
        assert np.allclose(profile, [1.0, 1.0], atol=1e-9)

    def test_golden_real_shift(self):
        # 1 - 3z + z^2 has roots (3 -+ sqrt(5))/2.
        profile = _profile(TRIDIAG, 1, 3.0)
        lo = (3 - math.sqrt(5)) / 2
        hi = (3 + math.sqrt(5)) / 2
        assert np.allclose(profile, [lo, hi], atol=1e-9)

    def test_ascending(self):
        rng = np.random.default_rng(3)
        sym = BandedSymbol((1, 0.4, 0.1, -0.3, 0.2))
        for _ in range(5):
            v = complex(rng.normal(), rng.normal())
            profile = _profile(sym, 2, v)
            assert np.all(np.diff(profile) >= -1e-12)
            assert np.all(profile > 0)

    def test_c_bounds(self):
        with pytest.raises(ValueError):
            _profile(TRIDIAG, 0, 0.0)
        with pytest.raises(ValueError):
            _profile(TRIDIAG, 2, 0.0)

    def test_degree_drop_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            _profile(BandedSymbol((1, 1, 0)), 1, 0.0)

    def test_double_root_gap(self):
        # at v = -2 the polynomial is 1 + 2z + z^2 = (1 + z)^2: the true gap is 0
        profile = _profile(TRIDIAG, 1, -2.0)
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

    def test_values_hit_endpoints(self):
        grid = GridSpec.parse("-3,3,-1,1,241,81")
        assert grid.re_values()[0] == -3.0 and grid.re_values()[-1] == 3.0
        assert len(grid.im_values()) == 81

    def test_singleton_axis(self):
        grid = GridSpec(0, 0, -1, 1, 1, 3)
        assert list(grid.re_values()) == [0.0]
        assert list(grid.im_values()) == [-1.0, 0.0, 1.0]

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

    def test_hits_in_row_major_grid_order(self):
        grid = GridSpec.parse("-3,3,-1,1,31,11")
        report = limit_set_scan(TRIDIAG, 1, grid, tol=1e-2)
        points = [(im_v, re_v) for re_v, im_v, _ in report.hits]
        assert points == sorted(points)


class TestFiniteSectionSpectrum:
    def test_tridiagonal_closed_form(self):
        spec = MinorSpec((), (1,), 2)
        k = 5
        got = finite_section_spectrum(TRIDIAG, spec, k)
        expected = sorted(2 * math.cos(m * math.pi / (k + 1)) for m in range(1, k + 1))
        assert np.allclose([z.imag for z in got], 0, atol=1e-9)
        assert np.allclose([z.real for z in got], expected, atol=1e-9)

    def test_general_band_two_closed_form(self):
        # eigenvalues s_1 + 2 sqrt(s_2) cos(m pi/(k+1)); k = 80 is past the
        # size (75) where LAPACK's QR switches to multishift sweeps.  At
        # that size only a section whose off-diagonals are near balance
        # keeps 1e-9 (1,0.7,0.3 is 0.05 off at k = 80, items 5 and 13).
        for coeffs, k in (((1, 0.7, 0.3), 6), ((1, 0.7, 0.3), 20), ((1, 0.3, 1.2), 80)):
            eigs = finite_section_spectrum(BandedSymbol(coeffs), MinorSpec((), (1,), 2), k)
            expected = sorted(
                coeffs[1] + 2 * math.sqrt(coeffs[2]) * math.cos(m * math.pi / (k + 1))
                for m in range(1, k + 1)
            )
            assert np.allclose([z.real for z in eigs], expected, atol=1e-9)
            assert [z.imag for z in eigs] == [0.0] * k

    def test_real_section_takes_the_real_solver(self, monkeypatch):
        # dgeev for a real section, zgeev for a complex one
        dtypes = []
        eigvals = np.linalg.eigvals

        def spy(matrix):
            dtypes.append(matrix.dtype)
            return eigvals(matrix)

        monkeypatch.setattr(np.linalg, "eigvals", spy)
        finite_section_spectrum(BandedSymbol((1, 0.7, 0.3)), MinorSpec((), (1,), 2), 5)
        finite_section_spectrum(BandedSymbol((1, 0.5 - 2j)), MinorSpec((), (1,), 1), 5)
        assert dtypes == [np.float64, np.complex128]

    @given(st.data())
    def test_real_spectrum_is_closed_under_conjugation(self, data):
        # the real solver returns exact conjugate pairs and real eigenvalues
        # with imaginary part 0, so conjugating permutes the spectrum
        band = data.draw(st.integers(2, 5))
        tail = data.draw(st.lists(st.floats(-2, 2), min_size=band, max_size=band))
        c = data.draw(st.integers(1, band))
        cols = sorted(data.draw(st.sets(st.integers(1, band + 3), min_size=c, max_size=c)))
        r = data.draw(st.integers(0, c))
        shifts = sorted(data.draw(st.lists(st.integers(0, 3), min_size=r, max_size=r)))
        spec = MinorSpec(tuple(j + d for j, d in zip(cols, shifts)), tuple(cols), band)
        k = data.draw(st.integers(1, 30))
        eigs = finite_section_spectrum(BandedSymbol((1, *tail)), spec, k)
        assert sorted((z.real, z.imag) for z in eigs) == sorted(
            (z.real, -z.imag) for z in eigs
        )

    def test_single_entry(self):
        sym = BandedSymbol((1, 0.7, 0.3))
        assert finite_section_spectrum(sym, MinorSpec((), (1,), 2), 1) == (0.7 + 0j,)

    def test_no_deleted_columns_gives_unit_triangular(self):
        eigs = finite_section_spectrum(TRIDIAG, MinorSpec((), (), 2), 3)
        assert np.allclose(eigs, [1, 1, 1], atol=1e-12)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            finite_section_spectrum(TRIDIAG, MinorSpec((), (1,), 2), 0)

    def test_sorted_by_real_then_imag(self):
        eigs = finite_section_spectrum(TRIDIAG, MinorSpec((), (1,), 2), 4)
        keys = [(z.real, z.imag) for z in eigs]
        assert len(keys) == 4 and keys == sorted(keys)


class TestSpectrumVsLimitSet:
    def test_eigenvalues_land_near_hits(self):
        grid = GridSpec.parse("-3,3,-1,1,121,41")
        report = limit_set_scan(TRIDIAG, 1, grid, tol=1e-2)
        result = spectrum_vs_limitset(TRIDIAG, 1, 8, report)
        assert isinstance(result, ComparisonResult)
        assert len(report.hits) > 0
        # the grid step: 6 / 120 along re, 2 / 40 along im
        assert result.median_distance <= 0.05
        assert result.max_distance <= 0.05

    def test_empty_hit_set_is_an_error(self):
        grid = GridSpec.parse("5,6,1,2,3,3")
        with pytest.raises(ValueError, match="empty hit set"):
            spectrum_vs_limitset(TRIDIAG, 1, 4, limit_set_scan(TRIDIAG, 1, grid, 1e-3))


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


FAILURE_FIXTURES = [
    # large roots: residuals at the rounding floor pass the stop test
    ((1, 1e6, 1), "-3e6,3e6,-1,1,41,11", 0),
    # a root near -1e200, where the rounding floor overflows, so
    # no iterate can pass the stop test there
    ((1, 1e200, 1), "-1,1,-1,1,3,3", 9),
    # a root beyond double range: the iterate overflows to inf, where
    # the rounding floor is inf too, and a non-finite floor must fail
    ((1, 1e-300, 1e-300), "-1e300,1e300,-1e300,1e300,5,5", 24),
    # |s_0 / s_n| overflows: the iterates start at inf, where no floor is
    # finite, and every companion matrix has an entry beyond double range
    ((1, 0, 1e-320), "-1,1,-1,1,3,3", 9),
]


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
        assert np.array_equal(profile, _profile(sym, c, v))
        # the property covers separated roots: a triple root can miss even
        # the double-root floor
        if rtol[0] != DOUBLE_ROOT_FLOOR:
            assert np.all(np.abs(moduli[0] - profile) <= rtol * profile)

    @pytest.mark.parametrize("coeffs, grid_text, n_failed", FAILURE_FIXTURES)
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


def _assert_kernel_matches_reference(coeffs, c, shifts, z0, max_iter=MAX_SWEEPS):
    """scan_moduli's (moduli, ok), once checked equal to the reference's bits."""
    base = np.asarray(coeffs, dtype=np.complex128)
    shifts = np.asarray(shifts, dtype=np.complex128)
    args = (base, c, shifts.real.copy(), shifts.imag.copy(), z0, max_iter)
    moduli, ok = _kernels.scan_moduli(*args)
    ref_moduli, ref_ok = kernel_reference.scan_moduli(*args)
    assert moduli.tobytes() == ref_moduli.tobytes()
    assert ok.tolist() == ref_ok.tolist()
    return moduli, ok


@pytest.mark.parametrize("band", [2, 3, 4, 5, 6])
def test_start_radius_beyond_double_range_fails_every_point(band):
    # |s_0 / s_n| = 1e320 overflows: the starting circle's radius is inf, and
    # poly_roots rejects every shift, since 0 < c < n leaves s_0 and s_n
    coeffs = (1,) + (0,) * (band - 1) + (1e-320,)
    grid = GridSpec.parse("-1,1,-1,1,3,3")
    report = limit_set_scan(BandedSymbol(coeffs), 1, grid, tol=1e-2)
    assert report.hits == ()
    failed = [complex(re_v, im_v) for re_v, im_v, _ in report.failures]
    assert failed == _grid_points(grid)
    for v in failed:
        shifted = np.array(coeffs, dtype=complex)
        shifted[1] -= v
        with pytest.raises(ValueError, match="beyond double range"):
            poly_roots(shifted)


class TestScanGuards:
    """Starting iterates that drive the scan kernel into each guard.

    The plain simultaneous update is inf or NaN at the first sweep of every
    case here but the iterate on a simple root and the real-axis grid; the
    guards must then give the moduli of the companion-matrix eigensolver,
    and the sweep the reference sweep's bits.
    """

    def scan(self, base, z0, values):
        z0 = np.asarray(z0, dtype=np.complex128)
        moduli, ok = _assert_kernel_matches_reference(base, 1, values, z0)
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


class TestKernelAgainstReference:
    """The sweep gives the reference sweep's moduli and ok flags, bit for bit."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        deg=st.integers(1, 6),
        data=st.data(),
        complex_symbol=st.booleans(),
        max_iter=st.sampled_from([0, 1, 3, 8, MAX_SWEEPS]),
    )
    def test_random_polynomials(self, deg, data, complex_symbol, max_iter):
        part = st.floats(-2.0, 2.0)
        scale = st.sampled_from([1.0, 1.0, 1.0, 1e-8, 1e8, 1e-200, 1e200])
        coeffs = [
            complex(data.draw(part), data.draw(part) if complex_symbol else 0.0)
            * data.draw(scale)
            for _ in range(deg + 1)
        ]
        assume(coeffs[-1] != 0)
        c = data.draw(st.integers(0, deg - 1))
        shifts = data.draw(st.lists(
            st.complex_numbers(
                max_magnitude=4.0, allow_nan=False, allow_infinity=False
            ),
            min_size=1, max_size=24,
        ))
        z0 = _initial_circle(np.asarray(coeffs, dtype=np.complex128))
        # both kernels refuse coincident infinite starts, which limit_set_scan
        # never passes on
        assume(np.unique(z0).size == z0.size)
        _assert_kernel_matches_reference(coeffs, c, shifts, z0, max_iter)

    @pytest.mark.parametrize("coeffs, grid_text, n_failed", FAILURE_FIXTURES)
    def test_failure_fixtures(self, coeffs, grid_text, n_failed):
        shifts = _grid_points(GridSpec.parse(grid_text))
        z0 = _initial_circle(np.asarray(coeffs, dtype=np.complex128))
        _, ok = _assert_kernel_matches_reference(coeffs, 1, shifts, z0)
        assert np.count_nonzero(~ok) == n_failed


class TestRootModulusProfiles:
    """One stacked companion solve, each row as poly_roots gives it."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(band=st.integers(2, 6), data=st.data(), complex_symbol=st.booleans())
    def test_rows_are_the_one_point_profiles(self, band, data, complex_symbol):
        sym = _random_symbol(data, band, complex_symbol)
        c = data.draw(st.integers(1, band - 1))
        shifts = data.draw(st.lists(
            st.complex_numbers(
                max_magnitude=5.0, allow_nan=False, allow_infinity=False
            ),
            min_size=1, max_size=4,
        ))
        rows = root_modulus_profiles(sym, c, shifts)
        assert rows.shape == (len(shifts), band)
        for v, row in zip(shifts, rows):
            assert row.tobytes() == _reference(sym, c, v)[0].tobytes()
            # numpy.roots builds the same companion matrix
            shifted = np.array(sym.coeffs, dtype=complex)
            shifted[c] -= v
            assert row.tobytes() == np.sort(np.abs(np.roots(shifted[::-1]))).tobytes()

    def test_row_beyond_double_range_is_nan(self):
        # at v = -1e300 the companion top row holds about 1e600
        sym = BandedSymbol((1, 1e-300, 1e-300))
        rows = root_modulus_profiles(sym, 1, [0, -1e300, 1])
        assert np.isnan(rows[1]).all()
        assert np.isfinite(rows[[0, 2]]).all()
        with pytest.raises(ValueError, match="beyond double range"):
            poly_roots([1, 1e-300 + 1e300, 1e-300])

    def test_no_shifts(self):
        assert root_modulus_profiles(TRIDIAG, 1, []).shape == (0, 2)

    def test_c_bounds(self):
        with pytest.raises(ValueError, match="need 0 < c"):
            root_modulus_profiles(TRIDIAG, 2, [0])


def _unscreened_scan(sym, c, grid, tol):
    """Hits and failures from one scan_moduli call over every grid point."""
    points = np.array(_grid_points(grid))
    base = np.asarray(sym.coeffs, dtype=np.complex128)
    moduli, ok = _kernels.scan_moduli(
        base, c, points.real, points.imag, _initial_circle(base), MAX_SWEEPS,
    )
    gaps = (moduli[:, c] - moduli[:, c - 1]) / moduli[:, c]
    message = f"no convergence after {MAX_SWEEPS} sweeps"
    hits = tuple(
        (v.real, v.imag, gap)
        for v, gap, good in zip(points.tolist(), gaps.tolist(), ok)
        if good and gap <= tol
    )
    failures = tuple(
        (v.real, v.imag, message) for v, good in zip(points.tolist(), ok) if not good
    )
    return hits, failures


def _assert_screened_equals_unscreened(sym, c, grid, tol):
    report = limit_set_scan(sym, c, grid, tol)
    # repr tells -0.0 from 0.0 and prints each float round-trip exact
    assert repr((report.hits, report.failures)) == repr(
        _unscreened_scan(sym, c, grid, tol)
    )
    return report


def _random_symbol(data, band, complex_symbol):
    part = st.floats(-2.0, 2.0)
    re = data.draw(st.lists(part, min_size=band, max_size=band))
    im = data.draw(st.lists(part, min_size=band, max_size=band))
    coeffs = [1] + [complex(a, b if complex_symbol else 0.0) for a, b in zip(re, im)]
    assume(abs(coeffs[-1]) >= 1e-3)
    return BandedSymbol(tuple(coeffs))


SCREEN_TOLS = [0.0, 1e-6, 1e-2, 0.05, 0.5, 1.0]


class TestPelletScreen:
    """The scan skips only points Pellet's test proves are no hits."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        band=st.integers(2, 6),
        data=st.data(),
        complex_symbol=st.booleans(),
        tol=st.sampled_from(SCREEN_TOLS),
    )
    def test_screened_equals_unscreened(self, band, data, complex_symbol, tol):
        sym = _random_symbol(data, band, complex_symbol)
        c = data.draw(st.integers(1, band - 1))
        reach = sum(abs(v) for v in sym.coeffs) + 1.0
        corner = st.floats(-reach, reach)
        re_lo, re_hi = sorted(data.draw(st.tuples(corner, corner)))
        im_lo, im_hi = sorted(data.draw(st.tuples(corner, corner)))
        size = st.integers(1, 12)
        grid = GridSpec(re_lo, re_hi, im_lo, im_hi, data.draw(size), data.draw(size))
        _assert_screened_equals_unscreened(sym, c, grid, tol)

    @pytest.mark.parametrize("coeffs, grid_text, n_failed", FAILURE_FIXTURES)
    def test_failure_fixtures(self, coeffs, grid_text, n_failed):
        report = _assert_screened_equals_unscreened(
            BandedSymbol(coeffs), 1, GridSpec.parse(grid_text), 1e-2
        )
        assert len(report.failures) == n_failed

    @pytest.mark.parametrize(
        "grid_text, tol",
        [("-3,3,-1,1,241,81", 2e-2), ("-3,3,-1,1,121,41", 1e-2)],
    )
    def test_readme_scans(self, grid_text, tol):
        report = _assert_screened_equals_unscreened(
            TRIDIAG, 1, GridSpec.parse(grid_text), tol
        )
        assert report.screen_edge is not None

    def test_skips_only_points_beyond_the_threshold(self, monkeypatch):
        solved = []
        scan_moduli = _kernels.scan_moduli

        def recording(base, c_index, vre, vim, *args):
            solved.extend(vre + 1j * vim)
            return scan_moduli(base, c_index, vre, vim, *args)

        monkeypatch.setattr(_kernels, "scan_moduli", recording)
        sym = BandedSymbol((1, -0.4, 0.5, 0.6, -0.8))
        grid = GridSpec.parse("-3,3,-3,3,24,24")
        report = limit_set_scan(sym, 2, grid, 1e-2)
        threshold = _pellet_threshold(sym.coeffs, 2, 1e-2)
        skipped = set(_grid_points(grid)) - set(solved)
        assert len(solved) + len(skipped) == grid.nx * grid.ny
        assert skipped and solved
        shifts = {v: abs(sym.coeffs[2] - v) for v in skipped}
        assert min(shifts.values()) > threshold
        # the first in row-major order of the skipped points nearest s_c
        in_order = [v for v in _grid_points(grid) if v in skipped]
        assert complex(*report.screen_edge) == min(in_order, key=shifts.get)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        band=st.integers(2, 6),
        data=st.data(),
        complex_symbol=st.booleans(),
        tol=st.sampled_from(SCREEN_TOLS[:-1]),
    )
    def test_sound_at_its_edge(self, band, data, complex_symbol, tol):
        # just outside the disc |v - s_c| = T the gap is above tol, with
        # the margin left over beyond the worst scan error
        sym = _random_symbol(data, band, complex_symbol)
        c = data.draw(st.integers(1, band - 1))
        threshold = _pellet_threshold(sym.coeffs, c, tol)
        assert math.isfinite(threshold)
        for theta in np.linspace(0.0, 2 * np.pi, 64, endpoint=False):
            v = sym.coeffs[c] + threshold * (1 + 1e-9) * complex(
                math.cos(theta), math.sin(theta)
            )
            prof = _profile(sym, c, v)
            gap = (prof[c] - prof[c - 1]) / prof[c]
            assert gap > tol + PELLET_MARGIN - DOUBLE_ROOT_FLOOR

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(band=st.integers(2, 6), data=st.data(), tol=st.sampled_from(SCREEN_TOLS[:-1]))
    def test_threshold_is_near_the_least(self, band, data, tol):
        # T is within 1e-2 of the least max(S(q R), S(R)) on a fine grid of R
        sym = _random_symbol(data, band, True)
        c = data.draw(st.integers(1, band - 1))
        q = 1 - tol - PELLET_MARGIN
        weights = np.abs(np.array(sym.coeffs))
        powers = np.arange(band + 1) - c
        weights[c] = 0.0
        radii = np.exp(np.linspace(-20.0, 20.0, 40001))
        sums = (weights[:, None] * radii[None, :] ** powers[:, None]).sum(axis=0)
        inner = (weights[:, None] * (q * radii[None, :]) ** powers[:, None]).sum(axis=0)
        best = np.maximum(sums, inner).min()
        assert abs(_pellet_threshold(sym.coeffs, c, tol) / best - 1) <= 1e-2

    @pytest.mark.parametrize("tol", [1.0, 1 - PELLET_MARGIN, 2.0])
    def test_no_screen_without_room_for_the_margin(self, tol):
        assert _pellet_threshold(TRIDIAG.coeffs, 1, tol) == math.inf
        grid = GridSpec.parse("-5,5,-5,5,11,11")
        report = limit_set_scan(TRIDIAG, 1, grid, tol)
        assert report.screen_edge is None
        assert len(report.hits) == grid.nx * grid.ny
