"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and must not be loosened to make a
failing criterion pass.
"""

import cmath
import itertools
import math
import time

import numpy as np

from bandschur.cli import main
from bandschur.polyring import MultiPoly, expand_elementary
from bandschur.recurrence import recurrence_residual
from bandschur.schur import schur_jacobi_trudi
from bandschur.shapes import MinorSpec, Partition, SkewShape, min_k
from bandschur.spectra import (
    GridSpec,
    finite_section_spectrum,
    limit_set_scan,
    poly_roots,
)
from bandschur.tableaux import schur_by_tableaux
from bandschur.toeplitz import (
    BandedSymbol,
    build_minor_numeric,
    det_numeric,
    verify_minor_schur,
)
from bandschur.widom import widom_modified, widom_original


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, f"criterion {num} failed: {desc} {detail}"


def _boxed_partitions(max_len: int, max_part: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = [()]

    def extend(prefix, bound, remaining):
        for part in range(bound, 0, -1):
            cur = prefix + (part,)
            out.append(cur)
            if remaining > 1:
                extend(cur, part, remaining - 1)

    extend((), max_part, max_len)
    return out


def _minor_spec_sweep() -> list[MinorSpec]:
    """Every spec with band <= 4, r <= 2, c <= 3, index values <= 4."""
    specs = []
    for band in range(1, 5):
        for c in range(0, min(3, band) + 1):
            for beta in itertools.combinations(range(1, 5), c):
                for r in range(0, min(2, c) + 1):
                    for alpha in itertools.combinations(range(1, 5), r):
                        if all(a >= b for a, b in zip(alpha, beta)):
                            specs.append(MinorSpec(alpha, beta, band))
    return specs


def _separated_points(rng, n, min_gap=0.1):
    while True:
        radius = rng.uniform(0.3, 1.6, size=n)
        theta = rng.uniform(0, 2 * np.pi, size=n)
        pts = radius * np.exp(1j * theta)
        if all(
            abs(pts[i] - pts[j]) >= min_gap
            for i in range(n)
            for j in range(i + 1, n)
        ):
            return tuple(complex(v) for v in pts)


SCHUR_ARGS = ["schur", "--outer", "4,2,1", "--inner", "2,2", "--nvars", "3", "--method", "both"]

SCHUR_EXPECTED = (
    "tableaux: x1^3 + 2*x1^2*x2 + 2*x1^2*x3 + 2*x1*x2^2 + 3*x1*x2*x3"
    " + 2*x1*x3^2 + x2^3 + 2*x2^2*x3 + 2*x2*x3^2 + x3^3\n"
    "jacobi-trudi: x1^3 + 2*x1^2*x2 + 2*x1^2*x3 + 2*x1*x2^2 + 3*x1*x2*x3"
    " + 2*x1*x3^2 + x2^3 + 2*x2^2*x3 + 2*x2*x3^2 + x3^3\n"
    "equal: true\n"
)


def test_criterion_1_worked_skew_example(capsys):
    start = time.perf_counter()
    code = main(list(SCHUR_ARGS))
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    with capsys.disabled():
        _report(
            1,
            "skew shape (4,2,1)/(2,2) in 3 variables: both engines print the "
            "expected 10-term polynomial and agree, in under 1 s",
            code == 0 and out == SCHUR_EXPECTED and elapsed < 1.0,
            f"{elapsed:.3f} s",
        )


def test_criterion_2_engine_equivalence_sweep():
    start = time.perf_counter()
    count = 0
    failures = []
    for outer in _boxed_partitions(4, 4):
        outer_p = Partition(outer)
        inner_pool = _boxed_partitions(len(outer), outer[0]) if outer else [()]
        for inner in inner_pool:
            inner_p = Partition(inner)
            if not outer_p.contains(inner_p):
                continue
            shape = SkewShape(outer_p, inner_p)
            for nvars in (2, 3, 4):
                count += 1
                if schur_jacobi_trudi(shape, nvars) != schur_by_tableaux(shape, nvars):
                    failures.append((outer, inner, nvars))
    elapsed = time.perf_counter() - start
    _report(
        2,
        "tableaux and determinant engines agree exactly on every skew shape "
        "inside the 4x4 box for 2..4 variables, in under 5 min",
        not failures and elapsed < 300.0 and count > 5000,
        f"{count} shapes, {elapsed:.2f} s, failures={failures[:3]}",
    )


def test_criterion_3_minor_equals_schur_sweep():
    specs = _minor_spec_sweep()
    failures = []
    for spec in specs:
        lo = min_k(spec)
        for k in range(lo, lo + 5):
            ok, residual = verify_minor_schur(spec, k)
            if not (ok and residual.is_zero):
                failures.append((spec, k))
    _report(
        3,
        "every minor determinant equals the skew Schur polynomial of its "
        "shape (band <= 4, r <= 2, c <= 3, indices <= 4, five block sizes "
        "each), with exact zero residuals",
        not failures and len(specs) == 276,
        f"{len(specs)} specs, failures={failures[:3]}",
    )


def test_criterion_4_recurrence_holds_with_sharp_boundary():
    specs = _minor_spec_sweep()
    failures = []
    for spec in specs:
        lo = min_k(spec)
        for j in (lo, lo + 1):
            if not recurrence_residual(spec, j).is_zero:
                failures.append((spec, j))
    # sharp boundary: deleting column 2 of the band-2 matrix leaves a
    # nonzero residual exactly at j = min_k - 1 and zero at min_k.
    boundary = MinorSpec((), (2,), 2)
    below = recurrence_residual(boundary, 0)
    at = recurrence_residual(boundary, 1)
    sharp = expand_elementary(below) == MultiPoly(2, {(1, 1): 1}) and at.is_zero
    _report(
        4,
        "the order-C(n, c-r) linear recurrence annihilates the determinant "
        "sequence from min_k on for every swept spec, and the boundary case "
        "has residual exactly x1*x2 one step below the threshold",
        not failures and sharp,
        f"{len(specs)} specs, sharp={sharp}, failures={failures[:3]}",
    )


def test_criterion_5_closed_form_matches_determinants():
    rng = np.random.default_rng(0)
    worst_det = 0.0
    worst_pair = 0.0
    checked = 0
    for n in (2, 3, 4, 5):
        for _ in range(20):
            x = _separated_points(rng, n)
            # s_d = e_d(x): np.poly gives (-1)^d e_d descending from z^n
            poly = np.poly(np.array(x))
            coeffs = [((-1) ** d) * poly[d] for d in range(n + 1)]
            sym = BandedSymbol(coeffs)
            t_roots = tuple(-1.0 / v for v in x)
            s_n = coeffs[-1]
            for c in range(1, n):
                spec = MinorSpec((), tuple(range(1, c + 1)), n)
                for k in range(1, 31):
                    closed = widom_modified(x, c, k)
                    direct = det_numeric(build_minor_numeric(sym, spec, k))
                    rel = abs(closed - direct) / max(1.0, abs(direct))
                    worst_det = max(worst_det, rel)
                    orig = widom_original(t_roots, s_n, c, k)
                    pair = abs(orig - closed) / max(1.0, abs(closed))
                    worst_pair = max(worst_pair, pair)
                    checked += 1
    _report(
        5,
        "the closed-form root-product formula matches LU determinants to "
        "1e-8 relative and its two forms agree to 1e-9, over 20 separated "
        "root sets for each band 2..5, all c, k up to 30",
        worst_det <= 1e-8 and worst_pair <= 1e-9 and checked == 20 * (1 + 2 + 3 + 4) * 30,
        f"{checked} values, worst det diff {worst_det:.3e}, worst pair diff {worst_pair:.3e}",
    )


def test_criterion_6_chebyshev_specialization():
    worst = 0.0
    for j in range(0, 21):
        shape = SkewShape(Partition((j,) if j else ()), Partition(()))
        poly = schur_jacobi_trudi(shape, 2)
        for step in range(-9, 10):
            x = step / 10.0
            root = cmath.sqrt(complex(x * x - 1.0))
            u, v = x - root, x + root
            value = poly.evaluate((u, v))
            # Chebyshev U_j(x) by the three-term recurrence
            a, b = 1.0, 2.0 * x
            if j == 0:
                target = a
            else:
                for _ in range(j - 1):
                    a, b = b, 2.0 * x * b - a
                target = b
            worst = max(worst, abs(value - target))
    _report(
        6,
        "single-row shapes evaluated at the reciprocal pair "
        "(x -+ sqrt(x^2-1)) reproduce Chebyshev U_j on 19 points for "
        "j <= 20, within 1e-9",
        worst <= 1e-9,
        f"worst |diff| = {worst:.3e}",
    )


def test_criterion_7_limit_set_scan_desk_scale():
    sym = BandedSymbol((1, 0, 1))
    grid = GridSpec.parse("-3,3,-1,1,241,81")
    start = time.perf_counter()
    report = limit_set_scan(sym, 1, grid, tol=2e-2)
    seg_worst = 0.0
    for re_v, im_v, _gap in report.hits:
        seg_worst = max(
            seg_worst, math.hypot(max(abs(re_v) - 2.0, 0.0), im_v)
        )
    k = 50
    spectrum = finite_section_spectrum(sym, MinorSpec((), (1,), 2), k)
    closed = sorted(2 * math.cos(m * math.pi / (k + 1)) for m in range(1, k + 1))
    eig_err = max(
        abs(z - w) for z, w in zip(spectrum, closed)
    )
    hit_pts = np.array([complex(a, b) for a, b, _ in report.hits])
    eig_dist = max(
        float(np.min(np.abs(hit_pts - z))) for z in spectrum
    )
    elapsed = time.perf_counter() - start
    _report(
        7,
        "the 241x81 scan of the tridiagonal symbol puts every hit within "
        "2e-2 of the segment [-2, 2], every block-50 eigenvalue lies within "
        "one grid pitch (0.025) of a hit, and everything finishes in under 30 s",
        bool(report.hits)
        and not report.failures
        and seg_worst <= 2e-2 + 1e-9
        and eig_err <= 1e-9
        and eig_dist <= 0.025
        and elapsed < 30.0,
        f"{len(report.hits)} hits, seg dev {seg_worst:.3e}, eig dist "
        f"{eig_dist:.4f}, {elapsed:.2f} s",
    )


def test_criterion_8_root_finder_against_factored_polynomial():
    coeffs = np.array([1.0 + 0j])
    for m in range(1, 11):
        coeffs = np.convolve(coeffs, np.array([-m, 1.0], dtype=complex))
    roots = poly_roots(coeffs)
    expected = np.arange(1, 11, dtype=float)
    rel = np.max(np.abs(roots - expected) / expected)
    scale = float(np.max(np.abs(coeffs)))
    residuals = np.array(
        [abs(np.polyval(coeffs[::-1], z)) for z in roots]
    )
    res_ok = bool(np.all(residuals <= 1e-10 * scale))
    _report(
        8,
        "all ten roots of the degree-10 factored polynomial are recovered "
        "to 1e-8 relative with residuals below 1e-10 of the largest "
        "coefficient",
        rel <= 1e-8 and res_ok,
        f"worst rel {rel:.3e}, worst residual/scale {np.max(residuals)/scale:.3e}",
    )


def test_criterion_9_byte_deterministic_cli(capsys):
    commands = [
        list(SCHUR_ARGS),
        ["recurrence", "--beta", "2", "--nvars", "2", "--jmax", "3"],
        [
            "limitset", "--symbol", "1,0,1", "--c", "1",
            "--grid", "-3,3,-1,1,241,81", "--tol", "2e-2",
        ],
    ]
    ok = True
    detail = []
    for argv in commands:
        code_a = main(list(argv))
        out_a = capsys.readouterr().out
        code_b = main(list(argv))
        out_b = capsys.readouterr().out
        same = code_a == code_b == 0 and out_a.encode() == out_b.encode()
        ok = ok and same
        detail.append(f"{argv[0]}:{'=' if same else '!='}")
    with capsys.disabled():
        _report(
            9,
            "repeated CLI invocations (schur, recurrence, limitset) produce "
            "byte-identical stdout",
            ok,
            " ".join(detail),
        )
