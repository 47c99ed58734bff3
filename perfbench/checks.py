"""Independent checkers for the output of bandschur CLI commands.

Every checker recomputes the answer with arithmetic of its own: exact
integer or Fraction determinants (Bareiss elimination), elementary
symmetric values at integer points, closed-form spectra, and companion-
matrix root moduli.  None of them imports bandschur, and none compares
against stored copies of earlier output.  A checker returns None when
the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from math import comb, cos, pi, prod, sqrt

import numpy as np

# -- exact arithmetic ----------------------------------------------------------


def det_exact(rows) -> int | Fraction:
    """Determinant of a square matrix of ints or Fractions (Bareiss)."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = num // prev if isinstance(num, int) else num / prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def elementary_values(x) -> list:
    """e_0(x), ..., e_n(x) for a sequence of exact numbers."""
    e = [1] + [0] * len(x)
    for v in x:
        for d in range(len(e) - 1, 0, -1):
            e[d] += v * e[d - 1]
    return e


def surviving(deleted, count: int) -> list[int]:
    """First `count` positive integers not in `deleted`."""
    out, v, dropped = [], 1, set(deleted)
    while len(out) < count:
        if v not in dropped:
            out.append(v)
        v += 1
    return out


def minor_matrix(s, alpha, beta, k: int) -> list[list]:
    """k x k minor of the banded Toeplitz matrix with entries s_{j-i}."""
    rows, cols = surviving(alpha, k), surviving(beta, k)
    n = len(s) - 1
    return [[s[c - r] if 0 <= c - r <= n else 0 for c in cols] for r in rows]


def minor_det(s, alpha, beta, k: int):
    return det_exact(minor_matrix(s, alpha, beta, k))


def min_k(alpha, beta) -> int:
    lo = 0
    if alpha:
        lo = max(lo, alpha[-1] - len(alpha))
    if beta:
        lo = max(lo, beta[-1] - len(beta))
    return lo


def skew_shape(alpha, beta, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(outer, inner) of the minor's skew shape, trailing zeros dropped."""
    outer = [k + i - b for i, b in enumerate(beta, start=1)]
    inner = [k + i - a for i, a in enumerate(alpha, start=1)]
    strip = lambda p: tuple(v for v in p if v)  # noqa: E731
    return strip(outer), strip(inner)


def conjugate(parts) -> list[int]:
    parts = [p for p in parts if p]
    return [sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1)] if parts else []


def dual_jacobi_trudi(outer, inner, x):
    """s_{outer/inner}(x) as det(e_{outer'_i - inner'_j - i + j}(x))."""
    e = elementary_values(x)
    oc, ic = conjugate(outer), conjugate(inner)
    part = lambda p, i: p[i - 1] if i <= len(p) else 0  # noqa: E731
    width = len(oc)

    def entry(i, j):
        d = part(oc, i) - part(ic, j) - i + j
        return e[d] if 0 <= d < len(e) else 0

    return det_exact(
        [[entry(i, j) for j in range(1, width + 1)] for i in range(1, width + 1)]
    )


def recurrence_q(x, extra: int) -> list:
    """Q_0..Q_b at x: prod over extra-subsets S of (t - prod x_S) = sum Q_{b-m} t^m."""
    coeffs = [1]  # ascending in t
    for subset in combinations(x, extra):
        m = prod(subset)
        coeffs = [
            (coeffs[i - 1] if i else 0) - m * (coeffs[i] if i < len(coeffs) else 0)
            for i in range(len(coeffs) + 1)
        ]
    b = len(coeffs) - 1
    return [coeffs[b - i] for i in range(b + 1)]


# -- parsing the CLI's text forms ------------------------------------------------

_FACTOR = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def eval_poly_text(text: str, x):
    """Evaluate a printed polynomial ('2*x1^2*x3 - x2 + 4') exactly at x."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty polynomial")
    total, sign = 0, 1
    for pos, tok in enumerate(tokens):
        if pos % 2:
            if tok not in "+-":
                raise ValueError(f"bad operator {tok!r}")
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -sign, tok[1:]
        term = 1
        for factor in tok.split("*"):
            m = _FACTOR.match(factor)
            if m:
                term *= x[int(m.group(1)) - 1] ** int(m.group(2) or 1)
            else:
                term *= int(factor)
        total += sign * term
    return total


def parse_complex(text: str) -> complex:
    """Inverse of the CLI's complex format: 'a', 'bi', 'a+bi', 'a-bi'."""
    tok = text.strip()
    if not tok.endswith("i"):
        return complex(float(tok), 0.0)
    body = tok[:-1]
    for p in range(len(body) - 1, 0, -1):
        if body[p] in "+-" and body[p - 1] not in "eE":
            return complex(float(body[:p]), float(body[p:]))
    return complex(0.0, float(body))


def fields(text: str) -> dict[str, str]:
    """'name: value' lines of a text output as a dict."""
    out = {}
    for line in text.splitlines():
        name, sep, value = line.partition(": ")
        if sep:
            out[name] = value
    return out


def _fmt(parts) -> str:
    return "(" + ",".join(str(p) for p in parts) + ")"


def _close(value: complex, exact, tol: float) -> bool:
    ref = complex(exact)
    return abs(value - ref) <= tol * max(1.0, abs(ref))


# -- checkers, one per command kind ----------------------------------------------


def check_recurrence(out: str, alpha, beta, n: int, jmax: int, x) -> str | None:
    """Residual verdicts, b and the threshold against exact values at point x."""
    lines = out.splitlines()
    extra = len(beta) - len(alpha)
    kmin = min_k(alpha, beta)
    b = comb(n, extra)
    want_head = [f"b: {b}", f"min_k: {kmin}"]
    if lines[:2] != want_head:
        return f"header {lines[:2]} != {want_head}"
    s = elementary_values(x)
    dets = [minor_det(s, alpha, beta, k) for k in range(b + jmax + 1)]
    q = recurrence_q(x, extra)
    verdicts = lines[2:2 + jmax + 1]
    for j, line in enumerate(verdicts):
        value = sum(q[b - m] * dets[m + j] for m in range(b + 1))
        prefix = f"j={j}: "
        if not line.startswith(prefix):
            return f"bad residual line {line!r}"
        verdict = line[len(prefix):]
        if verdict == "zero":
            if value != 0:
                return f"j={j} reported zero, exact residual {value}"
        elif verdict.startswith("nonzero (") and verdict.endswith(")"):
            if j >= kmin:
                return f"j={j} >= min_k reported nonzero"
            if eval_poly_text(verdict[9:-1], x) != value:
                return f"j={j} printed residual disagrees with exact {value}"
        else:
            return f"bad verdict {line!r}"
    if len(verdicts) != jmax + 1:
        return f"{len(verdicts)} residual lines for jmax {jmax}"
    want = f"holds: j >= {kmin} (verified through j = {jmax})"
    if lines[2 + jmax + 1:] != [want]:
        return f"tail {lines[2 + jmax + 1:]} != {[want]}"
    return None


def check_identity(out: str, alpha, beta, n: int, k: int) -> str | None:
    """Tableau counts s_shape(1^n) as exact minor determinants, s_d = C(n, d)."""
    s = [comb(n, d) for d in range(n + 1)]
    count_k = minor_det(s, alpha, beta, k)
    count_next = minor_det(s, alpha, beta, k + 1)
    seqs = comb(n, len(beta) - len(alpha))
    kmin = min_k(alpha, beta)
    shape = lambda kk: "{}/{}".format(*map(_fmt, skew_shape(alpha, beta, kk)))  # noqa: E731
    want = [
        f"spec: alpha={_fmt(alpha)} beta={_fmt(beta)} n={n}",
        f"min_k: {kmin}",
        f"k: {k}",
        f"shape: {shape(k)} -> {shape(k + 1)}",
        "minor-vs-schur: ok",
        f"insertion-step: ok ({count_k} tableaux, {seqs} sequences, "
        f"{count_next} next-shape tableaux)",
    ]
    got = out.splitlines()
    if got != want:
        diff = next((f"{g!r} != {w!r}" for g, w in zip(got, want) if g != w), "length")
        return f"check-identity output differs: {diff}"
    return None


def check_schur(out: str, outer, inner, n: int, x) -> str | None:
    """Both printed polynomials at x against an exact dual Jacobi-Trudi det."""
    f = fields(out)
    if f.get("equal") != "true" or set(f) != {"tableaux", "jacobi-trudi", "equal"}:
        return f"schur output lines {sorted(f)} / equal={f.get('equal')}"
    want = dual_jacobi_trudi(outer, inner, x)
    for engine in ("tableaux", "jacobi-trudi"):
        got = eval_poly_text(f[engine], x)
        if got != want:
            return f"{engine} polynomial gives {got} at {x}, exact {want}"
    return None


VALUE_TOL = 1e-7


def check_widom(out: str, s, c: int, k: int) -> str | None:
    """All four printed values against the exact Fraction minor determinant."""
    f = fields(out)
    exact = minor_det(s, (), tuple(range(1, c + 1)), k)
    for name in ("widom-original", "widom-modified", "hall-schur", "minor-det"):
        if name not in f:
            return f"missing {name}"
        if not _close(parse_complex(f[name]), exact, VALUE_TOL):
            return f"{name} {f[name]} vs exact {float(exact):.12g}"
    return None


def check_minor_det(out: str, s, alpha, beta, k: int, x=None) -> str | None:
    """Numeric values against the exact determinant; with x, the polynomial too."""
    f = fields(out)
    exact = minor_det(s, alpha, beta, k)
    if x is None:
        if set(f) != {"det"}:
            return f"minor-det lines {sorted(f)}"
        names = ("det",)
    else:
        if set(f) != {"det-symbolic", "det-numeric", "det-evaluated", "rel-diff"}:
            return f"minor-det lines {sorted(f)}"
        want = minor_det(elementary_values(x), alpha, beta, k)
        if eval_poly_text(f["det-symbolic"], x) != want:
            return f"det-symbolic at {x} is not the exact {want}"
        if not float(f["rel-diff"]) <= 1e-8:
            return f"rel-diff {f['rel-diff']}"
        names = ("det-numeric", "det-evaluated")
    for name in names:
        if not _close(parse_complex(f[name]), exact, VALUE_TOL):
            return f"{name} {f[name]} vs exact {float(exact):.12g}"
    return None


def check_tridiagonal_eigs(out: str, s1: float, s2: float, k: int) -> str | None:
    """Eigenvalues of the c=1 section of 1 + s1 z + s2 z^2 in closed form.

    The section is tridiagonal Toeplitz with diagonal s1, superdiagonal s2
    and subdiagonal 1, so its eigenvalues are s1 + 2 sqrt(s2) cos(j pi/(k+1)).
    """
    lines = out.splitlines()
    if lines[0] != "re,im" or len(lines) != k + 1:
        return f"eigs csv has {len(lines)} lines for k = {k}"
    got = np.array([complex(*map(float, ln.split(","))) for ln in lines[1:]])
    want = np.sort([s1 + 2 * sqrt(s2) * cos(j * pi / (k + 1)) for j in range(1, k + 1)])
    tol = 1e-8 * max(1.0, abs(s1) + 2 * sqrt(s2))
    err = max(np.max(np.abs(got.imag)), np.max(np.abs(np.sort(got.real) - want)))
    if err > tol:
        return f"eigenvalues off the closed form by {err:.3g}"
    return None


# -- limit-set scans -------------------------------------------------------------

GAP_TOL = 1e-4  # root moduli near double roots carry about sqrt(1e-10) error


def grid_values(grid) -> np.ndarray:
    re_min, re_max, im_min, im_max, nx, ny = grid
    re_v = np.linspace(re_min, re_max, nx)
    im_v = np.linspace(im_min, im_max, ny)
    return (np.tile(re_v, ny) + 1j * np.repeat(im_v, nx)).astype(np.complex128)


def modulus_gaps(coeffs, c: int, v: np.ndarray) -> np.ndarray:
    """Relative gap between the c-th and (c+1)-th root moduli at each v.

    Roots of sum_i coeffs[i] z^i - v z^c as eigenvalues of companion
    matrices, batched over v (numpy.roots does the same per polynomial).
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    n = len(coeffs) - 1
    comp = np.zeros((len(v), n, n), dtype=np.complex128)
    comp[:, 1:, :-1] = np.eye(n - 1)
    lower = np.tile(coeffs[:-1], (len(v), 1))
    lower[:, c] -= v
    comp[:, :, -1] = -lower / coeffs[-1]
    moduli = np.sort(np.abs(np.linalg.eigvals(comp)), axis=1)
    return (moduli[:, c] - moduli[:, c - 1]) / moduli[:, c]


def parse_hits(out: str) -> list[tuple[float, float, float]]:
    lines = out.splitlines()
    if not lines or lines[0] != "re_v,im_v,gap":
        raise ValueError("limitset csv header missing")
    return [tuple(map(float, ln.split(","))) for ln in lines[1:]]


def check_limitset(out: str, err: str, coeffs, c: int, grid, tol: float,
                   segment: bool = False) -> str | None:
    """Hits are exactly the grid points whose recomputed gap is <= tol."""
    if err:
        return f"stderr: {err.strip()[:120]}"
    hits = parse_hits(out)
    v = grid_values(grid)
    gaps = modulus_gaps(coeffs, c, v)
    re_min, re_max, im_min, im_max, nx, ny = grid
    step_x = (re_max - re_min) / max(nx - 1, 1)
    step_y = (im_max - im_min) / max(ny - 1, 1)
    seen = set()
    for re_v, im_v, gap in hits:
        ix = round((re_v - re_min) / step_x) if step_x else 0
        iy = round((im_v - im_min) / step_y) if step_y else 0
        i = iy * nx + ix
        if not (0 <= ix < nx and 0 <= iy < ny) or abs(v[i] - complex(re_v, im_v)) > 1e-9 * (
                1 + abs(v[i])):
            return f"hit {re_v},{im_v} is not a grid point"
        if abs(gap - gaps[i]) > GAP_TOL or gaps[i] > tol + GAP_TOL:
            return f"hit {re_v},{im_v} gap {gap} vs recomputed {gaps[i]:.6g}"
        seen.add(i)
    missed = [i for i in np.flatnonzero(gaps <= tol - GAP_TOL) if i not in seen]
    if missed:
        return f"{len(missed)} grid points with gap below tol are missing"
    if segment:
        pitch = max((grid[1] - grid[0]) / max(grid[4] - 1, 1),
                    (grid[3] - grid[2]) / max(grid[5] - 1, 1))
        off = [h for h in hits if abs(h[1]) > pitch or abs(h[0]) > 2 + pitch]
        if off or not hits:
            return f"{len(off)} of {len(hits)} hits off the segment [-2, 2]"
    return None


def check_compare(out: str, coeffs, c: int, k: int, grid, tol: float) -> str | None:
    """Hit count and distances bracketed by the strict and loose hit sets."""
    f = fields(out)
    if f.get("k") != str(k):
        return f"compare k line {f.get('k')}"
    v = grid_values(grid)
    gaps = modulus_gaps(coeffs, c, v)
    strict, loose = v[gaps <= tol - GAP_TOL], v[gaps <= tol + GAP_TOL]
    hits = int(f["hits"])
    if not len(strict) <= hits <= len(loose) or not len(strict):
        return f"hits {hits} outside [{len(strict)}, {len(loose)}]"
    section = minor_matrix(list(coeffs), (), tuple(range(1, c + 1)), k)
    eigs = np.linalg.eigvals(np.array(section, dtype=np.complex128))

    def stats(pts):
        d = np.min(np.abs(eigs[:, None] - pts[None, :]), axis=1)
        return float(np.median(d)), float(np.max(d))

    (med_s, max_s), (med_l, max_l) = stats(strict), stats(loose)
    med, mx = float(f["median-distance"]), float(f["max-distance"])
    slack = 1e-7
    if not med_l - slack <= med <= med_s + slack:
        return f"median-distance {med} outside [{med_l:.9g}, {med_s:.9g}]"
    if not max_l - slack <= mx <= max_s + slack:
        return f"max-distance {mx} outside [{max_l:.9g}, {max_s:.9g}]"
    return None
