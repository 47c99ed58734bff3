"""Closed-form evaluation of minor determinants from symbol roots.

Three independent routes to the contiguous minor (first c columns
deleted): widom_original, the classical subset sum over the symbol roots
psi; widom_modified, Hall's subset sum over the points chi = -1/psi, whose
elementary symmetric polynomials are the band coefficients; and
hall_schur_eval, any Schur polynomial at distinct points as Jacobi's
bialternant by LU, here on the rectangle (k^c).  All three are rational
expressions in the roots, so distinctness is a hard hypothesis:
near-coincident root sets are rejected, not regularized (the exact
Jacobi-Trudi path covers confluent inputs).  A power beyond double range
comes back inf or nan, as in MultiPoly.evaluate, instead of raising."""

from __future__ import annotations

from itertools import combinations
from operator import index

from .toeplitz import det_numeric

SEPARATION = 1e-9


def _power(base: complex, e: int) -> complex:
    """base**e; where that overflows, the repeated product (inf or nan)."""
    try:
        return base**e
    except OverflowError:
        value = 1 + 0j
        for _ in range(e):
            value *= base
        return value


def check_separated(roots, label: str = "roots") -> tuple[complex, ...]:
    """Reject root multisets with a pair closer than 1e-9 relative."""
    roots = tuple(complex(v) for v in roots)
    scale = max((abs(v) for v in roots), default=0.0) or 1.0
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if abs(roots[i] - roots[j]) < SEPARATION * scale:
                raise ValueError(
                    f"{label} {i} and {j} coincide within {SEPARATION} relative"
                )
    return roots


def widom_original(psi_roots, s_n: complex, c: int, k: int) -> complex:
    """Classical form: sum over (n-c)-subsets of the symbol's roots.

    psi_roots are the n roots of the symbol polynomial 1 + s_1 t + ... +
    s_n t^n; each subset contributes C_sigma * w_sigma^k with
    w_sigma = (-1)^(n-c) s_n prod(roots in sigma) and C_sigma a cross-ratio
    of root differences.
    """
    roots = check_separated(psi_roots, "symbol roots")
    n = len(roots)
    if not 0 <= c <= n:
        raise ValueError(f"c must be in 0..{n}, got {c}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    sign = (-1) ** (n - c)
    total = 0j
    for sigma in combinations(range(n), n - c):
        inside = set(sigma)
        w = sign * complex(s_n)
        coeff = 1 + 0j
        for j in sigma:
            w *= roots[j]
            coeff *= _power(roots[j], c)
            for i in range(n):
                if i not in inside:
                    coeff /= roots[j] - roots[i]
        total += coeff * _power(w, k)
    return total


def widom_modified(chi_roots, c: int, k: int) -> complex:
    """Root-product form: sum over c-subsets of the points x_i = -1/psi_i.

    chi_roots are the x_i, the roots of t^n - s_1 t^(n-1) + ... +
    (-1)^n s_n (so s_d = e_d(x); the reversed symbol polynomial
    t^n + s_1 t^(n-1) + ... + s_n has the roots -x_i); each c-subset tau
    contributes prod_{i in tau} x_i^k * prod_{i in tau, j not in tau}
    x_i / (x_i - x_j).  The sum is the rectangular Schur value
    s_{(k^c)}(x); at k = 0 it is exactly 1.
    """
    n = len(chi_roots)
    if not 0 <= c <= n:
        raise ValueError(f"c must be in 0..{n}, got {c}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    x = check_separated(chi_roots, "evaluation points")
    if k == 0:
        return 1 + 0j
    total = 0j
    for tau in combinations(range(n), c):
        term = 1 + 0j
        for i in tau:
            xi = x[i]
            term *= _power(xi, k)
            for j in range(n):
                if j not in tau:
                    term *= xi / (xi - x[j])
        total += term
    return total


def hall_schur_eval(parts, points) -> complex:
    """Schur polynomial value at distinct points by Jacobi's bialternant.

    det[x_i^(lambda_j + n - j)] / prod_{i<j} (x_i - x_j), the partition
    padded with zeros to the n points and the determinant taken by LU.
    Parts must be integers: a float or a string raises TypeError.  The
    name stays from the Hall sum this replaced: it is public API, the
    perfbench layer trace (layers.TARGETS) wraps it, and perfbench's checks
    read the `hall-schur` line that widom prints from it.
    """
    x = check_separated(points, "evaluation points")
    n = len(x)
    parts = tuple(map(index, parts))
    if any(a < b for a, b in zip(parts, parts[1:])) or (parts and parts[-1] < 0):
        raise ValueError(f"not a partition: {parts}")
    if len(parts) > n:
        if any(p != 0 for p in parts[n:]):
            raise ValueError(f"partition {parts} longer than point count {n}")
        parts = parts[:n]
    if not n:
        return 1 + 0j
    padded = parts + (0,) * (n - len(parts))
    alternant = [[_power(xi, a + n - 1 - j) for j, a in enumerate(padded)] for xi in x]
    value = det_numeric(alternant)
    for i in range(n):
        for j in range(i + 1, n):
            value /= x[i] - x[j]
    return value
