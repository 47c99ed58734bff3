"""Closed-form evaluation of minor determinants from symbol roots.

Two equivalent forms of Widom's determinant formula for the contiguous
minor (first c columns deleted), plus the Hall-type evaluation of an
arbitrary Schur polynomial at pairwise distinct points; the root-product
form is that evaluation on the rectangle (k^c).  All three are
rational expressions in the roots, so distinctness is a hard hypothesis:
near-coincident root sets are rejected, not regularized (the exact
Jacobi-Trudi path covers confluent inputs).  A power beyond double range
comes back inf or nan, as in MultiPoly.evaluate, instead of raising.
"""

from __future__ import annotations

from itertools import combinations

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
    """Root-product form: the rectangular Schur value s_{(k^c)}(x).

    chi_roots are the roots x_i of the reversed symbol polynomial
    t^n + s_1 t^(n-1) + ... + s_n (so s_d = e_d(x)); each c-subset tau
    contributes prod_{i in tau} x_i^k * prod_{i in tau, j not in tau}
    x_i / (x_i - x_j), which is hall_schur_eval on the rectangle.
    """
    n = len(chi_roots)
    if not 0 <= c <= n:
        raise ValueError(f"c must be in 0..{n}, got {c}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return hall_schur_eval((k,) * c, chi_roots)


def _arrangements(padded: tuple[int, ...]) -> list:
    """Distinct rearrangements of a weakly decreasing tuple.

    The positions of the largest value are chosen with combinations, and
    the rearrangements of the rest fill the other positions, so a
    rectangle (k^c, 0^m) comes in the order of combinations(range(n), c).
    """
    n = len(padded)
    count = padded.count(padded[0]) if padded else 0
    if count == n:
        return [padded]
    tails = _arrangements(padded[count:])
    found = []
    for chosen in combinations(range(n), count):
        free = [i for i in range(n) if i not in chosen]
        for tail in tails:
            arrangement = [padded[0]] * n
            for i, value in zip(free, tail):
                arrangement[i] = value
            found.append(arrangement)
    return found


def hall_schur_eval(parts, points) -> complex:
    """Schur polynomial value at distinct points, no tableaux involved.

    Sums over the distinct rearrangements a of the partition (padded with
    zeros to the number of points): each contributes
    prod x_i^(a_i) * prod_{a_i > a_j} x_i / (x_i - x_j).
    """
    x = check_separated(points, "evaluation points")
    n = len(x)
    parts = tuple(int(p) for p in parts)
    if any(a < b for a, b in zip(parts, parts[1:])) or (parts and parts[-1] < 0):
        raise ValueError(f"not a partition: {parts}")
    if len(parts) > n:
        if any(p != 0 for p in parts[n:]):
            raise ValueError(f"partition {parts} longer than point count {n}")
        parts = parts[:n]
    padded = parts + (0,) * (n - len(parts))
    total = 0j
    for arrangement in _arrangements(padded):
        term = 1 + 0j
        for i, a in enumerate(arrangement):
            if a:
                xi = x[i]
                term *= _power(xi, a)
                for j, b in enumerate(arrangement):
                    if a > b:
                        term *= xi / (xi - x[j])
        total += term
    return total
