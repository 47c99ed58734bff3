"""Seeded command lists for the four workloads.

A workload is a fixed number of rounds: ROUNDS_PER_SECOND times the run's
--seconds, whatever the program's speed, so every run of the same
command line executes the same number of commands of the same make-up.
The rates are sized from reference runs so that a run spends about
--seconds of host-normalised time in commands today; recurrence spends
about 1.6 times that, because its median and tail need about 500
commands to repeat from seed to seed.  Every round has the
same make-up (so many commands of each class); only the inputs change
with the seed and the round.  Inputs never repeat within a run, so no
command is answered from an earlier command's cache; the one exception
is the failing eigs commands of `pointwise`, which cycle through a fixed
list that does not depend on the seed (eigs keeps no cache).

The exact workloads draw their specs from finite pools.  Each pool is
sorted by a cost key (the number of semistandard tableaux the command
touches, s_shape(1^n), summed over the sizes it computes) and drawn in a
golden-ratio order without replacement, so the draw covers cheap and
costly specs in the same proportion whatever the seed.  A run that needs
more specs than a pool holds is refused before its first command.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from math import comb
from typing import Callable, Iterator

import numpy as np

import checks

GOLDEN = (5 ** 0.5 - 1) / 2
# rounds per second of --seconds: 36, 45, 36 and 384 rounds in a 12 s run
ROUNDS_PER_SECOND = {"recurrence": 3.0, "identity": 3.75, "limitset": 3.0,
                     "pointwise": 32.0}


def round_count(name: str, seconds: float) -> int:
    return max(1, round(ROUNDS_PER_SECOND[name] * seconds))


@dataclass
class Command:
    """One CLI call and the checker for its (stdout, stderr)."""

    kind: str
    argv: list[str]
    check: Callable[[str, str], str | None]
    known_fault: bool = False


def spread(items: list, rng: random.Random) -> Iterator:
    """Yield each item once; any prefix samples the list's order evenly."""
    free = list(items)
    u = rng.random()
    while free:
        yield free.pop(int(u * len(free)))
        u = (u + GOLDEN) % 1.0


def _csv(seq) -> str:
    return ",".join(str(v) for v in seq)


def minor_specs(n: int, extra: int, max_shift: int):
    """All (alpha, beta) with c - r = extra, c <= n, indices <= c + max_shift."""
    out = []
    for c in range(max(extra, 1), n + 1):
        r = c - extra
        for beta in combinations(range(1, c + max_shift + 1), c):
            for alpha in combinations(range(1, c + max_shift + 2), r):
                if all(a >= b for a, b in zip(alpha, beta)):
                    out.append((alpha, beta))
    return out


def tableau_count(n: int, alpha, beta, k: int) -> float:
    """|det| of the minor at s_d = C(n, d): the SSYT count for k >= min_k."""
    if k == 0:
        return 1.0
    s = [comb(n, d) for d in range(n + 1)]
    return abs(float(np.linalg.det(np.array(checks.minor_matrix(s, alpha, beta, k), float))))


def _capped(items, key, max_key) -> list:
    """The items whose cost key is at most max_key, cheapest first.

    Leaving out costlier items caps the cost of a single command.
    """
    keyed = sorted((key(it), it) for it in items)
    return [it for k, it in keyed if k <= max_key]


def _draw(pool: list, count: int, rng: random.Random, what) -> list:
    """count distinct items of the pool, spread over its cost order."""
    if count > len(pool):
        raise ValueError(f"{what}: a run needs {count} specs but the pool holds "
                         f"{len(pool)}; use a smaller --seconds")
    return list(islice(spread(pool, rng), count))


def _fresh(make: Callable[[], Command], used: set) -> Command:
    """A command from make() whose argv no earlier command of the run had."""
    while True:
        cmd = make()
        if tuple(cmd.argv) not in used:
            used.add(tuple(cmd.argv))
            return cmd


# -- recurrence ----------------------------------------------------------------

# (band, c - r) -> commands per round, for each of jmax = min_k + 1, + 2
RECURRENCE_MIX = {(3, 1): 3, (3, 2): 1, (4, 1): 2, (4, 2): 1}
RECURRENCE_MAX_SHIFT = 3
RECURRENCE_MAX_KEY = 10000  # at most about 0.2 s per command


def _recurrence_key(n, d, offset, spec):
    alpha, beta = spec
    top = comb(n, d) + checks.min_k(alpha, beta) + offset
    return sum(tableau_count(n, alpha, beta, k) for k in range(top + 1))


def recurrence_rounds(rng: random.Random, rounds: int) -> Iterator[list[Command]]:
    drawn = {}
    for (n, d), count in RECURRENCE_MIX.items():
        # a spec is used with one jmax offset only, since the two would share
        # cached minors: the specs are sorted by cost and dealt out in turn
        specs = sorted(minor_specs(n, d, RECURRENCE_MAX_SHIFT),
                       key=lambda spec: (_recurrence_key(n, d, 1, spec), spec))
        start = rng.randrange(2)
        for i, offset in enumerate((1, 2)):
            pool = _capped(specs[(i + start) % 2::2],
                           lambda spec: _recurrence_key(n, d, offset, spec),
                           RECURRENCE_MAX_KEY)
            drawn[n, d, offset] = iter(_draw(pool, count * rounds, rng,
                                             f"recurrence band {n}, c - r = {d}"))
    for _ in range(rounds):
        batch = [_recurrence_command(rng, n, next(drawn[n, d, offset]), offset)
                 for (n, d), count in RECURRENCE_MIX.items()
                 for offset in (1, 2) for _ in range(count)]
        rng.shuffle(batch)
        yield batch


def _recurrence_command(rng, n, spec, offset) -> Command:
    alpha, beta = spec
    jmax = checks.min_k(alpha, beta) + offset
    x = rng.sample(range(2, 12), n)
    return Command(
        "recurrence",
        ["recurrence", "--alpha", _csv(alpha), "--beta", _csv(beta),
         "--nvars", str(n), "--jmax", str(jmax)],
        lambda out, err: checks.check_recurrence(out, alpha, beta, n, jmax, x),
    )


# -- identity ------------------------------------------------------------------

# check-identity (band, c - r) classes and schur nvars classes, per round
IDENTITY_MIX = {("check", 3, 1): 1, ("check", 3, 2): 1, ("check", 4, 1): 1,
                ("check", 4, 2): 1, ("schur", 3): 2, ("schur", 4): 2}
IDENTITY_MAX_SHIFT = 5
# k <= 6 keeps the minor and the Jacobi-Trudi matrix of check-identity at
# most 7 x 7, so tableaux, not symbolic determinants, carry the time
IDENTITY_MAX_K = 6
SCHUR_BOX = (4, 5)  # outer shapes fit in 4 rows x 5 columns
IDENTITY_MAX_KEY = 1500  # at most about 0.15 s per command


def skew_shapes(rows: int, cols: int):
    """(outer, inner) pairs inside a rows x cols box, inner strictly smaller."""
    def partitions(r, top):
        if r == 0:
            yield ()
            return
        for p in range(top, -1, -1):
            for rest in partitions(r - 1, p):
                yield (p,) + rest
    strip = lambda p: tuple(v for v in p if v)  # noqa: E731
    fulls = sorted({strip(p) for p in partitions(rows, cols)})
    out = []
    for outer in fulls:
        for inner in fulls:
            if len(inner) <= len(outer) and all(
                a <= b for a, b in zip(inner, outer)
            ) and sum(inner) < sum(outer) - 2:
                out.append((outer, inner))
    return out


def _identity_items(cls):
    if cls[0] == "check":
        return minor_specs(cls[1], cls[2], IDENTITY_MAX_SHIFT)
    return skew_shapes(*SCHUR_BOX)


def _identity_key(cls, sub, item):
    if cls[0] == "check":
        n, d = cls[1], cls[2]
        alpha, beta = item
        k = checks.min_k(alpha, beta) + sub
        if k > IDENTITY_MAX_K:
            return float("inf")
        return (tableau_count(n, alpha, beta, k) * comb(n, d)
                + tableau_count(n, alpha, beta, k + 1))
    return checks.dual_jacobi_trudi(*item, [1] * cls[1])


def identity_rounds(rng: random.Random, rounds: int) -> Iterator[list[Command]]:
    # check-identity at k and at k + 1 share no cached minor, so a spec may
    # appear once per k offset
    subs = {cls: ((0, 1, 2) if cls[0] == "check" else (0,)) for cls in IDENTITY_MIX}
    drawn = {}
    for cls, count in IDENTITY_MIX.items():
        items = _identity_items(cls)
        for sub in subs[cls]:
            pool = _capped(items, lambda item: _identity_key(cls, sub, item),
                           IDENTITY_MAX_KEY)
            drawn[cls, sub] = iter(_draw(pool, count * rounds, rng, f"identity {cls}"))
    for _ in range(rounds):
        batch = [_identity_command(rng, cls, sub, next(drawn[cls, sub]))
                 for cls, count in IDENTITY_MIX.items()
                 for sub in subs[cls] for _ in range(count)]
        rng.shuffle(batch)
        yield batch


def _identity_command(rng, cls, sub, item) -> Command:
    if cls[0] == "check":
        n = cls[1]
        alpha, beta = item
        k = checks.min_k(alpha, beta) + sub
        return Command(
            "check-identity",
            ["check-identity", "--alpha", _csv(alpha), "--beta", _csv(beta),
             "--nvars", str(n), "--k", str(k)],
            lambda out, err: checks.check_identity(out, alpha, beta, n, k),
        )
    n = cls[1]
    outer, inner = item
    x = rng.sample(range(-5, 8), n)
    return Command(
        "schur",
        ["schur", "--outer", _csv(outer), "--inner", _csv(inner),
         "--nvars", str(n), "--method", "both"],
        lambda out, err: checks.check_schur(out, outer, inner, n, x),
    )


# -- pointwise -----------------------------------------------------------------

# Roots x of the reversed symbol (s_d = e_d(x)): multiples of 1/16 with
# 0.25 <= |x| <= 1.2, at least 0.625 apart, so the closed forms stay well
# inside the CLI's own 1e-8 agreement check
ROOT_SEPARATION = 0.625
FAULT_SYMBOL = "1,0.5,0.01"  # ROADMAP direction 5: eigvals of a non-normal section
FAULT_K = range(20, 81)
POINTWISE_MIX = ("widom", "widom", "minor-det", "minor-det", "minor-det-dual",
                 "minor-det-dual", "eigs", "eigs")


def _sixteenths(rng, lo: float, hi: float) -> float:
    return rng.randint(round(lo * 16), round(hi * 16)) / 16


def _dyadic_symbol(rng, n: int) -> list[Fraction]:
    """s_0..s_n with s_d = e_d(x) for well separated dyadic points x."""
    while True:
        x = []
        for _ in range(rng.randint(0, n // 2)):
            a, b = _sixteenths(rng, -0.6, 0.6), _sixteenths(rng, 0.4, 1.0)
            x += [complex(a, b), complex(a, -b)]
        while len(x) < n:
            x.append(complex(rng.choice((-1, 1)) * _sixteenths(rng, 0.25, 1.2)))
        if n == 1 or min(abs(p - q) for p, q in combinations(x, 2)) >= ROOT_SEPARATION:
            break
    # the points are multiples of 1/16, so the float arithmetic is exact and
    # e_d of a conjugate-closed set is a real dyadic number
    return [Fraction(v.real) for v in checks.elementary_values(x)]


def pointwise_rounds(rng: random.Random, rounds: int) -> Iterator[list[Command]]:
    used: set = set()
    for r in range(rounds):
        batch = [_fresh(lambda: _pointwise_command(rng, kind), used)
                 for kind in POINTWISE_MIX]
        k = FAULT_K[r % len(FAULT_K)]
        batch.append(Command(
            "eigs-fault",
            ["eigs", "--symbol", FAULT_SYMBOL, "--c", "1", "--k", str(k)],
            lambda out, err, k=k: checks.check_tridiagonal_eigs(out, 0.5, 0.01, k),
            known_fault=True,
        ))
        rng.shuffle(batch)
        yield batch


def _pointwise_command(rng, kind) -> Command:
    if kind == "eigs":
        s1 = round(rng.uniform(-1, 1), 4)
        s2 = round(rng.uniform(0.5, 2), 4)
        k = rng.randint(5, 40)
        return Command(
            kind, ["eigs", "--symbol", f"1,{s1!r},{s2!r}", "--c", "1", "--k", str(k)],
            lambda out, err: checks.check_tridiagonal_eigs(out, s1, s2, k),
        )
    # band 4 widom values sit within 2x of the CLI's 1e-8 check; keep it to minor-det
    n = rng.randint(2, 4) if kind == "minor-det" else rng.randint(1 + (kind == "widom"), 3)
    s = _dyadic_symbol(rng, n)
    text = _csv(repr(float(v)) for v in s)  # exact: the values are dyadic
    if kind == "widom":
        c = rng.randint(1, n)
        k = rng.randint(2, 6)
        return Command(
            kind, ["widom", "--symbol", text, "--c", str(c), "--k", str(k)],
            lambda out, err: checks.check_widom(out, s, c, k),
        )
    alpha, beta = rng.choice(minor_specs(n, rng.randint(0, min(n, 2)), 2))
    if kind == "minor-det":
        k = rng.randint(3, 12)
        return Command(
            kind, ["minor-det", "--symbol", text, "--alpha", _csv(alpha),
                   "--beta", _csv(beta), "--k", str(k)],
            lambda out, err: checks.check_minor_det(out, s, alpha, beta, k),
        )
    k = rng.randint(2, 5)
    x = rng.sample(range(-4, 6), n)
    return Command(
        "minor-det-dual",
        ["minor-det", "--symbol", text, "--nvars", str(n), "--alpha", _csv(alpha),
         "--beta", _csv(beta), "--k", str(k)],
        lambda out, err: checks.check_minor_det(out, s, alpha, beta, k, x),
    )


# -- limitset ------------------------------------------------------------------

# Grids shrink with the band so that every class costs about the same: then
# the median and the tail fall inside one blended distribution, not on the
# boundary between two classes.
LIMITSET_MIX = {"segment": (2, (81, 21)), "limitset-3": (3, (31, 31)),
                "limitset-4": (4, (24, 24)), "compare-2": (2, (61, 29)),
                "compare-4": (4, (23, 23))}
RANDOM_TOL = 0.05


def _random_symbol(rng, n: int) -> list[float]:
    s = [1.0] + [round(rng.uniform(-1, 1), 2) for _ in range(n - 1)]
    s.append(round(rng.choice((-1, 1)) * rng.uniform(0.3, 1), 2))
    return s


def _grid_text(grid) -> str:
    return _csv(f"{v:.6g}" if isinstance(v, float) else v for v in grid)


def _scan_input(rng, n: int, size: tuple[int, int]):
    """Symbol, c and a grid over the disk |v| <= sum |s_i| with enough hits."""
    while True:
        s = _random_symbol(rng, n)
        c = rng.randint(1, n - 1)
        b = round(sum(abs(v) for v in s), 3)
        grid = (-b, b, -b, b) + size
        grid = tuple(float(v) for v in _grid_text(grid).split(",")[:4]) + size
        gaps = checks.modulus_gaps(s, c, checks.grid_values(grid))
        if np.count_nonzero(gaps <= RANDOM_TOL - checks.GAP_TOL) >= 5:
            return s, c, grid


def limitset_rounds(rng: random.Random, rounds: int) -> Iterator[list[Command]]:
    used: set = set()
    for r in range(rounds):
        batch = [_fresh(lambda: _limitset_command(rng, kind, r), used)
                 for kind in LIMITSET_MIX]
        rng.shuffle(batch)
        yield batch


def _limitset_command(rng, kind, r) -> Command:
    if kind == "segment":
        # the limit set of 1 + z^2 with c = 1 is the segment [-2, 2]
        half = 3 + (2 * r + rng.randint(0, 1)) * 1e-4  # a new grid every round
        grid = (-half, half, -1.0, 1.0) + LIMITSET_MIX[kind][1]
        text = _grid_text(grid)
        grid = tuple(float(v) for v in text.split(",")[:4]) + grid[4:]
        return Command(
            kind, ["limitset", "--symbol", "1,0,1", "--c", "1", "--grid", text],
            lambda out, err: checks.check_limitset(
                out, err, [1, 0, 1], 1, grid, 1e-2, segment=True),
        )
    if kind.startswith("limitset"):
        s, c, grid = _scan_input(rng, *LIMITSET_MIX[kind])
        return Command(
            kind, ["limitset", "--symbol", _csv(s), "--c", str(c),
                   "--grid", _grid_text(grid), "--tol", str(RANDOM_TOL)],
            lambda out, err: checks.check_limitset(out, err, s, c, grid, RANDOM_TOL),
        )
    n, size = LIMITSET_MIX[kind]
    s, c, grid = _scan_input(rng, n, size)
    k = rng.randint(20, 40)
    return Command(
        kind, ["compare", "--symbol", _csv(s), "--c", str(c), "--k", str(k),
               "--grid", _grid_text(grid), "--tol", str(RANDOM_TOL)],
        lambda out, err: checks.check_compare(out, s, c, k, grid, RANDOM_TOL),
    )


WORKLOADS = {
    "recurrence": recurrence_rounds,
    "identity": identity_rounds,
    "pointwise": pointwise_rounds,
    "limitset": limitset_rounds,
}
