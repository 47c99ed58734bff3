"""Exact multivariate polynomials over the integers.

Sparse representation: a mapping from exponent tuples to nonzero integer
coefficients.  Coefficients are Python ints, so no overflow and no rounding
ever happens inside the ring; floating point only enters through
:meth:`MultiPoly.evaluate`.  Instances are immutable and the term order is
canonical (graded lexicographic, highest total degree first), which makes
printed and serialized forms deterministic.

A MultiPoly in n variables is read either in x_1..x_n or in the elementary
basis, where variable d stands for y_d = e_d(x_1..x_n).  The e_d are
algebraically independent, so a polynomial in y is zero exactly when its
expansion in x is.  expand_elementary maps the y-form to x (for printing).
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable, Iterator, Mapping

Monomial = tuple[int, ...]


class MultiPoly:
    """Polynomial in ``nvars`` variables x1..xn with integer coefficients."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, int] | None = None):
        if nvars < 1:
            raise ValueError(f"nvars must be >= 1, got {nvars}")
        clean: dict[Monomial, int] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise ValueError(
                        f"monomial {exps} has {len(exps)} exponents, expected {nvars}"
                    )
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in monomial {exps}")
                if not isinstance(coeff, int):
                    raise TypeError(f"coefficient {coeff!r} is not an int")
                if coeff != 0:
                    clean[exps] = clean.get(exps, 0) + coeff
                    if clean[exps] == 0:
                        del clean[exps]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "MultiPoly":
        return cls.constant(nvars, 1)

    @classmethod
    def constant(cls, nvars: int, value: int) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: value} if value else {})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        """The variable x_{index}, 1-based."""
        if not 1 <= index <= nvars:
            raise ValueError(f"variable index {index} out of range 1..{nvars}")
        exps = tuple(1 if i == index - 1 else 0 for i in range(nvars))
        return cls(nvars, {exps: 1})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> list[tuple[Monomial, int]]:
        """Terms in canonical order: total degree descending, then lex descending."""
        return sorted(
            self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True
        )

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[Monomial, int]]:
        return iter(self.terms())

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self == MultiPoly.constant(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self._terms.items())))

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            other = MultiPoly.constant(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compatible(other)
        merged = dict(self._terms)
        for exps, coeff in other._terms.items():
            s = merged.get(exps, 0) + coeff
            if s:
                merged[exps] = s
            else:
                merged.pop(exps, None)
        return _raw(self.nvars, merged)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _raw(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            other = MultiPoly.constant(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            if other == 0:
                return MultiPoly.zero(self.nvars)
            return _raw(self.nvars, {e: c * other for e, c in self._terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compatible(other)
        small, big = (self, other) if len(self) <= len(other) else (other, self)
        out: dict[Monomial, int] = {}
        _addmul(out, small, big._terms, 1)
        return _raw(self.nvars, out)

    __rmul__ = __mul__

    # -- evaluation and rendering ------------------------------------------

    def evaluate(self, point: Iterable[complex]) -> complex:
        """Evaluate at a complex point, summing terms in canonical order.

        Powers are repeated products, so a value beyond double range comes
        back inf or nan instead of raising OverflowError.
        """
        pt = tuple(complex(v) for v in point)
        if len(pt) != self.nvars:
            raise ValueError(f"point has {len(pt)} coordinates, expected {self.nvars}")
        total = 0j
        for exps, coeff in self.terms():
            mono = complex(coeff)
            for base, e in zip(pt, exps):
                for _ in range(e):
                    mono *= base
            total += mono
        return total

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for exps, coeff in self.terms():
            body = "*".join(
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                for i, e in enumerate(exps)
                if e
            )
            mag = abs(coeff)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if not pieces:
                pieces.append(("-" if coeff < 0 else "") + text)
            else:
                pieces.append(("- " if coeff < 0 else "+ ") + text)
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {self})"

    def to_json_obj(self) -> list[dict]:
        """JSON-ready list of terms, canonical order, coefficients as strings."""
        return [
            {"coeff": str(coeff), "exps": list(exps)} for exps, coeff in self.terms()
        ]


def _addmul(
    out: dict[Monomial, int], a: MultiPoly, b: Mapping[Monomial, int], scale: int
) -> None:
    """Add scale * a * b into the term dict out; cancelled terms are dropped.

    The only place two polynomials' monomials are multiplied (the
    partition weights of _times_elementary are the one other place
    exponents are added).  a's terms form the outer loop, so a should be
    the factor with fewer terms; b is a term dict of the same variable
    count, and scale must be nonzero.
    """
    add = operator.add
    get = out.get
    for ea, ca in a._terms.items():
        step = scale * ca
        for eb, cb in b.items():
            key = tuple(map(add, ea, eb))
            s = get(key, 0) + step * cb
            if s:
                out[key] = s
            else:
                del out[key]


def _raw(nvars: int, terms: dict[Monomial, int]) -> MultiPoly:
    """Internal constructor skipping validation; terms must already be clean."""
    p = object.__new__(MultiPoly)
    object.__setattr__(p, "nvars", nvars)
    object.__setattr__(p, "_terms", terms)
    return p


@lru_cache(maxsize=None)
def elementary_symmetric(degree: int, nvars: int) -> MultiPoly:
    """e_degree(x1..xn): sum of all squarefree monomials of the given degree.

    e_0 = 1; e_d = 0 for d < 0 or d > nvars.
    """
    if degree < 0 or degree > nvars:
        return MultiPoly.zero(nvars)
    if degree == 0:
        return MultiPoly.one(nvars)
    terms: dict[Monomial, int] = {}
    for combo in combinations(range(nvars), degree):
        exps = [0] * nvars
        for i in combo:
            exps[i] = 1
        terms[tuple(exps)] = 1
    return _raw(nvars, terms)


def elementary_variable(degree: int, nvars: int) -> MultiPoly:
    """e_degree in the elementary basis: the variable y_degree.

    e_0 = 1; e_d = 0 for d < 0 or d > nvars, as in elementary_symmetric.
    Every degree off 0..nvars gets the one shared zero, so the cache
    behind this holds nvars + 2 polynomials whatever degrees callers ask.
    """
    return _elementary_basis(nvars)[degree if 0 <= degree <= nvars else -1]


@lru_cache(maxsize=None)
def _elementary_basis(nvars: int) -> tuple[MultiPoly, ...]:
    """(1, y_1, ..., y_nvars, 0) in nvars variables."""
    ys = [MultiPoly.variable(nvars, d) for d in range(1, nvars + 1)]
    return (MultiPoly.one(nvars), *ys, MultiPoly.zero(nvars))


def expand_elementary(p: MultiPoly) -> MultiPoly:
    """Substitute y_d = e_d(x_1..x_n) into p(y_1..y_n); n = p.nvars.

    Every partial result is symmetric, so each is held as one weight per
    partition (see _times_elementary) and each partition is spread over its
    distinct permutations only at the end.  Products are shared by Horner's
    rule in y_n, and inside each of its coefficients in y_{n-1}, and so on
    down to y_1.
    """
    n = p.nvars
    out: dict[Monomial, int] = {}
    for lam, weight in _horner_elementary(p._terms, n, n).items():
        orbit = set(permutations(lam))
        coeff = weight // len(orbit)
        if coeff:
            out.update(dict.fromkeys(orbit, coeff))
    return _raw(n, out)


def _horner_elementary(
    terms: Mapping[Monomial, int], d: int, n: int
) -> dict[Monomial, int]:
    """Partition weights of terms, whose y_{d+1}..y_n exponents are all 0."""
    if d == 0:
        return dict(terms)
    groups: dict[int, dict[Monomial, int]] = {}
    for exps, coeff in terms.items():
        groups.setdefault(exps[d - 1], {})[
            exps[: d - 1] + (0,) * (n - d + 1)
        ] = coeff
    top = max(groups, default=0)
    acc = _horner_elementary(groups.get(top, {}), d - 1, n)
    for power in range(top - 1, -1, -1):
        acc = _times_elementary(acc, d, n)
        if power in groups:
            for lam, weight in _horner_elementary(groups[power], d - 1, n).items():
                acc[lam] = acc.get(lam, 0) + weight
    return acc


def _times_elementary(f: dict[Monomial, int], d: int, n: int) -> dict[Monomial, int]:
    """f * e_d for a symmetric f held as partition weights.

    The weight of a partition lam is its coefficient times the number of
    distinct permutations of lam, which is the sum of the coefficients of
    every monomial sorting to lam.  A monomial x^a times a monomial x^v of
    e_d sorts to sort(a + v), so by symmetry the product's weights are the
    sums of f[mu] over mu and v with sort(mu + v) = nu: one sort per pair,
    and no monomial outside the partitions is ever formed.  Weights may be
    zero; expand_elementary drops those.
    """
    out: dict[Monomial, int] = {}
    get = out.get
    add = operator.add
    vectors = _unit_vectors(d, n)
    for mu, weight in f.items():
        if weight:
            for v in vectors:
                nu = tuple(sorted(map(add, mu, v), reverse=True))
                out[nu] = get(nu, 0) + weight
    return out


@lru_cache(maxsize=None)
def _unit_vectors(d: int, n: int) -> tuple[Monomial, ...]:
    """The exponent vectors of the monomials of e_d(x_1..x_n)."""
    return tuple(elementary_symmetric(d, n)._terms)

