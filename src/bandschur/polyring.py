"""Exact multivariate polynomials over the integers.

Sparse representation: a mapping from exponent tuples to nonzero integer
coefficients.  Coefficients are Python ints, so no overflow and no rounding
ever happens inside the ring; floating point only enters through
:meth:`MultiPoly.evaluate`.  Instances are immutable and the term order is
canonical (graded lexicographic, highest total degree first), which makes
printed and serialized forms deterministic.

All monomial products go through one multiply-accumulate, _addmul, which
adds a product into a term dict; MultiPoly.__mul__, sum_of_products (a sum
of products in one dict, with no product or partial sum built on its own)
and the determinant sweep in schur call it.

A MultiPoly in n variables is read either in x_1..x_n or in the elementary
basis, where variable d stands for y_d = e_d(x_1..x_n).  The e_d are
algebraically independent, so a polynomial in y is zero exactly when its
expansion in x is.  expand_elementary maps the y-form to x (for printing),
multiplying by e_d with the Pieri rule on monomial symmetric functions
(Macdonald, Symmetric Functions and Hall Polynomials, 2nd ed., I.6) read
from a bounded memo.  The printed text of each factor x_i^e is cached too,
also bounded.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable, Iterator, Mapping

Monomial = tuple[int, ...]

FACTOR_CACHE_SIZE = 1024  # (variable, exponent) pairs whose text __str__ keeps
PIERI_CACHE_SIZE = 4096  # (partition, d, n) steps whose products are kept
BASIS_CACHE_SIZE = 32  # variable counts whose elementary basis is kept


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
        return [(exps, coeff) for _, exps, coeff in self._ranked()]

    def _ranked(self) -> list[tuple[int, Monomial, int]]:
        """(total degree, exps, coeff) per term, in canonical order.

        Decorated tuples sort without a key call per term, and two terms
        never share a monomial, so coefficients are never compared.
        """
        return sorted(
            [(sum(exps), exps, coeff) for exps, coeff in self._terms.items()],
            reverse=True,
        )

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[Monomial, int]]:
        return iter(self.terms())

    def __eq__(self, other) -> bool:
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
        for _, exps, coeff in self._ranked():
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
        for _, exps, coeff in self._ranked():
            body = "*".join([_factor(i, e) for i, e in enumerate(exps) if e])
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
            {"coeff": str(coeff), "exps": list(exps)}
            for _, exps, coeff in self._ranked()
        ]


def _addmul(
    out: dict[Monomial, int], a: MultiPoly, b: Mapping[Monomial, int], scale: int
) -> None:
    """Add scale * a * b into the term dict out; cancelled terms are dropped.

    The only place two polynomials' monomials are multiplied (the Pieri
    memo _pieri_step, which adds e_d's exponent vectors to a partition, is
    the one other place exponents are added).  a's terms form the outer
    loop, so a should be the factor with fewer terms; b is a term dict of
    the same variable count, and scale must be nonzero.
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


def sum_of_products(
    pairs: Iterable[tuple[MultiPoly, MultiPoly]], nvars: int
) -> MultiPoly:
    """The sum of a * b over pairs of polynomials in nvars variables.

    Every product is added into one term dict by _addmul, with the smaller
    factor outside, so no product is built as a polynomial of its own and
    no partial sum is copied.  That dict keeps the slots of cancelled
    terms, so the result holds a compact copy of it.
    """
    acc: dict[Monomial, int] = {}
    for a, b in pairs:
        if a.nvars != nvars or b.nvars != nvars:
            raise ValueError(f"variable count mismatch: expected {nvars}")
        small, big = (a, b) if len(a) <= len(b) else (b, a)
        _addmul(acc, small, big._terms, 1)
    return _raw(nvars, dict(acc))


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _factor(i: int, e: int) -> str:
    """x_{i+1}^e as __str__ prints it; one entry per (variable, exponent)."""
    return f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"


def _raw(nvars: int, terms: dict[Monomial, int]) -> MultiPoly:
    """Internal constructor skipping validation; terms must already be clean."""
    p = object.__new__(MultiPoly)
    object.__setattr__(p, "nvars", nvars)
    object.__setattr__(p, "_terms", terms)
    return p


def elementary_symmetric(degree: int, nvars: int) -> MultiPoly:
    """e_degree(x1..xn): sum of all squarefree monomials of the given degree.

    e_0 = 1; e_d = 0 for d < 0 or d > nvars.  Built on each call: the one
    caller that repeats a degree, _pieri_step, is memoised itself.
    """
    if degree == 0:
        return MultiPoly.one(nvars)
    if not 0 < degree <= nvars:
        return MultiPoly.zero(nvars)
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


@lru_cache(maxsize=BASIS_CACHE_SIZE)
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
    down to y_1.  Each multiplication by e_d reads the memoised Pieri step
    of every partition it meets, so a partition that recurs across Horner
    steps or across calls is walked once.
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
    e_d sorts to sort(a + v), so by symmetry the product's weights are
    sum over mu of f[mu] times the number of v with sort(mu + v) = nu: the
    Pieri rule for e_d on monomial symmetric functions, read from the
    memoised _pieri_step, and no monomial outside the partitions is ever
    formed.  Weights may be zero; expand_elementary drops those.
    """
    out: dict[Monomial, int] = {}
    get = out.get
    for mu, weight in f.items():
        if weight:
            for nu, count in _pieri_step(mu, d, n):
                out[nu] = get(nu, 0) + weight * count
    return out


@lru_cache(maxsize=PIERI_CACHE_SIZE)
def _pieri_step(mu: Monomial, d: int, n: int) -> tuple[tuple[Monomial, int], ...]:
    """The pairs (nu, number of v with sort(mu + v) = nu), v over e_d's monomials.

    mu is a partition padded to n parts.  A partition that recurs across
    Horner steps and across polynomials costs one walk over these few
    pairs instead of C(n, d) sorts; the one other place exponents are added
    besides _addmul.
    """
    add = operator.add
    counts: dict[Monomial, int] = {}
    for v in elementary_symmetric(d, n)._terms:
        nu = tuple(sorted(map(add, mu, v), reverse=True))
        counts[nu] = counts.get(nu, 0) + 1
    return tuple(counts.items())
