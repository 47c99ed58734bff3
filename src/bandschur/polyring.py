"""Exact multivariate polynomials over the integers.

Sparse representation: a mapping from exponent tuples to nonzero integer
coefficients.  Coefficients are Python ints, so no overflow and no rounding
ever happens inside the ring; floating point only enters through
:meth:`MultiPoly.evaluate`.  Instances are immutable and the term order is
canonical (graded lexicographic, highest total degree first), which makes
printed and serialized forms deterministic.
"""

from __future__ import annotations

import operator
from functools import lru_cache
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
        """Evaluate at a complex point, summing terms in canonical order."""
        pt = tuple(complex(v) for v in point)
        if len(pt) != self.nvars:
            raise ValueError(f"point has {len(pt)} coordinates, expected {self.nvars}")
        total = 0j
        for exps, coeff in self.terms():
            mono = complex(coeff)
            for base, e in zip(pt, exps):
                if e:
                    mono *= base**e
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

    @classmethod
    def from_json_obj(cls, nvars: int, obj: list[dict]) -> "MultiPoly":
        return cls(nvars, {tuple(t["exps"]): int(t["coeff"]) for t in obj})


def _addmul(
    out: dict[Monomial, int], a: MultiPoly, b: Mapping[Monomial, int], scale: int
) -> None:
    """Add scale * a * b into the term dict out; cancelled terms are dropped.

    The only place monomials are multiplied.  a's terms form the outer
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
    from itertools import combinations

    terms: dict[Monomial, int] = {}
    for combo in combinations(range(nvars), degree):
        exps = [0] * nvars
        for i in combo:
            exps[i] = 1
        terms[tuple(exps)] = 1
    return _raw(nvars, terms)
