"""MultiPoly as it was before its monomials were packed into int keys.

The tuple-keyed term dict of the earlier MultiPoly, kept here as the
reference the packed one in bandschur.polyring must match: the
constructor, +, -, *, terms(), __str__ and to_json_obj, with _addmul,
_factor and _raw, are copied word for word.  Terms are keyed by exponent
tuples, a monomial product is an elementwise tuple sum, and the canonical
order is a sort on (total degree, exponents).
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Mapping

Monomial = tuple[int, ...]

FACTOR_CACHE_SIZE = 1024  # (variable, exponent) pairs whose text __str__ keeps


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

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "MultiPoly":
        return cls.constant(nvars, 1)

    @classmethod
    def constant(cls, nvars: int, value: int) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: value} if value else {})

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

