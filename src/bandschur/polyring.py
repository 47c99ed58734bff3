"""Exact multivariate polynomials over the integers.

Sparse representation: a dict from packed monomial keys to nonzero integer
coefficients.  Coefficients are Python ints, so no overflow and no rounding
ever happens inside the ring; floating point only enters through
:meth:`MultiPoly.evaluate`.  Instances are immutable and the term order is
canonical (graded lexicographic, highest total degree first), which makes
printed and serialized forms deterministic.

A monomial x1^e1 ... xn^en of total degree D is keyed by the one int

    D << n*B | e1 << (n-1)*B | ... | en,    B = EXPONENT_BITS = 32,

with x1 in the most significant exponent field and the total degree above
all of them.  A monomial product is then one int add, and descending key
order is the canonical order, so terms(), __str__, to_json_obj and
evaluate sort plain ints.  No field carries into the next while the total
degree is at most MAX_DEGREE = 2**B - 1, since no exponent exceeds it.
Every MultiPoly keeps that bound: the constructor raises OverflowError on
a monomial above it, and products check the degrees of their factors
before any term is multiplied (per product pair in __mul__ and
_sum_of_products, once per sweep in schur.leading_minors, once per call in
expand_elementary).  Exponent tuples appear only at the boundary: the
constructor takes them and terms() and to_json_obj give them.

All monomial products go through one multiply-accumulate, _addmul, which
adds a product into a term dict; MultiPoly.__mul__, _sum_of_products (a
sum of products in one dict, with no product or partial sum built on its
own, which the recurrence residuals use) and the determinant sweep in
schur call it.

A MultiPoly in n variables is read either in x_1..x_n or in the elementary
basis, where variable d stands for y_d = e_d(x_1..x_n).  The e_d are
algebraically independent, so a polynomial in y is zero exactly when its
expansion in x is.  expand_elementary maps the y-form to x (for printing),
multiplying by e_d with the Pieri rule on monomial symmetric functions
(Macdonald, Symmetric Functions and Hall Polynomials, 2nd ed., I.6).

Caches, each bounded by a named constant: _run_choices holds the Pieri
choices of a pattern of equal parts, the one Pieri memo that outlives an
expand_elementary call (RUN_CHOICES_CACHE_SIZE), _MONOMIAL_WEIGHTS the
partition weights of one e-monomial, which expand_elementary sums for a
polynomial of at most DIRECT_SUM_TERMS terms and reads for a one-term
Horner group (MONOMIAL_WEIGHTS_CACHE_SIZE), _orbit the packed keys of a
partition's distinct permutations (ORBIT_CACHE_SIZE), _MONOMIAL_TEXT the
text __str__ prints for a packed monomial (MONOMIAL_TEXT_CACHE_SIZE) and
_elementary_basis the basis variables of a variable count
(BASIS_CACHE_SIZE).
"""

from __future__ import annotations

import operator
import struct
from functools import lru_cache
from itertools import combinations, islice, permutations
from math import comb
from typing import Iterable, Iterator, Mapping, Sequence

Monomial = tuple[int, ...]

EXPONENT_BITS = 32  # bits per exponent field of a packed monomial key
_FIELD = "I"  # struct code of one field: unsigned, EXPONENT_BITS // 8 bytes
MAX_DEGREE = (1 << EXPONENT_BITS) - 1  # highest total degree a key can hold
MONOMIAL_TEXT_CACHE_SIZE = 4096  # packed monomials whose text __str__ keeps
RUN_CHOICES_CACHE_SIZE = 1024  # (equal-parts pattern, d) Pieri choices kept
ORBIT_CACHE_SIZE = 4096  # partitions whose packed permutations are kept
BASIS_CACHE_SIZE = 32  # variable counts whose elementary basis is kept
MONOMIAL_WEIGHTS_CACHE_SIZE = 1024  # e-monomials whose weights are kept
DIRECT_SUM_TERMS = 16  # e-terms up to which an expansion skips Horner's rule


class MultiPoly:
    """Polynomial in ``nvars`` variables x1..xn with integer coefficients."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, int] | None = None):
        if nvars < 1:
            raise ValueError(f"nvars must be >= 1, got {nvars}")
        clean: dict[int, int] = {}
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
                    _check_degree(sum(exps))
                    key = _key(exps)
                    clean[key] = clean.get(key, 0) + coeff
                    if clean[key] == 0:
                        del clean[key]
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
        keys = sorted(self._terms, reverse=True)
        coeffs = map(self._terms.__getitem__, keys)
        return list(zip(_exponents(keys, self.nvars), coeffs))

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
        for key, coeff in other._terms.items():
            s = merged.get(key, 0) + coeff
            if s:
                merged[key] = s
            else:
                merged.pop(key, None)
        return _raw(self.nvars, merged)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _raw(self.nvars, {k: -c for k, c in self._terms.items()})

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
            return _raw(self.nvars, {k: c * other for k, c in self._terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compatible(other)
        _check_degree(_degree(self) + _degree(other))
        small, big = (self, other) if len(self) <= len(other) else (other, self)
        out: dict[int, int] = {}
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
        terms = self._terms
        if not terms:
            return "0"
        keys = sorted(terms, reverse=True)
        pieces: list[str] = []
        for key, body in zip(keys, _monomial_texts(keys, self.nvars)):
            coeff = terms[key]
            mag = abs(coeff)
            if not body:
                body = str(mag)
            elif mag != 1:
                body = f"{mag}*{body}"
            if not pieces:
                pieces.append(("-" if coeff < 0 else "") + body)
            else:
                pieces.append(("- " if coeff < 0 else "+ ") + body)
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {self})"

    def to_json_obj(self) -> list[dict]:
        """JSON-ready list of terms, canonical order, coefficients as strings."""
        return [
            {"coeff": str(coeff), "exps": list(exps)} for exps, coeff in self.terms()
        ]


def _key(exps: Sequence[int]) -> int:
    """Packed key of a monomial whose total degree is at most MAX_DEGREE."""
    return int.from_bytes(
        struct.pack(f">{len(exps) + 1}{_FIELD}", sum(exps), *exps), "big"
    )


def _exponents(keys: list[int], nvars: int) -> list[Monomial]:
    """The exponent tuples (e1, ..., en) of packed keys, in the order given."""
    size = (nvars + 1) * EXPONENT_BITS // 8
    # each key's bytes, with the pad code x skipping its degree field
    unpack = struct.Struct(f">{EXPONENT_BITS // 8}x{nvars}{_FIELD}").unpack
    return [unpack(key.to_bytes(size, "big")) for key in keys]


def _degree(p: MultiPoly) -> int:
    """Total degree of p (0 for the zero polynomial), read off its top key."""
    return max(p._terms, default=0) >> p.nvars * EXPONENT_BITS


def _degree_bound(columns: Iterable[Iterable[MultiPoly]], nvars: int) -> int:
    """Sum over columns of the largest total degree of their entries.

    It bounds the degree of every sum of products that takes at most one
    entry from each column, such as a determinant and its partial sums.
    """
    shift = nvars * EXPONENT_BITS
    return sum(
        max([max(p._terms, default=0) for p in column], default=0) >> shift
        for column in columns
    )


def _check_degree(degree: int) -> None:
    """Raise OverflowError unless a monomial of this total degree has a key."""
    if degree > MAX_DEGREE:
        raise OverflowError(
            f"total degree {degree} overflows the {EXPONENT_BITS}-bit exponent "
            f"fields of a monomial key (at most {MAX_DEGREE})"
        )


def _addmul(
    out: dict[int, int], a: MultiPoly, b: Mapping[int, int], scale: int
) -> None:
    """Add scale * a * b into the term dict out; cancelled terms are dropped.

    The only place two polynomials' monomials are multiplied: a product of
    two monomials is the sum of their keys.  The caller has checked that
    the product's degree fits (_check_degree).  a's terms form the outer
    loop, so a should be the factor with fewer terms; b is a term dict of
    the same variable count, and scale must be nonzero.
    """
    get = out.get
    for ka, ca in a._terms.items():
        step = scale * ca
        for kb, cb in b.items():
            key = ka + kb
            s = get(key, 0) + step * cb
            if s:
                out[key] = s
            else:
                del out[key]


def _sum_of_products(
    triples: Iterable[tuple[MultiPoly, MultiPoly, int]], nvars: int
) -> MultiPoly:
    """The sum of a * b over (a, b, degree of a plus degree of b) triples.

    a and b must be in nvars variables, and each product's degree is
    checked as given, so a caller reads each factor's degree once.  Every
    product is added into one term dict by _addmul, with the smaller
    factor outside, so no product is built as a polynomial of its own and
    no partial sum is copied.  That dict keeps the slots of cancelled
    terms, so the result holds a compact copy of it.
    """
    acc: dict[int, int] = {}
    for a, b, degree in triples:
        _check_degree(degree)
        small, big = (a, b) if len(a) <= len(b) else (b, a)
        _addmul(acc, small, big._terms, 1)
    return _raw(nvars, dict(acc))


# packed key -> its text in __str__, read and filled by _monomial_texts; a
# text depends on its key alone, so sharing one memo changes no output
_MONOMIAL_TEXT: dict[int, str] = {}


def _monomial_texts(keys: list[int], nvars: int) -> list[str]:
    """The text of each packed monomial as __str__ prints it, e.g. x1*x3^2.

    The constant monomial prints as "".  Texts come from the memo
    _MONOMIAL_TEXT, keyed by the key alone: a nonconstant monomial in n
    variables has its top bit in the degree field, bits n*B..(n+1)*B - 1,
    and the constant monomial is 0 whatever n is, so no two variable
    counts share a key with different texts.  The keys the memo lacks are
    unpacked together and formatted; when they would take the memo past
    MONOMIAL_TEXT_CACHE_SIZE, it is emptied first, and it keeps at most
    that many of them.
    """
    memo = _MONOMIAL_TEXT
    missing = [key for key in keys if key not in memo]
    if not missing:
        return list(map(memo.__getitem__, keys))
    names = [f"x{i}" for i in range(1, nvars + 1)]
    new = {
        key: "*".join(
            [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]
        )
        for key, exps in zip(missing, _exponents(missing, nvars))
    }
    texts = [memo[key] if key in memo else new[key] for key in keys]
    if len(memo) + len(new) > MONOMIAL_TEXT_CACHE_SIZE:
        memo.clear()
    memo.update(islice(new.items(), MONOMIAL_TEXT_CACHE_SIZE))
    return texts


def _raw(nvars: int, terms: dict[int, int]) -> MultiPoly:
    """Internal constructor skipping validation; terms must already be clean."""
    p = object.__new__(MultiPoly)
    object.__setattr__(p, "nvars", nvars)
    object.__setattr__(p, "_terms", terms)
    return p


def elementary_symmetric(degree: int, nvars: int) -> MultiPoly:
    """e_degree(x1..xn): sum of all squarefree monomials of the given degree.

    e_0 = 1; e_d = 0 for d < 0 or d > nvars.  Built on each call.
    """
    if nvars < 1 or not 0 <= degree <= nvars:  # MultiPoly.zero refuses nvars < 1
        return MultiPoly.zero(nvars)
    return _raw(nvars, dict.fromkeys(map(_key, _unit_vectors(degree, nvars)), 1))


def _unit_vectors(degree: int, nvars: int) -> Iterator[Monomial]:
    """The 0/1 exponent tuples with degree ones: the monomials of e_degree."""
    for ones in combinations(range(nvars), degree):
        exps = [0] * nvars
        for i in ones:
            exps[i] = 1
        yield tuple(exps)


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
    distinct permutations only at the end, from the memoised packed keys
    of its orbit.  Products are shared by Horner's rule in y_n, and inside
    each of its coefficients in y_{n-1}, and so on down to y_1; p's terms
    are grouped by the exponent fields of their keys, never unpacked.
    The x-degree of y^a is sum_d d * a_d, at most n times the y-degree, and
    it is checked once, before either route below and before any product.
    Each multiplication by e_d reads the Pieri step of every partition it
    meets from a dict local to this call, which computes it with
    _pieri_step the first time, so a call computes each of its steps at
    most once however many it has; no step outlives the call.
    A polynomial of at most DIRECT_SUM_TERMS terms skips Horner's rule:
    each term adds its coefficient times the partition weights of its
    e-monomial, read from a cross-call memo (_summed_weights).  A one-term
    group of a larger polynomial, such as every group of a polynomial
    homogeneous in x once Horner reaches y_1, is read the same way.  Past
    that many terms, the products Horner shares cost less than one memo
    walk per term.
    """
    n = p.nvars
    if n * _degree(p) > MAX_DEGREE:
        _check_degree(
            max(sum(d * a for d, a in enumerate(exps, 1)) for exps, _ in p)
        )
    route = _summed_weights if len(p) <= DIRECT_SUM_TERMS else _horner_elementary
    # the steps dict is dropped before the output grows
    weights = route(p._terms, n, n, {})
    out: dict[int, int] = {}
    for lam, weight in weights.items():
        orbit = _orbit(lam)
        coeff = weight // len(orbit)
        if coeff:
            out.update(dict.fromkeys(orbit, coeff))
    return _raw(n, out)


def _horner_elementary(
    terms: Mapping[int, int], d: int, n: int, steps: dict
) -> dict[Monomial, int]:
    """Partition weights of terms, whose y_{d+1}..y_n exponents are equal.

    terms maps packed keys to coefficients and is never empty.  A one-term
    group is read from the memo of e-monomial weights (_summed_weights);
    that covers d = 0, where every exponent is set and one term is left.
    """
    if len(terms) == 1:
        return _summed_weights(terms, d, n, steps)
    shift = (n - d) * EXPONENT_BITS
    groups: dict[int, dict[int, int]] = {}
    for key, coeff in terms.items():
        groups.setdefault(key >> shift & MAX_DEGREE, {})[key] = coeff
    top = max(groups, default=0)
    acc = _horner_elementary(groups.get(top, {}), d - 1, n, steps)
    memo = steps.setdefault(d, {})
    for power in range(top - 1, -1, -1):
        acc = _times_elementary(acc.items(), d, n, memo)
        if power in groups:
            lower = _horner_elementary(groups[power], d - 1, n, steps)
            for lam, weight in lower.items():
                acc[lam] = acc.get(lam, 0) + weight
    return acc


def _summed_weights(
    terms: Mapping[int, int], d: int, n: int, steps: dict
) -> dict[Monomial, int]:
    """Partition weights of terms, whose y_{d+1}..y_n exponents are equal.

    Each term c * y_1^a_1 ... y_d^a_d adds c times the memoised weights of
    its e-monomial (_monomial_weights), which takes the term's key with the
    degree field and the fields of y_{d+1}..y_n dropped.  The first term's
    weights seed the sum, so a one-term group costs one dict comprehension.
    """
    mask = ((1 << d * EXPONENT_BITS) - 1) << (n - d) * EXPONENT_BITS
    scaled = (
        (coeff, _monomial_weights(key & mask, n, steps))
        for key, coeff in terms.items()
    )
    coeff, weights = next(scaled, (0, ()))
    acc = {lam: coeff * weight for lam, weight in weights}
    get = acc.get
    for coeff, weights in scaled:
        for lam, weight in weights:
            acc[lam] = get(lam, 0) + coeff * weight
    return acc


# exponent fields of an e-monomial (a packed key without its degree field)
# and its variable count -> its partition weights; read and filled by
# _monomial_weights, and never changed once stored
_MONOMIAL_WEIGHTS: dict[tuple[int, int], tuple[tuple[Monomial, int], ...]] = {}


def _monomial_weights(
    fields: int, n: int, steps: dict
) -> tuple[tuple[Monomial, int], ...]:
    """Partition weights of e_1^a_1 ... e_n^a_n, packed as exponent fields.

    Read from the memo _MONOMIAL_WEIGHTS.  A monomial it lacks is its
    predecessor, the monomial with one factor e_t fewer (t the largest
    index with a_t > 0), times e_t: one Pieri step through the call's local
    step dict (steps[t], as in _horner_elementary).  So the walk drops
    factors until the memo holds what is left (or nothing is), then puts
    them back one Pieri step at a time, storing every monomial it builds;
    the memo is emptied first when it already holds
    MONOMIAL_WEIGHTS_CACHE_SIZE of them.
    """
    memo = _MONOMIAL_WEIGHTS
    known = fields
    weights = memo.get((n, known))
    while weights is None and known:
        # drop one e_t: the lowest set bit lies in the field of y_t
        low = ((known & -known).bit_length() - 1) // EXPONENT_BITS
        known -= 1 << low * EXPONENT_BITS
        weights = memo.get((n, known))
    if weights is None:
        weights = (((0,) * n, 1),)  # the constant 1
    # each field of fields - known counts the factors dropped (no field
    # borrows), and they go back lowest index first, as they came off
    dropped = fields - known
    for t in range(1, n + 1):
        shift = (n - t) * EXPONENT_BITS
        for _ in range(dropped >> shift & MAX_DEGREE):
            known += 1 << shift
            product = _times_elementary(weights, t, n, steps.setdefault(t, {}))
            weights = tuple(product.items())
            if len(memo) >= MONOMIAL_WEIGHTS_CACHE_SIZE:
                memo.clear()
            memo[n, known] = weights
    return weights


def _times_elementary(
    f: Iterable[tuple[Monomial, int]], d: int, n: int, memo: dict
) -> dict[Monomial, int]:
    """f * e_d for a symmetric f held as (partition, weight) pairs.

    The weight of a partition lam is its coefficient times the number of
    distinct permutations of lam, which is the sum of the coefficients of
    every monomial sorting to lam.  A monomial x^a times a monomial x^v of
    e_d sorts to sort(a + v), so by symmetry the product's weights are
    sum over mu of f[mu] times the number of v with sort(mu + v) = nu: the
    Pieri rule for e_d on monomial symmetric functions, read from memo
    (mu -> _pieri_step(mu, d, n), local to one expand_elementary call), and
    no monomial outside the partitions is ever formed.  Weights may be
    zero; expand_elementary drops those.
    """
    out: dict[Monomial, int] = {}
    get = out.get
    for mu, weight in f:
        if weight:
            pairs = memo.get(mu)
            if pairs is None:
                pairs = memo[mu] = _pieri_step(mu, d, n)
            for nu, count in pairs:
                out[nu] = get(nu, 0) + weight * count
    return out


def _pieri_step(mu: Monomial, d: int, n: int) -> list[tuple[Monomial, int]]:
    """The pairs (nu, number of v with sort(mu + v) = nu), v over e_d's monomials.

    mu is a partition padded to n parts.  Its equal parts come in runs;
    adding 1 to k parts of a run of m sorts to the same nu whichever k
    are chosen, so each distinct nu is mu plus ones on a prefix of each
    run, already sorted, and counted prod C(m, k) times (_run_choices,
    memoised across calls).  Callers keep the result in their per-call
    step dict (see _times_elementary), so this is not memoised itself.
    """
    add = operator.add
    equal = tuple(map(operator.eq, mu, mu[1:]))  # which neighbours share a run
    choices = _run_choices(equal, d)
    return [(tuple(map(add, mu, ones)), count) for ones, count in choices]


@lru_cache(maxsize=RUN_CHOICES_CACHE_SIZE)
def _run_choices(equal: tuple[bool, ...], d: int) -> tuple[tuple[Monomial, int], ...]:
    """The 0/1 vectors with d ones on a prefix of each run, with their counts.

    equal[i] says whether parts i and i + 1 lie in one run.  A vector
    giving k ones to a run of m parts is counted C(m, k) times, a factor
    per run; the vectors depend on the runs alone, not on the parts.
    """
    runs = [1]  # run lengths
    for same in equal:
        if same:
            runs[-1] += 1
        else:
            runs.append(1)
    room = len(equal) + 1  # parts in the runs not yet taken
    partial = [((), 1, d)]  # (ones so far, count so far, ones left to place)
    for m in runs:
        room -= m
        partial = [
            (ones + (1,) * k + (0,) * (m - k), count * comb(m, k), left - k)
            for ones, count, left in partial
            for k in range(max(0, left - room), min(m, left) + 1)
        ]
    return tuple((ones, count) for ones, count, _ in partial)


@lru_cache(maxsize=ORBIT_CACHE_SIZE)
def _orbit(lam: Monomial) -> tuple[int, ...]:
    """Packed keys of the distinct permutations of the partition lam."""
    pack = struct.Struct(f">{len(lam) + 1}{_FIELD}").pack
    degree = sum(lam)
    return tuple(
        [int.from_bytes(pack(degree, *exps), "big") for exps in set(permutations(lam))]
    )
