"""Moment oracles and the exact symbolic scalar type.

A word is a tuple of letters ``(generator, exponent)`` with exponent +1 or
-1.  Three models supply first and second order moments, each with phi
tracial and phi2 tracial in each word and symmetric:

- semicircular: one self-adjoint generator ``x``; phi(x^n) is a Catalan
  number for even n and 0 otherwise, and the two-point moments are the
  through-string counts phi2(x^p, x^q) = sum_k k C(p,(p-k)/2) C(q,(q-k)/2).
- haar: one unitary ``u``; phi(u^k) = [k == 0] and
  phi2(u^k, u^l) = [k == -l] |k|.
- formal moments: one symbol ``a``; moments are opaque symbols alpha_n and
  alpha_{p,q}, so every computation downstream of this model is a
  polynomial identity.

All scalars are exact: Python integers, fractions, or
``CumulantPolynomial`` (integer coefficients, sparse monomials over the
symbols k_n, k_{s,t}, a_n, a_{s,t}).  No floating point is used anywhere.

A symbol is ``k`` (cumulant) or ``a`` (moment), then positive decimal
orders without leading zeros joined by commas: ``a1,3`` is alpha_{1,3}.
The cached ``_symbol_key`` is the one reader of that text: products sort
by its (kind, arity, orders), printing and LaTeX read them, and
``from_symbol`` refuses what it does not parse.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Union

__all__ = [
    "Letter",
    "Word",
    "gen_word",
    "x_word",
    "a_word",
    "u_word",
    "concat_words",
    "catalan",
    "semicircular_phi",
    "semicircular_phi2",
    "semicircular_phi2_closed",
    "haar_phi",
    "haar_phi2",
    "MomentOracle",
    "semicircular_space",
    "haar_unitary_space",
    "formal_moment_space",
    "CumulantPolynomial",
    "kappa_symbol",
    "kappa2_symbol",
    "alpha_symbol",
    "alpha2_symbol",
    "Scalar",
]

Letter = tuple[str, int]
Word = tuple[Letter, ...]


def gen_word(name: str, n: int) -> Word:
    """n copies of the generator, exponent +1; a negative n is a ValueError."""
    if n < 0:
        raise ValueError(f"word length must be at least 0, got {n}")
    return ((name, 1),) * n


def x_word(n: int) -> Word:
    return gen_word("x", n)


def a_word(n: int) -> Word:
    return gen_word("a", n)


def u_word(signs: Iterable[int]) -> Word:
    """A word in u and u^-1 from a sign sequence.

    >>> u_word((1, -1, 1))
    (('u', 1), ('u', -1), ('u', 1))
    """
    out = []
    for s in signs:
        if s not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {s}")
        out.append(("u", s))
    return tuple(out)


def concat_words(words: Iterable[Word]) -> Word:
    return tuple(itertools.chain.from_iterable(words))


def catalan(n: int) -> int:
    if n < 0:
        raise ValueError("catalan number of negative index")
    return math.comb(2 * n, n) // (n + 1)


# -- semicircular ------------------------------------------------------


def _check_letters(word: Word, allowed: str, signs: tuple[int, ...]) -> None:
    for g, e in word:
        if g != allowed or e not in signs:
            raise ValueError(f"unknown letter {(g, e)!r} for generator {allowed!r}")


def semicircular_phi(word: Word) -> int:
    """Moments of a standard semicircular element: Catalan numbers.

    >>> [semicircular_phi(x_word(n)) for n in range(1, 7)]
    [0, 1, 0, 2, 0, 5]
    """
    _check_letters(word, "x", (1,))
    n = len(word)
    return 0 if n % 2 else catalan(n // 2)


def semicircular_phi2(p: int, q: int) -> int:
    """Fluctuation moments as the through-string sum.

    Zero when p = 0, q = 0, or p + q is odd; otherwise the sum of
    k C(p, (p-k)/2) C(q, (q-k)/2) over k of the same parity as p.
    """
    if p < 0 or q < 0:
        raise ValueError("negative power")
    if p == 0 or q == 0 or (p + q) % 2:
        return 0
    start = 2 if p % 2 == 0 else 1
    total = 0
    for k in range(start, min(p, q) + 1, 2):
        total += k * math.comb(p, (p - k) // 2) * math.comb(q, (q - k) // 2)
    return total


def semicircular_phi2_closed(p: int, q: int) -> int:
    """The same fluctuation moments in closed form (two parity cases)."""
    if p < 0 or q < 0:
        raise ValueError("negative power")
    if p == 0 or q == 0 or (p + q) % 2:
        return 0
    if p % 2 == 0:
        value = Fraction(p * q, 2 * (p + q)) * math.comb(p, p // 2) * math.comb(q, q // 2)
    else:
        value = (
            Fraction((p + 1) * (q + 1), 8 * (p + q))
            * math.comb(p + 1, (p + 1) // 2)
            * math.comb(q + 1, (q + 1) // 2)
        )
    assert value.denominator == 1
    return int(value)


# -- haar unitary ------------------------------------------------------


def haar_phi(word: Word) -> int:
    """phi(u^{e_1} ... u^{e_n}) = 1 iff the exponents cancel."""
    _check_letters(word, "u", (1, -1))
    return 1 if sum(e for _, e in word) == 0 else 0


def haar_phi2(w1: Word, w2: Word) -> int:
    """phi2(u^k, u^l) = |k| when k = -l, else 0 (and 0 when k = l = 0)."""
    _check_letters(w1, "u", (1, -1))
    _check_letters(w2, "u", (1, -1))
    k = sum(e for _, e in w1)
    l = sum(e for _, e in w2)
    return abs(k) if k == -l else 0


# -- symbols and polynomials ------------------------------------------


def _symbol(kind: str, *orders: int) -> str:
    """``kind`` and the ascending orders, or ValueError unless each is a positive int."""
    if not all(type(n) is int and n >= 1 for n in orders):  # not isinstance: True is an int
        raise ValueError(f"symbol orders must be positive ints, got {orders!r}")
    return kind + ",".join(map(str, sorted(orders)))


def kappa_symbol(n: int) -> str:
    return _symbol("k", n)


def kappa2_symbol(s: int, t: int) -> str:
    return _symbol("k", s, t)


def alpha_symbol(n: int) -> str:
    return _symbol("a", n)


def alpha2_symbol(s: int, t: int) -> str:
    return _symbol("a", s, t)


# Polynomial products sort by this key; the cache parses each symbol once.
@lru_cache(maxsize=1024)
def _symbol_key(sym: str) -> tuple[str, int, tuple[int, ...]]:
    """(kind, arity, orders) of a symbol, or ValueError for text that is not one."""
    match = re.fullmatch(r"([ka])([1-9][0-9]*(?:,[1-9][0-9]*)*)", sym)
    if match is None:
        raise ValueError(f"{sym!r} is not a symbol: k or a, then positive orders joined by commas")
    orders = tuple(map(int, match[2].split(",")))
    return match[1], len(orders), orders


# display: first-order symbols (ascending order) before the two-point one
def _display_symbol_key(sym: str):
    kind, arity, orders = _symbol_key(sym)
    return (arity, kind, orders)


def _monomial(symbols: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(symbols, key=_symbol_key))


Coeff = Union[int, Fraction]


class CumulantPolynomial:
    """Sparse polynomial in moment/cumulant symbols, exact coefficients.

    Monomials are sorted tuples of symbol strings; repeated symbols encode
    powers.  Supports +, -, * with integers, fractions, and other
    polynomials; comparison against plain scalars works, so tests can say
    ``poly == 0``.

    >>> k2 = CumulantPolynomial.from_symbol("k2")
    >>> k1 = CumulantPolynomial.from_symbol("k1")
    >>> print(k2 - k1 * k1)
    -k1^2 + k2
    """

    __slots__ = ("terms",)

    terms: dict[tuple[str, ...], Coeff]

    def __init__(self, terms: Mapping[tuple[str, ...], Coeff] | None = None):
        clean: dict[tuple[str, ...], Coeff] = {}
        if terms:
            for monomial, coeff in terms.items():
                # int first: a Fraction test runs ABCMeta's instance hook in Python
                if type(coeff) is not int:
                    if not isinstance(coeff, (int, Fraction)):
                        raise ValueError(f"coefficient {coeff!r} is neither an int nor a Fraction")
                    coeff = int(coeff) if isinstance(coeff, int) or coeff.denominator == 1 else coeff
                if coeff:
                    clean[tuple(monomial)] = coeff
        self.terms = clean

    @classmethod
    def zero(cls) -> "CumulantPolynomial":
        return cls()

    @classmethod
    def constant(cls, c: Coeff) -> "CumulantPolynomial":
        return cls({(): c})

    @classmethod
    def from_symbol(cls, sym: str) -> "CumulantPolynomial":
        _symbol_key(sym)  # refuses text that is not a symbol
        return cls({(sym,): 1})

    @classmethod
    def coerce(cls, value: "Scalar") -> "CumulantPolynomial":
        if isinstance(value, CumulantPolynomial):
            return value
        return cls.constant(value)

    @classmethod
    def sum(cls, values: Iterable["Scalar"]) -> "Scalar":
        """Sum a stream of scalars without quadratic dict copying.

        Each polynomial object is counted (and held, so its id stays its
        own) and its terms are added once, times its count.  Value and type
        are those of the left-to-right ``+`` fold from 0.  A value that is
        not an int, a Fraction or a polynomial is a ValueError."""
        counts: dict[int, list] = {}  # id -> [polynomial, count]
        plain: Coeff = 0
        for v in values:
            if isinstance(v, CumulantPolynomial):
                entry = counts.get(id(v))
                if entry is None:
                    counts[id(v)] = [v, 1]
                else:
                    entry[1] += 1
            elif type(v) is int or isinstance(v, (int, Fraction)):
                plain += v
            else:
                raise ValueError(f"{v!r} is not an int, a Fraction or a polynomial")
        if not counts:
            return plain
        acc: dict[tuple[str, ...], Coeff] = {}
        for v, count in counts.values():
            for m, c in v.terms.items():
                acc[m] = acc.get(m, 0) + (c if count == 1 else c * count)
        if plain:
            acc[()] = acc.get((), 0) + plain
        return cls(acc)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (int, Fraction, CumulantPolynomial)):
            return NotImplemented
        return CumulantPolynomial.sum((self, other))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CumulantPolynomial({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, CumulantPolynomial):
            out: dict[tuple[str, ...], Coeff] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = _monomial(m1 + m2)
                    out[m] = out.get(m, 0) + c1 * c2
            return CumulantPolynomial(out)
        if not (isinstance(other, int) or isinstance(other, Fraction)):
            return NotImplemented
        if not other:
            return CumulantPolynomial()
        return CumulantPolynomial({m: c * other for m, c in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = CumulantPolynomial.constant(1)
        for _ in range(n):
            out = out * self
        return out

    # -- value semantics ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CumulantPolynomial):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self.terms
            return self.terms == {(): other}
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self.terms)

    __hash__ = None  # mutable dict inside; polynomials are not dict keys

    # -- substitution and export --------------------------------------

    def substitute(self, values: Mapping[str, "Scalar"]) -> "Scalar":
        """Evaluate by replacing each symbol; missing symbols raise."""
        total: list[Scalar] = []
        for monomial, coeff in self.terms.items():
            acc: Scalar = coeff
            for sym in monomial:
                if sym not in values:
                    raise KeyError(f"no value supplied for symbol {sym!r}")
                acc = acc * values[sym]
            total.append(acc)
        return CumulantPolynomial.sum(total)

    def sorted_terms(self) -> list[tuple[tuple[str, ...], Coeff]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def to_json_obj(self) -> list[dict]:
        out = []
        for monomial, coeff in self.sorted_terms():
            if isinstance(coeff, Fraction):
                raise ValueError("non-integer coefficient cannot be serialized")
            out.append({"coeff": coeff, "monomial": list(monomial)})
        return out

    def _display_terms(self) -> list[tuple[tuple[str, ...], Coeff]]:
        def term_key(item):
            monomial, _ = item
            two_point = [_symbol_key(s)[2] for s in monomial if _symbol_key(s)[1] > 1]
            # two-point monomials first, heavier symbols first, then text order
            return (0 if two_point else 1, tuple(-sum(orders) for orders in two_point), monomial)

        return sorted(self.terms.items(), key=term_key)

    def __str__(self) -> str:
        return self._render("*", lambda s: s)

    __repr__ = __str__

    def to_latex(self) -> str:
        def symbol(sym: str) -> str:
            kind, arity, orders = _symbol_key(sym)
            name = "\\kappa" if kind == "k" else "\\alpha"
            if arity == 1 and orders[0] < 10:
                return f"{name}_{orders[0]}"
            return f"{name}_{{{','.join(map(str, orders))}}}"

        return self._render(" ", symbol)

    def _render(self, times, symbol) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for monomial, coeff in self._display_terms():
            factors = []
            ordered = sorted(monomial, key=_display_symbol_key)
            for sym, group in itertools.groupby(ordered):
                count = len(list(group))
                rendered = symbol(sym)
                factors.append(rendered if count == 1 else f"{rendered}^{count}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = times.join(factors)
            else:
                body = times.join([str(mag)] + factors)
            pieces.append((coeff < 0, body))
        first_neg, first_body = pieces[0]
        text = ("-" + first_body) if first_neg else first_body
        for neg, body in pieces[1:]:
            text += (" - " if neg else " + ") + body
        return text


Scalar = Union[int, Fraction, CumulantPolynomial]


# -- oracles -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MomentOracle:
    """A first and second order moment functional pair.

    The contract: ``phi`` is tracial and ``phi2`` tracial in each word and
    symmetric, so the cumulant layer computes one cumulant per rotation/swap
    class.  ``memo`` holds its values for this model, as long as the model
    lives; hash and equality are by identity, so each model has its own.
    """

    name: str
    phi: Callable[[Word], Scalar]
    phi2: Callable[[Word, Word], Scalar]
    memo: dict = field(default_factory=dict, init=False, repr=False)


def _semicircular_phi2_words(w1: Word, w2: Word) -> int:
    _check_letters(w1, "x", (1,))
    _check_letters(w2, "x", (1,))
    return semicircular_phi2(len(w1), len(w2))


_SEMICIRCULAR = MomentOracle("semicircular", semicircular_phi, _semicircular_phi2_words)
_HAAR = MomentOracle("haar-unitary", haar_phi, haar_phi2)


def semicircular_space() -> MomentOracle:
    """The second-order probability space of one standard semicircular."""
    return _SEMICIRCULAR


def haar_unitary_space() -> MomentOracle:
    """The second-order probability space of one Haar unitary."""
    return _HAAR


def _formal_phi(word: Word) -> Scalar:
    _check_letters(word, "a", (1,))
    n = len(word)
    if n == 0:
        return 1
    return CumulantPolynomial.from_symbol(alpha_symbol(n))


def _formal_phi2(w1: Word, w2: Word) -> Scalar:
    _check_letters(w1, "a", (1,))
    _check_letters(w2, "a", (1,))
    if not w1 or not w2:
        return 0
    return CumulantPolynomial.from_symbol(alpha2_symbol(len(w1), len(w2)))


_FORMAL = MomentOracle("formal-moments", _formal_phi, _formal_phi2)


def formal_moment_space() -> MomentOracle:
    """Moments as opaque symbols; downstream results are polynomial identities."""
    return _FORMAL
