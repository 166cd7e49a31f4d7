"""Exact coefficient arithmetic: big rationals and sparse multivariate polynomials.

A coefficient is an ``int``, a ``fractions.Fraction`` or a :class:`Poly`.  An
integral value is kept as an ``int`` (Python's integers are much cheaper than
``Fraction``), and a ``Fraction`` always has a denominator above 1: see
:func:`exact`.  The three mix freely and exactly in arithmetic (a number is
absorbed as a constant polynomial), and equal values compare and hash equal,
so the same code paths serve integral, rational and symbolic computations.
No code here or in the modules built on it uses true division (``/``), so
integral inputs stay integral from end to end.

A monomial is a tuple of ``(name, exponent)`` pairs sorted by name, with all
exponents positive; the empty tuple is the constant monomial.  Zero terms are
never stored, so the zero polynomial is the empty dict and equality testing is
exact and structural.

So every ``Poly`` is in normal form: no zero coefficient, and no ``Fraction``
with denominator 1.  ``Poly.__init__`` brings any terms to that form and
checks each coefficient; it is the constructor for outside callers.  The
arithmetic (``+``, ``-``, unary ``-``, ``*``) starts from terms already in
normal form and keeps it by itself: it rewrites only a sum or product that
is not an ``int`` (a ``Fraction`` sum or product can be integral) and drops
only a sum that cancels to zero (a product of nonzero coefficients never
is).  So it builds its results with the private ``_normal``, which skips
``__init__``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

Monomial = tuple[tuple[str, int], ...]
Coefficient = Union[int, Fraction, "Poly"]

ZERO = 0
ONE = 1


def exact(value) -> int | Fraction:
    """``value`` as an ``int`` when it is integral, else as a ``Fraction``
    in lowest terms."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:  # a Fraction is in lowest terms
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _mul_monomials(a: Monomial, b: Monomial) -> Monomial:
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        # one factor is a single power: insert it into the other by name
        (name, e), = a
        for i, (other, f) in enumerate(b):
            if other == name:
                return b[:i] + ((name, e + f),) + b[i + 1:]
            if other > name:
                return b[:i] + a + b[i:]
        return b + a
    exps: dict[str, int] = dict(a)
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def _normal(terms: dict[Monomial, int | Fraction]) -> "Poly":
    """A ``Poly`` on ``terms``, which are already in normal form, built
    without ``Poly.__init__`` and its checks."""
    p = object.__new__(Poly)
    p.terms = terms
    return p


def _plus(terms: dict[Monomial, int | Fraction], pairs) -> "Poly":
    """``terms`` plus the normal (monomial, coefficient) ``pairs``."""
    out = terms.copy()
    for mono, c in pairs:
        if mono in out:
            c = exact(out[mono] + c)
            if c:
                out[mono] = c
            else:
                del out[mono]
        elif c:
            out[mono] = c
    return _normal(out)


def _times_term(terms: dict[Monomial, int | Fraction], mono: Monomial,
                c: int | Fraction) -> "Poly":
    """``terms`` times the one term c·mono, c nonzero.  The products are
    distinct monomials with nonzero coefficients, so only an integral
    ``Fraction`` needs rewriting."""
    return _normal({(_mul_monomials(m, mono) if m and mono else m or mono):
                    exact(d * c) for m, d in terms.items()})


class Poly:
    """Sparse multivariate polynomial over the rationals in named commuting
    indeterminates."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, int | Fraction] | None = None):
        clean: dict[Monomial, int | Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = exact(coeff)
                if c:
                    clean[mono] = c
        self.terms = clean

    @classmethod
    def var(cls, name: str) -> "Poly":
        return cls({((name, 1),): ONE})

    def __add__(self, other):
        if isinstance(other, Poly):
            return _plus(self.terms, other.terms.items())
        if isinstance(other, (int, Fraction)):
            return _plus(self.terms, (((), exact(other)),))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (Poly, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return -self + other
        return NotImplemented

    def __neg__(self):
        return _normal({mono: -c for mono, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Poly):
            a, b = self.terms, other.terms
            if len(a) == 1:
                (mono, c), = a.items()
                return _times_term(b, mono, c)
            if len(b) == 1:
                (mono, c), = b.items()
                return _times_term(a, mono, c)
            out: dict[Monomial, int | Fraction] = {}
            for ma, ca in a.items():
                for mb, cb in b.items():
                    mono = (_mul_monomials(ma, mb) if ma and mb
                            else ma or mb)
                    if mono in out:
                        out[mono] += ca * cb
                    else:
                        out[mono] = ca * cb
            return _normal({mono: c for mono, c in
                            zip(out, map(exact, out.values())) if c})
        if isinstance(other, (int, Fraction)):
            scalar = exact(other)
            return _times_term(self.terms, (), scalar) if scalar else Poly()
        return NotImplemented

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            if not self.terms:
                return other == 0
            return self.terms == {(): other}
        return NotImplemented

    def __hash__(self):
        # a constant hashes as the number it equals
        if self.terms.keys() <= {()}:
            return hash(self.terms.get((), ZERO))
        return hash(frozenset(self.terms.items()))

    def variables(self) -> tuple[str, ...]:
        names = {name for mono in self.terms for name, _ in mono}
        return tuple(sorted(names))

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"Poly({self})"


def sorted_monomials(p: Poly) -> list[Monomial]:
    """The monomials of p in graded reverse-lexicographic order, highest
    degree first: within a degree, by exponents from the last variable to
    the first, lower first.  This is the canonical display order."""
    index = {name: i for i, name in enumerate(p.variables())}

    def key(mono: Monomial) -> tuple[int, tuple[int, ...]]:
        exps = [0] * len(index)
        for name, e in mono:
            exps[index[name]] = e
        return -sum(exps), tuple(reversed(exps))

    return sorted(p.terms, key=key)


def _monomial_str(mono: Monomial) -> str:
    parts = []
    for name, e in mono:
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def poly_str(p: Poly) -> str:
    """Canonical text form, e.g. ``k1^4 + 6*k1^2*k2 + 2*k2^2 + 4*k1*k3 + k4``."""
    if not p.terms:
        return "0"
    pieces = []
    for i, mono in enumerate(sorted_monomials(p)):
        coeff = p.terms[mono]
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        if mono == ():
            body = fraction_str(mag)
        elif mag == 1:
            body = _monomial_str(mono)
        else:
            body = f"{fraction_str(mag)}*{_monomial_str(mono)}"
        if i == 0:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)


def fraction_str(x: int | Fraction) -> str:
    num = _digits(x.numerator)
    return num if x.denominator == 1 else f"{num}/{_digits(x.denominator)}"


# Below the smallest limit the interpreter may set on int <-> str
# conversion (640 digits), so the halving below never meets that limit.
_SHORT_BITS = 2000
_SHORT_DIGITS = 600


def _digits(n: int) -> str:
    """``str(n)`` at any length: past the limit, split ``n`` at a power of
    ten and write the halves."""
    if n.bit_length() <= _SHORT_BITS:
        return str(n)
    if n < 0:
        return "-" + _digits(-n)
    half = n.bit_length() * 3 // 20  # about half the digit count
    high, low = divmod(n, 10 ** half)
    return _digits(high) + _digits(low).zfill(half)


def _from_digits(digits: str) -> int:
    """The inverse of :func:`_digits` on a string of ASCII digits."""
    if len(digits) <= _SHORT_DIGITS:
        return int(digits)
    half = len(digits) // 2
    return (_from_digits(digits[:-half]) * 10 ** half
            + _from_digits(digits[-half:]))


def coeff_str(c: Coefficient) -> str:
    """Canonical text form of any coefficient."""
    if isinstance(c, Poly):
        return poly_str(c)
    return fraction_str(c)


_RATIONAL = re.compile(r"\s*([+-]?)([0-9]+)(?:/([0-9]+))?\s*")


def parse_fraction(text: str) -> int | Fraction:
    """Parse ``p`` or ``p/q`` (an optional sign, ASCII digits, blanks around
    the number) into an exact rational, an ``int`` when it is integral; any
    other form is a ParseError."""
    from .errors import ParseError

    if not isinstance(text, str):
        raise ParseError(f"a rational number is written as a string: {text!r}")
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ParseError(f"not a rational number (p or p/q): {text[:40]!r}")
    sign, num, den = match.groups()
    denominator = _from_digits(den) if den else 1
    if denominator == 0:
        raise ParseError(f"zero denominator: {text[:40]!r}")
    value = exact(Fraction(_from_digits(num), denominator))
    return -value if sign == "-" else value
