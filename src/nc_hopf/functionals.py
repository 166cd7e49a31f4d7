"""Graded truncated linear forms on the two bialgebras.

A functional is defined by its values on basis bar words up to a truncation
degree and extended by linearity.  Convolution and the half-shuffle products
are computed by pairing against the corresponding coproduct; the augmentation
``e`` is the unit of the resulting shuffle algebra, with

    f ≺ e = f = e ≻ f,     e ≺ f = 0 = f ≻ e.

Characters are unital and multiplicative over the bar product; infinitesimal
characters kill the unit and every bar word with two or more parts.  The
bijection between the two is realized by the left half-shuffle fixed point
Phi = e + kappa ≺ Phi and its inverse extraction, plus the half-shuffle
exponential as an independent route.
"""

from __future__ import annotations

import weakref
from functools import cache
from itertools import islice, product as iter_product
from math import prod

from .coefficients import ONE, ZERO, Coefficient
from .errors import AlgebraMismatchError, TruncationError
from .partitions import (
    Record,
    Value,
    _nc_shapes,
    _set,
    check_enumeration_size,
)
from .tensor import (
    UNIT,
    BarWord,
    LinComb,
    _letters,
    barword_degree,
    barword_text,
    delta_bar,
    sp,
)

WORDS = "words"
NC = "nc"


class Algebra(Value):
    """Which bialgebra a functional lives on, with its declared alphabet:
    a tuple of distinct letters by ``tensor.is_letter``."""

    __slots__ = _fields = ("kind", "alphabet")

    def __init__(self, kind: str, alphabet: tuple[str, ...]):
        if kind not in (WORDS, NC):
            raise ValueError(f"unknown algebra kind: {kind!r}")
        alphabet = _letters(alphabet)
        if not alphabet or len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet must be declared, non-empty and "
                             f"without repeats: {alphabet!r}")
        _set(self, "kind", kind)
        _set(self, "alphabet", alphabet)

    def atoms(self, degree: int) -> list:
        """All basis atoms of the given degree."""
        words = list(iter_product(self.alphabet, repeat=degree))
        if self.kind == WORDS:
            return words
        check_enumeration_size("nc", degree)
        return [(shape, w) for shape in _nc_shapes(degree) for w in words]

    def barwords(self, degree: int) -> list[BarWord]:
        """All basis bar words of the given total degree, built degree by
        degree: those of degree n are each atom of degree k followed by
        each bar word of degree n - k, for k = 1..n in turn."""
        atoms = [self.atoms(k) for k in range(1, degree + 1)]
        by_degree: list[list[BarWord]] = [[UNIT]]
        for n in range(1, degree + 1):
            by_degree.append([(atom,) + tail
                              for k in range(1, n + 1)
                              for atom in atoms[k - 1]
                              for tail in by_degree[n - k]])
        return by_degree[degree]


class LinearFunctional:
    """A linear form on one bialgebra, defined on basis bar words of degree
    up to ``truncation``; evaluation above truncation raises, never silently
    returns zero."""

    def __init__(self, algebra: Algebra, truncation: int, eval_basis,
                 unit_value: Coefficient = ZERO, name: str = ""):
        self.algebra = algebra
        self.truncation = truncation
        self.unit_value = unit_value
        self.name = name
        self._eval = eval_basis
        # the values known so far, the unit's from the start; a pairing
        # reads a leg here and calls the functional only on a miss
        self._cache: dict[BarWord, Coefficient] = {UNIT: unit_value}

    def __call__(self, b: BarWord) -> Coefficient:
        value = self._cache.get(b)
        if value is not None:
            return value
        degree = barword_degree(b)
        if degree > self.truncation:
            raise TruncationError(
                f"degree {degree} exceeds truncation {self.truncation}"
                f" for functional {self.name or '<anonymous>'}")
        value = self._eval(b)
        self._cache[b] = value
        return value

    def on_lincomb(self, t: LinComb) -> Coefficient:
        total: Coefficient = ZERO
        for key, c in t.items():
            total = total + c * self(key)
        return total

    def __repr__(self):
        return (f"<{type(self).__name__} {self.name or '?'} on "
                f"{self.algebra.kind}, N={self.truncation}>")


class Character(LinearFunctional):
    """Unital multiplicative functional (a group-like element of the dual)."""

    @classmethod
    def from_atoms(cls, algebra: Algebra, truncation: int, atom_value,
                   name: str = "") -> "Character":
        def ev(b: BarWord) -> Coefficient:
            return prod(map(atom_value, b), start=ONE)
        return cls(algebra, truncation, ev, unit_value=ONE, name=name)


class InfinitesimalCharacter(LinearFunctional):
    """Functional vanishing on the unit and on all proper bar products."""

    @classmethod
    def from_atoms(cls, algebra: Algebra, truncation: int, atom_value,
                   name: str = "") -> "InfinitesimalCharacter":
        def ev(b: BarWord) -> Coefficient:
            return atom_value(b[0]) if len(b) == 1 else ZERO
        return cls(algebra, truncation, ev, unit_value=ZERO, name=name)


def augmentation(algebra: Algebra, truncation: int) -> Character:
    """The counit e: 1 at the unit, 0 in positive degree."""
    return Character(algebra, truncation, lambda b: ZERO,
                     unit_value=ONE, name="e")


def _check_compatible(f: LinearFunctional, g: LinearFunctional):
    if f.algebra != g.algebra:
        raise AlgebraMismatchError(
            f"functionals on different algebras: {f.algebra} vs {g.algebra}")
    if f.truncation != g.truncation:
        raise AlgebraMismatchError(
            f"truncation mismatch: {f.truncation} vs {g.truncation}")


def _pair(f: LinearFunctional, g: LinearFunctional, terms: LinComb,
          later: BarWord = UNIT) -> Coefficient:
    """The sum of c·f(l)·g(r + later) over the terms (l, r) ↦ c of a
    coproduct value: the one loop that pairs two functionals against a
    coproduct.  Each value is read from the functional's cache, the
    functional called only on a miss, and a zero f(l) or g(r) ends its
    term's work."""
    f_values, g_values = f._cache, g._cache
    total: Coefficient = ZERO
    for (left, right), c in terms.items():
        fl = f_values.get(left)
        if fl is None:
            fl = f(left)
        if not fl:
            continue
        right += later
        gr = g_values.get(right)
        if gr is None:
            gr = g(right)
        if not gr:
            continue
        total = total + c * fl * gr
    return total


def convolve(f: LinearFunctional, g: LinearFunctional) -> LinearFunctional:
    """Convolution f * g against the full coproduct."""
    _check_compatible(f, g)
    return LinearFunctional(
        f.algebra, f.truncation,
        lambda b: _pair(f, g, delta_bar(b, "full")),
        unit_value=f.unit_value * g.unit_value,
        name=f"({f.name}*{g.name})")


def half_convolve(f: LinearFunctional, g: LinearFunctional,
                  side: str) -> LinearFunctional:
    """Half-shuffle products f ≺ g (side='left') and f ≻ g (side='right'),
    paired against the corresponding half coproduct.  The + variants of the
    half coproducts are used so the unit laws with e hold identically; on the
    augmentation ideal this coincides with the reduced halves."""
    _check_compatible(f, g)
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    variant = "left+" if side == "left" else "right+"
    op = "≺" if side == "left" else "≻"
    return LinearFunctional(
        f.algebra, f.truncation,
        lambda b: _pair(f, g, delta_bar(b, variant)),
        unit_value=f.unit_value * g.unit_value,
        name=f"({f.name}{op}{g.name})")


# ---------------------------------------------------------------------------
# fixed point, exponential, extraction


def solve_left_fixed_point(kappa: InfinitesimalCharacter) -> Character:
    """The unique character Phi with Phi = e + kappa ≺ Phi, computed degree
    by degree: every coproduct term pairing kappa non-trivially strictly
    lowers the degree of the remaining Phi argument.

    kappa vanishes on the unit and on bar words of two or more atoms, so of
    the left half coproduct of b = x|y|...|z only the terms whose left leg
    is one atom pair non-trivially: a left-half term l ⊗ r of x, with each
    later atom contributing its one term 1 ⊗ y.  So Phi(b) is the sum of
    c·kappa(l)·Phi(r|y|...|z), with the later atoms appended as they are:
    Phi reads an atom only through the left half of its coproduct, whose
    legs are standardized.  Phi holds ``ev``, so ``ev`` reaches Phi through
    a weak reference: no cycle keeps Phi and its value cache alive."""
    _require_infinitesimal(kappa)

    def ev(b: BarWord) -> Coefficient:
        return _pair(kappa, phi_ref(), delta_bar(b[:1], "left+"), b[1:])

    phi = Character(kappa.algebra, kappa.truncation, ev,
                    unit_value=ONE, name=f"fix({kappa.name})")
    phi_ref = weakref.ref(phi)
    return phi


def exp_prec(kappa: InfinitesimalCharacter) -> Character:
    """The half-shuffle exponential: the truncated sum of iterated left
    half-shuffle powers kappa^{≺n}.  Agrees with the fixed point exactly."""
    _require_infinitesimal(kappa)
    e = augmentation(kappa.algebra, kappa.truncation)
    powers: list[LinearFunctional] = [e]

    def power(k: int) -> LinearFunctional:
        while len(powers) <= k:
            powers.append(half_convolve(kappa, powers[-1], "left"))
        return powers[k]

    def ev(b: BarWord) -> Coefficient:
        return sum([power(k)(b) for k in range(1, barword_degree(b) + 1)],
                   ZERO)

    return Character(kappa.algebra, kappa.truncation, ev,
                     unit_value=ONE, name=f"exp≺({kappa.name})")


def extract_infinitesimal(phi: LinearFunctional) -> InfinitesimalCharacter:
    """Invert Phi = e + kappa ≺ Phi for kappa: on a single atom, kappa(w)
    = Phi(w) - the pairing of kappa and Phi against the left half of w's
    coproduct without its term w ⊗ 1, all of strictly lower degree.  That
    term is kappa(w)·Phi(1), so a Phi(1) other than 1 raises ``ValueError``
    before any work.  kappa holds ``atom_value``, which reaches kappa
    through a weak reference, so no cycle keeps kappa alive."""
    if phi.unit_value != 1:
        raise ValueError(f"extraction needs Phi(1) = 1, not {phi.unit_value}")
    phi_values = phi._cache

    def atom_value(atom) -> Coefficient:
        b: BarWord = (atom,)
        value = phi_values[b] if b in phi_values else phi(b)
        # the half without kappa(w)·Phi(1), the term solved for: a copy, so
        # the cached half stays whole and kappa caches no guess for w.  An
        # atom off its standard carrier has no such term, and gets 0
        terms = dict(delta_bar(b, "left+"))
        terms.pop((b, UNIT), None)
        return value - _pair(kappa_ref(), phi, terms)

    kappa = InfinitesimalCharacter.from_atoms(
        phi.algebra, phi.truncation, atom_value, name=f"log≺({phi.name})")
    kappa_ref = weakref.ref(kappa)
    return kappa


def _require_infinitesimal(kappa: LinearFunctional):
    if not isinstance(kappa, InfinitesimalCharacter):
        raise ValueError(f"expected an InfinitesimalCharacter, not "
                         f"{type(kappa).__name__}")


# ---------------------------------------------------------------------------
# standard section, pullback


def standard_section(kappa_on_words, algebra: Algebra,
                     truncation: int) -> InfinitesimalCharacter:
    """Lift a word functional to decorated partitions supported on one-block
    shapes only: sd(kappa)(L ⊗ w) = kappa(w) if L = 1̂, else 0."""
    if algebra.kind != NC:
        raise AlgebraMismatchError("standard_section targets the NC algebra")

    def atom_value(atom) -> Coefficient:
        blocks, word = atom
        if len(blocks) == 1:
            if word is None:
                word = (algebra.alphabet[0],) * len(blocks[0])
            return kappa_on_words(word)
        return ZERO

    return InfinitesimalCharacter.from_atoms(
        algebra, truncation, atom_value, name="sd(κ)")


def pullback_sp(psi: LinearFunctional) -> LinearFunctional:
    """Sp*(psi) = psi ∘ Sp, a functional on the double tensor algebra over
    the same alphabet.  Characters map to characters and infinitesimal
    characters to infinitesimal characters."""
    if psi.algebra.kind != NC:
        raise AlgebraMismatchError("pullback_sp expects a functional on NC")
    words_algebra = Algebra(WORDS, psi.algebra.alphabet)

    def ev(b: BarWord) -> Coefficient:
        return psi.on_lincomb(sp(b))

    cls = LinearFunctional
    if isinstance(psi, Character):
        cls = Character
    elif isinstance(psi, InfinitesimalCharacter):
        cls = InfinitesimalCharacter
    return cls(words_algebra, psi.truncation, ev,
               unit_value=psi.unit_value, name=f"Sp*({psi.name})")


# ---------------------------------------------------------------------------
# diagnostics


class CheckReport(Record):
    """The outcome of a check: whether it held, how many cases it examined
    and the violations it found."""

    _fields = ("ok", "checked", "violations")

    def __init__(self, ok: bool, checked: int, violations: list):
        self.ok = ok
        self.checked = checked
        self.violations = violations

    def __bool__(self):
        return self.ok


# the most basis elements (or pairs) a check examines: a deterministic
# prefix, which keeps large alphabets tractable
CHECK_LIMIT = 20000


def check_character(f: LinearFunctional) -> CheckReport:
    """Verify f(1) = 1 and f(a|b) = f(a) f(b) on the first ``CHECK_LIMIT``
    basis pairs within the truncation."""
    n, barwords = f.truncation, cache(f.algebra.barwords)  # once per degree
    pairs = islice(((a, b) for da in range(1, n)
                    for db in range(1, n - da + 1)
                    for a in barwords(da) for b in barwords(db)), CHECK_LIMIT)
    violations = [("unit", f.unit_value)] if f.unit_value != 1 else []
    checked = 0
    for checked, (a, b) in enumerate(pairs, 1):
        if f(a + b) != f(a) * f(b):
            violations.append((barword_text(a), barword_text(b)))
    return CheckReport(not violations, checked, violations)


# ---------------------------------------------------------------------------
# deterministic pseudo-random functionals (test and verify plumbing)


def random_functional(algebra: Algebra, truncation: int,
                      seed: int) -> LinearFunctional:
    """A dense functional with reproducible pseudo-random integer values,
    vanishing at the unit (an element of the non-unital dual).  Each value
    is 60 times a rational num/den with |num| <= 20 and den <= 6, so it
    stays an ``int``; the identities checked on these functionals are
    multilinear in them, or hold for every one, so the scale changes no
    check."""
    import hashlib  # loads OpenSSL: only the callers of this function pay

    def ev(b: BarWord) -> Coefficient:
        digest = hashlib.sha256(
            f"{seed}:{barword_text(b)}".encode()).digest()
        num = int.from_bytes(digest[:4], "big") % 41 - 20
        den = digest[4] % 6 + 1
        return num * (60 // den)

    return LinearFunctional(algebra, truncation, ev,
                            unit_value=ZERO, name=f"rand{seed}")


def random_infinitesimal(algebra: Algebra, truncation: int,
                         seed: int) -> InfinitesimalCharacter:
    base = random_functional(algebra, truncation, seed)
    return InfinitesimalCharacter.from_atoms(
        algebra, truncation, lambda atom: base((atom,)),
        name=f"randκ{seed}")
