"""The two unshuffle bialgebras and the splitting map between them.

Basis elements are bar words: tuples of atoms, where an atom is either a
word, the plain tuple of its letters (double tensor algebra), or a
:class:`DecoratedNC` (tensor algebra over decorated non-crossing
partitions).  The empty tuple is the unit.  A bar word never contains a
unit part, so normalization of ``w|1|w'`` to ``w|w'`` is structural.

Formal linear combinations are plain dicts from a hashable key to a non-zero
exact coefficient.  Structural coefficients (coproducts, ``sp``) are plain
``int`` counts; they mix exactly with ``Fraction`` and ``Poly`` values in
pairings.  Coproduct outputs are keyed by (left, right) pairs of bar
words; on generators the left leg always has at most one atom.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Union

from .coefficients import Coefficient, coeff_str
from .errors import AlgebraMismatchError, ParseError, SizeLimitError
from .partitions import (
    NonCrossingPartition,
    Value,
    _gathers,
    _set,
    enumerate_nc_partitions,
    parse_partition,
    split_table,
)
from . import config


def Word(letters) -> tuple[str, ...]:
    """A non-empty word over a declared alphabet of letter names: the plain
    tuple of its letters.  The cyclic collector untracks a tuple of strings,
    and with it every coproduct key, leg and run tuple built of words."""
    word = tuple(letters)
    if not word:
        raise ValueError("the empty word is represented by the unit only")
    return word


class DecoratedNC(Value):
    """A non-crossing partition of [n] decorated by a word of length n.

    ``word=None`` is the undecorated algebra (equivalently, a one-letter
    alphabet with the decoration suppressed).  The hash is computed once,
    at construction, from the shape and the word.
    """

    __slots__ = ("shape", "word", "_hash")
    _fields = ("shape", "word")

    def __init__(self, shape: NonCrossingPartition,
                 word: tuple[str, ...] | None = None):
        if word is not None and len(word) != shape.size:
            raise ValueError("decoration length differs from carrier size")
        _set(self, "shape", shape)
        _set(self, "word", word)
        _set(self, "_hash", hash((shape, word)))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.shape == other.shape and self.word == other.word

    def __hash__(self):
        return self._hash

    @property
    def degree(self) -> int:
        return self.shape.size

    def text(self) -> str:
        if self.word is None:
            return self.shape.text()
        return f"{self.shape.text()}:{'.'.join(self.word)}"

    def __str__(self):
        return self.text()


Atom = Union[tuple, DecoratedNC]  # a word is tuple[str, ...]
BarWord = tuple  # tuple[Atom, ...]; the empty tuple is the unit
LinComb = dict   # key -> Coefficient, no zero values stored

UNIT: BarWord = ()


def _atom_degree(a: Atom) -> int:
    return len(a) if type(a) is tuple else a.degree


def _atom_text(a: Atom) -> str:
    return ".".join(a) if type(a) is tuple else a.text()


def barword_degree(b: BarWord) -> int:
    return sum(map(_atom_degree, b))


def barword_text(b: BarWord) -> str:
    return "|".join(map(_atom_text, b)) if b else "1"


def _check_homogeneous(b: BarWord):
    kinds = {type(a) for a in b}
    if len(kinds) > 1:
        raise AlgebraMismatchError(f"mixed atom kinds in bar word: {b}")
    if not kinds <= {tuple, DecoratedNC} or not all(
            a and all(type(x) is str for x in a)
            for a in b if type(a) is tuple):
        raise AlgebraMismatchError(f"not a bar word of atoms: {b!r}")


def add_into(acc: LinComb, key, coeff: Coefficient) -> None:
    """acc[key] += coeff, dropping the entry if it cancels."""
    new = acc.get(key, 0) + coeff
    if new:
        acc[key] = new
    elif key in acc:
        del acc[key]


def lincomb_sum(*combs: LinComb) -> LinComb:
    """The sum of linear combinations, dropping every entry that cancels.
    A LinComb stores no zero, so the first one is copied as it is."""
    if not combs:
        return {}
    out = dict(combs[0])
    get = out.get
    for lc in combs[1:]:
        for k, v in lc.items():
            new = get(k, 0) + v
            if new:
                out[k] = new
            elif k in out:
                del out[k]
    return out


# ---------------------------------------------------------------------------
# generator coproducts


def _halves(splits, atoms: list) -> tuple[LinComb, LinComb]:
    """The (left, right) halves of a generator's coproduct: one term per
    split of ``splits``, as ``partitions.split_table`` lists them, with
    ``atoms[i]`` the atom of part i.  Equal atoms are one object, with one
    left leg."""
    shared: dict[Atom, BarWord] = {}
    legs = [shared.setdefault(atom, (atom,)) for atom in atoms]
    atoms = [leg[0] for leg in legs]
    left: LinComb = {}
    right: LinComb = {}
    for in_q, q, comps in splits:
        half = left if in_q else right
        key = (legs[q] if q is not None else UNIT,
               tuple([atoms[i] for i in comps]))
        half[key] = half.get(key, 0) + 1
    return left, right


def _word_halves(w: tuple[str, ...]) -> tuple[LinComb, LinComb]:
    n = len(w)
    parts, splits = split_table(NonCrossingPartition._unchecked(
        tuple([(x,) for x in range(1, n + 1)]), n))
    return _halves(splits, [gather(w) for gather in _gathers(
        [ranks for _, _, ranks in parts])])


# coassociativity 7 and a 60 s hopf run read words of at most 6 letters
# again across requests, up to all 1,092 over three letters, 64 terms or
# fewer each
SHORT_WORD = 6
SHORT_WORD_HALVES_BOUND = 2048
# hopf reads a longer word again within its own request; sp-morphism 7 and
# unshuffle 8 read some again only after more than 64 others.  A word of 9
# letters holds 512 terms
LONG_WORD_HALVES_BOUND = 16


@lru_cache(maxsize=SHORT_WORD_HALVES_BOUND)
def _short_word_halves(w: tuple[str, ...]) -> tuple[LinComb, LinComb]:
    return _word_halves(w)


@lru_cache(maxsize=LONG_WORD_HALVES_BOUND)
def _long_word_halves(w: tuple[str, ...]) -> tuple[LinComb, LinComb]:
    return _word_halves(w)


def delta_word_halves(w: tuple[str, ...]) -> tuple[LinComb, LinComb]:
    """(left, right) splitting of delta_word by whether position 1 lies in
    the kept subset S.  left + right == delta_word(w).

    A word of length n splits as the singleton partition 0̂ₙ: every subset
    is admissible and the components are the runs between kept positions.
    So the terms are those of 0̂ₙ's ``split_table``, each part's atom the
    letters of w gathered at the part's ranks.  The cached dicts are shared
    by every caller: read them, never change them.

    A word's entry holds 2ⁿ terms, so short and long words are cached
    apart: the short ones are read again across requests, the long ones
    only within one."""
    if len(w) <= SHORT_WORD:
        return _short_word_halves(w)
    return _long_word_halves(w)


def delta_word(w: tuple[str, ...]) -> LinComb:
    """Full coproduct of a word: sum over subsets S of letter positions of
    a_S tensor the bar word of connected components of the complement,
    taken as the sum of the two halves."""
    return lincomb_sum(*delta_word_halves(w))


# verify sp-morphism at its ceiling reads 64,978 decorated atoms
NC_HALVES_BOUND = 65536


@lru_cache(maxsize=NC_HALVES_BOUND)
def delta_nc_halves(x: DecoratedNC) -> tuple[LinComb, LinComb]:
    """(left, right) splitting of delta_nc by whether the first carrier
    element lies in a Q-block (left) or a complement block (right).

    One term per admissible split of the shape's ``split_table``, all parts
    standardized; each part's atom is its shape, decorated by the letters
    of ``x`` gathered at the ranks of the part's carrier.  The cached dicts
    are shared by every caller: read them, never change them."""
    parts, splits = split_table(x.shape)
    word = x.word
    if word is None:
        atoms = [DecoratedNC(shape) for _, shape, _ in parts]
    else:
        atoms = [DecoratedNC(shape, gather(word)) for (_, shape, _), gather
                 in zip(parts, _gathers([ranks for _, _, ranks in parts]))]
    return _halves(splits, atoms)


def delta_nc(x: DecoratedNC) -> LinComb:
    """Full coproduct of a (decorated) non-crossing partition: sum over
    admissible splits, all parts standardized, decorations restricted,
    taken as the sum of the two halves."""
    return lincomb_sum(*delta_nc_halves(x))


def tensor_product(a: LinComb, b: LinComb) -> LinComb:
    """Product of two tensors of bar words: bar-concatenate leg-wise."""
    out: LinComb = {}
    for (l1, r1), c1 in a.items():
        for (l2, r2), c2 in b.items():
            add_into(out, (l1 + l2, r1 + r2), c1 * c2)
    return out


# verify unshuffle at its ceiling reads 36,478 bar words and recomputes
# 1,538 of them at this bound (18,083 at 4,096)
BAR_BOUND = 16384


@lru_cache(maxsize=BAR_BOUND)
def delta_bar(b: BarWord, variant: str = "full") -> LinComb:
    """Coproduct of a bar word, extended multiplicatively from generators.

    Variants:
      ``full``    -- product of full coproducts of all atoms
      ``left+``   -- half coproduct on the first atom, full on the rest
      ``right+``  -- likewise with the right half
      ``left``    -- ``left+`` minus b (x) 1       (reduced left half)
      ``right``   -- ``right+`` minus 1 (x) b      (reduced right half)
      ``reduced`` -- ``full`` minus both group-like terms
    """
    _check_homogeneous(b)
    if variant in ("left", "right", "reduced"):
        if variant == "left":
            out = dict(delta_bar(b, "left+"))
            add_into(out, (b, UNIT), -1)
        elif variant == "right":
            out = dict(delta_bar(b, "right+"))
            add_into(out, (UNIT, b), -1)
        else:
            out = dict(delta_bar(b, "full"))
            add_into(out, (b, UNIT), -1)
            add_into(out, (UNIT, b), -1)
        return out
    if not b:
        return {(UNIT, UNIT): 1}
    first = b[0]
    if variant == "full":
        result = _delta_atom(first)
    elif variant not in ("left+", "right+"):
        raise ValueError(f"unknown variant: {variant!r}")
    else:
        halves = (delta_word_halves(first) if type(first) is tuple
                  else delta_nc_halves(first))
        result = halves[0 if variant == "left+" else 1]
    for atom in b[1:]:
        result = tensor_product(result, _delta_atom(atom))
    return result


def _delta_atom(atom: Atom) -> LinComb:
    return delta_word(atom) if type(atom) is tuple else delta_nc(atom)


# ---------------------------------------------------------------------------
# splitting map


def sp(b: BarWord) -> LinComb:
    """The splitting map: each word atom of length n is replaced by the sum
    over NC_n of that partition decorating the word; bar structure kept."""
    result: LinComb = {UNIT: 1}
    cap = config.nc_cap()
    for atom in b:
        if type(atom) is not tuple or not atom:
            raise AlgebraMismatchError("sp expects a bar word over words")
        n = len(atom)
        if n > cap:
            raise SizeLimitError(f"word length {n} exceeds NC cap {cap}")
        summand: LinComb = {}
        for shape in enumerate_nc_partitions(n):
            add_into(summand, (DecoratedNC(shape, atom),), 1)
        result = {k1 + k2: c1 * c2
                  for k1, c1 in result.items() for k2, c2 in summand.items()}
    return result


# ---------------------------------------------------------------------------
# encodings


def lincomb_text(t: LinComb, key_text) -> str:
    """Terms of ``t`` as ``coeff·key`` (a coefficient of 1 left out), in
    the order of their key texts, joined by ' + '; ``0`` when empty."""
    parts = []
    for key in sorted(t, key=key_text):
        c = t[key]
        body = key_text(key)
        parts.append(body if c == 1 else f"{coeff_str(c)}·{body}")
    return " + ".join(parts) if parts else "0"


def _tensor_key_text(key) -> str:
    # a pair's first element is the unit () or a tuple of atoms; a bar
    # word's first element is an atom: a tuple of letters or a DecoratedNC
    first = key[0] if key else None
    if type(first) is tuple and (not first or type(first[0]) is not str):
        return " ⊗ ".join(barword_text(leg) for leg in key)
    return barword_text(key)


def tensor_text(t: LinComb) -> str:
    """Canonical text of a linear combination over bar words or over pairs
    of bar words."""
    return lincomb_text(t, _tensor_key_text)


# the separators of the text grammar, blanks included: a letter holding
# one would print as a different term (``a|b`` as a bar word of two atoms)
_SEPARATOR = re.compile(r"[\s.|:{}()⊗·]")


def is_letter(name: str) -> bool:
    """Whether ``name`` reads as one letter: non-empty, with no blank and
    none of ``. | : { } ( ) ⊗ ·``."""
    return bool(name) and not _SEPARATOR.search(name)


def parse_word(text: str) -> tuple[str, ...]:
    """Parse the ``a.b.c`` text encoding: letters joined by dots, each of
    them a letter by ``is_letter``."""
    body = text.strip()
    if not body:
        raise ParseError(f"empty word: {text!r}")
    letters = tuple(body.split("."))
    if not all(letters):
        raise ParseError(f"empty letter in word {text!r}")
    for letter in letters:
        if not is_letter(letter):
            raise ParseError(f"letter {letter!r} in word {text!r} holds a "
                             f"separator")
    return Word(letters)


def parse_atom(text: str) -> Atom:
    """Parse a word, a partition, or a decorated partition atom."""
    body = text.strip()
    if not body.startswith("{"):
        return parse_word(body)
    shape_part, colon, word_part = body.partition(":")
    shape = parse_partition(shape_part)
    if not colon:
        return DecoratedNC(shape)
    word = parse_word(word_part)
    if len(word) != shape.size:
        raise ParseError(f"decoration {'.'.join(word)!r} has {len(word)} "
                         f"letters for {shape.size} elements in {text!r}")
    return DecoratedNC(shape, word)
