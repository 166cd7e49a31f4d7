"""The two unshuffle bialgebras and the splitting map between them.

Basis elements are bar words: tuples of atoms, where an atom is either a
word, the plain tuple of its letters (double tensor algebra), or a
decorated non-crossing partition, the plain tuple ``(blocks, word)`` of
its shape's canonical blocks and a letter tuple or ``None`` (tensor
algebra over decorated non-crossing partitions).  A word starts with a
letter and a decorated atom with its blocks, so ``type(a[0]) is str``
tells the two kinds apart.  The empty tuple is the unit.  A bar word never
contains a unit part, so normalization of ``w|1|w'`` to ``w|w'`` is
structural.  Every atom, leg and key is a tuple of tuples, ints and
strings, which hashes and compares in C and which the cyclic collector
untracks.

Formal linear combinations are plain dicts from a hashable key to a non-zero
exact coefficient.  Structural coefficients (coproducts, ``sp``) are plain
``int`` counts; they mix exactly with ``Fraction`` and ``Poly`` values in
pairings.  Coproduct outputs are keyed by (left, right) pairs of bar
words; on generators the left leg always has at most one atom.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import lru_cache

from .coefficients import Coefficient, coeff_str
from .errors import AlgebraMismatchError, ParseError
from .partitions import (
    NonCrossingPartition,
    _blocks_noncrossing,
    _blocks_text,
    _canonical_size,
    _nc_shapes,
    check_enumeration_size,
    split_table,
)


def _letters(letters) -> tuple[str, ...]:
    """``letters`` as a tuple, each of them a ``str`` that is a letter by
    ``is_letter``; raise ValueError otherwise."""
    word = tuple(letters)
    if word and not _is_word(word):
        raise ValueError(f"not a tuple of letters: {word!r}")
    return word


def Word(letters) -> tuple[str, ...]:
    """A non-empty word over a declared alphabet of letter names: the plain
    tuple of its letters.  The cyclic collector untracks a tuple of strings,
    and with it every coproduct key, leg and run tuple built of words."""
    word = _letters(letters)
    if not word:
        raise ValueError("the empty word is represented by the unit only")
    return word


def DecoratedNC(shape: NonCrossingPartition, word=None) -> tuple:
    """A non-crossing partition of n elements decorated by a word of length
    n: the plain tuple ``(shape.blocks, word)``.

    ``word=None`` is the undecorated algebra (equivalently, a one-letter
    alphabet with the decoration suppressed).  The shape has a block, as a
    word has a letter: the empty atom is the unit."""
    if not shape.blocks:
        raise ValueError("the empty shape is represented by the unit only")
    if word is not None:
        word = _letters(word)
        if len(word) != shape.size:
            raise ValueError("decoration length differs from carrier size")
    return (shape.blocks, word)


Atom = tuple  # a word tuple[str, ...], or (blocks, word | None)
BarWord = tuple  # tuple[Atom, ...]; the empty tuple is the unit
LinComb = dict   # key -> Coefficient, no zero values stored

UNIT: BarWord = ()


def _atom_degree(a: Atom) -> int:
    return len(a) if type(a[0]) is str else sum(map(len, a[0]))


def _atom_text(a: Atom) -> str:
    if type(a[0]) is str:
        return ".".join(a)
    blocks, word = a
    if word is None:
        return _blocks_text(blocks)
    return f"{_blocks_text(blocks)}:{'.'.join(word)}"


def _is_atom(x: tuple) -> bool:
    """Whether the non-empty tuple ``x`` is an atom, not a bar word or a
    pair of legs.  A word starts with a letter, and a decorated atom with
    its blocks, whose first block starts with an int.  A bar word starts
    with an atom, which starts with a letter or with blocks, and a pair
    with a leg, the unit () or a bar word."""
    head = x[0]
    return type(head) is str or bool(head) and type(head[0][0]) is int


def barword_degree(b: BarWord) -> int:
    return sum(map(_atom_degree, b))


def barword_text(b: BarWord) -> str:
    return "|".join(map(_atom_text, b)) if b else "1"


def _is_word(a) -> bool:
    """Whether ``a`` is a non-empty tuple of letters by ``is_letter``."""
    return (type(a) is tuple and bool(a)
            and all([type(x) is str and x for x in a])
            and not _SEPARATOR.search("".join(a)))


def _is_decorated(a) -> bool:
    """Whether ``a`` is a decorated atom: the canonical blocks of a non-empty
    ``NonCrossingPartition``, and None or a word of their size."""
    if (type(a) is not tuple or len(a) != 2 or type(a[0]) is not tuple
            or not all([type(block) is tuple for block in a[0]])
            or not all([type(x) is int for block in a[0] for x in block])):
        return False
    blocks, word = a
    try:
        size = _canonical_size(blocks)
    except ValueError:
        return False
    return (size > 0 and _blocks_noncrossing(blocks)
            and (word is None or _is_word(word) and len(word) == size))


def _check_atom(a, word: bool) -> None:
    """Raise AlgebraMismatchError unless ``a`` is an atom of the kind asked
    for: a word if ``word``, else a decorated atom."""
    if not (_is_word(a) if word else _is_decorated(a)):
        raise AlgebraMismatchError(f"not a bar word of atoms: {(a,)!r}")


def _check_kinds(b: BarWord):
    """Raise AlgebraMismatchError unless ``b`` is a tuple of non-empty
    tuples of one kind: all start with a letter, or all with blocks."""
    if not all([type(a) is tuple and a for a in b]):
        raise AlgebraMismatchError(f"not a bar word of atoms: {b!r}")
    if len({type(a[0]) is str for a in b}) > 1:
        raise AlgebraMismatchError(f"mixed atom kinds in bar word: {b}")


def add_into(acc: LinComb, key, coeff: Coefficient) -> None:
    """acc[key] += coeff, dropping the entry if it cancels."""
    new = acc.get(key, 0) + coeff
    if new:
        acc[key] = new
    elif key in acc:
        del acc[key]


def lincomb_sum(*combs: LinComb) -> LinComb:
    """The sum of linear combinations, dropping every entry that cancels.
    A LinComb stores no zero, so the first one is copied as it is.  Each
    later one is merged in C, and only the keys both hold are added in
    Python."""
    if not combs:
        return {}
    out = dict(combs[0])
    for lc in combs[1:]:
        shared = [(k, out[k] + lc[k]) for k in out.keys() & lc.keys()]
        out.update(lc)
        for k, new in shared:
            if new:
                out[k] = new
            else:
                del out[k]
    return out


# ---------------------------------------------------------------------------
# generator coproducts


def _halves(halves, atoms: list) -> tuple[LinComb, LinComb]:
    """The (left, right) halves of a generator's coproduct: one term per
    split of ``halves``, as ``partitions.split_table`` lists them, with
    ``atoms[i]`` the atom of part i.  Equal atoms are one object, with one
    left leg.  Each key is a leg and a slice of one gather's pick of the
    atoms, and each half counts its keys in C."""
    shared: dict[Atom, BarWord] = {}
    legs = [shared.setdefault(atom, (atom,)) for atom in atoms]
    atoms = tuple([leg[0] for leg in legs])
    legs.append(UNIT)  # the leg of part -1, the empty Q
    out = []
    for qs, comps, ends in halves:
        picked = comps(atoms)
        keys = [(legs[q], picked[start:end])
                for q, start, end in zip(qs, ends, ends[1:])]
        out.append(dict(Counter(keys)))
    return tuple(out)


def _word_halves(w: tuple[str, ...]) -> tuple[LinComb, LinComb]:
    _check_atom(w, True)
    _, ranks, bounds, halves = split_table(
        tuple([(x,) for x in range(1, len(w) + 1)]))
    letters = ranks(w)
    return _halves(halves, [letters[start:end]
                            for start, end in zip(bounds, bounds[1:])])


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


# sp-morphism 7 reads one word's Sp atoms again, at most Cat(7) = 429, and
# 64,978 in all; keyrell 10 reads 33,604 (34,712 misses at this bound),
# tree-consistency 9 6,917, unshuffle 8 2,055 and a 15 s hopf run 1,553
NC_HALVES_BOUND = 4096


@lru_cache(maxsize=NC_HALVES_BOUND)
def delta_nc_halves(x: Atom) -> tuple[LinComb, LinComb]:
    """(left, right) splitting of delta_nc by whether the first carrier
    element lies in a Q-block (left) or a complement block (right).

    One term per admissible split of the shape's ``split_table``, all parts
    standardized; each part's atom is its shape, decorated by the letters
    of ``x`` gathered at the ranks of the part's carrier.  The cached dicts
    are shared by every caller: read them, never change them."""
    _check_atom(x, False)
    blocks, word = x
    shapes, ranks, bounds, halves = split_table(blocks)
    if word is None:
        atoms = [(shape, None) for shape in shapes]
    else:
        letters = ranks(word)
        atoms = [(shape, letters[start:end])
                 for shape, start, end in zip(shapes, bounds, bounds[1:])]
    return _halves(halves, atoms)


def delta_nc(x: Atom) -> LinComb:
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


def _atom_halves(atom: Atom) -> tuple[LinComb, LinComb]:
    """The cached halves of an atom's coproduct.  The miss of each halves
    cache checks the atom against the one kind it serves."""
    if type(atom) is tuple and atom and type(atom[0]) is str:
        return delta_word_halves(atom)
    return delta_nc_halves(atom)


def delta_bar(b: BarWord, variant: str = "full") -> LinComb:
    """Coproduct of a bar word, extended multiplicatively from generators.

    Variants:
      ``full``    -- product of full coproducts of all atoms
      ``left+``   -- half coproduct on the first atom, full on the rest
      ``right+``  -- likewise with the right half

    A one-atom ``left+`` or ``right+`` is the dict cached by
    ``delta_word_halves`` or ``delta_nc_halves``, any other result one
    cached by ``_bar_coproduct``: read it, never change it.  An atom is
    checked once, against its kind, on the miss of its generator cache."""
    if variant not in ("full", "left+", "right+"):
        raise ValueError(f"unknown variant: {variant!r}")
    if len(b) == 1 and variant != "full":
        return _atom_halves(b[0])[variant == "right+"]
    return _bar_coproduct(b, variant)


# products and one-atom full sums: unshuffle 8 reads 17,746 and recomputes
# 85 at this bound, peaking at 121 MB (152 MB at 16,384); coassociativity
# 7 reads 10,904, character-bijection 12 4,524, a 60 s hopf run 4,401
BAR_BOUND = 8192


@lru_cache(maxsize=BAR_BOUND)
def _bar_coproduct(b: BarWord, variant: str) -> LinComb:
    """The ``delta_bar`` results that no generator cache holds: the first
    atom's factor times the full coproduct of each later atom."""
    _check_kinds(b)
    if not b:
        return {(UNIT, UNIT): 1}
    halves = _atom_halves(b[0])
    result = (lincomb_sum(*halves) if variant == "full"
              else halves[variant == "right+"])
    for atom in b[1:]:
        result = tensor_product(result, lincomb_sum(*_atom_halves(atom)))
    return result


# ---------------------------------------------------------------------------
# splitting map


def sp(b: BarWord) -> LinComb:
    """The splitting map: each word atom of length n is replaced by the sum
    over NC_n of that partition decorating the word; bar structure kept."""
    result: LinComb = {UNIT: 1}
    for atom in b:
        if not _is_word(atom):
            raise AlgebraMismatchError("sp expects a bar word over words")
        check_enumeration_size("nc", len(atom))
        # the shapes are distinct
        summand = dict.fromkeys(
            [((shape, atom),) for shape in _nc_shapes(len(atom))], 1)
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
    # a bar word's first element is an atom; a pair's first element is a
    # leg, the unit () or a bar word
    if key and (not key[0] or not _is_atom(key[0])):
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
    return letters

