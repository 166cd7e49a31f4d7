"""Set partitions and non-crossing partitions: enumeration, lattice calculus,
standardization, and admissible splittings.

Canonical form everywhere: each block strictly increasing (no element
repeats), blocks ordered by their minimum element.  Carriers are finite sets
of positive integers; the carrier of a partition is always the union of its
blocks.

Text encoding (the golden-file format): blocks concatenated, each ``{a,b,c}``
with ascending members, e.g. ``{1,4}{2,3}``.  JSON: ``{"blocks": [[1,4],[2,3]]}``.
"""

from __future__ import annotations

import os
import re
from functools import lru_cache
from math import comb, factorial, prod
from operator import itemgetter

from .errors import (
    CarrierMismatchError,
    NcHopfError,
    OrderError,
    ParseError,
    SizeLimitError,
)

Block = tuple[int, ...]

_new = object.__new__
# sets a field of a Value, whose own __setattr__ refuses every assignment
_set = object.__setattr__


class Record:
    """A record of named fields, listed in ``_fields``.  Two records are
    equal when they are of the same class and their fields are equal.  A
    record prints as ``Qualname(field=..., ...)`` and pickles and copies
    through its constructor, so a record loaded in another process is
    validated again.  A record is mutable and unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}"
                            for name in self._fields])
        return f"{type(self).__qualname__}({fields})"


class Value(Record):
    """An immutable record, hashed by its fields: assigning to a field, or
    deleting one, raises AttributeError.  A constructor sets its fields
    through ``_set``."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _blocks_text(blocks: tuple[Block, ...]) -> str:
    """The text encoding of canonical blocks, ``{1,4}{2,3}``."""
    if not blocks:
        return ""
    return "{" + "}{".join([",".join(map(str, b)) for b in blocks]) + "}"


def _canonical_size(blocks: tuple[Block, ...]) -> int:
    """The number of carrier elements of blocks of ints in canonical form:
    non-empty, each strictly increasing from a positive element, ordered by
    their minima and pairwise disjoint.  Raise ValueError otherwise."""
    seen: set[int] = set()
    prev_min = 0
    for block in blocks:
        if not block:
            raise ValueError("empty block")
        members = set(block)
        # equal to the sorted members only if strictly increasing
        if list(block) != sorted(members):
            raise ValueError(f"block not strictly increasing: {block}")
        if block[0] < 1:
            raise ValueError("carrier elements must be positive")
        if block[0] <= prev_min:
            raise ValueError("blocks not ordered by minimum element")
        if not seen.isdisjoint(members):
            raise ValueError("blocks not disjoint")
        seen |= members
        prev_min = block[0]
    return len(seen)


class SetPartition(Value):
    """A partition of a finite set of positive integers, in canonical form,
    equal by its class and blocks and hashed by its blocks, as a ``Value``.
    ``size``, the number of carrier elements, is computed at construction."""

    __slots__ = ("blocks", "size")
    _fields = ("blocks",)

    def __init__(self, blocks: tuple[Block, ...]):
        _set(self, "size", _canonical_size(blocks))
        _set(self, "blocks", blocks)

    @classmethod
    def _unchecked(cls, blocks: tuple[Block, ...], size: int):
        """The partition with these blocks, which the library built in
        canonical form (and non-crossing, for that class) on ``size``
        elements, so none of the constructor's checks runs.  Inside the
        library a shape is its blocks; this wraps them where a caller gets
        a partition: the enumerations, and the legs that ``verify`` hands
        to the tree maps.  The tests hold every caller's output to the
        constructor."""
        self = _new(cls)
        _set(self, "blocks", blocks)
        _set(self, "size", size)
        return self

    @classmethod
    def of(cls, blocks) -> "SetPartition":
        """Build from any iterable of iterables, canonicalizing first."""
        cleaned = [tuple(sorted(b)) for b in blocks]
        if any(not b for b in cleaned):
            raise ValueError("empty block")
        return cls(tuple(sorted(cleaned, key=lambda b: b[0])))

    @property
    def carrier(self) -> tuple[int, ...]:
        return tuple(sorted(x for block in self.blocks for x in block))

    def text(self) -> str:
        return _blocks_text(self.blocks)

    def to_json(self) -> dict:
        return {"blocks": [list(b) for b in self.blocks]}

    def __str__(self):
        return self.text()


class NonCrossingPartition(SetPartition):
    """A set partition with no crossing quadruple p1 < q1 < p2 < q2,
    p1 ~ p2, q1 ~ q2, p1 !~ q1."""

    __slots__ = ()

    def __init__(self, blocks: tuple[Block, ...]):
        super().__init__(blocks)
        if not _blocks_noncrossing(blocks):
            raise ValueError(f"partition is crossing: {blocks}")


# ---------------------------------------------------------------------------
# crossing test and nesting


def _blocks_noncrossing(blocks: tuple[Block, ...]) -> bool:
    """Whether canonical blocks have no crossing pair, by one stack walk
    over the carrier: a block is pushed at its first element, must be on
    top at each later element, and is popped at its last.  A block under
    the top at one of its elements has the top block's first element
    between two of its own and the top block's last element beyond, which
    is a crossing; when every test passes, the blocks nest."""
    if len(blocks) < 2:
        return True
    owner = {x: block for block in blocks for x in block}
    stack: list[Block] = []
    for x in sorted(owner):
        block = owner[x]
        if x == block[0]:
            stack.append(block)
        elif stack[-1] is not block:
            return False
        if x == block[-1]:
            stack.pop()
    return True


def is_noncrossing(p: SetPartition) -> bool:
    """Whether a canonical set partition has no crossing pair of blocks."""
    return _blocks_noncrossing(p.blocks)


def _nested_inside(inner: Block, outer: Block) -> bool:
    # inner <_L outer: every element strictly between min and max of outer.
    return outer[0] < inner[0] and inner[-1] < outer[-1]


# ---------------------------------------------------------------------------
# enumeration


def _text_order(carrier: tuple[int, ...], noncrossing: bool):
    """Every partition of the sorted ``carrier``, or every non-crossing one,
    as canonical block tuples in the order of their text, with no sort.

    The text is chosen left to right.  A block opens at the smallest unused
    element x; then ``{x,`` continues it and ``{x}`` closes it, and ``,``
    sorts before ``}``.  Each later member c is written ``c,`` (continue) or
    ``c}`` (close).  These strings end in a separator, so none is a prefix
    of another, and trying them sorted as strings (``2,`` < ``20,`` <
    ``20}`` < ``2}``) tries the texts in order at any size.  In the
    non-crossing lattice a block's candidates stop at the first element
    above its last member that an earlier block holds: a member past it
    would cross that block."""
    n = len(carrier)
    # after[i]: each later position j twice, as (j, closes), in the order
    # of the strings str(carrier[j]) + "," and str(carrier[j]) + "}"
    after = [[(j, s == "}") for _, j, s in sorted(
        (str(carrier[j]) + s, j, s) for j in range(i + 1, n) for s in ",}")]
        for i in range(n)]
    # the walk's state is passed down, not closed over, so a finished walk
    # leaves no reference cycle for the collector
    return _grow((carrier, noncrossing, after, [False] * n, []), [], 0)


def _grow(walk, block: list[int], last: int):
    """Every way on from the open ``block``, whose last member is at
    position ``last``; an empty block opens at the first free position."""
    carrier, noncrossing, after, held, done = walk
    if block:
        stop = last + 1
        while stop < len(held) and not (noncrossing and held[stop]):
            stop += 1
        options = [(j, closes) for j, closes in after[last]
                   if j < stop and not held[j]]
    elif False in held:
        first = held.index(False)
        options = [(first, False), (first, True)]
    else:
        yield tuple(done)
        return
    for j, closes in options:
        held[j] = True
        block.append(carrier[j])
        if closes:
            done.append(tuple(block))
            yield from _grow(walk, [], 0)
            done.pop()
        else:
            yield from _grow(walk, block, j)
        block.pop()
        held[j] = False


def check_enumeration_size(lattice: str, n: int) -> None:
    """Raise SizeLimitError unless 1 <= n <= the enumeration cap of the
    chosen lattice ("set" or "nc"): 14 for "nc" and 12 for "set", or
    NCHOPF_MAX_N for both when it is set.  A value of it that is not an
    integer, or is below 1, is an error, not a default."""
    raw = os.environ.get("NCHOPF_MAX_N")
    if raw is None:
        cap = 14 if lattice == "nc" else 12
    else:
        try:
            cap = int(raw)
        except ValueError:
            raise NcHopfError(f"environment variable NCHOPF_MAX_N={raw!r} "
                              f"is not an integer") from None
        if cap < 1:
            raise NcHopfError(
                f"environment variable NCHOPF_MAX_N={raw!r} is below 1")
    if not (1 <= n <= cap):
        raise SizeLimitError(f"n={n} outside allowed range 1..{cap}")


def iter_partitions(lattice: str, n: int):
    """The partitions of [n] in the set ("set") or non-crossing ("nc")
    lattice, canonical, one at a time in text order.  The size cap is
    checked at the call, before the first one is made."""
    check_enumeration_size(lattice, n)
    cls = NonCrossingPartition if lattice == "nc" else SetPartition
    make = cls._unchecked
    return (make(blocks, n)
            for blocks in _text_order(tuple(range(1, n + 1)), lattice == "nc"))


def enumerate_set_partitions(n: int) -> list[SetPartition]:
    """All partitions of [n], canonical form, sorted by text encoding."""
    return list(iter_partitions("set", n))


@lru_cache(maxsize=None)
def _nc_shapes(n: int) -> tuple[tuple[Block, ...], ...]:
    """The canonical blocks of every non-crossing partition of [n], in text
    order.  A caller checks the size cap first."""
    return tuple(_text_order(tuple(range(1, n + 1)), True))


def enumerate_nc_partitions(n: int) -> list[NonCrossingPartition]:
    """All non-crossing partitions of [n], canonical form, sorted by text
    encoding."""
    check_enumeration_size("nc", n)
    make = NonCrossingPartition._unchecked
    return [make(blocks, n) for blocks in _nc_shapes(n)]


def full_partition(elements) -> NonCrossingPartition:
    """The one-block partition 1̂ of the given carrier."""
    return NonCrossingPartition.of([tuple(sorted(elements))])


# ---------------------------------------------------------------------------
# standardization


def standardize(p: SetPartition) -> SetPartition:
    """Relabel the carrier to [n] by the unique increasing bijection."""
    relabel = {x: i + 1 for i, x in enumerate(p.carrier)}
    # an increasing relabelling keeps the canonical block order
    return type(p)(tuple([tuple([relabel[x] for x in b]) for b in p.blocks]))


def _gather(positions: tuple[int, ...]):
    """The ``operator.itemgetter`` that restricts a sequence to the 0-based
    ``positions``, always as a tuple: ``itemgetter(*positions)`` for two
    positions or more, and the slice of the one position, or the empty
    slice, for fewer.  A caller builds a table's gathers once, before any
    decoration is read, so each restriction then runs in C."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(slice(0))


def _gathers(positions) -> list:
    """The ``_gather`` of each tuple of positions in ``positions``."""
    return [_gather(p) for p in positions]


# ---------------------------------------------------------------------------
# admissible splits


def _split_walk(blocks: tuple[Block, ...]):
    """Every admissible split Q ⊔ T of the canonical ``blocks`` (no Q-block
    nested inside a T-block), as (Q mask, Q block indices, T block indices
    on each component of the complement of Q's carrier, left to right).
    One pass over the carrier, on states (Q mask, Q indices, closed
    components, open component): at its first element a block joins Q when
    every block around it has, else it extends the open component; each
    element of a Q-block closes the open component.  No Q element lies
    inside a T-block, so only admissible splits are visited."""
    # around[i]: bitmask of the blocks that block i is nested inside
    around = [sum(1 << j for j, outer in enumerate(blocks)
                  if _nested_inside(b, outer)) for b in blocks]
    states = [(0, (), (), ())]
    for x, i in sorted((x, i) for i, b in enumerate(blocks) for x in b):
        bit = 1 << i
        if x != blocks[i][0]:
            states = [(mask, q, closed + (run,), ()) if mask & bit and run
                      else (mask, q, closed, run)
                      for mask, q, closed, run in states]
            continue
        outer, previous, states = around[i], states, []
        add = states.append
        for mask, q, closed, run in previous:
            add((mask, q, closed, run + (i,)))
            if not outer & ~mask:
                add((mask | bit, q + (i,),
                     closed + (run,) if run else closed, ()))
    return ((mask, q, closed + (run,) if run else closed)
            for mask, q, closed, run in states)


# one bound for both views of a shape: verify tree-consistency at its
# ceiling reads all 6,917 NC shapes with n <= 9; keyrell 10 reads 23,713
# and misses 29,200 times, no slower than unbounded and 76 MB smaller
SHAPE_BOUND = 8192


@lru_cache(maxsize=SHAPE_BOUND)
def split_table(blocks: tuple[Block, ...]) -> tuple:
    """The admissible splits Q ⊔ T of the non-crossing partition p with
    these canonical blocks (either part may be empty), read
    off ``_split_walk`` and compiled for the coproducts into flat columns,
    as (shapes, ranks, bounds, halves).

    Each distinct part i has its standardized shape ``shapes[i]``, as
    canonical blocks (equal shapes are one object), and the 0-based ranks
    of its carrier in p's carrier at ``bounds[i]:bounds[i + 1]`` of what
    ``ranks`` picks: ``ranks`` is one gather over the ranks of all parts,
    so applied to a decoration of p on any carrier it gives every part's
    letters at once.  ``halves`` holds the splits whose Q
    holds p's first carrier element (left), then the others (right), each
    by bitmask of the Q-blocks in canonical order, as (qs, comps, ends):
    split j has the Q part ``qs[j]`` (-1 when Q is empty) and, from a
    tuple with one atom per part, the atoms of T's parts on the connected
    components of the complement of Q's carrier, left to right, at
    ``comps(atoms)[ends[j]:ends[j + 1]]``.  The positions are kept only in
    the gathers: one applied to ``tuple(range(k))`` gives them back.  No
    row is a container of its own, so the collector tracks a fixed handful
    of objects per table, whatever its number of splits.  It is the one
    split table of both coproducts: a word of length n splits as the
    singleton partition 0̂ₙ, whose parts' ranks are the kept positions and
    the runs between them."""
    # the 0-based ranks of each block's members in p's carrier
    block_ranks: list[list[int]] = [[] for _ in blocks]
    for r, (_, i) in enumerate(sorted((x, i) for i, b in enumerate(blocks)
                                      for x in b)):
        block_ranks[i].append(r)
    index: dict[tuple[int, ...], int] = {}
    shapes: dict[tuple[Block, ...], tuple[Block, ...]] = {}
    parts: list[tuple[Block, ...]] = []
    ranks: list[int] = []
    bounds = [0]

    def part(ids: tuple[int, ...]) -> int:
        found = index.get(ids)
        if found is None:
            found = index[ids] = len(parts)
            mine = sorted([r for i in ids for r in block_ranks[i]])
            label = {r: j for j, r in enumerate(mine, start=1)}
            # blocks of p, relabelled by an increasing map: canonical
            # and non-crossing
            members = tuple([tuple([label[r] for r in block_ranks[i]])
                             for i in ids])
            parts.append(shapes.setdefault(members, members))
            ranks.extend(mine)
            bounds.append(len(ranks))
        return found

    qs: tuple[list, list] = ([], [])  # right, left
    comps: tuple[list, list] = ([], [])
    ends: tuple[list, list] = ([0], [0])
    # the masks are distinct, so the sort never compares further
    for mask, q, components in sorted(_split_walk(blocks)):
        side = mask & 1
        qs[side].append(part(q) if q else -1)
        comps[side].extend([part(c) for c in components])
        ends[side].append(len(comps[side]))
    return (tuple(parts), _gather(ranks), tuple(bounds),
            tuple([(tuple(qs[side]), _gather(comps[side]),
                    tuple(ends[side])) for side in (1, 0)]))


@lru_cache(maxsize=SHAPE_BOUND)
def admissible_splits(p: NonCrossingPartition) -> tuple:
    """Every admissible two-part block partition Q ⊔ T of p (either part may
    be empty) as a pair: the Q part, and T regrouped by connected component
    of the complement of Q's carrier, all on p's carrier.  Order: by bitmask
    of the Q-blocks in canonical order, as ``_split_walk`` lists them."""
    blocks = p.blocks

    def part(ids: tuple[int, ...]) -> NonCrossingPartition:
        # a walk lists a part's blocks in the order of their first member,
        # and sub-sequences of canonical blocks are canonical
        return NonCrossingPartition(tuple([blocks[i] for i in ids]))

    # the masks are distinct, so the sort never compares further
    return tuple([(part(q), tuple(map(part, components)))
                  for _, q, components in sorted(_split_walk(blocks))])


# ---------------------------------------------------------------------------
# Möbius calculus


def _kreweras_sizes(blocks: list[Block]) -> list[int]:
    """Block sizes of the Kreweras complement of the partition pi with these
    canonical blocks: the cycle lengths of pi^-1 ∘ gamma, each block a cycle
    of pi in increasing order and gamma the cyclic successor on the carrier."""
    carrier = sorted(x for b in blocks for x in b)
    gamma = dict(zip(carrier, carrier[1:] + carrier[:1]))
    pi_inv = {y: x for b in blocks for x, y in zip(b, b[1:] + b[:1])}
    sizes, seen = [], set()
    for x in carrier:
        size = 0
        while x not in seen:
            seen.add(x)
            x, size = pi_inv[gamma[x]], size + 1
        if size:
            sizes.append(size)
    return sizes


def moebius(lattice: str, lo: SetPartition, hi: SetPartition) -> int:
    """Möbius function of the interval [lo, hi] in the set-partition or
    non-crossing lattice, read off the blocks.

    [lo, hi] is the product over the blocks H of hi of [lo|_H, 1̂_H] (in the
    non-crossing lattice too: blocks merged inside different blocks of a
    non-crossing hi never cross).  The factor of H is (-1)^(k-1) (k-1)! in
    the set lattice, for k lo-blocks inside H.  In the non-crossing lattice
    [pi, 1̂_H] is [0̂_H, K(pi)] upside down, K the Kreweras complement: the
    factor is the product of (-1)^(|V|-1) Cat(|V|-1) over V in K(lo|_H)."""
    if lattice not in ("set", "nc"):
        raise ValueError(f"unknown lattice selector: {lattice!r}")
    if lo.carrier != hi.carrier:
        raise CarrierMismatchError("interval endpoints on different carriers")
    if lattice == "nc" and not (is_noncrossing(lo) and is_noncrossing(hi)):
        raise ValueError("nc lattice selected but an endpoint is crossing")
    owner = {x: i for i, block in enumerate(hi.blocks) for x in block}
    below: list[list[Block]] = [[] for _ in hi.blocks]
    for block in lo.blocks:
        if any(owner[x] != owner[block[0]] for x in block):
            raise OrderError(f"{lo} is not below {hi}")
        below[owner[block[0]]].append(block)
    value = 1
    for blocks in below:
        k = len(blocks)
        if lattice == "set":
            value *= (-1) ** (k - 1) * factorial(k - 1)
        else:  # signed Catalan numbers; each division is exact
            value *= prod((-1) ** (v - 1) * comb(2 * v - 2, v - 1) // v
                          for v in _kreweras_sizes(blocks))
    return value


def moebius_to_top(lattice: str, n: int) -> dict[tuple[Block, ...], int]:
    """mu(pi, 1̂_n) for every pi in the chosen lattice of [n], keyed by its
    blocks, from the defining recursion mu(1̂, 1̂) = 1 and mu(pi, 1̂) = -sum
    of mu(M, 1̂) over the proper coarsenings M of pi.  It searches every
    coarsening: the oracle for the closed forms of ``moebius`` and of the
    transforms' weights."""
    if lattice not in ("set", "nc"):
        raise ValueError(f"unknown lattice selector: {lattice!r}")
    memo: dict[tuple[Block, ...], int] = {}
    # coarser partitions first, so that every coarsening is in the memo
    for blocks in sorted(_text_order(tuple(range(1, n + 1)), lattice == "nc"),
                         key=len):
        k, total = len(blocks), 0
        for cells in _text_order(tuple(range(1, k + 1)), False):
            if len(cells) == k:
                continue  # pi itself
            # cells come ordered by their first index: merged is canonical
            merged = tuple([tuple(sorted(x for i in cell
                                         for x in blocks[i - 1]))
                            for cell in cells])
            if lattice == "set" or _blocks_noncrossing(merged):
                total += memo[merged]
        memo[blocks] = 1 if k == 1 else -total
    return memo


# ---------------------------------------------------------------------------
# parsing


# a block: integers separated by single commas, blanks allowed around them
_BLOCK_RE = re.compile(r"\{(\s*(?:[0-9]+\s*(?:,\s*[0-9]+\s*)*)?)\}")


def parse_partition(text: str, noncrossing: bool = True) -> SetPartition:
    """Parse the ``{1,4}{2,3}`` text encoding."""
    body = text.strip()
    pos = 0
    blocks = []
    while pos < len(body):
        m = _BLOCK_RE.match(body, pos)
        if not m:
            raise ParseError(f"malformed partition encoding: {text!r}")
        listed = m.group(1)
        if not listed.strip():
            raise ParseError(f"empty block in {text!r}")
        try:
            blocks.append([int(x) for x in listed.split(",")])
        except ValueError as exc:  # more digits than int() reads
            raise ParseError(f"element too long in {text!r}") from exc
        pos = m.end()
    if not blocks:
        raise ParseError(f"no blocks in {text!r}")
    cls = NonCrossingPartition if noncrossing else SetPartition
    try:
        return cls.of(blocks)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# independent count helpers, used for size guards and the CLI

def bell_number(n: int) -> int:
    """Bell numbers by the triangle recurrence."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def catalan_number(n: int) -> int:
    """Catalan numbers by the convolution recurrence."""
    cat = [1]
    for m in range(1, n + 1):
        cat.append(sum(cat[i] * cat[m - 1 - i] for i in range(m)))
    return cat[n]
